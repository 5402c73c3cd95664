#ifndef MBIAS_SIM_SHADOW_HH
#define MBIAS_SIM_SHADOW_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/bitutils.hh"
#include "base/types.hh"
#include "uarch/cache.hh"
#include "uarch/tlb.hh"

namespace mbias::sim
{

/**
 * Fast-tier twin of uarch::Cache's line touch with a packed slot
 * array: same geometry, same MRU-ordered hit/replacement decisions,
 * but one uint64 per way — (tag << 1) | valid — instead of parallel
 * vector<uint64> / vector<bool>, so the way scan and the MRU shift
 * are plain word moves.  Starting from the same (reset) state, every
 * access returns exactly what Cache::accessLine would, so the
 * counters derived from it are bitwise identical; only the reference
 * interpreter's own Cache instances accumulate internal hit/miss
 * statistics, which nothing outside the machine observes.
 *
 * reset() is O(1): each set carries the generation its slots were
 * last written in, and a set whose stamp is stale reads as empty — it
 * is zeroed on its first touch after the reset.  That is exactly a
 * zero fill of the whole array, paid per set actually used, so a
 * machine can keep one 512 KiB L2 shadow across runs instead of
 * allocating and faulting in a fresh one per run.
 */
struct ShadowCache
{
    unsigned shift;
    unsigned ways;
    std::uint64_t setMask;
    /** slots[set * ways + way] = (tag << 1) | 1, MRU-first; 0 empty. */
    std::vector<std::uint64_t> slots;
    /** stamps[set]: the generation slots[set * ways ...] belong to. */
    std::vector<std::uint32_t> stamps;
    /** The live generation; never 0, which marks never-touched sets. */
    std::uint32_t generation = 1;

    explicit ShadowCache(const uarch::CacheConfig &c)
        : shift(floorLog2(c.lineBytes)), ways(c.ways), setMask(c.sets - 1),
          slots(std::size_t(c.sets) * c.ways, 0), stamps(c.sets, 0)
    {
    }

    /** Empties every set (see the class comment). */
    void reset()
    {
        if (++generation == 0) {
            // Wrapped: stamps from 2^32 resets ago would read as live.
            std::fill(stamps.begin(), stamps.end(), 0);
            generation = 1;
        }
    }

    bool access(Addr addr)
    {
        const std::uint64_t tag = addr >> shift;
        const std::uint64_t key = (tag << 1) | 1;
        std::uint64_t *base = set(tag & setMask);
        for (unsigned w = 0; w < ways; ++w) {
            if (base[w] == key) {
                for (unsigned k = w; k > 0; --k)
                    base[k] = base[k - 1];
                base[0] = key;
                return true;
            }
        }
        for (unsigned k = ways - 1; k > 0; --k)
            base[k] = base[k - 1];
        base[0] = key;
        return false;
    }

    /** Twin of uarch::Cache::invalidateSet: clearing valid bits there
     *  is observationally identical to zeroing the packed slots here —
     *  a stale tag can never hit again, and invalid ways shift through
     *  the MRU order exactly like empty ones. */
    void invalidateSet(std::uint64_t set_index)
    {
        std::uint64_t *base = set(set_index & setMask);
        for (unsigned w = 0; w < ways; ++w)
            base[w] = 0;
    }

    std::uint64_t bytes() const
    {
        return slots.size() * sizeof(slots[0]) +
               stamps.size() * sizeof(stamps[0]);
    }

  private:
    /** The ways of set @p s, emptied first if the set is stale. */
    std::uint64_t *set(std::uint64_t s)
    {
        std::uint64_t *base = slots.data() + std::size_t(s) * ways;
        if (stamps[std::size_t(s)] != generation) {
            stamps[std::size_t(s)] = generation;
            std::fill(base, base + ways, 0);
        }
        return base;
    }
};

/**
 * Fast-tier twin of uarch::Tlb (fully associative, exact LRU) in O(1)
 * per touch.  uarch::Tlb keeps its entries MRU-first and shifts the
 * array on every access; here a hit is one probe of an open-addressing
 * table (VPN -> entry) plus an unlink/relink in a recency list, and a
 * miss recycles the list's tail once every entry is in use.  Both are
 * exact LRU over the same capacity, so from a reset state they return
 * the same hit/miss sequence for any VPN stream.
 */
class ShadowTlb
{
  public:
    explicit ShadowTlb(const uarch::TlbConfig &c)
        : entries_(c.entries), nodes_(c.entries)
    {
        unsigned bits = 1;
        while ((std::size_t(1) << bits) < 2 * std::size_t(c.entries))
            ++bits;
        shift_ = 64 - bits;
        table_.assign(std::size_t(1) << bits, kNone);
        mask_ = table_.size() - 1;
    }

    /** Empties the TLB: O(table), a few KiB at most. */
    void reset()
    {
        std::fill(table_.begin(), table_.end(), kNone);
        used_ = 0;
        head_ = tail_ = kNone;
    }

    /** Touches @p vpn; true on a hit. */
    bool touch(std::uint64_t vpn)
    {
        if (head_ != kNone && nodes_[head_].vpn == vpn)
            return true; // MRU again: the common case, no reordering
        std::size_t i = home(vpn);
        for (; table_[i] != kNone; i = (i + 1) & mask_) {
            const std::uint32_t e = table_[i];
            if (nodes_[e].vpn == vpn) {
                unlink(e);
                pushFront(e);
                return true;
            }
        }
        std::uint32_t e;
        if (used_ < entries_) {
            e = used_++;
        } else {
            e = tail_;
            unlink(e);
            erase(nodes_[e].vpn);
            // The backward shift may have moved the probe's free slot.
            i = home(vpn);
            while (table_[i] != kNone)
                i = (i + 1) & mask_;
        }
        nodes_[e].vpn = vpn;
        table_[i] = e;
        pushFront(e);
        return false;
    }

    /** Misses of an access spanning pages @p first_vpn..@p last_vpn. */
    unsigned accessVpns(std::uint64_t first_vpn, std::uint64_t last_vpn)
    {
        unsigned miss_count = 0;
        if (!touch(first_vpn))
            ++miss_count;
        if (last_vpn != first_vpn && !touch(last_vpn))
            ++miss_count;
        return miss_count;
    }

    std::uint64_t bytes() const
    {
        return table_.size() * sizeof(std::uint32_t) +
               nodes_.size() * sizeof(Node);
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);

    /** One entry: its page and its neighbours in recency order. */
    struct Node
    {
        std::uint64_t vpn = 0;
        std::uint32_t prev = kNone; ///< more recently used
        std::uint32_t next = kNone; ///< less recently used
    };

    std::size_t home(std::uint64_t vpn) const
    {
        return std::size_t((vpn * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    void unlink(std::uint32_t e)
    {
        const Node &n = nodes_[e];
        if (n.prev != kNone)
            nodes_[n.prev].next = n.next;
        else
            head_ = n.next;
        if (n.next != kNone)
            nodes_[n.next].prev = n.prev;
        else
            tail_ = n.prev;
    }

    void pushFront(std::uint32_t e)
    {
        nodes_[e].prev = kNone;
        nodes_[e].next = head_;
        if (head_ != kNone)
            nodes_[head_].prev = e;
        else
            tail_ = e;
        head_ = e;
    }

    /** Linear-probing delete with backward shift (no tombstones). */
    void erase(std::uint64_t vpn)
    {
        std::size_t i = home(vpn);
        while (nodes_[table_[i]].vpn != vpn)
            i = (i + 1) & mask_;
        for (std::size_t j = (i + 1) & mask_; table_[j] != kNone;
             j = (j + 1) & mask_) {
            const std::size_t k = home(nodes_[table_[j]].vpn);
            // The entry at j may fill the hole at i unless its home
            // lies cyclically in (i, j].
            const bool stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
            if (!stays) {
                table_[i] = table_[j];
                i = j;
            }
        }
        table_[i] = kNone;
    }

    unsigned entries_;
    unsigned used_ = 0;
    unsigned shift_ = 0;
    std::size_t mask_ = 0;
    std::vector<std::uint32_t> table_; ///< entry index or kNone
    std::vector<Node> nodes_;
    std::uint32_t head_ = kNone; ///< most recently used
    std::uint32_t tail_ = kNone; ///< least recently used
};

} // namespace mbias::sim

#endif // MBIAS_SIM_SHADOW_HH
