/**
 * @file
 * The fast tier's shadow structures against the uarch components they
 * stand in for: from a reset state, any access stream must produce the
 * same hit/miss sequence.  ShadowTlb replaces uarch::Tlb's MRU shift
 * with a hash table and recency list, so it is checked on random VPN
 * streams with varied locality, including a 1-entry TLB and streams
 * that thrash it (working set just above capacity).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "base/random.hh"
#include "sim/shadow.hh"
#include "uarch/cache.hh"
#include "uarch/tlb.hh"

namespace
{

using namespace mbias;

/** Feeds @p count VPNs drawn from a working set of @p span pages
 *  (every @p stride-th page) through both TLBs, step by step. */
void
expectSameTlbSequence(unsigned entries, std::uint64_t span,
                      std::uint64_t stride, unsigned count,
                      std::uint64_t seed)
{
    const uarch::TlbConfig cfg{entries, 4096, 30};
    uarch::Tlb ref(cfg);
    sim::ShadowTlb shadow(cfg);
    Rng rng(seed);
    const std::string what = std::to_string(entries) + " entries, span " +
                             std::to_string(span) + ", seed " +
                             std::to_string(seed);
    for (unsigned i = 0; i < count; ++i) {
        // Mostly the working set, now and then a far page, so both
        // hot hits and cold misses keep occurring.
        const std::uint64_t vpn =
            rng.nextBounded(16) == 0
                ? 0x7ff0000000ULL + rng.nextBounded(1ULL << 20)
                : 0x400ULL + rng.nextBounded(span) * stride;
        const bool ref_hit = ref.access(vpn << 12, 1) == 0;
        ASSERT_EQ(shadow.touch(vpn), ref_hit)
            << what << ": diverged at access " << i << " (vpn " << vpn
            << ")";
    }
}

TEST(ShadowTlb, MatchesUarchTlbOnRandomStreams)
{
    for (const unsigned entries : {2u, 4u, 64u, 128u, 256u}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            expectSameTlbSequence(entries, entries / 2 + 1, 1, 20000, seed);
            expectSameTlbSequence(entries, entries * 4, 1, 20000, seed);
            expectSameTlbSequence(entries, entries, 1 << 9, 20000, seed);
        }
    }
}

TEST(ShadowTlb, SingleEntry)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        expectSameTlbSequence(1, 1, 1, 2000, seed);
        expectSameTlbSequence(1, 3, 1, 2000, seed);
    }
    // Deterministic: only a repeat of the last page hits.
    sim::ShadowTlb tlb({1, 4096, 30});
    EXPECT_FALSE(tlb.touch(5));
    EXPECT_TRUE(tlb.touch(5));
    EXPECT_FALSE(tlb.touch(6));
    EXPECT_FALSE(tlb.touch(5));
}

TEST(ShadowTlb, ThrashingWorkingSet)
{
    // A cyclic sweep over capacity + 1 pages misses every time under
    // exact LRU; capacity pages hit every time after the first round.
    for (const unsigned entries : {1u, 8u, 256u}) {
        const uarch::TlbConfig cfg{entries, 4096, 30};
        sim::ShadowTlb over(cfg), fits(cfg);
        uarch::Tlb ref_over(cfg);
        for (unsigned round = 0; round < 4; ++round) {
            for (std::uint64_t p = 0; p <= entries; ++p) {
                EXPECT_FALSE(over.touch(p * 7));
                EXPECT_EQ(ref_over.access((p * 7) << 12, 1), 1u);
            }
            for (std::uint64_t p = 0; p < entries; ++p)
                EXPECT_EQ(fits.touch(p * 7), round > 0);
        }
        for (std::uint64_t seed = 1; seed <= 2; ++seed)
            expectSameTlbSequence(entries, entries + 1, 3, 5000, seed);
    }
}

TEST(ShadowTlb, AccessVpnsCountsBothPages)
{
    sim::ShadowTlb tlb({4, 4096, 30});
    EXPECT_EQ(tlb.accessVpns(10, 11), 2u);
    EXPECT_EQ(tlb.accessVpns(10, 11), 0u);
    EXPECT_EQ(tlb.accessVpns(11, 11), 0u);
    EXPECT_EQ(tlb.accessVpns(12, 12), 1u);
}

TEST(ShadowCache, MatchesUarchCacheOnRandomLines)
{
    const uarch::CacheConfig cfg{16, 4, 64, 3, 12};
    uarch::Cache ref(cfg);
    sim::ShadowCache shadow(cfg);
    Rng rng(99);
    for (unsigned i = 0; i < 50000; ++i) {
        const Addr line = rng.nextBounded(16 * 4 * 3) * 64;
        ASSERT_EQ(shadow.access(line), ref.accessLine(line)) << i;
        if (rng.nextBounded(500) == 0) {
            const std::uint64_t set = rng.next();
            ref.invalidateSet(set);
            shadow.invalidateSet(set);
        }
    }
}

} // namespace
