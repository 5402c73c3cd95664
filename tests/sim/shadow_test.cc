/**
 * @file
 * The fast tier's shadow structures against the uarch components they
 * stand in for: from a reset state, any access stream must produce the
 * same hit/miss sequence.  ShadowTlb replaces uarch::Tlb's MRU shift
 * with a hash table and recency list, so it is checked on random VPN
 * streams with varied locality, including a 1-entry TLB and streams
 * that thrash it (working set just above capacity).  Both are reused
 * across runs, so reset() must return each to exactly that state.
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

TEST(ShadowCache, ResetMatchesAFreshCacheAcrossGenerationWrap)
{
    // reset() bumps a 32-bit generation instead of zero-filling; a set
    // is emptied on its first touch in a new generation.  Run random
    // streams (with set invalidations) round after round, resetting in
    // between, starting a few resets short of the wrap — and with sets
    // stamped in generation 1 long ago, which the wrap's stamp clear
    // must not let come back to life.  Each round must match a freshly
    // constructed uarch::Cache access for access.
    const uarch::CacheConfig cfg{16, 4, 64, 3, 12};
    sim::ShadowCache shadow(cfg);
    Rng rng(7);
    auto round = [&](unsigned n) {
        uarch::Cache ref(cfg);
        for (unsigned i = 0; i < n; ++i) {
            const Addr line = rng.nextBounded(16 * 4 * 3) * 64;
            ASSERT_EQ(shadow.access(line), ref.accessLine(line))
                << "generation " << shadow.generation << ", access " << i;
            if (rng.nextBounded(200) == 0) {
                const std::uint64_t set = rng.next();
                ref.invalidateSet(set);
                shadow.invalidateSet(set);
            }
        }
    };
    round(5000); // every set stamped with generation 1
    shadow.generation = ~std::uint32_t(0) - 3;
    for (unsigned r = 0; r < 8; ++r) {
        shadow.reset();
        EXPECT_NE(shadow.generation, 0u);
        // Three accesses per round up to the wrap leave most sets
        // stamped 1; the rounds after it touch every set.
        round(r < 3 ? 3 : 5000);
    }
    EXPECT_LT(shadow.generation, 8u) << "the generation must have wrapped";
}

TEST(ShadowTlb, ResetMatchesAFreshTlb)
{
    const uarch::TlbConfig cfg{8, 4096, 30};
    sim::ShadowTlb shadow(cfg);
    Rng rng(3);
    for (unsigned r = 0; r < 4; ++r) {
        uarch::Tlb ref(cfg);
        for (unsigned i = 0; i < 3000; ++i) {
            const std::uint64_t vpn = rng.nextBounded(12);
            ASSERT_EQ(shadow.touch(vpn), ref.access(vpn << 12, 1) == 0)
                << "round " << r << ", access " << i;
        }
        shadow.reset();
    }
}

} // namespace
