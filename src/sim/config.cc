#include "sim/config.hh"

#include "base/hash.hh"

namespace mbias::sim
{

// fingerprint() lists every field of these structs by hand.  A field
// added to one of them without extending the list would let two
// machines that differ only in it share RunMemo entries, so the sizes
// are pinned (on LP64 libstdc++, where they were taken): a new field
// fails the build here until fingerprint() covers it and the size is
// updated.  (A bool that fits in trailing padding slips through.)
#if defined(__LP64__) && defined(__GLIBCXX__)
static_assert(sizeof(MachineConfig) == 280,
              "MachineConfig changed: extend MachineConfig::fingerprint()");
static_assert(sizeof(uarch::CacheConfig) == 32,
              "CacheConfig changed: extend MachineConfig::fingerprint()");
static_assert(sizeof(uarch::TlbConfig) == 16,
              "TlbConfig changed: extend MachineConfig::fingerprint()");
#endif

std::uint64_t
MachineConfig::fingerprint() const
{
    Fnv1a h;
    h.str(name);
    for (const std::uint64_t v :
         {std::uint64_t(fetchBlockBytes), std::uint64_t(fetchWidth),
          branchMispredictPenalty, btbMissPenalty, std::uint64_t(btbSets),
          std::uint64_t(btbWays), std::uint64_t(predictor),
          std::uint64_t(predictorTableBits),
          std::uint64_t(predictorHistoryBits)})
        h.u64(v);
    for (const uarch::CacheConfig *c : {&icache, &dcache, &l2})
        for (const std::uint64_t v :
             {std::uint64_t(c->sets), std::uint64_t(c->ways),
              std::uint64_t(c->lineBytes), c->hitLatency, c->missPenalty})
            h.u64(v);
    for (const uarch::TlbConfig *t : {&itlb, &dtlb})
        for (const std::uint64_t v :
             {std::uint64_t(t->entries), std::uint64_t(t->pageBytes),
              t->missPenalty})
            h.u64(v);
    for (const std::uint64_t v :
         {std::uint64_t(storeBufferEntries), std::uint64_t(aliasWindowBits),
          aliasPenalty, lineSplitPenalty,
          std::uint64_t(enableNextLinePrefetch), std::uint64_t(core),
          intMulLatency, intDivLatency, oooWindowCycles, fetchRealignPenalty,
          std::uint64_t(enableFetchBlockModel), std::uint64_t(enableBtb),
          std::uint64_t(enableStoreBufferAliasing),
          std::uint64_t(enableLineSplitPenalty), std::uint64_t(enableCaches),
          std::uint64_t(enableTlbs), std::uint64_t(enableBranchPrediction)})
        h.u64(v);
    return h.value();
}

MachineConfig
MachineConfig::core2Like()
{
    MachineConfig c;
    c.name = "core2like";
    c.fetchBlockBytes = 16;
    c.fetchWidth = 4;
    c.branchMispredictPenalty = 15;
    c.btbMissPenalty = 3;
    c.btbSets = 128;
    c.btbWays = 4;
    c.predictor = PredictorKind::Gshare;
    c.predictorTableBits = 12;
    c.predictorHistoryBits = 8;
    c.icache = {64, 8, 64, 0, 12};   // 32 KiB
    c.dcache = {64, 8, 64, 3, 12};   // 32 KiB
    c.l2 = {4096, 16, 64, 0, 200};   // 4 MiB
    c.itlb = {128, 4096, 20};
    c.dtlb = {256, 4096, 30};
    c.storeBufferEntries = 20;
    c.aliasPenalty = 6;
    c.lineSplitPenalty = 12;
    c.intMulLatency = 3;
    c.intDivLatency = 22;
    c.oooWindowCycles = 3;
    return c;
}

MachineConfig
MachineConfig::p4Like()
{
    MachineConfig c;
    c.name = "p4like";
    c.fetchBlockBytes = 16;
    c.fetchWidth = 3;
    c.branchMispredictPenalty = 30; // the long NetBurst pipeline
    c.btbMissPenalty = 5;
    c.btbSets = 512;
    c.btbWays = 4;
    c.predictor = PredictorKind::Bimodal;
    c.predictorTableBits = 12;
    c.predictorHistoryBits = 0;
    c.icache = {32, 8, 64, 0, 18};   // 16 KiB trace-cache stand-in
    c.dcache = {32, 8, 64, 2, 18};   // 16 KiB
    c.l2 = {1024, 8, 64, 0, 250};    // 1 MiB
    c.itlb = {64, 4096, 30};
    c.dtlb = {64, 4096, 50};
    c.storeBufferEntries = 24;
    c.aliasPenalty = 40;             // notorious 4K-aliasing cost
    c.lineSplitPenalty = 20;
    c.intMulLatency = 10;
    c.intDivLatency = 60;
    c.oooWindowCycles = 1;
    return c;
}

MachineConfig
MachineConfig::o3Like()
{
    MachineConfig c;
    c.name = "o3like";
    c.fetchBlockBytes = 32;
    c.fetchWidth = 8;
    c.branchMispredictPenalty = 12;
    c.btbMissPenalty = 2;
    c.btbSets = 1024;
    c.btbWays = 4;
    c.predictor = PredictorKind::Gshare;
    c.predictorTableBits = 13;
    c.predictorHistoryBits = 11;
    c.icache = {256, 2, 64, 0, 14};  // 32 KiB 2-way (m5 default flavour)
    c.dcache = {512, 2, 64, 2, 14};  // 64 KiB 2-way
    c.l2 = {2048, 8, 64, 0, 180};    // 2 MiB
    c.itlb = {64, 4096, 25};
    c.dtlb = {64, 4096, 25};
    // m5's classic memory model does not implement 4K-aliasing stalls:
    // simulators embed their own (different) bias structure.
    c.enableStoreBufferAliasing = false;
    c.storeBufferEntries = 32;
    c.aliasPenalty = 0;
    c.lineSplitPenalty = 4;
    c.intMulLatency = 3;
    c.intDivLatency = 20;
    c.oooWindowCycles = 8;
    return c;
}

MachineConfig
MachineConfig::inorderLike()
{
    MachineConfig c;
    c.name = "inorderlike";
    c.core = CoreKind::InOrder;
    // Dual-issue in-order front end fetching aligned 8-byte pairs; a
    // taken transfer into the middle of a pair costs a refetch cycle.
    c.fetchBlockBytes = 8;
    c.fetchWidth = 2;
    c.fetchRealignPenalty = 1;
    c.branchMispredictPenalty = 8; // short in-order pipeline
    c.btbMissPenalty = 2;
    c.btbSets = 256;
    c.btbWays = 2;
    c.predictor = PredictorKind::Gshare;
    c.predictorTableBits = 11;
    c.predictorHistoryBits = 6;
    c.icache = {128, 4, 32, 0, 15};  // 16 KiB, 32 B lines
    c.dcache = {128, 4, 32, 2, 15};  // 16 KiB
    c.l2 = {1024, 8, 32, 0, 120};    // 256 KiB unified
    c.itlb = {32, 4096, 25};
    c.dtlb = {32, 4096, 25};
    c.storeBufferEntries = 8;
    c.aliasPenalty = 4;
    c.lineSplitPenalty = 8;
    c.intMulLatency = 4;
    c.intDivLatency = 35;
    // In-order: no latency hiding at all; every stall cycle is paid.
    c.oooWindowCycles = 0;
    return c;
}

} // namespace mbias::sim
