#include "core/memo.hh"

#include "base/hash.hh"

namespace mbias::core
{

// runKey() lists the fields of LoaderConfig and NoiseModel by hand; a
// field missing from it would let different runs share a RunMemo
// entry.  The sizes are pinned (on LP64 libstdc++) so that a new field
// fails the build here until runKey() covers it.  MachineConfig is
// pinned next to MachineConfig::fingerprint().
#if defined(__LP64__) && defined(__GLIBCXX__)
static_assert(sizeof(toolchain::LoaderConfig) == 48,
              "LoaderConfig changed: extend runKey()");
static_assert(sizeof(sim::NoiseModel) == 72,
              "NoiseModel changed: extend runKey()");
#endif

RunKey
runKey(const toolchain::CompiledModules &modules,
       const toolchain::LinkOrder &order,
       const toolchain::LoaderConfig &loader,
       const sim::MachineConfig &machine, std::uint64_t budget,
       const sim::NoiseModel &noise)
{
    // Two FNV-1a streams with distinct offset bases over one field
    // sequence, like the module fingerprints.
    Fnv1a hi, lo(kFnv1aOffsetBasis ^ 0x5bd1e9955bd1e995ULL);
    for (const std::uint64_t v :
         {modules.fingerprintHi, modules.fingerprintLo, order.fingerprint(),
          loader.envBytes, loader.spAlign, loader.stackTop,
          loader.argvReserve, loader.heapGap, loader.aslrSeed,
          machine.fingerprint(), budget, std::uint64_t(noise.enabled),
          noise.seed, noise.meanIntervalCycles, noise.costCycles,
          std::uint64_t(noise.linesEvictedPerInterrupt),
          std::uint64_t(noise.dvfsEnabled), noise.dvfsMeanIntervalCycles,
          noise.dvfsTransitionCycles, noise.dvfsMeanResidencyCycles,
          std::uint64_t(noise.dvfsSlowdownPercent)}) {
        hi.u64(v);
        lo.u64(v);
    }
    return {hi.value(), lo.value()};
}

RunMemo &
RunMemo::global()
{
    static RunMemo memo;
    return memo;
}

bool
RunMemo::lookup(const RunKey &key, sim::RunResult &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end())
        return false;
    out = it->second;
    return true;
}

void
RunMemo::insert(const RunKey &key, const sim::RunResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (map_.size() < kMaxEntries)
        map_.emplace(key, result);
}

std::size_t
RunMemo::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

void
RunMemo::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
}

} // namespace mbias::core
