#ifndef MBIAS_CORE_MEMO_HH
#define MBIAS_CORE_MEMO_HH

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "sim/config.hh"
#include "sim/machine.hh"
#include "sim/noise.hh"
#include "toolchain/artifacts.hh"
#include "toolchain/linkorder.hh"
#include "toolchain/loader.hh"

namespace mbias::core
{

/** The 128-bit content address of one simulated run (RunMemo). */
struct RunKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const RunKey &) const = default;
};

/**
 * The content address of running the program linked from @p modules
 * in @p order, loaded under @p loader, on @p machine for at most
 * @p budget instructions under @p noise: every input the simulator
 * sees, so equal keys mean bitwise-equal RunResults.  The machine
 * enters through MachineConfig::fingerprint (every field, since
 * ablation variants share a name); the program through its module
 * fingerprint and link order, which is how the artifact cache
 * identifies a link.
 */
RunKey runKey(const toolchain::CompiledModules &modules,
              const toolchain::LinkOrder &order,
              const toolchain::LoaderConfig &loader,
              const sim::MachineConfig &machine, std::uint64_t budget,
              const sim::NoiseModel &noise);

/**
 * The process-wide run memo: the RunResult of every run an
 * ExperimentRunner simulated in this process, by RunKey.  The figures
 * of one `mbias all` re-run many identical setups (fig2 repeats fig1's
 * link-order sweep, the env grids repeat each other's baselines); the
 * memo makes each such run cost one hash lookup.  The simulator is
 * deterministic, so a hit is exactly the RunResult a fresh run gives,
 * and outputs are the same with or without it, at any --jobs.
 *
 * The memo lives above sim::Machine on purpose: tests that drive a
 * Machine directly (the fast-vs-reference and lanes differentials)
 * always simulate.  Profiled and attributed runs bypass it, since
 * their sinks need a real run.  Thread-safe; bounded by kMaxEntries
 * (when full, new runs are simply not remembered).
 */
class RunMemo
{
  public:
    /** About 30 MiB of results at most. */
    static constexpr std::size_t kMaxEntries = std::size_t(1) << 17;

    static RunMemo &global();

    /** Copies the remembered result for @p key into @p out. */
    bool lookup(const RunKey &key, sim::RunResult &out) const;

    void insert(const RunKey &key, const sim::RunResult &result);

    std::size_t size() const;

    /** Forgets every run (tests). */
    void clear();

  private:
    struct KeyHash
    {
        std::size_t operator()(const RunKey &k) const
        {
            return std::size_t(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
        }
    };

    mutable std::mutex mutex_;
    std::unordered_map<RunKey, sim::RunResult, KeyHash> map_;
};

} // namespace mbias::core

#endif // MBIAS_CORE_MEMO_HH
