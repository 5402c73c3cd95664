#ifndef MBIAS_SIM_REPLAY_HH
#define MBIAS_SIM_REPLAY_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "base/types.hh"
#include "toolchain/loader.hh"

namespace mbias::sim
{

class Machine;

/*
 * Compatibility names of the retired record/replay tier.  Lockstep
 * lanes (Machine::runLanes) replaced it; the repo benchmark's harness
 * (perfbench/) still compiles against these names and reads
 * ReplayCache's statistics, so they survive as thin wrappers over the
 * fast tier until the next change to the benchmark deletes them.
 * Nothing outside the benchmark reads them; Machine::runLanes feeds
 * ReplayCache's tallies.
 */

/** True when @p machine may take the fast tier (Machine::fastTierUsable). */
bool replayTierUsable(const Machine &machine);

/**
 * The identity a repetition family shares — what lanes of one batch
 * must agree on.  It holds no stream: Machine::runRecord returns one
 * alongside a plain run, and Machine::runReplay checks matches() and
 * runs.
 */
struct FunctionalTrace
{
    std::shared_ptr<const toolchain::LinkedProgram> program;
    Addr gp = 0;
    Addr heapBase = 0;
    std::uint32_t entryIdx = 0;
    std::uint64_t budget = 0;

    /** Same program, gp/heap layout, entry and budget; initialSp and
     *  noise are free. */
    bool matches(const toolchain::ProcessImage &image,
                 std::uint64_t max_insts) const
    {
        return program.get() == image.program.get() && gp == image.gp &&
               heapBase == image.heapBase && entryIdx == image.entryIdx &&
               budget == max_insts;
    }
};

/**
 * Identity traces by family, plus the tallies the benchmark reads.
 * Lane batches count here too: each batch is one shared functional
 * pass (a "record" and a miss) serving its other lanes ("replays" and
 * hits), and `bytes` is the largest lane-batch timing state seen.
 * Thread-safe.
 */
class ReplayCache
{
  public:
    /** The process-wide instance. */
    static ReplayCache &global();

    /** The family's trace, or null on a miss.  @p unrecordable is
     *  always set false (every family runs on the fast tier). */
    std::shared_ptr<const FunctionalTrace>
    find(const toolchain::ProcessImage &image, std::uint64_t budget,
         bool *unrecordable);

    /** Remembers @p trace (null is ignored); first insert wins. */
    void insert(const toolchain::ProcessImage &image, std::uint64_t budget,
                std::shared_ptr<const FunctionalTrace> trace);

    void noteRecord();
    void noteReplay();
    void noteFallback();
    /** One lockstep batch of @p lanes lanes with @p bytes of timing
     *  state. */
    void noteLaneBatch(unsigned lanes, std::uint64_t bytes);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t records = 0;
        std::uint64_t replays = 0;
        std::uint64_t fallbacks = 0;
        std::uint64_t bytes = 0;
    };

    Stats stats() const;
    void clear();

  private:
    static constexpr std::size_t kCapacity = 16;

    mutable std::mutex mutex_;
    /** Most recent last; the oldest is dropped past kCapacity. */
    std::vector<std::shared_ptr<const FunctionalTrace>> traces_;
    Stats stats_;
};

} // namespace mbias::sim

#endif // MBIAS_SIM_REPLAY_HH
