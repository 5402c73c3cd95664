#include "sim/replay.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/machine.hh"

namespace mbias::sim
{

bool
replayTierUsable(const Machine &machine)
{
    return machine.fastTierUsable();
}

RunResult
Machine::runRecord(const toolchain::ProcessImage &image,
                   std::uint64_t max_insts, const NoiseModel &noise,
                   std::shared_ptr<const FunctionalTrace> *out)
{
    mbias_assert(out, "runRecord needs a trace sink");
    auto trace = std::make_shared<FunctionalTrace>();
    trace->program = image.program;
    trace->gp = image.gp;
    trace->heapBase = image.heapBase;
    trace->entryIdx = image.entryIdx;
    trace->budget = max_insts;
    *out = std::move(trace);
    ReplayCache::global().noteRecord();
    return run(image, max_insts, noise);
}

RunResult
Machine::runReplay(const toolchain::ProcessImage &image,
                   std::uint64_t max_insts, const NoiseModel &noise,
                   const FunctionalTrace &trace)
{
    mbias_assert(trace.matches(image, max_insts),
                 "replaying a trace against a mismatched image");
    ReplayCache::global().noteReplay();
    return run(image, max_insts, noise);
}

ReplayCache &
ReplayCache::global()
{
    static ReplayCache cache;
    return cache;
}

std::shared_ptr<const FunctionalTrace>
ReplayCache::find(const toolchain::ProcessImage &image, std::uint64_t budget,
                  bool *unrecordable)
{
    if (unrecordable)
        *unrecordable = false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &t : traces_) {
        if (t->matches(image, budget)) {
            ++stats_.hits;
            return t;
        }
    }
    ++stats_.misses;
    return nullptr;
}

void
ReplayCache::insert(const toolchain::ProcessImage &image,
                    std::uint64_t budget,
                    std::shared_ptr<const FunctionalTrace> trace)
{
    if (!trace)
        return;
    mbias_assert(trace->matches(image, budget),
                 "inserting a replay trace that mismatches its own key");
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &t : traces_)
        if (t->matches(image, budget))
            return;
    traces_.push_back(std::move(trace));
    if (traces_.size() > kCapacity)
        traces_.erase(traces_.begin());
}

void
ReplayCache::noteRecord()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.records;
}

void
ReplayCache::noteReplay()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.replays;
}

void
ReplayCache::noteFallback()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.fallbacks;
}

void
ReplayCache::noteLaneBatch(unsigned lanes, std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.records;
    ++stats_.misses;
    stats_.replays += lanes - 1;
    stats_.hits += lanes - 1;
    stats_.bytes = std::max(stats_.bytes, bytes);
}

ReplayCache::Stats
ReplayCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s = stats_;
    // What the tier holds: the identity traces plus the largest lane
    // batch's timing state.
    s.bytes += traces_.size() * sizeof(FunctionalTrace);
    return s;
}

void
ReplayCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    traces_.clear();
    stats_.bytes = 0;
}

} // namespace mbias::sim
