#include "sim/plan.hh"

#include "base/logging.hh"
#include "obs/trace.hh"

namespace mbias::sim
{

using isa::Opcode;

namespace
{

/** Relaxed add through an attachMetrics handle (nullptr = detached). */
void
bump(const std::atomic<obs::Counter *> &c, std::uint64_t by = 1)
{
    if (obs::Counter *counter = c.load(std::memory_order_relaxed))
        counter->add(by);
}

} // namespace

std::uint64_t
ExecutionPlan::approxBytes() const
{
    return sizeof(ExecutionPlan) + ops.size() * sizeof(DecodedOp) +
           idxByOffset.size() * sizeof(std::uint32_t);
}

std::shared_ptr<const ExecutionPlan>
ExecutionPlan::build(std::shared_ptr<const toolchain::LinkedProgram> program)
{
    mbias_assert(program, "cannot build a plan for a null program");
    const toolchain::LinkedProgram &prog = *program;
    const std::size_t n = prog.code.size();

    auto plan = std::make_shared<ExecutionPlan>();
    plan->codeBase = prog.codeBase;

    plan->ops.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const toolchain::PlacedInst &pi = prog.code[i];
        // The fast interpreter jumps through a handler table indexed
        // by the opcode with no default case, so reject out-of-range
        // ops here rather than there.
        mbias_assert(std::size_t(pi.inst.op) <
                         std::size_t(Opcode::NumOpcodes),
                     "bad opcode in linked program");
        DecodedOp &d = plan->ops[i];
        d.pc = pi.pc;
        d.imm = pi.inst.imm;
        d.targetIdx = pi.targetIdx;
        d.op = pi.inst.op;
        d.rd = pi.inst.rd;
        d.rs1 = pi.inst.rs1;
        d.rs2 = pi.inst.rs2;
        d.size = pi.size;
        d.accessSize = std::uint8_t(isa::memAccessSize(pi.inst.op));
    }

    // Return-address table over the code segment's byte range.
    mbias_assert(prog.codeEnd >= prog.codeBase, "bad code extent");
    plan->idxByOffset.assign(std::size_t(prog.codeEnd - prog.codeBase),
                             kNoIndex);
    for (std::size_t i = 0; i < n; ++i) {
        const Addr off = plan->ops[i].pc - prog.codeBase;
        mbias_assert(off < plan->idxByOffset.size(),
                     "instruction placed outside the code segment");
        plan->idxByOffset[std::size_t(off)] = std::uint32_t(i);
    }

    plan->program = std::move(program);
    return plan;
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity)
{
    mbias_assert(capacity > 0, "plan cache capacity must be nonzero");
}

PlanCache &
PlanCache::global()
{
    static PlanCache cache;
    return cache;
}

std::shared_ptr<const ExecutionPlan>
PlanCache::get(const std::shared_ptr<const toolchain::LinkedProgram> &program)
{
    mbias_assert(program, "plan lookup for a null program");
    const void *key = program.get();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++hits_;
            bump(cHits_);
            return it->second->second;
        }
    }

    // Build outside the lock; first insert wins on a racing miss.  The
    // span is the sim layer's one translation step (linked program to
    // plan); perfbench/run.py reads its name as sim.trace_translate_s.
    std::shared_ptr<const ExecutionPlan> plan;
    {
        obs::ScopedSpan span("trace-translate", "sim");
        plan = ExecutionPlan::build(program);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++misses_; // we did build one
        bump(cMisses_);
        return it->second->second;
    }
    lru_.emplace_front(key, std::move(plan));
    map_.emplace(key, lru_.begin());
    ++misses_;
    bump(cMisses_);
    while (map_.size() > capacity_) {
        map_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
        bump(cEvictions_);
    }
    return lru_.front().second;
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Stats{hits_, misses_, evictions_};
}

void
PlanCache::attachMetrics(obs::Registry *metrics)
{
    std::lock_guard<std::mutex> lock(metricsMutex_);
    if (!metrics) {
        cHits_ = nullptr;
        cMisses_ = nullptr;
        cEvictions_ = nullptr;
        return;
    }
    cHits_ = &metrics->counter("sim.plan.hits");
    cMisses_ = &metrics->counter("sim.plan.misses");
    cEvictions_ = &metrics->counter("sim.plan.evictions");
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    lru_.clear();
}

} // namespace mbias::sim
