#ifndef MBIAS_SIM_PLAN_HH
#define MBIAS_SIM_PLAN_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "isa/opcode.hh"
#include "obs/metrics.hh"
#include "toolchain/linker.hh"

#ifndef MBIAS_SIM_FASTPATH_ENABLED
#define MBIAS_SIM_FASTPATH_ENABLED 1
#endif

namespace mbias::sim
{

/**
 * One pre-decoded instruction of an ExecutionPlan: the fields the
 * simulator's hot loop actually reads, packed into 40 bytes with no
 * indirection — where the linker's PlacedInst drags a std::string
 * symbol (dead weight after linking) through the interpreter's cache.
 *
 * `op` doubles as the dispatch tag: µRISC opcodes are already a flat
 * uint8 enum, so it indexes the fast interpreter's direct-threaded
 * handler table with no re-decode (build() validates every op, since
 * threaded dispatch has no `default:` backstop).
 */
struct DecodedOp
{
    Addr pc = 0;            ///< placed address
    std::int64_t imm = 0;   ///< immediate / memory offset
    std::uint32_t targetIdx = 0; ///< resolved control-flow target
    isa::Opcode op = isa::Opcode::Nop;
    isa::Reg rd = 0;
    isa::Reg rs1 = 0;
    isa::Reg rs2 = 0;
    std::uint8_t size = 0;       ///< encoded bytes (fetch accounting)
    std::uint8_t accessSize = 0; ///< bytes moved by loads/stores
};

static_assert(sizeof(DecodedOp) <= 40, "DecodedOp must stay dense");

/**
 * A per-program execution plan: everything the simulator can derive
 * from a LinkedProgram *once* instead of per run — decoded
 * instructions and an O(1) return-address table replacing the
 * reference interpreter's per-Ret hash lookup.
 *
 * A plan is a pure function of the program: it contains nothing
 * derived from a MachineConfig, so one plan serves every machine model
 * and every (envBytes, aslr, ...) load of the program.  Address
 * alignment and page arithmetic — which *are* config-dependent — stay
 * inline in the fast loop, reduced to shifts/masks when the config's
 * line and page sizes are powers of two (they are, in every preset).
 *
 * The plan never influences simulated semantics or timing: the fast
 * interpreter performs the same component accesses in the same order
 * with the same arguments as the reference interpreter, so every
 * RunResult — cycles and all performance counters — is bitwise
 * identical (tests/sim/fastpath_differential_test.cc holds the line).
 */
struct ExecutionPlan
{
    std::vector<DecodedOp> ops;

    /**
     * Return-address table: idxByOffset[pc - codeBase] is the code
     * index of the instruction placed at pc (kNoIndex between
     * instructions).  Semantically identical to the program's
     * addrToIdx hash map, minus the per-Ret hashing.
     */
    std::vector<std::uint32_t> idxByOffset;
    Addr codeBase = 0;

    static constexpr std::uint32_t kNoIndex = ~std::uint32_t(0);

    /** The decoded program; pins the pointer the plan was keyed by. */
    std::shared_ptr<const toolchain::LinkedProgram> program;

    /** Approximate heap footprint (plan-cache accounting). */
    std::uint64_t approxBytes() const;

    /** Decodes @p program (shared so the plan can pin it). */
    static std::shared_ptr<const ExecutionPlan>
    build(std::shared_ptr<const toolchain::LinkedProgram> program);
};

/**
 * A small LRU cache of ExecutionPlans keyed by program identity (the
 * LinkedProgram's address).  Pointer keying is sound because every
 * entry pins its program's shared_ptr: a cached key can never be freed
 * and reallocated while the entry lives.  The artifact cache hands all
 * tasks of a campaign the *same* shared program, so a whole env sweep
 * decodes each side exactly once.
 *
 * Thread-safe; on racing misses the first insert wins and plans built
 * by losers are discarded (plans for one program are interchangeable).
 */
class PlanCache
{
  public:
    explicit PlanCache(std::size_t capacity = 64);

    /** The process-wide cache Machine::run uses. */
    static PlanCache &global();

    /** The plan for @p program, building it on a miss. */
    std::shared_ptr<const ExecutionPlan>
    get(const std::shared_ptr<const toolchain::LinkedProgram> &program);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    Stats stats() const;
    void clear();

    /** Attaches a metrics registry (nullptr detaches): hit/miss/
     *  eviction counts mirror into `sim.plan.*` counters.  @p metrics
     *  must outlive the attachment. */
    void attachMetrics(obs::Registry *metrics);

  private:
    using Lru = std::list<
        std::pair<const void *, std::shared_ptr<const ExecutionPlan>>>;

    mutable std::mutex mutex_;
    std::size_t capacity_;
    Lru lru_; ///< most-recently used at front
    std::unordered_map<const void *, Lru::iterator> map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;

    std::mutex metricsMutex_; ///< serializes attachMetrics() calls
    std::atomic<obs::Counter *> cHits_{nullptr};
    std::atomic<obs::Counter *> cMisses_{nullptr};
    std::atomic<obs::Counter *> cEvictions_{nullptr};
};

} // namespace mbias::sim

#endif // MBIAS_SIM_PLAN_HH
