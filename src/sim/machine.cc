#include "sim/machine.hh"

#include "base/bitutils.hh"
#include "base/random.hh"
#include "sim/attribution.hh"
#include "obs/trace.hh"
#include "sim/plan.hh"
#include "sim/replay.hh"

#include <algorithm>
#include <cstdlib>
#include "base/logging.hh"

// Attribution recording: side-effect-free observation of where an
// event landed (which set/entry).  Compiles to nothing under
// -DMBIAS_OBS=OFF; at runtime it is dead unless run() was handed an
// Attribution sink.  Never touch PerfCounters or component state here.
#if MBIAS_OBS_ENABLED
#define MBIAS_ATTR(expr)                                                    \
    do {                                                                    \
        if (attr_)                                                          \
            attr_->expr;                                                    \
    } while (0)
#else
#define MBIAS_ATTR(expr) ((void)0)
#endif

namespace mbias::sim
{

using isa::Opcode;
using isa::OpClass;
using toolchain::PlacedInst;

bool
referenceForcedByEnv()
{
    const char *e = std::getenv("MBIAS_SIM_REFERENCE");
    return e && *e && !(e[0] == '0' && e[1] == '\0');
}

namespace
{

/**
 * CoreModel policies for runPlanImpl's `if constexpr` points.  The
 * out-of-order policy is the historical behavior — every branch it
 * guards compiles to the exact code the pre-backend-layer loop had, so
 * existing presets stay bitwise identical at unchanged throughput.
 */
struct OooCore
{
    static constexpr bool kInOrder = false;
};

/** Strict in-order issue: no latency hiding, multi-cycle ALU ops block
 *  the pipe, taken transfers into the middle of a fetch block refetch
 *  (config.fetchRealignPenalty). */
struct InOrderCore
{
    static constexpr bool kInOrder = true;
};

std::unique_ptr<uarch::BranchPredictor>
makePredictor(const MachineConfig &c)
{
    switch (c.predictor) {
      case PredictorKind::Bimodal:
        return std::make_unique<uarch::BimodalPredictor>(
            c.predictorTableBits);
      case PredictorKind::Gshare:
        return std::make_unique<uarch::GsharePredictor>(
            c.predictorTableBits, c.predictorHistoryBits);
    }
    mbias_panic("bad predictor kind");
}

/**
 * Fast-path twin of uarch::Cache's line touch with a packed slot
 * array: same geometry, same MRU-ordered hit/replacement decisions,
 * but one uint64 per way — (tag << 1) | valid — instead of parallel
 * vector<uint64> / vector<bool>, so the way scan and the MRU shift
 * are plain word moves.  Starting from the same (reset) state, every
 * access returns exactly what Cache::accessLine would, so the
 * counters derived from it are bitwise identical; only the reference
 * interpreter's own Cache instances accumulate internal hit/miss
 * statistics, which nothing outside the machine observes.
 */
struct ShadowCache
{
    unsigned shift;
    unsigned ways;
    std::uint64_t setMask;
    /** slots[set * ways + way] = (tag << 1) | 1, MRU-first; 0 empty. */
    std::vector<std::uint64_t> slots;

    explicit ShadowCache(const uarch::CacheConfig &c)
        : shift(floorLog2(c.lineBytes)), ways(c.ways), setMask(c.sets - 1),
          slots(std::size_t(c.sets) * c.ways, 0)
    {
    }

    bool access(Addr addr)
    {
        const std::uint64_t tag = addr >> shift;
        const std::uint64_t key = (tag << 1) | 1;
        std::uint64_t *base = slots.data() + std::size_t(tag & setMask) * ways;
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
    void invalidateSet(std::uint64_t set)
    {
        std::uint64_t *base = slots.data() + std::size_t(set & setMask) * ways;
        for (unsigned w = 0; w < ways; ++w)
            base[w] = 0;
    }
};

/** Fast-path twin of uarch::Tlb (fully associative, LRU): one packed
 *  (vpn << 1) | valid word per entry, same MRU-ordered decisions. */
struct ShadowTlb
{
    unsigned entries;
    std::vector<std::uint64_t> slots; ///< MRU-first; 0 empty

    explicit ShadowTlb(const uarch::TlbConfig &c)
        : entries(c.entries), slots(c.entries, 0)
    {
    }

    bool touch(std::uint64_t vpn)
    {
        const std::uint64_t key = (vpn << 1) | 1;
        std::uint64_t *s = slots.data();
        for (unsigned e = 0; e < entries; ++e) {
            if (s[e] == key) {
                for (unsigned k = e; k > 0; --k)
                    s[k] = s[k - 1];
                s[0] = key;
                return true;
            }
        }
        for (unsigned k = entries - 1; k > 0; --k)
            s[k] = s[k - 1];
        s[0] = key;
        return false;
    }

    unsigned accessVpns(std::uint64_t first_vpn, std::uint64_t last_vpn)
    {
        unsigned miss_count = 0;
        if (!touch(first_vpn))
            ++miss_count;
        if (last_vpn != first_vpn && !touch(last_vpn))
            ++miss_count;
        return miss_count;
    }
};

} // namespace

std::string
activeSimTierDescription()
{
#if !MBIAS_SIM_FASTPATH_ENABLED
    return "reference (-DMBIAS_SIM_FASTPATH=OFF)";
#else
    if (referenceForcedByEnv())
        return "reference (MBIAS_SIM_REFERENCE set)";
    if (replayDisabledByEnv())
        return "fast (replay: MBIAS_SIM_REPLAY=0)";
    return "fast + replay";
#endif
}

/** Per-run pipeline/timing state. */
struct Machine::Pipeline
{
    Cycles now = 0;
    std::array<Cycles, isa::reg::numRegs> regReady{};

    std::uint64_t icount = 0;

    // Fetch-group state.
    unsigned groupSlots = 0;
    Addr groupBlockEnd = 0;
    bool forceNewGroup = true;

    // Code line/page last touched (sequential-fetch reuse).
    Addr lastCodeLine = ~Addr(0);
    Addr lastCodePage = ~Addr(0);
};

Machine::Machine(const MachineConfig &config)
    : config_(config),
      icache_(config.icache),
      dcache_(config.dcache),
      l2_(config.l2),
      itlb_(config.itlb),
      dtlb_(config.dtlb),
      predictor_(makePredictor(config)),
      btb_(config.btbSets, config.btbWays),
      storeBuffer_(config.storeBufferEntries, config.aliasWindowBits)
{
}

void
Machine::fetchAccounting(Pipeline &pipe, Addr pc, unsigned size,
                         PerfCounters &ctrs)
{
    const bool model_blocks = config_.enableFetchBlockModel;
    const bool new_group = pipe.forceNewGroup || pipe.groupSlots == 0 ||
                           (model_blocks && pc >= pipe.groupBlockEnd);
    if (new_group) {
        pipe.now += 1;
        ctrs.inc(Counter::FetchGroups);
        pipe.groupSlots = config_.fetchWidth;
        pipe.groupBlockEnd =
            model_blocks
                ? alignDown(pc, config_.fetchBlockBytes) +
                      config_.fetchBlockBytes
                : ~Addr(0);
        pipe.forceNewGroup = false;
    }
    pipe.groupSlots -= 1;
    if (model_blocks && pc + size > pipe.groupBlockEnd) {
        // Variable-length instruction spilling into the next block
        // consumes the rest of this group.
        pipe.groupSlots = 0;
    }

    // Instruction-side cache and TLB, at line/page crossing granularity
    // (sequential fetch reuses the current line without a new access).
    if (config_.enableCaches) {
        const Addr first = alignDown(pc, config_.icache.lineBytes);
        const Addr last =
            alignDown(pc + size - 1, config_.icache.lineBytes);
        for (Addr line = first; line <= last;
             line += config_.icache.lineBytes) {
            if (line == pipe.lastCodeLine)
                continue;
            pipe.lastCodeLine = line;
            MBIAS_ATTR(icache.touch(icache_.setIndex(line)));
            if (!icache_.accessLine(line)) {
                ctrs.inc(Counter::IcacheMisses);
                MBIAS_ATTR(icache.miss(icache_.setIndex(line)));
                pipe.now += config_.icache.missPenalty;
                if (!l2_.accessLine(line)) {
                    ctrs.inc(Counter::L2Misses);
                    pipe.now += config_.l2.missPenalty;
                }
            }
        }
    }
    if (config_.enableTlbs) {
        const Addr page = pc / config_.itlb.pageBytes;
        if (page != pipe.lastCodePage) {
            pipe.lastCodePage = page;
            const unsigned misses = itlb_.access(pc, size);
#if MBIAS_OBS_ENABLED
            if (attr_) {
                const std::size_t b =
                    std::size_t(page) & (attr_->itlb.sets - 1);
                attr_->itlb.touch(b);
                for (unsigned m = 0; m < misses; ++m)
                    attr_->itlb.miss(b);
            }
#endif
            if (misses) {
                ctrs.inc(Counter::ItlbMisses, misses);
                pipe.now += misses * config_.itlb.missPenalty;
            }
        }
    }
}

Cycles
Machine::memoryAccess(Pipeline &pipe, Addr addr, unsigned size,
                      bool is_store, PerfCounters &ctrs)
{
    Cycles lat = is_store ? 0 : config_.dcache.hitLatency;

    if (config_.enableTlbs) {
        const unsigned misses = dtlb_.access(addr, size);
#if MBIAS_OBS_ENABLED
        if (attr_) {
            const std::size_t b =
                std::size_t(addr / config_.dtlb.pageBytes) &
                (attr_->dtlb.sets - 1);
            attr_->dtlb.touch(b);
            for (unsigned m = 0; m < misses; ++m)
                attr_->dtlb.miss(b);
        }
#endif
        if (misses) {
            ctrs.inc(Counter::DtlbMisses, misses);
            lat += misses * config_.dtlb.missPenalty;
        }
    }

    const Addr first = alignDown(addr, config_.dcache.lineBytes);
    const Addr last = alignDown(addr + size - 1, config_.dcache.lineBytes);
    if (config_.enableCaches) {
        for (Addr line = first; line <= last;
             line += config_.dcache.lineBytes) {
            MBIAS_ATTR(dcache.touch(dcache_.setIndex(line)));
            if (!dcache_.accessLine(line)) {
                ctrs.inc(Counter::DcacheMisses);
                MBIAS_ATTR(dcache.miss(dcache_.setIndex(line)));
                lat += config_.dcache.missPenalty;
                if (!l2_.accessLine(line)) {
                    ctrs.inc(Counter::L2Misses);
                    lat += config_.l2.missPenalty;
                }
                if (config_.enableNextLinePrefetch) {
                    // Background fill of the next line; no demand
                    // latency, but it can pollute (and be perturbed
                    // by) set placement.
                    ctrs.inc(Counter::PrefetchesIssued);
                    const Addr next_line =
                        line + config_.dcache.lineBytes;
                    MBIAS_ATTR(
                        dcache.touch(dcache_.setIndex(next_line)));
                    const bool prefetch_hit =
                        dcache_.accessLine(next_line);
                    if (!prefetch_hit)
                        MBIAS_ATTR(
                            dcache.miss(dcache_.setIndex(next_line)));
                    l2_.accessLine(next_line);
                }
            }
        }
    }
    if (last != first) {
        ctrs.inc(Counter::LineSplits);
        if (config_.enableLineSplitPenalty)
            lat += config_.lineSplitPenalty;
    }

    if (is_store) {
        // A line-crossing store occupies the store port for an extra
        // cycle; unlike load latency this cannot be hidden by the
        // out-of-order window (the port is a structural resource).
        if (last != first && config_.enableLineSplitPenalty)
            pipe.now += 1;
        storeBuffer_.recordStore(addr, size, pipe.icount);
        return 0; // the store buffer otherwise hides store latency
    }
    if (config_.enableStoreBufferAliasing &&
        storeBuffer_.loadAliases(addr, size, pipe.icount)) {
        ctrs.inc(Counter::AliasStalls);
        lat += config_.aliasPenalty;
    }
    return lat;
}

RunResult
Machine::run(const toolchain::ProcessImage &image, std::uint64_t max_insts,
             const NoiseModel &noise, Profile *profile,
             Attribution *attribution)
{
#if MBIAS_SIM_FASTPATH_ENABLED
    // The fast tier handles the common campaign case: deterministic,
    // unprofiled runs.  Noise injection, per-function profiling, and
    // per-set attribution read per-instruction state the fast lanes
    // skip, so those runs stay on the reference interpreter.
    if (useFastPath_ && !noise.active() && !profile && !attribution &&
        !referenceForcedByEnv())
        return runFast(image, max_insts,
                       *PlanCache::global().get(image.program));
#endif

    // Noise invalidations bypass the attribution occupancy mirror;
    // the combination has no use case, so reject it outright.
    mbias_assert(!(attribution && noise.enabled),
                 "attribution requires a noise-free run");
    if (attribution)
        attribution->configure(config_);
    attr_ = MBIAS_OBS_ENABLED ? attribution : nullptr;

    // Cold start: deterministic from the image alone.
    icache_.reset();
    dcache_.reset();
    l2_.reset();
    itlb_.reset();
    dtlb_.reset();
    predictor_->reset();
    btb_.reset();
    storeBuffer_.reset();

    const toolchain::LinkedProgram &prog = image.prog();
    mbias_assert(!prog.code.empty(), "empty program");

    RunResult rr;
    PerfCounters &ctrs = rr.counters;

    SparseMemory mem;
    mem.writeBlock(prog.dataBase, prog.dataInit);

    std::array<std::uint64_t, isa::reg::numRegs> regs{};
    regs[isa::reg::sp] = image.initialSp;
    regs[isa::reg::gp] = image.gp;
    regs[isa::reg::hp] = image.heapBase;

    Pipeline pipe;

    auto set_reg = [&](isa::Reg rd, std::uint64_t v, Cycles ready) {
        if (rd != isa::reg::zero) {
            regs[rd] = v;
            pipe.regReady[rd] = ready;
        }
    };
    // CoreModel policy, runtime-selected here (the reference path is
    // not throughput-critical); runPlanImpl selects the same policy at
    // compile time per backend.
    const bool in_order = config_.core == CoreKind::InOrder;

    auto wait_for = [&](isa::Reg r) {
        const Cycles ready = pipe.regReady[r];
        if (ready > pipe.now) {
            const Cycles stall = ready - pipe.now;
            // In-order cores expose the whole stall; the OoO window
            // hides up to oooWindowCycles of it.
            const Cycles hidden =
                in_order ? 0
                         : std::min<Cycles>(stall, config_.oooWindowCycles);
            const Cycles exposed = stall - hidden;
            if (exposed) {
                pipe.now += exposed;
                ctrs.inc(Counter::StallCycles, exposed);
            }
        }
    };
    // In-order front ends refetch when a taken transfer lands inside a
    // fetch block rather than at its start.
    auto redirect_realign = [&](Addr target) {
        if (in_order && config_.enableFetchBlockModel &&
            (target & (Addr(config_.fetchBlockBytes) - 1)) != 0)
            pipe.now += config_.fetchRealignPenalty;
    };

    // Optional per-function attribution (index-range lookup; functions
    // are placed contiguously, so instruction index intervals identify
    // them).
    std::vector<std::uint32_t> fn_begin;
    std::size_t cur_fn = 0;
    std::uint32_t cur_begin = 1, cur_end = 0; // empty: force first lookup
    if (profile) {
        profile->functions.clear();
        for (const auto &lf : prog.functions) {
            FunctionProfile fp;
            fp.name = lf.name;
            fp.base = lf.base;
            fp.bytes = lf.bytes;
            profile->functions.push_back(std::move(fp));
            fn_begin.push_back(lf.entryIdx);
        }
    }
    Cycles prof_now = 0;
    std::uint64_t prof_ic = 0, prof_dc = 0, prof_mp = 0, prof_ls = 0,
                  prof_as = 0, prof_calls = 0, prof_l2 = 0, prof_it = 0,
                  prof_dt = 0, prof_bt = 0, prof_st = 0, prof_fg = 0;

    // OS-interrupt noise (seeded; disabled by default).
    Rng noise_rng(noise.seed ^ 0x05e1f00dULL);
    Cycles next_interrupt = ~Cycles(0);
    auto schedule_interrupt = [&](Cycles from) {
        const double jitter = 0.5 + noise_rng.nextDouble();
        next_interrupt =
            from + Cycles(double(noise.meanIntervalCycles) * jitter);
    };
    if (noise.enabled)
        schedule_interrupt(0);

    // DVFS frequency steps (seeded; independent stream so the factor
    // can be swept alone).  A step charges the transition plus the
    // work lost over the slowed residency as one lump — timing only,
    // no architectural or cache state is touched — and the next step
    // cannot begin before this residency ends.
    Rng dvfs_rng(noise.seed ^ 0xd7f5c10cULL);
    Cycles next_dvfs = ~Cycles(0);
    auto schedule_dvfs = [&](Cycles from) {
        const double jitter = 0.5 + dvfs_rng.nextDouble();
        next_dvfs =
            from + Cycles(double(noise.dvfsMeanIntervalCycles) * jitter);
    };
    auto do_dvfs_step = [&]() {
        const double rj = 0.5 + dvfs_rng.nextDouble();
        const Cycles residency =
            Cycles(double(noise.dvfsMeanResidencyCycles) * rj);
        pipe.now += noise.dvfsTransitionCycles +
                    residency * noise.dvfsSlowdownPercent / 100;
        schedule_dvfs(pipe.now + residency);
    };
    if (noise.dvfsEnabled)
        schedule_dvfs(0);

    std::uint64_t icount = 0;
    std::uint32_t idx = image.entryIdx;
    bool halted = false;

    while (!halted && icount < max_insts) {
        if (noise.enabled && pipe.now >= next_interrupt) {
            ctrs.inc(Counter::OsInterrupts);
            pipe.now += noise.costCycles;
            for (unsigned e = 0; e < noise.linesEvictedPerInterrupt; ++e) {
                dcache_.invalidateSet(noise_rng.next());
                icache_.invalidateSet(noise_rng.next());
            }
            pipe.lastCodeLine = ~Addr(0); // force an icache re-access
            schedule_interrupt(pipe.now);
        }
        if (noise.dvfsEnabled && pipe.now >= next_dvfs)
            do_dvfs_step();

        if (profile) {
            if (idx < cur_begin || idx >= cur_end) {
                const auto it = std::upper_bound(fn_begin.begin(),
                                                 fn_begin.end(), idx);
                cur_fn = std::size_t(it - fn_begin.begin()) - 1;
                cur_begin = fn_begin[cur_fn];
                cur_end = cur_fn + 1 < fn_begin.size()
                              ? fn_begin[cur_fn + 1]
                              : std::uint32_t(prog.code.size());
            }
            prof_now = pipe.now;
            prof_ic = ctrs.get(Counter::IcacheMisses);
            prof_dc = ctrs.get(Counter::DcacheMisses);
            prof_mp = ctrs.get(Counter::BranchMispredicts);
            prof_ls = ctrs.get(Counter::LineSplits);
            prof_as = ctrs.get(Counter::AliasStalls);
            prof_calls = ctrs.get(Counter::Calls);
            prof_l2 = ctrs.get(Counter::L2Misses);
            prof_it = ctrs.get(Counter::ItlbMisses);
            prof_dt = ctrs.get(Counter::DtlbMisses);
            prof_bt = ctrs.get(Counter::BtbMisses);
            prof_st = ctrs.get(Counter::StallCycles);
            prof_fg = ctrs.get(Counter::FetchGroups);
        }

        const PlacedInst &pi = prog.code[idx];
        const isa::Instruction &in = pi.inst;
        ++icount;
        pipe.icount = icount;

        fetchAccounting(pipe, pi.pc, pi.size, ctrs);

        std::uint32_t next = idx + 1;

        switch (in.op) {
          // ---- register-register ALU ----
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::Divu:
          case Opcode::Remu:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
          case Opcode::Sll:
          case Opcode::Srl:
          case Opcode::Sra:
          case Opcode::Slt:
          case Opcode::Sltu: {
              wait_for(in.rs1);
              wait_for(in.rs2);
              const std::uint64_t a = regs[in.rs1];
              const std::uint64_t b = regs[in.rs2];
              std::uint64_t v = 0;
              Cycles lat = 1;
              switch (in.op) {
                case Opcode::Add: v = a + b; break;
                case Opcode::Sub: v = a - b; break;
                case Opcode::Mul:
                  v = a * b;
                  lat = config_.intMulLatency;
                  break;
                case Opcode::Divu:
                  v = b == 0 ? ~std::uint64_t(0) : a / b;
                  lat = config_.intDivLatency;
                  break;
                case Opcode::Remu:
                  v = b == 0 ? a : a % b;
                  lat = config_.intDivLatency;
                  break;
                case Opcode::And: v = a & b; break;
                case Opcode::Or: v = a | b; break;
                case Opcode::Xor: v = a ^ b; break;
                case Opcode::Sll: v = a << (b & 63); break;
                case Opcode::Srl: v = a >> (b & 63); break;
                case Opcode::Sra:
                  v = std::uint64_t(std::int64_t(a) >> (b & 63));
                  break;
                case Opcode::Slt:
                  v = std::int64_t(a) < std::int64_t(b) ? 1 : 0;
                  break;
                case Opcode::Sltu: v = a < b ? 1 : 0; break;
                default: mbias_panic("unreachable");
              }
              if (in_order && lat > 1) {
                  // In-order pipes block issue behind a multi-cycle
                  // ALU op: the busy cycles are exposed stalls, and
                  // the result is ready right after issue resumes.
                  pipe.now += lat - 1;
                  ctrs.inc(Counter::StallCycles, lat - 1);
                  lat = 1;
              }
              set_reg(in.rd, v, pipe.now + lat);
              break;
          }

          // ---- register-immediate ALU ----
          case Opcode::Addi:
          case Opcode::Andi:
          case Opcode::Ori:
          case Opcode::Xori:
          case Opcode::Slli:
          case Opcode::Srli:
          case Opcode::Srai:
          case Opcode::Slti: {
              wait_for(in.rs1);
              const std::uint64_t a = regs[in.rs1];
              const std::uint64_t m = std::uint64_t(in.imm);
              std::uint64_t v = 0;
              switch (in.op) {
                case Opcode::Addi: v = a + m; break;
                case Opcode::Andi: v = a & m; break;
                case Opcode::Ori: v = a | m; break;
                case Opcode::Xori: v = a ^ m; break;
                case Opcode::Slli: v = a << (m & 63); break;
                case Opcode::Srli: v = a >> (m & 63); break;
                case Opcode::Srai:
                  v = std::uint64_t(std::int64_t(a) >> (m & 63));
                  break;
                case Opcode::Slti:
                  v = std::int64_t(a) < in.imm ? 1 : 0;
                  break;
                default: mbias_panic("unreachable");
              }
              set_reg(in.rd, v, pipe.now + 1);
              break;
          }

          case Opcode::Li:
            set_reg(in.rd, std::uint64_t(in.imm), pipe.now + 1);
            break;

          case Opcode::La:
            mbias_panic("unresolved La reached the simulator");

          // ---- loads ----
          case Opcode::Ld1:
          case Opcode::Ld2:
          case Opcode::Ld4:
          case Opcode::Ld8: {
              wait_for(in.rs1);
              const unsigned size = isa::memAccessSize(in.op);
              const Addr addr = regs[in.rs1] + std::uint64_t(in.imm);
              ctrs.inc(Counter::Loads);
              const Cycles lat =
                  memoryAccess(pipe, addr, size, false, ctrs);
              set_reg(in.rd, mem.read(addr, size), pipe.now + lat);
              break;
          }

          // ---- stores ----
          case Opcode::St1:
          case Opcode::St2:
          case Opcode::St4:
          case Opcode::St8: {
              wait_for(in.rs1);
              wait_for(in.rd); // data register
              const unsigned size = isa::memAccessSize(in.op);
              const Addr addr = regs[in.rs1] + std::uint64_t(in.imm);
              ctrs.inc(Counter::Stores);
              memoryAccess(pipe, addr, size, true, ctrs);
              mem.write(addr, size, regs[in.rd]);
              break;
          }

          // ---- conditional branches ----
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge:
          case Opcode::Bltu:
          case Opcode::Bgeu: {
              wait_for(in.rs1);
              wait_for(in.rs2);
              const std::uint64_t a = regs[in.rs1];
              const std::uint64_t b = regs[in.rs2];
              bool taken = false;
              switch (in.op) {
                case Opcode::Beq: taken = a == b; break;
                case Opcode::Bne: taken = a != b; break;
                case Opcode::Blt:
                  taken = std::int64_t(a) < std::int64_t(b);
                  break;
                case Opcode::Bge:
                  taken = std::int64_t(a) >= std::int64_t(b);
                  break;
                case Opcode::Bltu: taken = a < b; break;
                case Opcode::Bgeu: taken = a >= b; break;
                default: mbias_panic("unreachable");
              }
              ctrs.inc(Counter::BranchesExecuted);
              if (config_.enableBranchPrediction) {
                  // Attribution reads the index before update() so a
                  // history-folding predictor reports the entry this
                  // prediction actually used.
                  MBIAS_ATTR(pht.record(predictor_->tableIndex(pi.pc),
                                        pi.pc));
                  const bool pred = predictor_->predict(pi.pc);
                  predictor_->update(pi.pc, taken);
                  if (pred != taken) {
                      ctrs.inc(Counter::BranchMispredicts);
                      pipe.now += config_.branchMispredictPenalty;
                      pipe.forceNewGroup = true;
                  }
              }
              if (taken) {
                  ctrs.inc(Counter::TakenBranches);
                  const Addr target = prog.code[pi.targetIdx].pc;
                  if (config_.enableBtb) {
                      MBIAS_ATTR(btb.record(btb_.setIndex(pi.pc), pi.pc));
                      if (!btb_.lookupAndUpdate(pi.pc, target)) {
                          ctrs.inc(Counter::BtbMisses);
                          pipe.now += config_.btbMissPenalty;
                      }
                  }
                  redirect_realign(target);
                  pipe.forceNewGroup = true;
                  next = pi.targetIdx;
              }
              break;
          }

          case Opcode::Jmp: {
              const Addr target = prog.code[pi.targetIdx].pc;
              if (config_.enableBtb) {
                  MBIAS_ATTR(btb.record(btb_.setIndex(pi.pc), pi.pc));
                  if (!btb_.lookupAndUpdate(pi.pc, target)) {
                      ctrs.inc(Counter::BtbMisses);
                      pipe.now += config_.btbMissPenalty;
                  }
              }
              redirect_realign(target);
              pipe.forceNewGroup = true;
              next = pi.targetIdx;
              break;
          }

          case Opcode::Call: {
              wait_for(isa::reg::sp);
              ctrs.inc(Counter::Calls);
              const Addr new_sp = regs[isa::reg::sp] - 8;
              const Addr ret_addr = pi.pc + pi.size;
              ctrs.inc(Counter::Stores);
              memoryAccess(pipe, new_sp, 8, true, ctrs);
              mem.write(new_sp, 8, ret_addr);
              set_reg(isa::reg::sp, new_sp, pipe.now + 1);
              const Addr target = prog.code[pi.targetIdx].pc;
              if (config_.enableBtb) {
                  MBIAS_ATTR(btb.record(btb_.setIndex(pi.pc), pi.pc));
                  if (!btb_.lookupAndUpdate(pi.pc, target)) {
                      ctrs.inc(Counter::BtbMisses);
                      pipe.now += config_.btbMissPenalty;
                  }
              }
              redirect_realign(target);
              pipe.forceNewGroup = true;
              next = pi.targetIdx;
              break;
          }

          case Opcode::Ret: {
              wait_for(isa::reg::sp);
              const Addr sp = regs[isa::reg::sp];
              ctrs.inc(Counter::Loads);
              // Return-address stack: the target is predicted
              // perfectly, so the load latency is off the critical
              // path, but the access still exercises the cache/TLB.
              memoryAccess(pipe, sp, 8, false, ctrs);
              const Addr ret_addr = mem.read(sp, 8);
              set_reg(isa::reg::sp, sp + 8, pipe.now + 1);
              auto it = prog.addrToIdx.find(ret_addr);
              mbias_assert(it != prog.addrToIdx.end(),
                           "corrupted return address 0x", std::hex,
                           ret_addr);
              redirect_realign(ret_addr);
              pipe.forceNewGroup = true;
              next = it->second;
              break;
          }

          case Opcode::Nop:
            ctrs.inc(Counter::NopsExecuted);
            break;

          case Opcode::Halt:
            halted = true;
            break;

          default:
            mbias_panic("bad opcode");
        }

        if (profile) {
            FunctionProfile &fp = profile->functions[cur_fn];
            fp.instructions += 1;
            fp.cycles += pipe.now - prof_now;
            fp.icacheMisses +=
                ctrs.get(Counter::IcacheMisses) - prof_ic;
            fp.dcacheMisses +=
                ctrs.get(Counter::DcacheMisses) - prof_dc;
            fp.branchMispredicts +=
                ctrs.get(Counter::BranchMispredicts) - prof_mp;
            fp.lineSplits += ctrs.get(Counter::LineSplits) - prof_ls;
            fp.aliasStalls += ctrs.get(Counter::AliasStalls) - prof_as;
            fp.calls += ctrs.get(Counter::Calls) - prof_calls;
            fp.l2Misses += ctrs.get(Counter::L2Misses) - prof_l2;
            fp.itlbMisses += ctrs.get(Counter::ItlbMisses) - prof_it;
            fp.dtlbMisses += ctrs.get(Counter::DtlbMisses) - prof_dt;
            fp.btbMisses += ctrs.get(Counter::BtbMisses) - prof_bt;
            fp.stallCycles += ctrs.get(Counter::StallCycles) - prof_st;
            fp.fetchGroups += ctrs.get(Counter::FetchGroups) - prof_fg;
        }

        idx = next;
    }

    attr_ = nullptr;
    ctrs.set(Counter::Cycles, pipe.now);
    ctrs.set(Counter::Instructions, icount);
    rr.halted = halted;
    rr.result = regs[isa::reg::a0];
    return rr;
}


RunResult
Machine::runFast(const toolchain::ProcessImage &image,
                 std::uint64_t max_insts, const ExecutionPlan &plan)
{
    if (config_.core == CoreKind::InOrder)
        return runPlanImpl<RunMode::Normal, InOrderCore>(
            image, max_insts, plan, NoiseModel::none(), nullptr, nullptr);
    return runPlanImpl<RunMode::Normal, OooCore>(
        image, max_insts, plan, NoiseModel::none(), nullptr, nullptr);
}

RunResult
Machine::runRecord(const toolchain::ProcessImage &image,
                   std::uint64_t max_insts, const NoiseModel &noise,
                   std::shared_ptr<const FunctionalTrace> *out)
{
    mbias_assert(out, "runRecord needs a trace sink");
    *out = nullptr;
    if (replayTierUsable(*this)) {
        obs::ScopedSpan span("replay-record", "sim");
        const auto plan = PlanCache::global().get(image.program);
        auto trace = std::make_shared<FunctionalTrace>();
        trace->program = image.program;
        trace->gp = image.gp;
        trace->heapBase = image.heapBase;
        trace->entryIdx = image.entryIdx;
        trace->budget = max_insts;
        trace->recordedSp = image.initialSp;
        trace->stackBoundary = image.stackTop >> 1;
        RunResult rr;
        if (config_.core == CoreKind::InOrder)
            rr = runPlanImpl<RunMode::Record, InOrderCore>(
                image, max_insts, *plan, noise, trace.get(), nullptr);
        else
            rr = runPlanImpl<RunMode::Record, OooCore>(
                image, max_insts, *plan, noise, trace.get(), nullptr);
        ReplayCache::global().noteRecord();
        if (!trace->aborted)
            *out = std::move(trace);
        return rr;
    }
    return run(image, max_insts, noise);
}

RunResult
Machine::runReplay(const toolchain::ProcessImage &image,
                   std::uint64_t max_insts, const NoiseModel &noise,
                   const FunctionalTrace &trace)
{
    if (replayTierUsable(*this)) {
        mbias_assert(trace.matches(image, max_insts),
                     "replaying a trace against a mismatched image");
        const auto plan = PlanCache::global().get(image.program);
        RunResult rr;
        if (config_.core == CoreKind::InOrder)
            rr = runPlanImpl<RunMode::Replay, InOrderCore>(
                image, max_insts, *plan, noise, nullptr, &trace);
        else
            rr = runPlanImpl<RunMode::Replay, OooCore>(
                image, max_insts, *plan, noise, nullptr, &trace);
        ReplayCache::global().noteReplay();
        return rr;
    }
    return run(image, max_insts, noise);
}

template <Machine::RunMode Mode, class Core>
RunResult
Machine::runPlanImpl(const toolchain::ProcessImage &image,
                     std::uint64_t max_insts, const ExecutionPlan &plan,
                     const NoiseModel &noise, FunctionalTrace *rec,
                     const FunctionalTrace *rep)
{
    // The contract of this function is bitwise equality with the
    // reference interpreter above (noise disabled, no profile): it
    // performs the same component accesses in the same order with the
    // same arguments, so every counter and the cycle count match
    // exactly.  What changes is the bookkeeping around them:
    //
    //  - dense pre-decoded operands (DecodedOp) instead of PlacedInst
    //    records, and an O(1) return-address table;
    //  - direct-threaded dispatch: every handler ends with its own
    //    computed goto, so the host branch predictor learns per-opcode
    //    successor patterns instead of sharing one switch jump;
    //  - the uarch components' header-inline hot twins (accessLineHot,
    //    accessVpnsHot, recordStoreHot, ...), devirtualized predictor
    //    calls, and hot config fields hoisted into locals;
    //  - functional memory through a small direct-mapped table of page
    //    pointers instead of a hash lookup per access.
    //
    // Mode extends the same loop to the record/replay tier
    // (sim/replay.hh).  Record runs normally (noise allowed — the
    // reference's OS-interrupt model is transcribed below) while
    // appending branch outcomes, Ret targets and resolved memory
    // addresses to *rec.  Replay consumes those streams from *rep
    // instead of executing functionally: control flow comes from the
    // branch bits and Ret targets, memory addresses from the stream
    // (stack ones rebased by the image-vs-recording sp delta), and
    // every value computation is dead — only the timing models run.
    // Mode conditionals are plain ifs on a constant, so the Normal
    // instantiations fold them away.
    //
    // Keep every simulated effect in lockstep with run() when touching
    // any tier.
    constexpr bool kRecord = Mode == RunMode::Record;
    constexpr bool kReplay = Mode == RunMode::Replay;

    // Only the components the fast loop actually drives need a reset:
    // the predictor and BTB are shared with the reference path (their
    // hot twins mutate the real tables).  The caches, TLBs and store
    // buffer are replaced wholesale by the shadows below — nothing
    // observes their state here, and run() resets them on entry.
    predictor_->reset();
    btb_.reset();

    const toolchain::LinkedProgram &prog = image.prog();
    mbias_assert(!prog.code.empty(), "empty program");
    mbias_assert(plan.ops.size() == prog.code.size(),
                 "execution plan does not match the program");

    RunResult rr;
    PerfCounters &ctrs = rr.counters;

    SparseMemory mem;
    if (!kReplay) // replay never reads or writes functional memory
        mem.writeBlock(prog.dataBase, prog.dataInit);

    std::array<std::uint64_t, isa::reg::numRegs> regs{};
    regs[isa::reg::sp] = image.initialSp;
    regs[isa::reg::gp] = image.gp;
    regs[isa::reg::hp] = image.heapBase;

    Pipeline pipe;

    // Hot configuration, hoisted: the reference re-reads these through
    // config_ around opaque calls; here they live in registers.
    const bool model_blocks = config_.enableFetchBlockModel;
    const bool caches_on = config_.enableCaches;
    const bool tlbs_on = config_.enableTlbs;
    const unsigned fetch_width = config_.fetchWidth;
    const Addr fetch_block_bytes = config_.fetchBlockBytes;
    const Addr iline = config_.icache.lineBytes;
    const Cycles i_miss_pen = config_.icache.missPenalty;
    const Cycles l2_miss_pen = config_.l2.missPenalty;
    const unsigned ipage_shift = itlb_.pageShift(); // Tlb asserts pow2
    const Cycles itlb_miss_pen = config_.itlb.missPenalty;
    const Addr dline = config_.dcache.lineBytes;
    const Cycles d_hit_lat = config_.dcache.hitLatency;
    const Cycles d_miss_pen = config_.dcache.missPenalty;
    const unsigned dpage_shift = dtlb_.pageShift();
    const Cycles dtlb_miss_pen = config_.dtlb.missPenalty;
    const bool prefetch_on = config_.enableNextLinePrefetch;
    const bool split_pen_on = config_.enableLineSplitPenalty;
    const Cycles split_pen = config_.lineSplitPenalty;
    const bool sb_alias_on = config_.enableStoreBufferAliasing;
    const Cycles alias_pen = config_.aliasPenalty;
    const Cycles ooo_window = config_.oooWindowCycles;
    const Cycles mul_lat = config_.intMulLatency;
    const Cycles div_lat = config_.intDivLatency;
    const bool bp_on = config_.enableBranchPrediction;
    const bool btb_on = config_.enableBtb;
    const Cycles mispredict_pen = config_.branchMispredictPenalty;
    const Cycles btb_miss_pen = config_.btbMissPenalty;

    // The predictor's concrete type is fixed by the config the
    // instance was built from; resolve it once so every branch calls
    // the non-virtual hot twins.
    uarch::GsharePredictor *gshare = nullptr;
    uarch::BimodalPredictor *bimodal = nullptr;
    if (config_.predictor == PredictorKind::Gshare)
        gshare = static_cast<uarch::GsharePredictor *>(predictor_.get());
    else
        bimodal = static_cast<uarch::BimodalPredictor *>(predictor_.get());

    // Packed-layout twins of the caches and TLBs (see ShadowCache):
    // freshly constructed = freshly reset, so their access outcomes —
    // the only thing the counters observe — match the reference's
    // components access for access.
    ShadowCache s_icache(config_.icache);
    ShadowCache s_dcache(config_.dcache);
    ShadowCache s_l2(config_.l2);
    ShadowTlb s_itlb(config_.itlb);
    ShadowTlb s_dtlb(config_.dtlb);

    // Store-buffer twin in SoA layout: same ring order, same head
    // rotation, same expiry and forwarding rules as StoreBuffer, but
    // the masked addresses sit in their own dense array, so the common
    // no-possible-alias case is one branchless scan of it; only a
    // masked match runs the exact per-entry check.  ~0 marks an empty
    // slot (masked addresses are <= alias_mask, so it never matches).
    const unsigned sb_entries = storeBuffer_.entries();
    const std::uint64_t alias_mask = storeBuffer_.aliasMask();
    const std::uint64_t sb_max_age = storeBuffer_.maxAge();
    std::vector<std::uint64_t> sb_masked(sb_entries, ~std::uint64_t(0));
    std::vector<Addr> sb_addr(sb_entries, 0);
    std::vector<std::uint32_t> sb_size(sb_entries, 0);
    std::vector<std::uint64_t> sb_icount(sb_entries, 0);
    unsigned sb_head = 0;
    const bool sb_bitmap_ok = sb_entries <= 32; ///< bitmap fits a word

    // Inverted index over the masked addresses: sb_index[m] is the
    // bitmap of ring slots currently holding masked address m, kept
    // incrementally by the store path.  It turns the per-load scan of
    // all slots into one table read; the bit order is ring-slot order,
    // so the first-match walk below is unchanged.  Only worth the
    // table for the realistic alias-window sizes (<= 16 bits).
    const bool sb_index_ok =
        sb_bitmap_ok && alias_mask < (std::uint64_t(1) << 16);
    std::vector<std::uint32_t> sb_index(
        sb_index_ok ? std::size_t(alias_mask) + 1 : 0, 0);

    // Exact transcription of StoreBuffer::loadAliases over the shadow
    // arrays: the first live, unexpired, masked-matching entry in ring
    // order decides (clean covering forwarding is free, anything else
    // stalls), exactly as the reference scan does.
    auto sb_aliases = [&](Addr addr, unsigned size)
        __attribute__((noinline)) -> bool {
        const std::uint64_t want = addr & alias_mask;
        for (unsigned i = 0; i < sb_entries; ++i) {
            if (sb_masked[i] != want ||
                sb_icount[i] + sb_max_age < pipe.icount)
                continue;
            return !(sb_addr[i] == addr && sb_size[i] >= size);
        }
        return false;
    };

    auto set_reg = [&](isa::Reg rd, std::uint64_t v, Cycles ready)
        __attribute__((always_inline)) {
        if (rd != isa::reg::zero) {
            if (!kReplay) // replay tracks readiness, never values
                regs[rd] = v;
            pipe.regReady[rd] = ready;
        }
    };
    auto wait_for = [&](isa::Reg r) __attribute__((always_inline)) {
        const Cycles ready = pipe.regReady[r];
        if (ready > pipe.now) {
            const Cycles stall = ready - pipe.now;
            // CoreModel policy: in-order cores expose the whole stall,
            // the OoO window hides up to ooo_window of it.  The OoO
            // branch is token-identical to the pre-backend-layer code.
            Cycles exposed;
            if constexpr (Core::kInOrder)
                exposed = stall;
            else
                exposed = stall - std::min<Cycles>(stall, ooo_window);
            if (exposed) {
                pipe.now += exposed;
                ctrs.inc(Counter::StallCycles, exposed);
            }
        }
    };
    // CoreModel policy: in-order pipes block issue behind a
    // multi-cycle ALU op (busy cycles are exposed stalls, the result
    // is ready right after issue resumes); OoO cores just tag the
    // result with its latency and let wait_for settle it.
    auto alu_ready = [&](Cycles lat)
        __attribute__((always_inline)) -> Cycles {
        if constexpr (Core::kInOrder) {
            if (lat > 1) {
                pipe.now += lat - 1;
                ctrs.inc(Counter::StallCycles, lat - 1);
                return pipe.now + 1;
            }
        }
        return pipe.now + lat;
    };
    // CoreModel policy: in-order front ends refetch when a taken
    // transfer lands inside a fetch block rather than at its start.
    const Cycles fetch_realign_pen = config_.fetchRealignPenalty;
    auto redirect_realign = [&](Addr target)
        __attribute__((always_inline)) {
        if constexpr (Core::kInOrder) {
            if (model_blocks && (target & (fetch_block_bytes - 1)) != 0)
                pipe.now += fetch_realign_pen;
        } else {
            (void)target;
        }
    };

    // Sequential fetch mostly stays within the current line and page;
    // the new-line / new-page work is kept out of line so only the
    // cheap comparisons are replicated per dispatch site.
    auto icache_touch = [&](Addr line) __attribute__((noinline)) {
        if (!s_icache.access(line)) {
            ctrs.inc(Counter::IcacheMisses);
            pipe.now += i_miss_pen;
            if (!s_l2.access(line)) {
                ctrs.inc(Counter::L2Misses);
                pipe.now += l2_miss_pen;
            }
        }
    };
    auto itlb_touch = [&](Addr pc, unsigned size) __attribute__((noinline)) {
        const unsigned misses = s_itlb.accessVpns(
            pc >> ipage_shift, (pc + size - 1) >> ipage_shift);
        if (misses) {
            ctrs.inc(Counter::ItlbMisses, misses);
            pipe.now += misses * itlb_miss_pen;
        }
    };

    // Transcription of fetchAccounting() over the hoisted locals; the
    // ITLB page number reduces to a shift for power-of-two page sizes
    // where the reference divides every instruction.
    auto fetch = [&](Addr pc, unsigned size) __attribute__((always_inline)) {
        const bool new_group = pipe.forceNewGroup || pipe.groupSlots == 0 ||
                               (model_blocks && pc >= pipe.groupBlockEnd);
        if (new_group) {
            pipe.now += 1;
            ctrs.inc(Counter::FetchGroups);
            pipe.groupSlots = fetch_width;
            pipe.groupBlockEnd =
                model_blocks
                    ? alignDown(pc, fetch_block_bytes) + fetch_block_bytes
                    : ~Addr(0);
            pipe.forceNewGroup = false;
        }
        pipe.groupSlots -= 1;
        if (model_blocks && pc + size > pipe.groupBlockEnd)
            pipe.groupSlots = 0;

        if (caches_on) {
            const Addr first = alignDown(pc, iline);
            const Addr last = alignDown(pc + size - 1, iline);
            for (Addr line = first; line <= last; line += iline) {
                if (line == pipe.lastCodeLine)
                    continue;
                pipe.lastCodeLine = line;
                icache_touch(line);
            }
        }
        if (tlbs_on) {
            const Addr page = pc >> ipage_shift;
            if (page != pipe.lastCodePage) {
                pipe.lastCodePage = page;
                itlb_touch(pc, size);
            }
        }
    };

    // L1D miss path (L2, optional next-line prefetch), out of line.
    auto dcache_miss = [&](Addr line) __attribute__((noinline)) -> Cycles {
        Cycles lat = d_miss_pen;
        if (!s_l2.access(line)) {
            ctrs.inc(Counter::L2Misses);
            lat += l2_miss_pen;
        }
        if (prefetch_on) {
            // Background fill of the next line; no demand latency, but
            // it can pollute (and be perturbed by) set placement.
            ctrs.inc(Counter::PrefetchesIssued);
            s_dcache.access(line + dline);
            s_l2.access(line + dline);
        }
        return lat;
    };

    // Transcription of memoryAccess(): same component accesses in the
    // same order, through the inline hot twins.  is_store is constant
    // at every call site, so the branches fold away.
    auto mem_access = [&](Addr addr, unsigned size, bool is_store)
        __attribute__((always_inline)) -> Cycles {
        Cycles lat = is_store ? 0 : d_hit_lat;

        if (tlbs_on) {
            const unsigned misses = s_dtlb.accessVpns(
                addr >> dpage_shift, (addr + size - 1) >> dpage_shift);
            if (misses) {
                ctrs.inc(Counter::DtlbMisses, misses);
                lat += misses * dtlb_miss_pen;
            }
        }

        const Addr first = alignDown(addr, dline);
        const Addr last = alignDown(addr + size - 1, dline);
        if (caches_on) {
            for (Addr line = first; line <= last; line += dline) {
                if (!s_dcache.access(line)) {
                    ctrs.inc(Counter::DcacheMisses);
                    lat += dcache_miss(line);
                }
            }
        }
        if (last != first) {
            ctrs.inc(Counter::LineSplits);
            if (split_pen_on)
                lat += split_pen;
        }

        if (is_store) {
            // A line-crossing store occupies the store port for an
            // extra cycle (a structural resource the OoO window cannot
            // hide).
            if (last != first && split_pen_on)
                pipe.now += 1;
            if (sb_index_ok) {
                const std::uint64_t old = sb_masked[sb_head];
                if (old != ~std::uint64_t(0))
                    sb_index[old] &= ~(std::uint32_t(1) << sb_head);
                sb_index[addr & alias_mask] |=
                    std::uint32_t(1) << sb_head;
            }
            sb_masked[sb_head] = addr & alias_mask;
            sb_addr[sb_head] = addr;
            sb_size[sb_head] = size;
            sb_icount[sb_head] = pipe.icount;
            if (++sb_head == sb_entries)
                sb_head = 0;
            return 0; // the store buffer otherwise hides store latency
        }
        if (sb_alias_on) {
            const std::uint64_t want = addr & alias_mask;
            if (sb_bitmap_ok) {
                // The masked-match bitmap comes straight from the
                // inverted index (or one scan pass when the window is
                // too wide for a table); the first unexpired match in
                // ring order then decides, exactly like the reference
                // scan (expired matches are skipped, the scan
                // continues).
                std::uint32_t match;
                if (sb_index_ok) {
                    match = sb_index[want];
                } else {
                    const std::uint64_t *sbm = sb_masked.data();
                    match = 0;
                    for (unsigned i = 0; i < sb_entries; ++i)
                        match |= std::uint32_t(sbm[i] == want) << i;
                }
                while (match) {
                    const unsigned i = unsigned(std::countr_zero(match));
                    match &= match - 1;
                    if (sb_icount[i] + sb_max_age >= pipe.icount) {
                        if (!(sb_addr[i] == addr && sb_size[i] >= size)) {
                            ctrs.inc(Counter::AliasStalls);
                            lat += alias_pen;
                        }
                        break;
                    }
                }
            } else if (sb_aliases(addr, size)) {
                ctrs.inc(Counter::AliasStalls);
                lat += alias_pen;
            }
        }
        return lat;
    };

    // Functional memory through a small direct-mapped memo of page
    // data pointers: the reference pays a hash lookup on every access;
    // here only a page's first touch does (pointers stay valid until
    // clear() — pages are never freed).  Values are assembled exactly
    // like SparseMemory::read/write; cross-page accesses fall back.
    constexpr Addr page_bytes = SparseMemory::page_bytes;
    struct ReadMemo
    {
        Addr vpn = ~Addr(0);
        const std::uint8_t *data = nullptr;
    };
    struct WriteMemo
    {
        Addr vpn = ~Addr(0);
        std::uint8_t *data = nullptr;
    };
    std::array<ReadMemo, 8> rmemo{};
    std::array<WriteMemo, 8> wmemo{};

    auto mem_read = [&](Addr addr, unsigned size)
        __attribute__((always_inline)) -> std::uint64_t {
        const Addr off = addr & (page_bytes - 1);
        if (off + size <= page_bytes) {
            const Addr vpn = addr / page_bytes;
            ReadMemo &m = rmemo[vpn & 7];
            if (m.vpn != vpn) {
                // Absent pages are read as zero and not memoized (a
                // later store may allocate them).
                const std::uint8_t *p = mem.pageDataIfPresent(addr);
                if (!p)
                    return 0;
                m.vpn = vpn;
                m.data = p;
            }
            const std::uint8_t *b = m.data + off;
            switch (size) {
              case 1:
                return b[0];
              case 2:
                return std::uint64_t(b[0]) | std::uint64_t(b[1]) << 8;
              case 4:
                return std::uint64_t(b[0]) | std::uint64_t(b[1]) << 8 |
                       std::uint64_t(b[2]) << 16 | std::uint64_t(b[3]) << 24;
              default:
                return std::uint64_t(b[0]) | std::uint64_t(b[1]) << 8 |
                       std::uint64_t(b[2]) << 16 | std::uint64_t(b[3]) << 24 |
                       std::uint64_t(b[4]) << 32 | std::uint64_t(b[5]) << 40 |
                       std::uint64_t(b[6]) << 48 | std::uint64_t(b[7]) << 56;
            }
        }
        return mem.read(addr, size);
    };
    auto mem_write = [&](Addr addr, unsigned size, std::uint64_t value)
        __attribute__((always_inline)) {
        const Addr off = addr & (page_bytes - 1);
        if (off + size <= page_bytes) {
            const Addr vpn = addr / page_bytes;
            WriteMemo &m = wmemo[vpn & 7];
            if (m.vpn != vpn) {
                m.vpn = vpn;
                m.data = mem.pageData(addr);
            }
            std::uint8_t *b = m.data + off;
            switch (size) {
              case 8:
                b[7] = std::uint8_t(value >> 56);
                b[6] = std::uint8_t(value >> 48);
                b[5] = std::uint8_t(value >> 40);
                b[4] = std::uint8_t(value >> 32);
                [[fallthrough]];
              case 4:
                b[3] = std::uint8_t(value >> 24);
                b[2] = std::uint8_t(value >> 16);
                [[fallthrough]];
              case 2:
                b[1] = std::uint8_t(value >> 8);
                [[fallthrough]];
              default:
                b[0] = std::uint8_t(value);
            }
            return;
        }
        mem.write(addr, size, value);
    };

    // OS-interrupt noise, transcribed from the reference loop: same
    // RNG stream (one nextDouble per schedule, two next() per evicted
    // line pair), same schedule arithmetic, same eviction order
    // (dcache set then icache set), same lastCodeLine reset — so noisy
    // record/replay runs are bitwise identical to the reference.
    // Normal-mode runs are gated noise-free by run(), so noise_on
    // folds to false there and the checks vanish.
    Rng noise_rng(noise.seed ^ 0x05e1f00dULL);
    Cycles next_interrupt = ~Cycles(0);
    const bool noise_on = Mode != RunMode::Normal && noise.enabled;
    const Cycles noise_cost = noise.costCycles;
    const unsigned noise_evict = noise.linesEvictedPerInterrupt;
    auto schedule_interrupt = [&](Cycles from) {
        const double jitter = 0.5 + noise_rng.nextDouble();
        next_interrupt =
            from + Cycles(double(noise.meanIntervalCycles) * jitter);
    };
    auto do_interrupt = [&]() __attribute__((noinline)) {
        ctrs.inc(Counter::OsInterrupts);
        pipe.now += noise_cost;
        for (unsigned e = 0; e < noise_evict; ++e) {
            s_dcache.invalidateSet(noise_rng.next());
            s_icache.invalidateSet(noise_rng.next());
        }
        pipe.lastCodeLine = ~Addr(0); // force an icache re-access
        schedule_interrupt(pipe.now);
    };
    if (noise_on)
        schedule_interrupt(0);

    // DVFS frequency steps, transcribed from the reference loop: same
    // independent RNG stream (one nextDouble per schedule, one per
    // step), same lump charge, no state eviction.  Like noise_on,
    // dvfs_on folds to false in Normal mode.
    Rng dvfs_rng(noise.seed ^ 0xd7f5c10cULL);
    Cycles next_dvfs = ~Cycles(0);
    const bool dvfs_on = Mode != RunMode::Normal && noise.dvfsEnabled;
    auto schedule_dvfs = [&](Cycles from) {
        const double jitter = 0.5 + dvfs_rng.nextDouble();
        next_dvfs =
            from + Cycles(double(noise.dvfsMeanIntervalCycles) * jitter);
    };
    auto do_dvfs_step = [&]() __attribute__((noinline)) {
        const double rj = 0.5 + dvfs_rng.nextDouble();
        const Cycles residency =
            Cycles(double(noise.dvfsMeanResidencyCycles) * rj);
        pipe.now += noise.dvfsTransitionCycles +
                    residency * noise.dvfsSlowdownPercent / 100;
        schedule_dvfs(pipe.now + residency);
    };
    if (dvfs_on)
        schedule_dvfs(0);

    // Record-mode stream sinks.  One running byte estimate caps the
    // footprint: past FunctionalTrace::kMaxBytes the streams stop
    // growing, the run completes normally, and the trace is marked
    // aborted (the caller then negative-caches the key).
    FunctionalTrace *const ft_rec = rec;
    std::uint64_t rec_bits = 0; ///< branch-bit accumulator, LSB first
    unsigned rec_nbits = 0;
    std::uint64_t rec_bytes = 0;
    bool rec_ok = true;
    auto rec_branch = [&](bool taken) __attribute__((always_inline)) {
        rec_bits |= std::uint64_t(taken) << rec_nbits;
        if (++rec_nbits == 64) {
            if (__builtin_expect(rec_ok, 1)) {
                ft_rec->branchBits.push_back(rec_bits);
                rec_ok = (rec_bytes += 8) < FunctionalTrace::kMaxBytes;
            }
            rec_bits = 0;
            rec_nbits = 0;
        }
        ++ft_rec->branchCount;
    };
    auto rec_mem = [&](Addr addr) __attribute__((always_inline)) {
        if (__builtin_expect(rec_ok, 1)) {
            ft_rec->memAddrs.push_back(addr);
            rec_ok = (rec_bytes += sizeof(Addr)) <
                     FunctionalTrace::kMaxBytes;
        }
    };
    auto rec_ret = [&](std::uint32_t target) __attribute__((always_inline)) {
        if (__builtin_expect(rec_ok, 1)) {
            ft_rec->retTargets.push_back(target);
            rec_ok = (rec_bytes += 4) < FunctionalTrace::kMaxBytes;
        }
    };

    // Replay-mode stream cursors.  The streams are exact by
    // construction (same program, same entry, same budget ⇒ same
    // functional execution), so exhaustion mid-run means the replay
    // preconditions were violated — assert, don't wander.
    const std::uint64_t *rp_bits_data = nullptr;
    std::size_t rp_bits_n = 0;
    const std::uint32_t *rp_ret_data = nullptr;
    std::size_t rp_ret_n = 0;
    const Addr *rp_mem_data = nullptr;
    std::size_t rp_mem_n = 0;
    std::uint64_t rp_delta = 0; ///< stack rebase: initialSp - recordedSp
    Addr rp_boundary = ~Addr(0);
    if (kReplay) {
        rp_bits_data = rep->branchBits.data();
        rp_bits_n = rep->branchBits.size();
        rp_ret_data = rep->retTargets.data();
        rp_ret_n = rep->retTargets.size();
        rp_mem_data = rep->memAddrs.data();
        rp_mem_n = rep->memAddrs.size();
        rp_delta = image.initialSp - rep->recordedSp; // mod-2^64 delta
        rp_boundary = rep->stackBoundary;
    }
    std::uint64_t rp_bit = 0;
    std::size_t rp_bitword = 0;
    std::size_t rp_ret = 0;
    std::size_t rp_mem = 0;
    auto rp_taken = [&]() __attribute__((always_inline)) -> bool {
        mbias_assert(rp_bitword < rp_bits_n,
                     "replay branch stream exhausted");
        const bool t = (rp_bits_data[rp_bitword] >> rp_bit) & 1;
        if (++rp_bit == 64) {
            rp_bit = 0;
            ++rp_bitword;
        }
        return t;
    };
    auto rp_addr = [&]() __attribute__((always_inline)) -> Addr {
        mbias_assert(rp_mem < rp_mem_n, "replay memory stream exhausted");
        const Addr a = rp_mem_data[rp_mem++];
        return a >= rp_boundary ? a + rp_delta : a;
    };
    auto rp_ret_target = [&]() __attribute__((always_inline))
        -> std::uint32_t {
        mbias_assert(rp_ret < rp_ret_n, "replay return stream exhausted");
        return rp_ret_data[rp_ret++];
    };

    const DecodedOp *const ops = plan.ops.data();

    std::uint64_t icount = 0;
    std::uint32_t idx = image.entryIdx;
    bool halted = false;
    const DecodedOp *d = nullptr;

    // Shared tail of every conditional branch (reference order:
    // BranchesExecuted, predict+train, then the taken path).  Replay
    // overrides the caller's (dead-value) outcome with the recorded
    // bit; Record appends the live outcome to the stream.
    auto do_branch = [&](const DecodedOp &b, bool taken)
        __attribute__((always_inline)) {
        if (kReplay)
            taken = rp_taken();
        else if (kRecord)
            rec_branch(taken);
        ctrs.inc(Counter::BranchesExecuted);
        if (bp_on) {
            bool pred;
            if (gshare) {
                pred = gshare->predictHot(b.pc);
                gshare->updateHot(b.pc, taken);
            } else {
                pred = bimodal->predictHot(b.pc);
                bimodal->updateHot(b.pc, taken);
            }
            if (pred != taken) {
                ctrs.inc(Counter::BranchMispredicts);
                pipe.now += mispredict_pen;
                pipe.forceNewGroup = true;
            }
        }
        if (taken) {
            ctrs.inc(Counter::TakenBranches);
            const Addr target = ops[b.targetIdx].pc;
            if (btb_on && !btb_.lookupAndUpdateHot(b.pc, target)) {
                ctrs.inc(Counter::BtbMisses);
                pipe.now += btb_miss_pen;
            }
            redirect_realign(target);
            pipe.forceNewGroup = true;
            idx = b.targetIdx;
        } else {
            ++idx;
        }
    };

    // Handler addresses indexed by Opcode value; order must match the
    // enum exactly (plan.cc validated every op at build time).
    static const void *const kDispatch[] = {
        &&op_add, &&op_sub, &&op_mul, &&op_divu, &&op_remu, &&op_and,
        &&op_or, &&op_xor, &&op_sll, &&op_srl, &&op_sra, &&op_slt,
        &&op_sltu, &&op_addi, &&op_andi, &&op_ori, &&op_xori, &&op_slli,
        &&op_srli, &&op_srai, &&op_slti, &&op_li, &&op_la, &&op_ld,
        &&op_ld, &&op_ld, &&op_ld, &&op_st, &&op_st, &&op_st, &&op_st,
        &&op_beq, &&op_bne, &&op_blt, &&op_bge, &&op_bltu, &&op_bgeu,
        &&op_jmp, &&op_call, &&op_ret, &&op_nop, &&op_halt,
    };
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      std::size_t(Opcode::NumOpcodes),
                  "dispatch table out of sync with the opcode enum");

// One budget check + fetch + threaded jump between every pair of
// instructions; each expansion gives its handler a private dispatch
// branch.  The noise check sits where the reference loop has it —
// after the budget check, before fetch — and folds away in Normal
// mode (noise_on is constant false there).
#define MBIAS_DISPATCH()                                                    \
    do {                                                                    \
        if (__builtin_expect(icount >= max_insts, 0))                       \
            goto run_done;                                                  \
        if (noise_on && __builtin_expect(pipe.now >= next_interrupt, 0))    \
            do_interrupt();                                                 \
        if (dvfs_on && __builtin_expect(pipe.now >= next_dvfs, 0))          \
            do_dvfs_step();                                                 \
        d = ops + idx;                                                      \
        ++icount;                                                           \
        fetch(d->pc, d->size);                                              \
        goto *kDispatch[std::size_t(d->op)];                                \
    } while (0)

    MBIAS_DISPATCH();

  op_add:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd, regs[d->rs1] + regs[d->rs2], pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_sub:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd, regs[d->rs1] - regs[d->rs2], pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_mul:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd, regs[d->rs1] * regs[d->rs2], alu_ready(mul_lat));
    ++idx;
    MBIAS_DISPATCH();

  op_divu: {
      wait_for(d->rs1);
      wait_for(d->rs2);
      const std::uint64_t a = regs[d->rs1];
      const std::uint64_t b = regs[d->rs2];
      set_reg(d->rd, b == 0 ? ~std::uint64_t(0) : a / b,
              alu_ready(div_lat));
      ++idx;
      MBIAS_DISPATCH();
  }

  op_remu: {
      wait_for(d->rs1);
      wait_for(d->rs2);
      const std::uint64_t a = regs[d->rs1];
      const std::uint64_t b = regs[d->rs2];
      set_reg(d->rd, b == 0 ? a : a % b, alu_ready(div_lat));
      ++idx;
      MBIAS_DISPATCH();
  }

  op_and:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd, regs[d->rs1] & regs[d->rs2], pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_or:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd, regs[d->rs1] | regs[d->rs2], pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_xor:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd, regs[d->rs1] ^ regs[d->rs2], pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_sll:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd, regs[d->rs1] << (regs[d->rs2] & 63), pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_srl:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd, regs[d->rs1] >> (regs[d->rs2] & 63), pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_sra:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd,
            std::uint64_t(std::int64_t(regs[d->rs1]) >> (regs[d->rs2] & 63)),
            pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_slt:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd,
            std::int64_t(regs[d->rs1]) < std::int64_t(regs[d->rs2]) ? 1 : 0,
            pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_sltu:
    wait_for(d->rs1);
    wait_for(d->rs2);
    set_reg(d->rd, regs[d->rs1] < regs[d->rs2] ? 1 : 0, pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_addi:
    wait_for(d->rs1);
    set_reg(d->rd, regs[d->rs1] + std::uint64_t(d->imm), pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_andi:
    wait_for(d->rs1);
    set_reg(d->rd, regs[d->rs1] & std::uint64_t(d->imm), pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_ori:
    wait_for(d->rs1);
    set_reg(d->rd, regs[d->rs1] | std::uint64_t(d->imm), pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_xori:
    wait_for(d->rs1);
    set_reg(d->rd, regs[d->rs1] ^ std::uint64_t(d->imm), pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_slli:
    wait_for(d->rs1);
    set_reg(d->rd, regs[d->rs1] << (std::uint64_t(d->imm) & 63),
            pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_srli:
    wait_for(d->rs1);
    set_reg(d->rd, regs[d->rs1] >> (std::uint64_t(d->imm) & 63),
            pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_srai:
    wait_for(d->rs1);
    set_reg(d->rd,
            std::uint64_t(std::int64_t(regs[d->rs1]) >>
                          (std::uint64_t(d->imm) & 63)),
            pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_slti:
    wait_for(d->rs1);
    set_reg(d->rd, std::int64_t(regs[d->rs1]) < d->imm ? 1 : 0,
            pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_li:
    set_reg(d->rd, std::uint64_t(d->imm), pipe.now + 1);
    ++idx;
    MBIAS_DISPATCH();

  op_ld: {
      wait_for(d->rs1);
      const unsigned size = d->accessSize;
      const Addr addr = kReplay
                            ? rp_addr()
                            : regs[d->rs1] + std::uint64_t(d->imm);
      if (kRecord)
          rec_mem(addr);
      ctrs.inc(Counter::Loads);
      pipe.icount = icount; // only memory ops observe it
      const Cycles lat = mem_access(addr, size, false);
      set_reg(d->rd, kReplay ? 0 : mem_read(addr, size), pipe.now + lat);
      ++idx;
      MBIAS_DISPATCH();
  }

  op_st: {
      wait_for(d->rs1);
      wait_for(d->rd); // data register
      const unsigned size = d->accessSize;
      const Addr addr = kReplay
                            ? rp_addr()
                            : regs[d->rs1] + std::uint64_t(d->imm);
      if (kRecord)
          rec_mem(addr);
      ctrs.inc(Counter::Stores);
      pipe.icount = icount;
      mem_access(addr, size, true);
      if (!kReplay)
          mem_write(addr, size, regs[d->rd]);
      ++idx;
      MBIAS_DISPATCH();
  }

  op_beq:
    wait_for(d->rs1);
    wait_for(d->rs2);
    do_branch(*d, regs[d->rs1] == regs[d->rs2]);
    MBIAS_DISPATCH();

  op_bne:
    wait_for(d->rs1);
    wait_for(d->rs2);
    do_branch(*d, regs[d->rs1] != regs[d->rs2]);
    MBIAS_DISPATCH();

  op_blt:
    wait_for(d->rs1);
    wait_for(d->rs2);
    do_branch(*d, std::int64_t(regs[d->rs1]) < std::int64_t(regs[d->rs2]));
    MBIAS_DISPATCH();

  op_bge:
    wait_for(d->rs1);
    wait_for(d->rs2);
    do_branch(*d, std::int64_t(regs[d->rs1]) >= std::int64_t(regs[d->rs2]));
    MBIAS_DISPATCH();

  op_bltu:
    wait_for(d->rs1);
    wait_for(d->rs2);
    do_branch(*d, regs[d->rs1] < regs[d->rs2]);
    MBIAS_DISPATCH();

  op_bgeu:
    wait_for(d->rs1);
    wait_for(d->rs2);
    do_branch(*d, regs[d->rs1] >= regs[d->rs2]);
    MBIAS_DISPATCH();

  op_jmp: {
      const Addr target = ops[d->targetIdx].pc;
      if (btb_on && !btb_.lookupAndUpdateHot(d->pc, target)) {
          ctrs.inc(Counter::BtbMisses);
          pipe.now += btb_miss_pen;
      }
      redirect_realign(target);
      pipe.forceNewGroup = true;
      idx = d->targetIdx;
      MBIAS_DISPATCH();
  }

  op_call: {
      wait_for(isa::reg::sp);
      ctrs.inc(Counter::Calls);
      const Addr new_sp =
          kReplay ? rp_addr() : regs[isa::reg::sp] - 8;
      if (kRecord)
          rec_mem(new_sp);
      const Addr ret_addr = d->pc + d->size;
      ctrs.inc(Counter::Stores);
      pipe.icount = icount;
      mem_access(new_sp, 8, true);
      if (!kReplay)
          mem_write(new_sp, 8, ret_addr);
      set_reg(isa::reg::sp, new_sp, pipe.now + 1);
      const Addr target = ops[d->targetIdx].pc;
      if (btb_on && !btb_.lookupAndUpdateHot(d->pc, target)) {
          ctrs.inc(Counter::BtbMisses);
          pipe.now += btb_miss_pen;
      }
      redirect_realign(target);
      pipe.forceNewGroup = true;
      idx = d->targetIdx;
      MBIAS_DISPATCH();
  }

  op_ret: {
      wait_for(isa::reg::sp);
      const Addr sp = kReplay ? rp_addr() : regs[isa::reg::sp];
      if (kRecord)
          rec_mem(sp);
      ctrs.inc(Counter::Loads);
      pipe.icount = icount;
      // Return-address stack: the target is predicted perfectly, so
      // the load latency is off the critical path, but the access
      // still exercises the cache/TLB.
      mem_access(sp, 8, false);
      std::uint32_t t;
      if (kReplay) {
          // The resolved code index was recorded; the functional load
          // it came from never happens here.
          t = rp_ret_target();
      } else {
          const Addr ret_addr = mem_read(sp, 8);
          // O(1) return-address table, same domain as the reference's
          // addrToIdx hash map.
          const Addr off = ret_addr - plan.codeBase;
          t = ExecutionPlan::kNoIndex;
          if (off < plan.idxByOffset.size())
              t = plan.idxByOffset[std::size_t(off)];
          mbias_assert(t != ExecutionPlan::kNoIndex,
                       "corrupted return address 0x", std::hex, ret_addr);
          if (kRecord)
              rec_ret(t);
      }
      set_reg(isa::reg::sp, sp + 8, pipe.now + 1);
      redirect_realign(ops[t].pc);
      pipe.forceNewGroup = true;
      idx = t;
      MBIAS_DISPATCH();
  }

  op_nop:
    ctrs.inc(Counter::NopsExecuted);
    ++idx;
    MBIAS_DISPATCH();

  op_halt:
    halted = true;
    goto run_done;

  op_la:
    mbias_panic("unresolved La reached the simulator");

#undef MBIAS_DISPATCH

  run_done:
    if (kRecord) {
        if (rec_nbits && rec_ok)
            ft_rec->branchBits.push_back(rec_bits); // flush partial word
        ft_rec->aborted = !rec_ok;
        ft_rec->icount = icount;
        ft_rec->halted = halted;
        ft_rec->resultA0 = regs[isa::reg::a0];
    }
    ctrs.set(Counter::Cycles, pipe.now);
    ctrs.set(Counter::Instructions, icount);
    rr.halted = halted;
    if (kReplay) {
        // The architectural outcome comes from the recording; the
        // loop above only re-derived control flow from the streams.
        // a0 gets the stack rebase when it is itself a stack address
        // (e.g. a workload returning a stack pointer).
        mbias_assert(icount == rep->icount && halted == rep->halted,
                     "replay diverged from its recording");
        rr.result = rep->resultA0 >= rp_boundary
                        ? rep->resultA0 + rp_delta
                        : rep->resultA0;
    } else {
        rr.result = regs[isa::reg::a0];
    }
    return rr;
}

} // namespace mbias::sim
