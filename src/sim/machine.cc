#include "sim/machine.hh"

#include "base/bitutils.hh"
#include "base/random.hh"
#include "sim/attribution.hh"
#include "obs/trace.hh"
#include "sim/plan.hh"
#include "sim/replay.hh"
#include "sim/shadow.hh"

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
 * Per-lane half of the fast tier's timing state: every structure whose
 * outcome depends on a lane's own data addresses or noise stream.  The
 * front end (fetch groups, predictor, BTB, ITLB) is shared by all
 * lanes of a batch, and so is the L1I — lane 0's — while no lane takes
 * interrupts (an interrupt evicts L1I sets of its own lane only).
 */
struct LaneState
{
    LaneState(const MachineConfig &c, unsigned sb_entries,
              std::size_t sb_index_size, const NoiseModel &n)
        : icache(c.icache), dcache(c.dcache), l2(c.l2), dtlb(c.dtlb),
          sbMasked(sb_entries, ~std::uint64_t(0)), sbAddr(sb_entries, 0),
          sbSize(sb_entries, 0), sbIcount(sb_entries, 0),
          sbIndex(sb_index_size, 0), noise(n),
          noiseRng(n.seed ^ 0x05e1f00dULL), dvfsRng(n.seed ^ 0xd7f5c10cULL)
    {
    }

    ShadowCache icache;
    ShadowCache dcache;
    ShadowCache l2;
    ShadowTlb dtlb;

    // Store-buffer twin in SoA layout: same ring order, same head
    // rotation, same expiry and forwarding rules as StoreBuffer, but
    // the masked addresses sit in their own dense array, so the common
    // no-possible-alias case is one branchless scan of it; only a
    // masked match runs the exact per-entry check.  ~0 marks an empty
    // slot (masked addresses are <= the alias mask, so it never
    // matches).  sbIndex[m] is the bitmap of ring slots holding masked
    // address m; the ring head lives with the lane clocks (see
    // runPlanImpl).
    std::vector<std::uint64_t> sbMasked;
    std::vector<Addr> sbAddr;
    std::vector<std::uint32_t> sbSize;
    std::vector<std::uint64_t> sbIcount;
    std::vector<std::uint32_t> sbIndex;

    PerfCounters ctrs; ///< lane-dependent events only
    Addr lastCodeLine = ~Addr(0); ///< L1I reuse, when not shared
    std::uint64_t stackDelta = 0; ///< initialSp - lane 0's initialSp

    NoiseModel noise;
    Rng noiseRng;
    Cycles nextInterrupt = ~Cycles(0);
    Rng dvfsRng;
    Cycles nextDvfs = ~Cycles(0);

    std::uint64_t bytes() const
    {
        return sizeof(*this) + icache.bytes() + dcache.bytes() + l2.bytes() +
               dtlb.bytes() +
               sbMasked.size() * (2 * sizeof(std::uint64_t) + sizeof(Addr) +
                                  sizeof(std::uint32_t)) +
               sbIndex.size() * sizeof(std::uint32_t);
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
    return "fast + lanes";
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
    // The fast tier takes every run that asks for no per-instruction
    // observation: per-function profiling and per-set attribution read
    // state the plan loop does not keep, so those runs stay here.  A
    // noisy run is a batch of one lane.
    if (!profile && !attribution && fastTierUsable()) {
        const Lane lane{&image, noise};
        RunResult rr;
        runBatch(&lane, 1, max_insts,
                 *PlanCache::global().get(image.program), &rr);
        return rr;
    }

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



bool
Machine::fastTierUsable() const
{
#if MBIAS_SIM_FASTPATH_ENABLED
    return useFastPath_ && !referenceForcedByEnv();
#else
    return false;
#endif
}

std::vector<RunResult>
Machine::runLanes(const std::vector<Lane> &lanes, std::uint64_t max_insts)
{
    std::vector<RunResult> out(lanes.size());
    if (lanes.empty())
        return out;
    if (!fastTierUsable()) {
        for (std::size_t i = 0; i < lanes.size(); ++i)
            out[i] = run(*lanes[i].image, max_insts, lanes[i].noise);
        return out;
    }
    const auto plan = PlanCache::global().get(lanes[0].image->program);
    for (std::size_t b = 0; b < lanes.size(); b += kLaneWidth) {
        const unsigned n =
            unsigned(std::min<std::size_t>(kLaneWidth, lanes.size() - b));
        // The batch span keeps the retired record/replay tier's name,
        // which the repo benchmark reads as sim.record_s.
        obs::ScopedSpan span("replay-record", "sim");
        const std::uint64_t bytes =
            runBatch(&lanes[b], n, max_insts, *plan, &out[b]);
        ReplayCache::global().noteLaneBatch(n, bytes);
    }
    return out;
}

std::uint64_t
Machine::runBatch(const Lane *lanes, unsigned n, std::uint64_t max_insts,
                  const ExecutionPlan &plan, RunResult *out)
{
    const bool batch =
        n > 1 || std::any_of(lanes, lanes + n, [](const Lane &lane) {
            return lane.noise.active();
        });
    if (config_.core == CoreKind::InOrder)
        return batch ? runPlanImpl<true, InOrderCore>(lanes, n, max_insts,
                                                      plan, out)
                     : runPlanImpl<false, InOrderCore>(lanes, n, max_insts,
                                                       plan, out);
    return batch
               ? runPlanImpl<true, OooCore>(lanes, n, max_insts, plan, out)
               : runPlanImpl<false, OooCore>(lanes, n, max_insts, plan, out);
}

template <bool kBatch, class Core>
std::uint64_t
Machine::runPlanImpl(const Lane *lanes, unsigned n, std::uint64_t max_insts,
                     const ExecutionPlan &plan, RunResult *out)
{
    // The contract of this function is bitwise equality, lane by lane,
    // with the reference interpreter above: for each lane it performs
    // the same component accesses in the same order with the same
    // arguments, so every counter and the cycle count match exactly.
    // What changes is the bookkeeping around them:
    //
    //  - dense pre-decoded operands (DecodedOp) instead of PlacedInst
    //    records, and an O(1) return-address table;
    //  - direct-threaded dispatch: every handler ends with its own
    //    computed goto, so the host branch predictor learns per-opcode
    //    successor patterns instead of sharing one switch jump;
    //  - packed shadow caches/TLBs (sim/shadow.hh), the uarch
    //    components' header-inline hot twins, devirtualized predictor
    //    calls, and hot config fields hoisted into locals;
    //  - functional memory through a small direct-mapped table of page
    //    pointers instead of a hash lookup per access.
    //
    // kBatch runs n lanes in lockstep.  Lanes share everything that is
    // a function of the instruction stream alone: the functional
    // execution (lane 0's image; the others differ only in initialSp,
    // so their stack addresses are lane 0's plus their sp delta), the
    // fetch groups, predictor, BTB, ITLB, and — with no interrupts —
    // the L1I.  Each lane keeps its own clock, register-ready times,
    // L1D/L2/DTLB/store buffer and noise streams.  A lane's clock is
    // `base + own[l]`: charges every lane pays alike go to base once,
    // lane-dependent ones to own[l], so at every comparison point a
    // lane sees exactly the cycle count its own reference run has.
    // Without kBatch, n == 1, no noise, and the lane loops and the
    // base/own split fold away.
    //
    // Keep every simulated effect in lockstep with run() when touching
    // either interpreter.
    constexpr unsigned W = kBatch ? kLaneWidth : 1;
    const unsigned nl = kBatch ? n : 1;
    mbias_assert(n >= 1 && n <= W, "lane batch of ", n);

    // Only the components the fast loop actually drives need a reset:
    // the predictor and BTB are shared with the reference path (their
    // hot twins mutate the real tables).  The caches, TLBs and store
    // buffer are replaced wholesale by the shadows below — nothing
    // observes their state here, and run() resets them on entry.
    predictor_->reset();
    btb_.reset();

    const toolchain::ProcessImage &image = *lanes[0].image;
    const toolchain::LinkedProgram &prog = image.prog();
    mbias_assert(!prog.code.empty(), "empty program");
    mbias_assert(plan.ops.size() == prog.code.size(),
                 "execution plan does not match the program");
    for (unsigned l = 1; l < nl; ++l) {
        const toolchain::ProcessImage &other = *lanes[l].image;
        mbias_assert(other.program.get() == image.program.get() &&
                         other.gp == image.gp &&
                         other.heapBase == image.heapBase &&
                         other.entryIdx == image.entryIdx,
                     "lanes of one batch must share program and layout "
                     "outside the stack");
    }

    SparseMemory mem;
    mem.writeBlock(prog.dataBase, prog.dataInit);

    std::array<std::uint64_t, isa::reg::numRegs> regs{};
    regs[isa::reg::sp] = image.initialSp;
    regs[isa::reg::gp] = image.gp;
    regs[isa::reg::hp] = image.heapBase;

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
    const Cycles fetch_realign_pen = config_.fetchRealignPenalty;

    // The predictor's concrete type is fixed by the config the
    // instance was built from; resolve it once so every branch calls
    // the non-virtual hot twins.
    uarch::GsharePredictor *gshare = nullptr;
    uarch::BimodalPredictor *bimodal = nullptr;
    if (config_.predictor == PredictorKind::Gshare)
        gshare = static_cast<uarch::GsharePredictor *>(predictor_.get());
    else
        bimodal = static_cast<uarch::BimodalPredictor *>(predictor_.get());

    const unsigned sb_entries = storeBuffer_.entries();
    const std::uint64_t alias_mask = storeBuffer_.aliasMask();
    const std::uint64_t sb_max_age = storeBuffer_.maxAge();
    const bool sb_bitmap_ok = sb_entries <= 32; ///< bitmap fits a word
    // Inverted index over the masked addresses, kept incrementally by
    // the store path.  It turns the per-load scan of all slots into one
    // table read; the bit order is ring-slot order, so the first-match
    // walk below is unchanged.  Only worth the table for the realistic
    // alias-window sizes (<= 16 bits).
    const bool sb_index_ok =
        sb_bitmap_ok && alias_mask < (std::uint64_t(1) << 16);

    // Per-lane shadows: freshly constructed = freshly reset, so their
    // access outcomes — the only thing the counters observe — match
    // each lane's reference components access for access.
    std::vector<LaneState> lane_state;
    lane_state.reserve(nl);
    bool noise_on = false, dvfs_on = false;
    for (unsigned l = 0; l < nl; ++l) {
        lane_state.emplace_back(config_, sb_entries,
                                sb_index_ok ? std::size_t(alias_mask) + 1
                                            : 0,
                                lanes[l].noise);
        lane_state[l].stackDelta =
            lanes[l].image->initialSp - image.initialSp; // mod 2^64
        noise_on |= kBatch && lanes[l].noise.enabled;
        dvfs_on |= kBatch && lanes[l].noise.dvfsEnabled;
    }
    LaneState *const L = lane_state.data();
    // Stack-region addresses: half of lane 0's stack top lies far above
    // any data/heap address and far below any stack address, for every
    // preset layout.
    const Addr stack_boundary = image.stackTop >> 1;
    const bool icache_shared = !noise_on;
    ShadowTlb s_itlb(config_.itlb);

    // Lane clocks (see above) and register-ready times, lane-minor so
    // one instruction's lane loop walks contiguous words.
    Cycles base = 0;
    std::array<Cycles, W> own{};
    std::array<Cycles, W> stall{}; ///< StallCycles per lane
    std::array<std::array<Cycles, W>, isa::reg::numRegs> ready{};
    std::array<unsigned, W> sb_head{}; ///< store-buffer ring heads
    PerfCounters shared; ///< lane-invariant events, counted once

    auto now = [&](unsigned l) __attribute__((always_inline)) -> Cycles {
        if constexpr (kBatch)
            return base + own[l];
        else
            return own[0];
    };
    auto charge_all = [&](Cycles c) __attribute__((always_inline)) {
        if constexpr (kBatch)
            base += c;
        else
            own[0] += c;
    };
    auto lane_addr = [&](unsigned l, Addr a)
        __attribute__((always_inline)) -> Addr {
        if constexpr (kBatch)
            return a >= stack_boundary ? a + L[l].stackDelta : a;
        else
            return a;
    };

    auto wait_for = [&](unsigned l, isa::Reg r)
        __attribute__((always_inline)) {
        const Cycles t = now(l);
        const Cycles ready_at = ready[r][l];
        if (ready_at > t) {
            const Cycles s = ready_at - t;
            // CoreModel policy: in-order cores expose the whole stall,
            // the OoO window hides up to ooo_window of it.
            Cycles exposed;
            if constexpr (Core::kInOrder)
                exposed = s;
            else
                exposed = s - std::min<Cycles>(s, ooo_window);
            if (exposed) {
                own[l] += exposed;
                stall[l] += exposed;
            }
        }
    };
    // CoreModel policy: in-order pipes block issue behind a
    // multi-cycle ALU op (busy cycles are exposed stalls, the result
    // is ready right after issue resumes); OoO cores just tag the
    // result with its latency and let wait_for settle it.
    auto alu_ready = [&](unsigned l, Cycles lat)
        __attribute__((always_inline)) -> Cycles {
        if constexpr (Core::kInOrder) {
            if (lat > 1) {
                own[l] += lat - 1;
                stall[l] += lat - 1;
                return now(l) + 1;
            }
        }
        return now(l) + lat;
    };
    // CoreModel policy: in-order front ends refetch when a taken
    // transfer lands inside a fetch block rather than at its start.
    auto redirect_realign = [&](Addr target)
        __attribute__((always_inline)) {
        if constexpr (Core::kInOrder) {
            if (model_blocks && (target & (fetch_block_bytes - 1)) != 0)
                charge_all(fetch_realign_pen);
        } else {
            (void)target;
        }
    };

    // Front-end state, shared by every lane.
    unsigned group_slots = 0;
    Addr group_block_end = 0;
    bool force_new_group = true;
    Addr last_code_line = ~Addr(0);
    Addr last_code_page = ~Addr(0);

    // Sequential fetch mostly stays within the current line and page;
    // the new-line / new-page work is kept out of line so only the
    // cheap comparisons are replicated per dispatch site.  A shared
    // L1I miss costs every lane the same, but the L2 behind it is each
    // lane's own.
    auto icache_touch = [&](Addr line) __attribute__((noinline)) {
        if (!L[0].icache.access(line)) {
            shared.inc(Counter::IcacheMisses);
            charge_all(i_miss_pen);
            for (unsigned l = 0; l < nl; ++l) {
                if (!L[l].l2.access(line)) {
                    L[l].ctrs.inc(Counter::L2Misses);
                    own[l] += l2_miss_pen;
                }
            }
        }
    };
    auto lane_icache_touch = [&](unsigned l, Addr line)
        __attribute__((noinline)) {
        LaneState &s = L[l];
        if (!s.icache.access(line)) {
            s.ctrs.inc(Counter::IcacheMisses);
            own[l] += i_miss_pen;
            if (!s.l2.access(line)) {
                s.ctrs.inc(Counter::L2Misses);
                own[l] += l2_miss_pen;
            }
        }
    };
    auto itlb_touch = [&](Addr pc, unsigned size) __attribute__((noinline)) {
        const unsigned misses = s_itlb.accessVpns(
            pc >> ipage_shift, (pc + size - 1) >> ipage_shift);
        if (misses) {
            shared.inc(Counter::ItlbMisses, misses);
            charge_all(misses * itlb_miss_pen);
        }
    };

    // Transcription of fetchAccounting() over the hoisted locals; the
    // ITLB page number reduces to a shift for power-of-two page sizes
    // where the reference divides every instruction.
    auto fetch = [&](Addr pc, unsigned size) __attribute__((always_inline)) {
        const bool new_group = force_new_group || group_slots == 0 ||
                               (model_blocks && pc >= group_block_end);
        if (new_group) {
            charge_all(1);
            shared.inc(Counter::FetchGroups);
            group_slots = fetch_width;
            group_block_end =
                model_blocks
                    ? alignDown(pc, fetch_block_bytes) + fetch_block_bytes
                    : ~Addr(0);
            force_new_group = false;
        }
        group_slots -= 1;
        if (model_blocks && pc + size > group_block_end)
            group_slots = 0;

        if (caches_on) {
            const Addr first = alignDown(pc, iline);
            const Addr last = alignDown(pc + size - 1, iline);
            for (Addr line = first; line <= last; line += iline) {
                if (kBatch && !icache_shared) {
                    for (unsigned l = 0; l < nl; ++l) {
                        if (line != L[l].lastCodeLine) {
                            L[l].lastCodeLine = line;
                            lane_icache_touch(l, line);
                        }
                    }
                    continue;
                }
                if (line == last_code_line)
                    continue;
                last_code_line = line;
                icache_touch(line);
            }
        }
        if (tlbs_on) {
            const Addr page = pc >> ipage_shift;
            if (page != last_code_page) {
                last_code_page = page;
                itlb_touch(pc, size);
            }
        }
    };

    // L1D miss path (L2, optional next-line prefetch), out of line.
    auto dcache_miss = [&](LaneState &s, Addr line)
        __attribute__((noinline)) -> Cycles {
        Cycles lat = d_miss_pen;
        if (!s.l2.access(line)) {
            s.ctrs.inc(Counter::L2Misses);
            lat += l2_miss_pen;
        }
        if (prefetch_on) {
            // Background fill of the next line; no demand latency, but
            // it can pollute (and be perturbed by) set placement.
            s.ctrs.inc(Counter::PrefetchesIssued);
            s.dcache.access(line + dline);
            s.l2.access(line + dline);
        }
        return lat;
    };

    // Exact transcription of StoreBuffer::loadAliases over the shadow
    // arrays: the first live, unexpired, masked-matching entry in ring
    // order decides (clean covering forwarding is free, anything else
    // stalls), exactly as the reference scan does.
    auto sb_aliases = [&](const LaneState &s, Addr addr, unsigned size,
                          std::uint64_t icount)
        __attribute__((noinline)) -> bool {
        const std::uint64_t want = addr & alias_mask;
        for (unsigned i = 0; i < sb_entries; ++i) {
            if (s.sbMasked[i] != want || s.sbIcount[i] + sb_max_age < icount)
                continue;
            return !(s.sbAddr[i] == addr && s.sbSize[i] >= size);
        }
        return false;
    };

    // Transcription of memoryAccess() for lane @p l at the lane's own
    // address: same component accesses in the same order, through the
    // lane's shadows.  is_store is constant at every call site, so the
    // branches fold away.
    auto mem_access = [&](unsigned l, Addr addr, unsigned size,
                          bool is_store, std::uint64_t icount)
        __attribute__((always_inline)) -> Cycles {
        LaneState &s = L[l];
        Cycles lat = is_store ? 0 : d_hit_lat;

        if (tlbs_on) {
            const unsigned misses = s.dtlb.accessVpns(
                addr >> dpage_shift, (addr + size - 1) >> dpage_shift);
            if (misses) {
                s.ctrs.inc(Counter::DtlbMisses, misses);
                lat += misses * dtlb_miss_pen;
            }
        }

        const Addr first = alignDown(addr, dline);
        const Addr last = alignDown(addr + size - 1, dline);
        if (caches_on) {
            for (Addr line = first; line <= last; line += dline) {
                if (!s.dcache.access(line)) {
                    s.ctrs.inc(Counter::DcacheMisses);
                    lat += dcache_miss(s, line);
                }
            }
        }
        if (last != first) {
            s.ctrs.inc(Counter::LineSplits);
            if (split_pen_on)
                lat += split_pen;
        }

        if (is_store) {
            // A line-crossing store occupies the store port for an
            // extra cycle (a structural resource the OoO window cannot
            // hide).
            if (last != first && split_pen_on)
                own[l] += 1;
            const unsigned h = sb_head[l];
            if (sb_index_ok) {
                const std::uint64_t old = s.sbMasked[h];
                if (old != ~std::uint64_t(0))
                    s.sbIndex[old] &= ~(std::uint32_t(1) << h);
                s.sbIndex[addr & alias_mask] |= std::uint32_t(1) << h;
            }
            s.sbMasked[h] = addr & alias_mask;
            s.sbAddr[h] = addr;
            s.sbSize[h] = size;
            s.sbIcount[h] = icount;
            sb_head[l] = h + 1 == sb_entries ? 0 : h + 1;
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
                    match = s.sbIndex[want];
                } else {
                    const std::uint64_t *sbm = s.sbMasked.data();
                    match = 0;
                    for (unsigned i = 0; i < sb_entries; ++i)
                        match |= std::uint32_t(sbm[i] == want) << i;
                }
                while (match) {
                    const unsigned i = unsigned(std::countr_zero(match));
                    match &= match - 1;
                    if (s.sbIcount[i] + sb_max_age >= icount) {
                        if (!(s.sbAddr[i] == addr && s.sbSize[i] >= size)) {
                            s.ctrs.inc(Counter::AliasStalls);
                            lat += alias_pen;
                        }
                        break;
                    }
                }
            } else if (sb_aliases(s, addr, size, icount)) {
                s.ctrs.inc(Counter::AliasStalls);
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

    // OS-interrupt noise and DVFS steps per lane, transcribed from the
    // reference loop: same RNG streams (one nextDouble per schedule,
    // two next() per evicted line pair, one nextDouble per DVFS step),
    // same schedule arithmetic, same eviction order (dcache set then
    // icache set), same lastCodeLine reset, interrupt before DVFS.  A
    // lane whose model is off never schedules, so its next event stays
    // at ~0.  next_event[l] caches the earlier of a lane's two.
    std::array<Cycles, W> next_event;
    next_event.fill(~Cycles(0));
    auto schedule_interrupt = [&](LaneState &s, Cycles from) {
        const double jitter = 0.5 + s.noiseRng.nextDouble();
        s.nextInterrupt =
            from + Cycles(double(s.noise.meanIntervalCycles) * jitter);
    };
    auto schedule_dvfs = [&](LaneState &s, Cycles from) {
        const double jitter = 0.5 + s.dvfsRng.nextDouble();
        s.nextDvfs =
            from + Cycles(double(s.noise.dvfsMeanIntervalCycles) * jitter);
    };
    auto lane_event = [&](unsigned l) __attribute__((noinline)) {
        LaneState &s = L[l];
        if (now(l) >= s.nextInterrupt) {
            s.ctrs.inc(Counter::OsInterrupts);
            own[l] += s.noise.costCycles;
            for (unsigned e = 0; e < s.noise.linesEvictedPerInterrupt; ++e) {
                s.dcache.invalidateSet(s.noiseRng.next());
                s.icache.invalidateSet(s.noiseRng.next());
            }
            s.lastCodeLine = ~Addr(0); // force an icache re-access
            schedule_interrupt(s, now(l));
        }
        if (now(l) >= s.nextDvfs) {
            const double rj = 0.5 + s.dvfsRng.nextDouble();
            const Cycles residency =
                Cycles(double(s.noise.dvfsMeanResidencyCycles) * rj);
            own[l] += s.noise.dvfsTransitionCycles +
                      residency * s.noise.dvfsSlowdownPercent / 100;
            schedule_dvfs(s, now(l) + residency);
        }
        next_event[l] = std::min(s.nextInterrupt, s.nextDvfs);
    };
    const bool events_on = noise_on || dvfs_on;
    if (events_on) {
        for (unsigned l = 0; l < nl; ++l) {
            if (L[l].noise.enabled)
                schedule_interrupt(L[l], 0);
            if (L[l].noise.dvfsEnabled)
                schedule_dvfs(L[l], 0);
            next_event[l] = std::min(L[l].nextInterrupt, L[l].nextDvfs);
        }
    }

    const DecodedOp *const ops = plan.ops.data();

    std::uint64_t icount = 0;
    std::uint32_t idx = image.entryIdx;
    bool halted = false;
    const DecodedOp *d = nullptr;

    // Handler bodies shared by the ALU ops: per lane, wait for the
    // sources and stamp the destination's ready time; then write the
    // value once.  The value is computed by the caller before any
    // write, so rd may alias a source.
    auto alu_rr = [&](std::uint64_t v, Cycles lat)
        __attribute__((always_inline)) {
        for (unsigned l = 0; l < nl; ++l) {
            wait_for(l, d->rs1);
            wait_for(l, d->rs2);
            const Cycles t = alu_ready(l, lat);
            if (d->rd != isa::reg::zero)
                ready[d->rd][l] = t;
        }
        if (d->rd != isa::reg::zero)
            regs[d->rd] = v;
    };
    auto alu_ri = [&](std::uint64_t v) __attribute__((always_inline)) {
        for (unsigned l = 0; l < nl; ++l) {
            wait_for(l, d->rs1);
            if (d->rd != isa::reg::zero)
                ready[d->rd][l] = now(l) + 1;
        }
        if (d->rd != isa::reg::zero)
            regs[d->rd] = v;
    };

    // Shared tail of every conditional branch (reference order:
    // BranchesExecuted, predict+train, then the taken path), after
    // each lane waited for the operands.
    auto do_branch = [&](const DecodedOp &b, bool taken)
        __attribute__((always_inline)) {
        for (unsigned l = 0; l < nl; ++l) {
            wait_for(l, b.rs1);
            wait_for(l, b.rs2);
        }
        shared.inc(Counter::BranchesExecuted);
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
                shared.inc(Counter::BranchMispredicts);
                charge_all(mispredict_pen);
                force_new_group = true;
            }
        }
        if (taken) {
            shared.inc(Counter::TakenBranches);
            const Addr target = ops[b.targetIdx].pc;
            if (btb_on && !btb_.lookupAndUpdateHot(b.pc, target)) {
                shared.inc(Counter::BtbMisses);
                charge_all(btb_miss_pen);
            }
            redirect_realign(target);
            force_new_group = true;
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
// branch.  The lane event check sits where the reference loop has its
// noise checks — after the budget check, before fetch — and folds away
// without kBatch (events_on is then constant false).
#define MBIAS_DISPATCH()                                                    \
    do {                                                                    \
        if (__builtin_expect(icount >= max_insts, 0))                       \
            goto run_done;                                                  \
        if (kBatch && __builtin_expect(events_on, 0)) {                     \
            for (unsigned l = 0; l < nl; ++l)                               \
                if (now(l) >= next_event[l])                                \
                    lane_event(l);                                          \
        }                                                                   \
        d = ops + idx;                                                      \
        ++icount;                                                           \
        fetch(d->pc, d->size);                                              \
        goto *kDispatch[std::size_t(d->op)];                                \
    } while (0)

    MBIAS_DISPATCH();

  op_add:
    alu_rr(regs[d->rs1] + regs[d->rs2], 1);
    ++idx;
    MBIAS_DISPATCH();

  op_sub:
    alu_rr(regs[d->rs1] - regs[d->rs2], 1);
    ++idx;
    MBIAS_DISPATCH();

  op_mul:
    alu_rr(regs[d->rs1] * regs[d->rs2], mul_lat);
    ++idx;
    MBIAS_DISPATCH();

  op_divu: {
      const std::uint64_t a = regs[d->rs1];
      const std::uint64_t b = regs[d->rs2];
      alu_rr(b == 0 ? ~std::uint64_t(0) : a / b, div_lat);
      ++idx;
      MBIAS_DISPATCH();
  }

  op_remu: {
      const std::uint64_t a = regs[d->rs1];
      const std::uint64_t b = regs[d->rs2];
      alu_rr(b == 0 ? a : a % b, div_lat);
      ++idx;
      MBIAS_DISPATCH();
  }

  op_and:
    alu_rr(regs[d->rs1] & regs[d->rs2], 1);
    ++idx;
    MBIAS_DISPATCH();

  op_or:
    alu_rr(regs[d->rs1] | regs[d->rs2], 1);
    ++idx;
    MBIAS_DISPATCH();

  op_xor:
    alu_rr(regs[d->rs1] ^ regs[d->rs2], 1);
    ++idx;
    MBIAS_DISPATCH();

  op_sll:
    alu_rr(regs[d->rs1] << (regs[d->rs2] & 63), 1);
    ++idx;
    MBIAS_DISPATCH();

  op_srl:
    alu_rr(regs[d->rs1] >> (regs[d->rs2] & 63), 1);
    ++idx;
    MBIAS_DISPATCH();

  op_sra:
    alu_rr(std::uint64_t(std::int64_t(regs[d->rs1]) >> (regs[d->rs2] & 63)),
           1);
    ++idx;
    MBIAS_DISPATCH();

  op_slt:
    alu_rr(std::int64_t(regs[d->rs1]) < std::int64_t(regs[d->rs2]) ? 1 : 0,
           1);
    ++idx;
    MBIAS_DISPATCH();

  op_sltu:
    alu_rr(regs[d->rs1] < regs[d->rs2] ? 1 : 0, 1);
    ++idx;
    MBIAS_DISPATCH();

  op_addi:
    alu_ri(regs[d->rs1] + std::uint64_t(d->imm));
    ++idx;
    MBIAS_DISPATCH();

  op_andi:
    alu_ri(regs[d->rs1] & std::uint64_t(d->imm));
    ++idx;
    MBIAS_DISPATCH();

  op_ori:
    alu_ri(regs[d->rs1] | std::uint64_t(d->imm));
    ++idx;
    MBIAS_DISPATCH();

  op_xori:
    alu_ri(regs[d->rs1] ^ std::uint64_t(d->imm));
    ++idx;
    MBIAS_DISPATCH();

  op_slli:
    alu_ri(regs[d->rs1] << (std::uint64_t(d->imm) & 63));
    ++idx;
    MBIAS_DISPATCH();

  op_srli:
    alu_ri(regs[d->rs1] >> (std::uint64_t(d->imm) & 63));
    ++idx;
    MBIAS_DISPATCH();

  op_srai:
    alu_ri(std::uint64_t(std::int64_t(regs[d->rs1]) >>
                         (std::uint64_t(d->imm) & 63)));
    ++idx;
    MBIAS_DISPATCH();

  op_slti:
    alu_ri(std::int64_t(regs[d->rs1]) < d->imm ? 1 : 0);
    ++idx;
    MBIAS_DISPATCH();

  op_li:
    if (d->rd != isa::reg::zero) {
        for (unsigned l = 0; l < nl; ++l)
            ready[d->rd][l] = now(l) + 1;
        regs[d->rd] = std::uint64_t(d->imm);
    }
    ++idx;
    MBIAS_DISPATCH();

  op_ld: {
      const unsigned size = d->accessSize;
      const Addr addr = regs[d->rs1] + std::uint64_t(d->imm);
      shared.inc(Counter::Loads);
      for (unsigned l = 0; l < nl; ++l) {
          wait_for(l, d->rs1);
          const Cycles lat =
              mem_access(l, lane_addr(l, addr), size, false, icount);
          if (d->rd != isa::reg::zero)
              ready[d->rd][l] = now(l) + lat;
      }
      if (d->rd != isa::reg::zero)
          regs[d->rd] = mem_read(addr, size);
      ++idx;
      MBIAS_DISPATCH();
  }

  op_st: {
      const unsigned size = d->accessSize;
      const Addr addr = regs[d->rs1] + std::uint64_t(d->imm);
      shared.inc(Counter::Stores);
      for (unsigned l = 0; l < nl; ++l) {
          wait_for(l, d->rs1);
          wait_for(l, d->rd); // data register
          mem_access(l, lane_addr(l, addr), size, true, icount);
      }
      mem_write(addr, size, regs[d->rd]);
      ++idx;
      MBIAS_DISPATCH();
  }

  op_beq:
    do_branch(*d, regs[d->rs1] == regs[d->rs2]);
    MBIAS_DISPATCH();

  op_bne:
    do_branch(*d, regs[d->rs1] != regs[d->rs2]);
    MBIAS_DISPATCH();

  op_blt:
    do_branch(*d, std::int64_t(regs[d->rs1]) < std::int64_t(regs[d->rs2]));
    MBIAS_DISPATCH();

  op_bge:
    do_branch(*d, std::int64_t(regs[d->rs1]) >= std::int64_t(regs[d->rs2]));
    MBIAS_DISPATCH();

  op_bltu:
    do_branch(*d, regs[d->rs1] < regs[d->rs2]);
    MBIAS_DISPATCH();

  op_bgeu:
    do_branch(*d, regs[d->rs1] >= regs[d->rs2]);
    MBIAS_DISPATCH();

  op_jmp: {
      const Addr target = ops[d->targetIdx].pc;
      if (btb_on && !btb_.lookupAndUpdateHot(d->pc, target)) {
          shared.inc(Counter::BtbMisses);
          charge_all(btb_miss_pen);
      }
      redirect_realign(target);
      force_new_group = true;
      idx = d->targetIdx;
      MBIAS_DISPATCH();
  }

  op_call: {
      const Addr new_sp = regs[isa::reg::sp] - 8;
      const Addr ret_addr = d->pc + d->size;
      shared.inc(Counter::Calls);
      shared.inc(Counter::Stores);
      for (unsigned l = 0; l < nl; ++l) {
          wait_for(l, isa::reg::sp);
          mem_access(l, lane_addr(l, new_sp), 8, true, icount);
          ready[isa::reg::sp][l] = now(l) + 1;
      }
      mem_write(new_sp, 8, ret_addr);
      regs[isa::reg::sp] = new_sp;
      const Addr target = ops[d->targetIdx].pc;
      if (btb_on && !btb_.lookupAndUpdateHot(d->pc, target)) {
          shared.inc(Counter::BtbMisses);
          charge_all(btb_miss_pen);
      }
      redirect_realign(target);
      force_new_group = true;
      idx = d->targetIdx;
      MBIAS_DISPATCH();
  }

  op_ret: {
      const Addr sp = regs[isa::reg::sp];
      shared.inc(Counter::Loads);
      // Return-address stack: the target is predicted perfectly, so
      // the load latency is off the critical path, but the access
      // still exercises the cache/TLB.
      for (unsigned l = 0; l < nl; ++l) {
          wait_for(l, isa::reg::sp);
          mem_access(l, lane_addr(l, sp), 8, false, icount);
          ready[isa::reg::sp][l] = now(l) + 1;
      }
      const Addr ret_addr = mem_read(sp, 8);
      // O(1) return-address table, same domain as the reference's
      // addrToIdx hash map.
      const Addr off = ret_addr - plan.codeBase;
      std::uint32_t t = ExecutionPlan::kNoIndex;
      if (off < plan.idxByOffset.size())
          t = plan.idxByOffset[std::size_t(off)];
      mbias_assert(t != ExecutionPlan::kNoIndex,
                   "corrupted return address 0x", std::hex, ret_addr);
      regs[isa::reg::sp] = sp + 8;
      redirect_realign(ops[t].pc);
      force_new_group = true;
      idx = t;
      MBIAS_DISPATCH();
  }

  op_nop:
    shared.inc(Counter::NopsExecuted);
    ++idx;
    MBIAS_DISPATCH();

  op_halt:
    halted = true;
    goto run_done;

  op_la:
    mbias_panic("unresolved La reached the simulator");

#undef MBIAS_DISPATCH

  run_done:
    std::uint64_t bytes = s_itlb.bytes();
    for (unsigned l = 0; l < nl; ++l) {
        RunResult &rr = out[l];
        for (const Counter c : allCounters())
            rr.counters.set(c, shared.get(c) + L[l].ctrs.get(c));
        rr.counters.set(Counter::StallCycles, stall[l]);
        rr.counters.set(Counter::Cycles, now(l));
        rr.counters.set(Counter::Instructions, icount);
        rr.halted = halted;
        // a0 is a value, not an access: it gets the stack rebase only
        // when it lies in lane 0's stack region (a workload returning
        // a stack pointer), so a checksum above the stack stays put.
        const std::uint64_t a0 = regs[isa::reg::a0];
        rr.result = a0 <= image.stackTop ? lane_addr(l, a0) : a0;
        bytes += L[l].bytes();
    }
    return bytes;
}

} // namespace mbias::sim
