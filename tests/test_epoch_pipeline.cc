/**
 * @file
 * Epoch-pipelined parallel runner tests (DESIGN.md §12): the runner's
 * fixed schedule — a two-epoch window, 16-commit TM->FM command batches,
 * spin-then-park waits — must never cost correctness.  It is held to the
 * same standard as the coupled reference: bit-identical committed work
 * (including cycles on device-free runs) at every trace-ring capacity,
 * identical commit-hash chains on the full golden workload suite, and
 * graceful behaviour under command faults, mid-epoch kills, and
 * legitimate long parks.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "base/logging.hh"
#include "fast/parallel.hh"
#include "fast/simulator.hh"
#include "isa/assembler.hh"
#include "workloads/workloads.hh"

namespace fastsim {
namespace fast {
namespace {

using isa::Assembler;
using namespace isa;

constexpr Cycle MaxCycles = 2000000000ull;

FastConfig
pipeConfig(std::size_t tb_entries)
{
    FastConfig cfg;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.core.bp.kind = tm::BpKind::Gshare;
    cfg.core.statsIntervalBb = 1u << 30;
    cfg.traceBufferEntries = tb_entries;
    cfg.guardrails.hashCommits = true;
    return cfg;
}

/** Branchy device-free program (no timer, no disk: fully deterministic
 *  in both runners, so cycle counts must match exactly). */
kernel::BootImage
branchyImage(unsigned iters)
{
    kernel::BuildOptions opts;
    opts.timerInterval = 0x7FFFFFFF;
    opts.bootDiskReads = 0;
    opts.userProgram = [iters](Assembler &u) {
        u.movri(R5, 0xACE1);
        u.movri(R2, iters);
        Label top = u.here();
        Label skip = u.newLabel();
        u.movri(R0, 1103515245);
        u.imulrr(R5, R0);
        u.addri(R5, 12345);
        u.movrr(R0, R5);
        u.shri(R0, 18);
        u.andri(R0, 1);
        u.cmpri(R0, 0);
        u.jcc(CondZ, skip);
        u.addri(R6, 7);
        u.bind(skip);
        u.movri(R1, kernel::MemoryMap::UserDataBase + 0x40);
        u.st(R1, 0, R6);
        u.ld(R4, R1, 0);
        u.decr(R2);
        u.jcc(CondNZ, top);
        u.movri(R3, kernel::SysExit);
        u.intn(VecSyscall);
    };
    return kernel::buildBootImage(opts);
}

struct Final
{
    bool finished = false;
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t commitHash = 0;
    std::string console;
    std::array<std::uint32_t, isa::NumGpRegs> gpr{};
};

Final
runCoupled(const FastConfig &cfg, const kernel::BootImage &image)
{
    FastSimulator sim(cfg);
    sim.boot(image);
    auto r = sim.run(MaxCycles);
    return {r.finished,       static_cast<std::uint64_t>(r.cycles),
            r.insts,          sim.commitHash(),
            sim.fm().console().output(), sim.fm().state().gpr};
}

Final
runParallel(const FastConfig &cfg, const kernel::BootImage &image,
            std::uint64_t *hold_ticks = nullptr,
            std::uint64_t *batches = nullptr)
{
    ParallelFastSimulator sim(cfg);
    sim.boot(image);
    auto r = sim.run(MaxCycles);
    EXPECT_FALSE(sim.degraded());
    if (hold_ticks)
        *hold_ticks = sim.stats().value("epoch_hold_ticks");
    if (batches)
        *batches = sim.stats().value("cmd_commit_batches");
    return {r.finished,       static_cast<std::uint64_t>(r.cycles),
            r.insts,          sim.commitHash(),
            sim.fm().console().output(), sim.fm().state().gpr};
}

void
expectBitIdentical(const Final &par, const Final &ref, const std::string &what)
{
    EXPECT_TRUE(par.finished) << what;
    EXPECT_EQ(par.cycles, ref.cycles) << what;
    EXPECT_EQ(par.insts, ref.insts) << what;
    EXPECT_EQ(par.commitHash, ref.commitHash) << what;
    EXPECT_EQ(par.console, ref.console) << what;
    EXPECT_EQ(par.gpr, ref.gpr) << what;
}

/**
 * The acceptance matrix: the pipelined schedule at each trace-ring
 * capacity, device-free, bit-identical to the coupled reference at the
 * same capacity (cycles included — held ticks are exactly the coupled
 * runner's drain cycles).  Capacity 1 is below the issue width, so the
 * full-buffer gate term and the commit rendezvous carry every cycle; 2
 * and 8 keep the ring near the issue group; 256 is the default.
 */
TEST(EpochPipe, EpochByCapacityMatrixBitIdenticalToCoupled)
{
    const auto image = branchyImage(120);
    for (std::size_t cap : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                            std::size_t{256}}) {
        const Final ref = runCoupled(pipeConfig(cap), image);
        ASSERT_TRUE(ref.finished);
        expectBitIdentical(runParallel(pipeConfig(cap), image), ref,
                           "capacity=" + std::to_string(cap));
    }
}

/** The pipelining and batching actually engage (not vacuously correct):
 *  held ticks and flushed batches both observed on a mispredict-heavy
 *  run at a capacity that lets the ROB stay deep. */
TEST(EpochPipe, HoldTicksAndBatchesactuallyHappen)
{
    const auto image = branchyImage(300);
    std::uint64_t hold_ticks = 0;
    std::uint64_t batches = 0;
    const Final par = runParallel(pipeConfig(256), image, &hold_ticks,
                                  &batches);
    ASSERT_TRUE(par.finished);
    EXPECT_GT(hold_ticks, 0u)
        << "epoch window never overlapped a drain with an in-flight resteer";
    EXPECT_GT(batches, 0u);
}

// The 17 golden workloads of test_golden_core.cc at their golden scales.
struct GoldenWorkload
{
    const char *name;
    unsigned scale;
};

const GoldenWorkload kGoldenWorkloads[] = {
    {"Linux-2.4", 1},     {"WindowsXP", 1},    {"164.gzip", 8000},
    {"175.vpr", 7000},    {"176.gcc", 7000},   {"181.mcf", 2500},
    {"186.crafty", 6000}, {"197.parser", 8000}, {"252.eon", 6000},
    {"253.perlbmk", 400}, {"254.gap", 4000},   {"255.vortex", 4000},
    {"256.bzip2", 6000},  {"300.twolf", 9000}, {"Linux-2.6", 1},
    {"Sweep3D", 2000},    {"MySQL", 2500},
};

/** Name the case by its workload: gtest's default byte dump would embed
 *  the name's address, which differs from build to build. */
void
PrintTo(const GoldenWorkload &g, std::ostream *os)
{
    *os << '"' << g.name << '"';
}

class GoldenHashParity : public ::testing::TestWithParam<GoldenWorkload>
{
};

/**
 * The headline correctness claim behind the speedup benchmark: at the
 * shipped schedule with commit-anchored device timing, the parallel runner
 * reproduces the coupled reference bit-for-bit on all 17 golden
 * workloads, timer interrupts included: the chained FNV hash over every
 * committed (in, pc, op), the cycle count, console output and final
 * register state.  (Without cfg.deterministicDevices, interrupt arrival
 * drifts with host-speed snapshot publication and only functional
 * results are comparable — that mode is documented, not golden.)
 */
TEST_P(GoldenHashParity, CommitHashBitIdenticalToCoupled)
{
    const GoldenWorkload &g = GetParam();
    const workloads::Workload &w = workloads::byName(g.name);
    auto opts = workloads::bootOptionsFor(w, g.scale);
    opts.timerInterval = 4000;
    const auto image = kernel::buildBootImage(opts);

    FastConfig cfg = pipeConfig(256);
    cfg.deterministicDevices = true;
    const Final ref = runCoupled(cfg, image);
    ASSERT_TRUE(ref.finished);

    const Final par = runParallel(cfg, image);
    expectBitIdentical(par, ref, g.name);
    EXPECT_EQ(par.commitHash, ref.commitHash)
        << g.name << ": committed-instruction stream diverged";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, GoldenHashParity, ::testing::ValuesIn(kGoldenWorkloads),
    [](const ::testing::TestParamInfo<GoldenWorkload> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

/** Batched commands ride the same faulty CmdChannel as unbatched ones:
 *  dropped commands retransmit, duplicated commands dedup, and the run
 *  stays bit-identical to the unfaulted coupled reference. */
TEST(EpochPipe, BatchedCommandsSurviveCmdDropAndDup)
{
    kernel::BuildOptions opts;
    opts.timerInterval = 2500;
    opts.bootDiskReads = 0;
    opts.userProgram = [](Assembler &u) {
        u.movri(R5, 0xBEEF);
        u.movri(R2, 300);
        Label top = u.here();
        Label skip = u.newLabel();
        u.movri(R0, 1103515245);
        u.imulrr(R5, R0);
        u.addri(R5, 12345);
        u.movrr(R0, R5);
        u.shri(R0, 18);
        u.andri(R0, 1);
        u.cmpri(R0, 0);
        u.jcc(CondZ, skip);
        u.addri(R6, 7);
        u.bind(skip);
        u.movri(R4, '.');
        u.movri(R3, kernel::SysPutc);
        u.intn(VecSyscall);
        u.decr(R2);
        u.jcc(CondNZ, top);
        u.movri(R3, kernel::SysExit);
        u.intn(VecSyscall);
    };
    const auto image = kernel::buildBootImage(opts);

    FastConfig refCfg = pipeConfig(256);
    refCfg.deterministicDevices = true;
    const Final ref = runCoupled(refCfg, image);
    ASSERT_TRUE(ref.finished);

    FastConfig cfg = refCfg;
    cfg.faults.seed = 11;
    cfg.faults.window = 500;
    cfg.faults.enableClass(inject::FaultClass::CmdDup);
    cfg.faults.enableClass(inject::FaultClass::CmdDrop);
    std::uint64_t batches = 0;
    const Final par = runParallel(cfg, image, nullptr, &batches);
    EXPECT_TRUE(par.finished);
    EXPECT_GT(batches, 0u);
    EXPECT_EQ(par.insts, ref.insts);
    EXPECT_EQ(par.commitHash, ref.commitHash);
    EXPECT_EQ(par.console, ref.console);
}

/** A run abandoned mid-epoch (cycle bound hit with resteers potentially
 *  in flight, batches potentially held) must tear down cleanly, and a
 *  fresh run of the same configuration completes bit-identically. */
TEST(EpochPipe, KillMidEpochTearsDownCleanlyAndFreshRunMatches)
{
    const auto image = branchyImage(150);
    const Final ref = runCoupled(pipeConfig(8), image);
    ASSERT_TRUE(ref.finished);

    // "Kill": bound the run to a fraction of the reference cycle count so
    // the TM loop exits in the middle of the pipelined steady state, then
    // destroy the simulator with whatever is still in flight.
    for (Cycle frac : {ref.cycles / 7, ref.cycles / 3, ref.cycles / 2}) {
        ParallelFastSimulator victim(pipeConfig(8));
        victim.boot(image);
        auto vr = victim.run(frac);
        EXPECT_FALSE(vr.finished);
    } // destructor joins the FM thread with the epoch window mid-flight

    const Final par = runParallel(pipeConfig(8), image);
    expectBitIdentical(par, ref, "fresh run after mid-epoch kills");
}

/** Regression for the park/watchdog interaction: a healthy run whose
 *  threads park repeatedly (seeded FM production stalls outlast the TM's
 *  spin, modest watchdog budget, degradation armed) must complete
 *  without ever degrading — parking behind a peer that resumes is not a
 *  stall. */
TEST(EpochPipe, ParkedHealthyRunNeverDegrades)
{
    const auto image = branchyImage(400);
    FastConfig cfg = pipeConfig(256);
    cfg.faults.seed = 7;
    cfg.faults.window = 1000; // a stall every ~1000 FM step attempts
    cfg.faults.enableClass(inject::FaultClass::FmStall);
    cfg.guardrails.watchdogBudget = 200000; // modest: would fire pre-aux
    cfg.guardrails.degradeOnWatchdog = true;

    ParallelFastSimulator sim(cfg);
    sim.boot(image);
    auto r = sim.run(MaxCycles);

    EXPECT_TRUE(r.finished);
    EXPECT_FALSE(sim.degraded());
    EXPECT_EQ(sim.stats().value("watchdog_fires"), 0u);
    EXPECT_GT(sim.stats().value("tm_parks") + sim.stats().value("fm_parks"),
              0u)
        << "scenario must actually park to regress the interaction";
}

/** Unit semantics of the aux-progress watchdog channel: an advancing aux
 *  counter defers the fire indefinitely; once both signals freeze, the
 *  budget counts down exactly as before. */
TEST(EpochPipe, WatchdogAuxProgressSemantics)
{
    GuardrailConfig cfg;
    cfg.watchdogBudget = 10;
    stats::Group g("t");
    Guardrails gr(cfg, g);
    gr.ownerRole.assertHeld(); // single-threaded unit test owns the watchdog

    // Committed frozen, aux advancing: never fires.
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_FALSE(gr.notePoll(5, i));

    // Both frozen: fires exactly when the budget is exhausted, once.
    for (std::uint64_t i = 1; i < 10; ++i)
        EXPECT_FALSE(gr.notePoll(5, 99));
    EXPECT_TRUE(gr.notePoll(5, 99));
    EXPECT_FALSE(gr.notePoll(5, 99)); // latched until progress or rearm

    // Either signal advancing resets the count.
    EXPECT_FALSE(gr.notePoll(6, 99));
    for (std::uint64_t i = 1; i < 10; ++i)
        EXPECT_FALSE(gr.notePoll(6, 99));
    EXPECT_TRUE(gr.notePoll(6, 99));
}

} // namespace
} // namespace fast
} // namespace fastsim
