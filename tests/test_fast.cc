/**
 * @file
 * FAST simulator integration tests — DESIGN.md invariant 1: the committed
 * instruction stream and final architectural state of a FAST run equal a
 * plain functional-model run, for every branch-predictor configuration,
 * despite wrong-path excursions, roll-backs, exceptions and interrupts.
 * Plus the runner-counter names the host-speed benchmark reads.
 */

#include <gtest/gtest.h>

#include <initializer_list>

#include "fast/parallel.hh"
#include "fast/simulator.hh"
#include "fast/smp.hh"
#include "isa/assembler.hh"
#include "kernel/boot.hh"
#include "workloads/service.hh"
#include "workloads/workloads.hh"

namespace fastsim {
namespace fast {
namespace {

using isa::Assembler;
using namespace isa;

/** Committed-stream record for equivalence checks. */
struct Committed
{
    InstNum in;
    Addr pc;
    Addr nextPc;
    bool taken;
};

/** Reference: run a workload on the bare functional model. */
std::vector<Committed>
referenceRun(const kernel::BootImage &image, std::string *console_out,
             bool timer_allowed, std::uint64_t limit = 3000000)
{
    fm::FmConfig cfg;
    cfg.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.fmDrivenDevices = timer_allowed;
    fm::FuncModel m(cfg);
    kernel::loadAndReset(m, image);
    std::vector<Committed> out;
    for (std::uint64_t i = 0; i < limit; ++i) {
        auto r = m.step();
        if (r.kind == fm::StepResult::Kind::Halted) {
            if (!(m.state().flags & FlagI))
                break;
            continue;
        }
        if (r.kind != fm::StepResult::Kind::Ok)
            break;
        out.push_back({r.entry.in, r.entry.pc, r.entry.nextPc,
                       r.entry.branchTaken});
        if (r.entry.halt && !(m.state().flags & FlagI))
            break;
    }
    if (console_out)
        *console_out = m.console().output();
    return out;
}

FastConfig
configWithBp(tm::BpKind kind, double fixed_acc = 0.97)
{
    FastConfig cfg;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.core.bp.kind = kind;
    cfg.core.bp.fixedAccuracy = fixed_acc;
    cfg.core.statsIntervalBb = 1u << 30; // no sampling in tests
    return cfg;
}

/** Build a branch-heavy interrupt-free program (timer never enabled). */
kernel::BootImage
branchyImage()
{
    kernel::BuildOptions opts;
    opts.userProgram = [](Assembler &u) {
        // Data-dependent branching to force real mispredicts.
        u.movri(R5, 0x1234);
        u.movri(R6, 0);
        u.movri(R2, 400);
        Label top = u.here();
        Label skip = u.newLabel(), skip2 = u.newLabel();
        u.movri(R0, 1103515245);
        u.imulrr(R5, R0);
        u.addri(R5, 12345);
        u.movrr(R0, R5);
        u.shri(R0, 16);
        u.andri(R0, 1);
        u.cmpri(R0, 0);
        u.jcc(CondZ, skip);
        u.addri(R6, 3);
        u.push(R6);
        u.pop(R1);
        u.bind(skip);
        u.movrr(R0, R5);
        u.shri(R0, 21);
        u.andri(R0, 1);
        u.cmpri(R0, 0);
        u.jcc(CondNZ, skip2);
        u.subri(R6, 1);
        u.bind(skip2);
        // Memory traffic.
        u.movri(R1, kernel::MemoryMap::UserDataBase + 0x100);
        u.st(R1, 0, R6);
        u.ld(R4, R1, 0);
        u.decr(R2);
        u.jcc(CondNZ, top);
        u.movri(R3, kernel::SysExit);
        u.intn(VecSyscall);
    };
    // Timer off and no boot disk reads: the committed stream must be
    // completely independent of device timing.
    opts.timerInterval = 0x7FFFFFFF;
    opts.bootDiskReads = 0;
    return kernel::buildBootImage(opts);
}

class FastEquivalence : public ::testing::TestWithParam<tm::BpKind>
{
};

TEST_P(FastEquivalence, CommittedStreamMatchesFunctionalRun)
{
    auto image = branchyImage();
    std::string ref_console;
    auto ref = referenceRun(image, &ref_console, /*timer_allowed=*/false);
    ASSERT_GT(ref.size(), 10000u);

    FastSimulator sim(configWithBp(GetParam(), 0.9));
    sim.boot(image);
    std::vector<Committed> got;
    sim.core().onCommit = [&got](const fm::TraceEntry &e) {
        got.push_back({e.in, e.pc, e.nextPc, e.branchTaken});
    };
    auto result = sim.run(40000000);
    ASSERT_TRUE(result.finished)
        << "cycles=" << result.cycles << " insts=" << result.insts;

    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i].in, ref[i].in) << "at " << i;
        ASSERT_EQ(got[i].pc, ref[i].pc) << "at " << i;
        ASSERT_EQ(got[i].nextPc, ref[i].nextPc) << "at " << i;
        ASSERT_EQ(got[i].taken, ref[i].taken) << "at " << i;
    }
    EXPECT_EQ(sim.fm().console().output(), ref_console);
    // Wrong paths actually happened under imperfect predictors.
    if (GetParam() != tm::BpKind::Perfect) {
        EXPECT_GT(sim.stats().value("wrong_path_resteers"), 50u);
        EXPECT_EQ(sim.stats().value("wrong_path_resteers"),
                  sim.stats().value("resolve_resteers"));
    }
}

INSTANTIATE_TEST_SUITE_P(AllPredictors, FastEquivalence,
                         ::testing::Values(tm::BpKind::Perfect,
                                           tm::BpKind::FixedAccuracy,
                                           tm::BpKind::TwoBit,
                                           tm::BpKind::Gshare),
                         [](const auto &info) {
                             return tm::bpKindName(info.param);
                         });

TEST(FastSim, PerfectBpHasNoResteers)
{
    FastSimulator sim(configWithBp(tm::BpKind::Perfect));
    sim.boot(branchyImage());
    auto r = sim.run(40000000);
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(sim.stats().value("wrong_path_resteers"), 0u);
    EXPECT_EQ(sim.fm().stats().value("wrong_path_insts"), 0u);
}

TEST(FastSim, WorseBpMeansMoreCyclesSameWork)
{
    std::uint64_t insts[2];
    Cycle cycles[2];
    int i = 0;
    for (auto kind : {tm::BpKind::Perfect, tm::BpKind::TwoBit}) {
        FastSimulator sim(configWithBp(kind));
        sim.boot(branchyImage());
        auto r = sim.run(40000000);
        ASSERT_TRUE(r.finished);
        insts[i] = r.insts;
        cycles[i] = r.cycles;
        ++i;
    }
    EXPECT_EQ(insts[0], insts[1]);   // same committed work
    EXPECT_LT(cycles[0], cycles[1]); // perfect BP is faster
}

TEST(FastSim, ExceptionsHandledInsideFast)
{
    kernel::BuildOptions opts;
    opts.userProgram = [](Assembler &u) {
        // Divide by zero inside the workload: #DE -> kernel trap handler
        // prints and halts.  The FAST protocol must carry the exception
        // entries through the timing model.
        u.movri(R0, 10);
        u.movri(R1, 0);
        u.idivrr(R0, R1);
        u.movri(R3, kernel::SysExit);
        u.intn(VecSyscall);
    };
    opts.timerInterval = 0x7FFFFFFF;
    opts.bootDiskReads = 0;
    auto image = kernel::buildBootImage(opts);

    std::string ref_console;
    referenceRun(image, &ref_console, false);
    FastSimulator sim(configWithBp(tm::BpKind::Gshare));
    sim.boot(image);
    auto r = sim.run(40000000);
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(sim.fm().console().output(), ref_console);
    EXPECT_NE(sim.fm().console().output().find("!TRAP"), std::string::npos);
    EXPECT_GT(sim.stats().value("exception_refetches"), 0u);
}

TEST(FastSim, TimerInterruptsDeliveredByTimingModel)
{
    kernel::BuildOptions opts;
    opts.timerInterval = 3000; // target cycles, interpreted by the TM
    opts.userProgram = [](Assembler &u) {
        u.movri(R4, 3);
        u.movri(R3, kernel::SysSleep);
        u.intn(VecSyscall);
        u.movri(R4, 'w');
        u.movri(R3, kernel::SysPutc);
        u.intn(VecSyscall);
        u.movri(R3, kernel::SysExit);
        u.intn(VecSyscall);
    };
    auto image = kernel::buildBootImage(opts);
    FastSimulator sim(configWithBp(tm::BpKind::Gshare));
    sim.boot(image);
    auto r = sim.run(60000000);
    ASSERT_TRUE(r.finished);
    EXPECT_NE(sim.fm().console().output().find('w'), std::string::npos);
    EXPECT_GE(sim.stats().value("timer_interrupts"), 3u);
    EXPECT_EQ(sim.fm().console().output().find("!TRAP"), std::string::npos);
}

TEST(FastSim, FullBootMatchesConsoleOutput)
{
    // Full Linux boot + workload under FAST: console output must equal the
    // standalone functional run (interrupt timing differs, but the
    // program's visible behaviour must not).
    const auto &w = workloads::byName("164.gzip");
    auto image = kernel::buildBootImage(workloads::bootOptionsFor(w, 20));
    std::string ref_console;
    referenceRun(image, &ref_console, /*timer_allowed=*/true, 10000000);

    FastSimulator sim(configWithBp(tm::BpKind::Gshare));
    sim.boot(image);
    auto r = sim.run(80000000);
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(sim.fm().console().output(), ref_console);
}

TEST(FastSim, DiskCompletionDrivenByTimingModel)
{
    // WinXP boots with polled disk reads; under FAST the completion must
    // be injected by the device-timing protocol.
    kernel::BuildOptions opts;
    opts.flavor = kernel::OsFlavor::WinXP;
    auto image = kernel::buildBootImage(opts);
    FastConfig cfg = configWithBp(tm::BpKind::Gshare).core.bp.kind ==
                             tm::BpKind::Gshare
                         ? configWithBp(tm::BpKind::Gshare)
                         : configWithBp(tm::BpKind::Gshare);
    cfg.diskLatencyCycles = 2000;
    FastSimulator sim(cfg);
    sim.boot(image);
    auto r = sim.run(120000000);
    ASSERT_TRUE(r.finished);
    EXPECT_GE(sim.stats().value("disk_completions"), 4u);
    EXPECT_NE(sim.fm().console().output().find(
                  kernel::BootImage::ReadyMarker),
              std::string::npos);
}

TEST(FastSim, DeterministicAcrossRuns)
{
    auto image = branchyImage();
    Cycle cycles[2];
    std::uint64_t hosts[2];
    for (int i = 0; i < 2; ++i) {
        FastSimulator sim(configWithBp(tm::BpKind::Gshare));
        sim.boot(image);
        auto r = sim.run(40000000);
        ASSERT_TRUE(r.finished);
        cycles[i] = r.cycles;
        hosts[i] = sim.core().hostCycles();
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(hosts[0], hosts[1]);
}

TEST(FastSim, IpcInPrototypeBand)
{
    // Paper §4.5: "IPCs range from 0.17 to 0.62" on the prototype.
    FastSimulator sim(configWithBp(tm::BpKind::Gshare));
    sim.boot(branchyImage());
    auto r = sim.run(40000000);
    ASSERT_TRUE(r.finished);
    EXPECT_GT(r.ipc, 0.05);
    EXPECT_LT(r.ipc, 1.5);
}

TEST(FastSim, HostCyclesPerTargetCycleReasonable)
{
    FastSimulator sim(configWithBp(tm::BpKind::Gshare));
    sim.boot(branchyImage());
    auto r = sim.run(40000000);
    ASSERT_TRUE(r.finished);
    // Paper §4.5: ~20 host cycles per target cycle is "reasonable"; the
    // unoptimized prototype used more.
    const double h = sim.core().hostCyclesPerTargetCycle();
    EXPECT_GT(h, 5.0);
    EXPECT_LT(h, 80.0);
}

/** Every runner counter perfbench/perfbench.cc reads from sim.stats()
 *  must be served — non-zero on a guest that exercises it — by each
 *  runner that owns it.  stats::Group::value() returns 0 for an unknown
 *  name, so a renamed counter would otherwise zero a benchmark metric
 *  without any test noticing. */
TEST(FastSim, BenchmarkCounterNamesAreServed)
{
    auto expectServed = [](const stats::Group &s,
                           std::initializer_list<const char *> names) {
        for (const char *n : names)
            EXPECT_GT(s.value(n), 0u) << s.name() << "." << n;
    };

    // A timer-driven guest that halts between ticks and reads the disk.
    auto opts = workloads::bootOptionsFor(workloads::byName("164.gzip"), 500);
    opts.timerInterval = 4000;
    const kernel::BootImage image = kernel::buildBootImage(opts);
    FastConfig cfg = configWithBp(tm::BpKind::Gshare);

    FastSimulator coupled(cfg);
    coupled.boot(image);
    ASSERT_TRUE(coupled.run(200000000).finished);
    expectServed(coupled.stats(),
                 {"fm_halted_polls", "fm_stall_tb_full", "wrong_path_resteers",
                  "resolve_resteers", "timer_interrupts", "disk_completions"});

    // The shipped schedule holds ticks and batches commits on its own;
    // seeded FM production stalls outlast the TM's spin, so it parks.
    FastConfig pc = cfg;
    pc.faults.seed = 7;
    pc.faults.window = 5000;
    pc.faults.enableClass(inject::FaultClass::FmStall);
    ParallelFastSimulator parallel(pc);
    parallel.boot(image);
    ASSERT_TRUE(parallel.run(200000000).finished);
    expectServed(parallel.stats(),
                 {"wrong_path_resteers", "resolve_resteers", "timer_interrupts",
                  "disk_completions", "fm_parks", "tm_parks",
                  "epoch_hold_ticks", "cmd_commit_batches"});

    workloads::ServiceConfig svc;
    svc.loadGenerators = 1;
    svc.requestsPerGen = 4;
    FastConfig sc = cfg;
    sc.numCores = 2;
    SmpSimulator smp(sc);
    smp.boot(kernel::buildBootImage(workloads::serviceBootOptions(svc)));
    ASSERT_TRUE(smp.run(50000000).finished);
    expectServed(smp.stats(),
                 {"fm_halted_polls", "fm_stall_tb_full", "resolve_resteers",
                  "disk_completions", "wrong_path_suppressed"});
}

} // namespace
} // namespace fast
} // namespace fastsim
