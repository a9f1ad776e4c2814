/**
 * @file
 * SPSC stress tests for the parallel FAST simulator: drive the lock-free
 * trace buffer and protocol-event ring through their nastiest geometries
 * and demand bit-identical results against the coupled reference.
 *
 * The sweep shrinks the trace buffer to a handful of entries (down to a
 * single slot — below the issue width), so the ring wraps every few
 * instructions, TB-full coincides with fetch starvation, and every
 * producer/consumer index race that host scheduling can produce gets
 * exercised millions of times per run, at the runner's one fixed
 * schedule (DESIGN.md §12).  All of it must reproduce the coupled
 * simulator's committed instructions, cycle count, console output and
 * final registers exactly — the coupled runner is the cycle-accurate
 * reference, so any divergence is a synchronization bug by definition.
 *
 * Note the coupled reference is re-run per trace-buffer capacity: capacity
 * changes target fetch behaviour (a full buffer stalls the front end), so
 * cycle counts legitimately differ across capacities — but never, for a
 * device-free run, between the two runners at the same capacity.
 */

#include <gtest/gtest.h>

#include "fast/parallel.hh"
#include "fast/simulator.hh"
#include "isa/assembler.hh"

namespace fastsim {
namespace fast {
namespace {

using isa::Assembler;
using namespace isa;

FastConfig
stressConfig(tm::BpKind kind, std::size_t tb_entries)
{
    FastConfig cfg;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.core.bp.kind = kind;
    cfg.core.statsIntervalBb = 1u << 30;
    cfg.traceBufferEntries = tb_entries;
    return cfg;
}

/** Branchy device-free program: data-dependent branches, loads/stores,
 *  syscall exceptions — no timer, no disk, so runs are deterministic. */
kernel::BootImage
stressImage(unsigned iters)
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

struct GuestResult
{
    std::uint64_t insts = 0;
    Cycle cycles = 0;
    std::string console;
    std::array<std::uint32_t, isa::NumGpRegs> gpr{};
};

GuestResult
runCoupled(const FastConfig &cfg, const kernel::BootImage &image)
{
    FastSimulator sim(cfg);
    sim.boot(image);
    auto r = sim.run(40000000);
    EXPECT_TRUE(r.finished);
    return {r.insts, r.cycles, sim.fm().console().output(),
            sim.fm().state().gpr};
}

GuestResult
runParallel(const FastConfig &cfg, const kernel::BootImage &image)
{
    ParallelFastSimulator sim(cfg);
    sim.boot(image);
    auto r = sim.run(80000000);
    EXPECT_TRUE(r.finished);
    return {r.insts, r.cycles, sim.fm().console().output(),
            sim.fm().state().gpr};
}

void
expectIdentical(const GuestResult &par, const GuestResult &ref,
                const std::string &what)
{
    EXPECT_EQ(par.insts, ref.insts) << what;
    EXPECT_EQ(par.cycles, ref.cycles) << what;
    EXPECT_EQ(par.console, ref.console) << what;
    EXPECT_EQ(par.gpr, ref.gpr) << what;
}

/**
 * The core sweep: trace-buffer capacities from one slot (below the issue
 * width, so the full-buffer tick-gate term carries every cycle) up to a
 * small power of two.
 */
TEST(SpscStress, TinyTraceBuffersBitIdenticalToCoupled)
{
    const auto image = stressImage(120);
    const std::size_t capacities[] = {1, 2, 3, 8};

    for (std::size_t cap : capacities) {
        const auto cfg = stressConfig(tm::BpKind::Gshare, cap);
        const auto ref = runCoupled(cfg, image);
        ASSERT_GT(ref.insts, 1000u);
        expectIdentical(runParallel(cfg, image), ref,
                        "capacity=" + std::to_string(cap));
    }
}

/** Branch-predictor sweep at a hostile geometry: capacity 2 = issue width.
 *  Gshare/TwoBit exercise the wrong-path resteer rendezvous constantly;
 *  Perfect exercises the pure producer/consumer path. */
TEST(SpscStress, BpKindsBitIdenticalAtCapacityTwo)
{
    const auto image = stressImage(150);
    for (tm::BpKind kind :
         {tm::BpKind::Gshare, tm::BpKind::TwoBit, tm::BpKind::Perfect}) {
        const auto ref = runCoupled(stressConfig(kind, 2), image);
        const auto par = runParallel(stressConfig(kind, 2), image);
        expectIdentical(par, ref,
                        "bp=" + std::to_string(static_cast<int>(kind)));
    }
}

/** Host-scheduling robustness: the same hostile geometry repeated must
 *  give the same answer every time, and match the coupled reference. */
TEST(SpscStress, RepeatedHostileRunsStable)
{
    const auto image = stressImage(100);
    const auto cfg = stressConfig(tm::BpKind::Gshare, 3);
    const auto ref = runCoupled(cfg, image);
    for (int i = 0; i < 4; ++i) {
        const auto par = runParallel(cfg, image);
        expectIdentical(par, ref, "iteration " + std::to_string(i));
    }
}

/** Wrong-path machinery really fires under the tiny-buffer geometry. */
TEST(SpscStress, ResteersExercisedUnderStress)
{
    const auto image = stressImage(150);
    ParallelFastSimulator par(stressConfig(tm::BpKind::Gshare, 3));
    par.boot(image);
    auto pr = par.run(80000000);
    ASSERT_TRUE(pr.finished);
    EXPECT_GT(par.stats().value("wrong_path_resteers"), 20u);
    EXPECT_EQ(par.stats().value("wrong_path_resteers"),
              par.stats().value("resolve_resteers"));
}

} // namespace
} // namespace fast
} // namespace fastsim
