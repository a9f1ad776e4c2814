/**
 * @file
 * A microscope on the FAST mis-speculation protocol — the live version of
 * paper Figure 2.
 *
 *   $ ./build/examples/mispredict_anatomy
 *
 * Runs a tiny branchy program with an intentionally poor predictor and
 * logs every protocol action cycle by cycle: the functional model running
 * ahead, the timing model detecting a mis-speculation at fetch, the
 * set_pc(IN, PC) call steering the FM down the wrong path, wrong-path
 * entries flowing through the trace buffer, the branch resolving in the
 * branch unit, the resteer back onto the correct path, and commits
 * releasing roll-back state.
 */

#include <cstdio>

#include "fast/simulator.hh"
#include "isa/assembler.hh"
#include "kernel/boot.hh"

using namespace fastsim;
using namespace fastsim::isa;

int
main()
{
    kernel::BuildOptions opts;
    opts.timerInterval = 0x7FFFFFFF; // no interrupts: protocol only
    opts.bootDiskReads = 0;
    opts.userProgram = [](Assembler &u) {
        // A data-dependent branch the 2-bit predictor gets wrong often.
        u.movri(R5, 0x1357);
        u.movri(R2, 12);
        Label top = u.here();
        Label skip = u.newLabel();
        u.movri(R0, 1103515245);
        u.imulrr(R5, R0);
        u.addri(R5, 12345);
        u.movrr(R0, R5);
        u.shri(R0, 16);
        u.andri(R0, 1);
        u.cmpri(R0, 0);
        u.jcc(CondZ, skip);
        u.addri(R6, 1);
        u.bind(skip);
        u.decr(R2);
        u.jcc(CondNZ, top);
        u.movri(R3, kernel::SysExit);
        u.intn(VecSyscall);
    };

    fast::FastConfig cfg;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.core.bp.kind = tm::BpKind::TwoBit;
    cfg.core.statsIntervalBb = 1u << 30;

    fast::FastSimulator sim(cfg);
    sim.boot(kernel::buildBootImage(opts));

    // Fast-forward through the boot; start narrating in the user phase.
    while (!sim.finished() && sim.core().cycle() < 400000000 &&
           !(sim.fm().state().flags & FlagU))
        sim.tickOnce();

    std::printf("=== user phase reached at target cycle %llu; narrating "
                "the protocol ===\n",
                static_cast<unsigned long long>(sim.core().cycle()));
    std::printf("(TB = trace buffer; IN = dynamic instruction number; "
                "epochs bump on every set_pc)\n\n");

    auto before = [&sim] {
        return sim.stats().value("wrong_path_resteers") +
               sim.stats().value("resolve_resteers");
    };

    unsigned narrated = 0;
    std::uint64_t last_events = before();
    while (!sim.finished() && narrated < 60 &&
           sim.core().cycle() < 500000000) {
        const Cycle c = sim.core().cycle();
        const InstNum fm_ahead = sim.fm().nextIn();
        const InstNum tm_fetch = sim.core().slice().nextFetchIn();
        sim.tickOnce();
        const std::uint64_t wp = sim.stats().value("wrong_path_resteers");
        const std::uint64_t rs = sim.stats().value("resolve_resteers");
        if (wp + rs != last_events) {
            const bool was_wrong = wp + rs - last_events != 0 &&
                                   sim.fm().onWrongPath();
            std::printf("cycle %8llu | TB fill: FM at IN %llu, TM fetching "
                        "IN %llu (%llu ahead)\n",
                        static_cast<unsigned long long>(c),
                        static_cast<unsigned long long>(fm_ahead),
                        static_cast<unsigned long long>(tm_fetch),
                        static_cast<unsigned long long>(fm_ahead -
                                                        tm_fetch));
            if (was_wrong) {
                std::printf("             -> MISPREDICT detected at fetch: "
                            "set_pc(IN=%llu, wrong path); epoch now %u\n",
                            static_cast<unsigned long long>(
                                sim.fm().nextIn()),
                            sim.fm().epoch());
            } else {
                std::printf("             -> branch RESOLVED in the branch "
                            "unit: set_pc(IN=%llu, correct path); pipeline "
                            "flushes through the ROB; epoch now %u\n",
                            static_cast<unsigned long long>(
                                sim.fm().nextIn()),
                            sim.fm().epoch());
            }
            last_events = wp + rs;
            ++narrated;
        }
    }
    while (!sim.finished() && sim.core().cycle() < 800000000)
        sim.tickOnce();

    std::printf("\n=== run complete ===\n");
    std::printf("wrong-path excursions: %llu, all rolled back; committed "
                "stream identical to\na pure functional run (see "
                "tests/test_fast.cc for the machine-checked proof).\n",
                static_cast<unsigned long long>(
                    sim.stats().value("wrong_path_resteers")));
    std::printf("functional model executed %llu instructions for %llu "
                "committed (%.1f%% overhead)\n",
                static_cast<unsigned long long>(
                    sim.fm().stats().value("instructions")),
                static_cast<unsigned long long>(
                    sim.core().committedInsts()),
                100.0 * (double(sim.fm().stats().value("instructions")) /
                             double(sim.core().committedInsts()) -
                         1.0));
    return 0;
}
