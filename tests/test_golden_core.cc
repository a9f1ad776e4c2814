/**
 * @file
 * Golden-run comparison: the timing model's externally visible behavior —
 * cycle count, committed instructions, and the exact TmEvent sequence — is
 * pinned per workload.  Any change to the TM that is not bit-identical
 * (tick ordering, connector readiness, resteer sequencing, ...) shows up
 * here as a cycle-count or event-hash mismatch on the full suite.
 *
 * The table below was captured from the coupled (deterministic) runner at
 * each workload's bench scale with the default Gshare core configuration
 * and a 4000-cycle timer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "fast/simulator.hh"
#include "kernel/boot.hh"
#include "workloads/workloads.hh"

using namespace fastsim;

namespace {

/**
 * FASTSIM_TM_THREADS (default 1) sets CoreConfig::tmThreads for every
 * golden run: the BSP schedule must be bit-identical at any thread
 * count, so the same literals gate every value — the CI bsp-parallel
 * job runs this suite at 1, 2 and 4.
 */
unsigned
tmThreadsFromEnv()
{
    const char *e = std::getenv("FASTSIM_TM_THREADS");
    const int v = e ? std::atoi(e) : 1;
    return v > 1 ? static_cast<unsigned>(v) : 1u;
}

struct Golden
{
    const char *workload;
    unsigned scale;
    int finished;
    std::uint64_t cycles;
    std::uint64_t insts;
    std::uint64_t events;
    std::uint64_t eventHash; //!< FNV-1a over (kind, in, pc) per event
};

// clang-format off
const Golden kGolden[] = {
    {"Linux-2.4", 1, 1, 113236, 146306, 74836, 0x1b8c36714f9887e8ull},
    {"WindowsXP", 1, 1, 245745, 260602, 147661, 0x7e6c1928fad08e87ull},
    {"164.gzip", 8000, 1, 448732, 614455, 344793, 0x96bc39c0667d12b5ull},
    {"175.vpr", 7000, 1, 329756, 456294, 249235, 0x50666a0ad156c0c9ull},
    {"176.gcc", 7000, 1, 578344, 668879, 446288, 0x135516624779c754ull},
    {"181.mcf", 2500, 1, 408853, 512487, 319619, 0x6404cf97b013344cull},
    {"186.crafty", 6000, 1, 372025, 554648, 303290, 0x85d83f5101a5b55aull},
    {"197.parser", 8000, 1, 328260, 383008, 227715, 0x23aff965ff11a4c6ull},
    {"252.eon", 6000, 1, 326285, 452796, 199626, 0x83f19ad100348126ull},
    {"253.perlbmk", 400, 1, 1713091, 734389, 506149, 0x4e8ebc2bfe578004ull},
    {"254.gap", 4000, 1, 456736, 693435, 381949, 0x0b59e77c601b4a8cull},
    {"255.vortex", 4000, 1, 249780, 380990, 194522, 0xb0a4174fedd88286ull},
    {"256.bzip2", 6000, 1, 442357, 600629, 358475, 0x12b71cd00bb6ecd8ull},
    {"300.twolf", 9000, 1, 449018, 570758, 348203, 0x4fdf31ba58dfae05ull},
    {"Linux-2.6", 1, 1, 164563, 181425, 101541, 0x5600607b91f092aaull},
    {"Sweep3D", 2000, 1, 458154, 801517, 409959, 0x66573c30462bfca4ull},
    {"MySQL", 2500, 1, 430828, 479598, 306470, 0xa0f9dc0e0af564a0ull},
};
// clang-format on

/** Name the case by its workload: gtest's default byte dump would embed
 *  the name's address, which differs from build to build. */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << '"' << g.workload << '"';
}

class GoldenRun : public ::testing::TestWithParam<Golden>
{
};

TEST_P(GoldenRun, BitIdenticalToPreRefactorCapture)
{
    const Golden &g = GetParam();
    const workloads::Workload &w = workloads::byName(g.workload);

    fast::FastConfig cfg;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.core.statsIntervalBb = 1u << 30;
    cfg.core.tmThreads = tmThreadsFromEnv();
    fast::FastSimulator sim(cfg);

    std::uint64_t hash = 1469598103934665603ull; // FNV-1a offset basis
    std::uint64_t nevents = 0;
    sim.onEvent = [&](const tm::TmEvent &e) {
        auto mix = [&](std::uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                hash ^= (v >> (8 * i)) & 0xff;
                hash *= 1099511628211ull; // FNV prime
            }
        };
        mix(static_cast<std::uint64_t>(e.kind));
        mix(e.in);
        mix(e.pc);
        ++nevents;
    };

    auto opts = workloads::bootOptionsFor(w, g.scale);
    opts.timerInterval = 4000;
    sim.boot(kernel::buildBootImage(opts));
    auto r = sim.run(2000000000ull);

    EXPECT_EQ(r.finished, g.finished != 0);
    EXPECT_EQ(static_cast<std::uint64_t>(r.cycles), g.cycles);
    EXPECT_EQ(r.insts, g.insts);
    EXPECT_EQ(nevents, g.events);
    EXPECT_EQ(hash, g.eventHash)
        << "TmEvent sequence diverged from the golden capture";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, GoldenRun, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden> &info) {
        std::string n = info.param.workload;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

} // namespace
