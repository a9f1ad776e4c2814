/**
 * @file
 * Crash-consistent checkpoint/resume (DESIGN.md §10.4).
 *
 * The load-bearing property is kill-and-resume equivalence: a run that is
 * killed after a checkpoint and resumed in a *fresh process image* (here:
 * a fresh simulator object) must reach the final halt with bit-identical
 * results — cycles, instructions, the committed-instruction hash chain,
 * console output, and statistics — compared to an uninterrupted run *with
 * the same checkpoint cadence* (snapshots happen at drained boundaries,
 * so enabling them perturbs cycle counts; the cadence is part of the
 * experiment, exactly like a timer interval).
 *
 * The negative paths matter as much: corrupt payloads, truncated files,
 * configuration mismatches and malformed records must be rejected before
 * any state is touched — by the single-core and the SMP runner alike.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "fast/simulator.hh"
#include "fast/smp.hh"
#include "fast/snapshot_io.hh"
#include "kernel/boot.hh"
#include "tm/modules/mem_mod.hh"
#include "workloads/service.hh"
#include "workloads/workloads.hh"

using namespace fastsim;

namespace {

constexpr Cycle MaxCycles = 2000000000ull;

struct CkptCase
{
    const char *workload;
    unsigned scale;
    Cycle every;
};

const CkptCase kCases[] = {
    {"Linux-2.4", 1, 30000},
    {"164.gzip", 2000, 40000},
    {"Sweep3D", 500, 25000},
};

std::string
ckptPath(const std::string &tag)
{
    return ::testing::TempDir() + "fastsim_" + tag + ".ckpt";
}

fast::FastConfig
configFor(const CkptCase &c, const std::string &path)
{
    fast::FastConfig cfg;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.core.statsIntervalBb = 1u << 30;
    cfg.guardrails.hashCommits = true;
    cfg.checkpointEvery = c.every;
    cfg.checkpointPath = path;
    return cfg;
}

kernel::BootImage
imageFor(const CkptCase &c)
{
    const workloads::Workload &w = workloads::byName(c.workload);
    auto opts = workloads::bootOptionsFor(w, c.scale);
    opts.timerInterval = 4000;
    return kernel::buildBootImage(opts);
}

struct FinalState
{
    bool finished;
    std::uint64_t cycles;
    std::uint64_t insts;
    std::uint64_t commitHash;
    std::uint64_t checkpoints;
    std::string console;
};

FinalState
finalOf(fast::FastSimulator &sim, const fast::RunResult &r)
{
    return {r.finished,
            static_cast<std::uint64_t>(r.cycles),
            r.insts,
            sim.commitHash(),
            sim.stats().counter("checkpoints_taken"),
            sim.fm().console().output()};
}

/** Name the case by its workload: gtest's default byte dump would embed
 *  the name's address, which differs from build to build. */
void
PrintTo(const CkptCase &c, std::ostream *os)
{
    *os << '"' << c.workload << '"';
}

class KillAndResume : public ::testing::TestWithParam<CkptCase>
{
};

TEST_P(KillAndResume, BitIdenticalToUninterruptedRun)
{
    const CkptCase &c = GetParam();

    // Reference: uninterrupted run with the same checkpoint cadence.
    const std::string refPath = ckptPath(std::string(c.workload) + "_ref");
    fast::FastSimulator ref(configFor(c, refPath));
    ref.boot(imageFor(c));
    const FinalState want = finalOf(ref, ref.run(MaxCycles));
    ASSERT_TRUE(want.finished);
    ASSERT_GE(want.checkpoints, 2u) << "cadence too coarse to test resume";

    // Victim: run only far enough to write the first checkpoint, then
    // "crash" (the simulator object is simply abandoned).
    const std::string path = ckptPath(std::string(c.workload) + "_kill");
    std::remove(path.c_str());
    {
        fast::FastSimulator victim(configFor(c, path));
        victim.boot(imageFor(c));
        Cycle bound = c.every + 1;
        while (victim.stats().counter("checkpoints_taken") == 0) {
            ASSERT_LT(bound, MaxCycles);
            victim.run(bound);
            bound += c.every;
        }
    }

    // Resume in a fresh simulator: boot the same image (re-creating the
    // un-serialized environment), then overwrite machine state from the
    // snapshot and run to completion.
    fast::FastSimulator resumed(configFor(c, path));
    resumed.boot(imageFor(c));
    resumed.resumeFrom(path);
    const FinalState got = finalOf(resumed, resumed.run(MaxCycles));

    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.insts, want.insts);
    EXPECT_EQ(got.commitHash, want.commitHash)
        << "committed-instruction hash chain diverged after resume";
    EXPECT_EQ(got.checkpoints, want.checkpoints);
    EXPECT_EQ(got.console, want.console);

    std::remove(refPath.c_str());
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Suite, KillAndResume, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<CkptCase> &info) {
        std::string n = info.param.workload;
        for (char &ch : n)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

// A checkpoint written mid-run must also resume correctly when the victim
// is killed *between* checkpoints (the snapshot on disk is older than the
// crash point) — the resumed run re-executes the gap deterministically.
TEST(Checkpoint, ResumeFromStaleSnapshotReplaysTheGap)
{
    const CkptCase c = kCases[0];
    const std::string path = ckptPath("stale");
    std::remove(path.c_str());

    fast::FastSimulator ref(configFor(c, ckptPath("stale_ref")));
    ref.boot(imageFor(c));
    const FinalState want = finalOf(ref, ref.run(MaxCycles));

    {
        fast::FastSimulator victim(configFor(c, path));
        victim.boot(imageFor(c));
        // Run well past the first checkpoint, into the second interval.
        while (victim.stats().counter("checkpoints_taken") < 1)
            victim.run(victim.core().cycle() + c.every);
        victim.run(victim.core().cycle() + c.every / 2); // the "gap"
    }

    fast::FastSimulator resumed(configFor(c, path));
    resumed.boot(imageFor(c));
    resumed.resumeFrom(path);
    const FinalState got = finalOf(resumed, resumed.run(MaxCycles));

    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.commitHash, want.commitHash);
    EXPECT_EQ(got.console, want.console);

    std::remove(path.c_str());
    std::remove(ckptPath("stale_ref").c_str());
}

// --- in-flight MSHR state across a snapshot -------------------------------

// Component-level round trip: a hierarchy with outstanding misses must
// restore its MSHR tables (and the bandwidth/port state below them) so a
// subsequent access gates identically in the original and the restored
// copy.  An empty-restored table would let the probe start immediately.
TEST(Checkpoint, MshrStateRoundTripsComponentLevel)
{
    tm::CoreConfig cfg;
    cfg.caches.l1d.blocking = false;
    cfg.caches.l2.blocking = false;
    cfg.mem.l1dMshrs = 2;
    cfg.mem.l2Mshrs = 2;
    cfg.mem.memServiceInterval = 2;

    tm::modules::MemHierarchy orig(cfg);
    // Two cold misses on distinct lines fill both L1D MSHRs.
    orig.l1d.access(0x1000, 0);
    orig.l1d.access(0x2000, 1);
    ASSERT_EQ(orig.l1d.outstandingMisses(2), 2u);

    serialize::Sink s;
    orig.mem.save(s);
    orig.l2.save(s);
    orig.l1d.save(s);
    orig.fx.save(s);

    tm::modules::MemHierarchy restored(cfg);
    serialize::Source src(s.data().data(), s.data().size());
    restored.mem.restore(src);
    restored.l2.restore(src);
    restored.l1d.restore(src);
    restored.fx.restore(src);

    EXPECT_EQ(restored.l1d.outstandingMisses(2),
              orig.l1d.outstandingMisses(2));

    // A third miss at cycle 2 must wait for an MSHR in both copies —
    // identical gating proves the completion cycles survived the trip.
    const auto want = orig.l1d.access(0x3000, 2);
    const auto got = restored.l1d.access(0x3000, 2);
    EXPECT_EQ(got.readyAt, want.readyAt);
    EXPECT_EQ(got.latency, want.latency);
    EXPECT_EQ(got.l1Hit, want.l1Hit);
    EXPECT_EQ(got.l2Hit, want.l2Hit);
    EXPECT_GT(got.latency, cfg.caches.l1d.hitLatency)
        << "the probe did not gate on the restored MSHR table";
}

// Full-path kill-and-resume under a non-blocking MSHR configuration: the
// snapshot now carries per-level MSHR tables, the ten memory-fabric
// connectors, and the memory port's bandwidth state.
TEST(Checkpoint, KillAndResumeWithInFlightMshrs)
{
    CkptCase c = kCases[0];
    auto mshrConfig = [&](const std::string &path) {
        fast::FastConfig cfg = configFor(c, path);
        cfg.core.caches.l1i.blocking = false;
        cfg.core.caches.l1d.blocking = false;
        cfg.core.caches.l2.blocking = false;
        cfg.core.mem.l1iMshrs = 4;
        cfg.core.mem.l1dMshrs = 4;
        cfg.core.mem.l2Mshrs = 8;
        cfg.core.mem.memServiceInterval = 2;
        return cfg;
    };

    const std::string refPath = ckptPath("mshr_ref");
    fast::FastSimulator ref(mshrConfig(refPath));
    ref.boot(imageFor(c));
    const FinalState want = finalOf(ref, ref.run(MaxCycles));
    ASSERT_TRUE(want.finished);
    ASSERT_GE(want.checkpoints, 2u);

    const std::string path = ckptPath("mshr_kill");
    std::remove(path.c_str());
    {
        fast::FastSimulator victim(mshrConfig(path));
        victim.boot(imageFor(c));
        Cycle bound = c.every + 1;
        while (victim.stats().counter("checkpoints_taken") == 0) {
            ASSERT_LT(bound, MaxCycles);
            victim.run(bound);
            bound += c.every;
        }
    }

    fast::FastSimulator resumed(mshrConfig(path));
    resumed.boot(imageFor(c));
    resumed.resumeFrom(path);
    const FinalState got = finalOf(resumed, resumed.run(MaxCycles));

    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.insts, want.insts);
    EXPECT_EQ(got.commitHash, want.commitHash);
    EXPECT_EQ(got.console, want.console);

    std::remove(refPath.c_str());
    std::remove(path.c_str());
}

TEST(Checkpoint, MemConfigMismatchRejected)
{
    const CkptCase c = kCases[0];
    const std::string path = ckptPath("mem_mismatch");
    {
        fast::FastSimulator sim(configFor(c, path));
        sim.boot(imageFor(c));
        while (sim.stats().counter("checkpoints_taken") == 0)
            sim.run(sim.core().cycle() + c.every);
    }

    // The MSHR depths shape the serialized hierarchy, so they are part of
    // the fingerprint: a different depth must reject the snapshot.
    fast::FastConfig other = configFor(c, path);
    other.core.caches.l1d.blocking = false;
    other.core.mem.l1dMshrs = 4;
    fast::FastSimulator resumed(other);
    resumed.boot(imageFor(c));
    EXPECT_THROW(resumed.resumeFrom(path), FatalError);
    std::remove(path.c_str());
}

// --- rejection, at one and two cores ----------------------------------------
//
// Every runner reads snapshots through the same envelope and payload
// reader, so each rejection holds for the single-core and the SMP runner
// alike.

/** Build the runner for `cfg` (FastSimulator or SmpSimulator by core
 *  count) and hand it to `f`. */
template <typename F>
void
withRunner(const fast::FastConfig &cfg, F &&f)
{
    if (cfg.numCores == 1) {
        fast::FastSimulator sim(cfg);
        f(sim);
    } else {
        fast::SmpSimulator sim(cfg);
        f(sim);
    }
}

class SnapshotRejection : public ::testing::TestWithParam<unsigned>
{
  protected:
    fast::FastConfig
    config(const std::string &path) const
    {
        fast::FastConfig cfg = configFor(kCases[0], path);
        cfg.numCores = GetParam();
        return cfg;
    }

    /** Linux-2.4 on one core; the service workload on N cores. */
    kernel::BootImage
    image() const
    {
        if (GetParam() == 1)
            return imageFor(kCases[0]);
        workloads::ServiceConfig svc;
        svc.loadGenerators = GetParam() - 1;
        svc.requestsPerGen = 4;
        return kernel::buildBootImage(workloads::serviceBootOptions(svc));
    }

    /** Run to the first periodic checkpoint, written to `path`. */
    void
    writeSnapshot(const std::string &path)
    {
        withRunner(config(path), [&](auto &sim) {
            sim.boot(image());
            while (sim.stats().counter("checkpoints_taken") == 0)
                sim.run(sim.core().cycle() + kCases[0].every);
        });
    }

    /** A fresh runner under `cfg` must refuse the snapshot at `path`. */
    void
    expectRejected(const fast::FastConfig &cfg, const std::string &path)
    {
        withRunner(cfg, [&](auto &sim) {
            sim.boot(image());
            EXPECT_THROW(sim.resumeFrom(path), FatalError);
        });
    }

    std::string
    path(const std::string &tag) const
    {
        return ckptPath(tag + "_" + std::to_string(GetParam()) + "core");
    }
};

TEST_P(SnapshotRejection, CorruptPayloadRejected)
{
    const std::string p = path("corrupt");
    writeSnapshot(p);

    // Flip one byte deep in the payload.
    std::FILE *f = std::fopen(p.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 64, SEEK_SET);
    int b = std::fgetc(f);
    std::fseek(f, 64, SEEK_SET);
    std::fputc(b ^ 0x01, f);
    std::fclose(f);

    expectRejected(config(p), p);
    std::remove(p.c_str());
}

TEST_P(SnapshotRejection, TruncatedFileRejected)
{
    const std::string p = path("trunc");
    std::FILE *f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[8] = {0};
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);

    expectRejected(config(p), p);
    std::remove(p.c_str());
}

TEST_P(SnapshotRejection, ConfigMismatchRejected)
{
    const std::string p = path("mismatch");
    writeSnapshot(p);

    fast::FastConfig other = config(p);
    other.traceBufferEntries = 128; // fingerprint-relevant difference
    expectRejected(other, p);
    std::remove(p.c_str());
}

/** An image of another format version — here v5, whose fingerprint
 *  covered the parallel-runner tuning and whose payload carried a
 *  trace-ring sizer section per core — is refused by its version word
 *  before anything else is parsed. */
TEST_P(SnapshotRejection, UnsupportedVersionRejected)
{
    const std::string p = path("version");
    writeSnapshot(p);
    std::vector<std::uint8_t> bytes = fast::snapshot_io::readFile(p);
    std::remove(p.c_str());

    // Header: u32 magic, then the u32 version word (little-endian).
    ASSERT_GE(bytes.size(), 32u);
    ASSERT_EQ(bytes[4], fast::snapshot_io::SnapshotVersion);
    bytes[4] = 5;
    std::string what;
    withRunner(config(p), [&](auto &sim) {
        sim.boot(image());
        try {
            sim.resumeFromImage(bytes);
        } catch (const FatalError &e) {
            what = e.what();
        }
    });
    EXPECT_NE(what.find("unsupported snapshot version"), std::string::npos)
        << "got: '" << what << "'";
}

/** The capture-time BSP record (tmThreads, partitions) is provenance, but
 *  its shape is checked: the scheduler never runs more partitions than
 *  threads, so a record claiming that is malformed — rejected even when
 *  the checksum has been recomputed to match. */
TEST_P(SnapshotRejection, MorePartitionsThanThreadsRejected)
{
    const std::string p = path("bsp");
    std::size_t stats_bytes = 0;
    withRunner(config(p), [&](auto &sim) {
        sim.boot(image());
        sim.run(kCases[0].every / 2); // before the first periodic one
        ASSERT_TRUE(sim.checkpointNow(p));
        serialize::Sink g;
        serialize::putGroup(g, sim.stats()); // the snapshot's last section
        stats_bytes = g.data().size();
    });
    std::FILE *f = std::fopen(p.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<std::uint8_t> bytes(1 << 22);
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
    std::fclose(f);
    std::remove(p.c_str());
    ASSERT_GT(bytes.size(), 32 + stats_bytes + 8);

    // Payload tail: u32 tmThreads, u32 partitions, statistics group.
    const std::size_t parts_at = bytes.size() - stats_bytes - 4;
    ASSERT_EQ(bytes[parts_at - 4], 1u); // captured at tmThreads = 1 ...
    ASSERT_EQ(bytes[parts_at], 1u);     // ... on one partition
    auto resumes = [&](const std::vector<std::uint8_t> &img) {
        bool ok = true;
        withRunner(config(p), [&](auto &sim) {
            sim.boot(image());
            try {
                sim.resumeFromImage(img);
            } catch (const FatalError &) {
                ok = false;
            }
        });
        return ok;
    };
    ASSERT_TRUE(resumes(bytes)) << "the untampered image must resume";

    bytes[parts_at] = 2; // two partitions on one thread
    const std::uint64_t sum =
        serialize::fnv1a(bytes.data() + 32, bytes.size() - 32);
    for (unsigned i = 0; i < 8; ++i)
        bytes[24 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
    EXPECT_FALSE(resumes(bytes));
}

INSTANTIATE_TEST_SUITE_P(
    Cores, SnapshotRejection, ::testing::Values(1u, 2u),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        return std::to_string(info.param) + "core";
    });

// --- pinned snapshot bytes ---------------------------------------------------

/**
 * The FNV-1a digest of one whole snapshot image (header + payload), taken
 * at a fixed cycle: gzip on one core, the service workload on four cores
 * at tmThreads = 1.  The literals pin the v6 byte layout, so a change
 * meant to be layout-neutral (a refactor of the timing-model facades, a
 * reordered save call) fails here instead of silently changing what an
 * older checkpoint restores into.  Re-pin a literal only together with a
 * fast::snapshot_io::SnapshotVersion bump, or with a named counter change
 * (the statistics sections carry every counter's name).
 */
class SnapshotGolden : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SnapshotGolden, ImageDigestMatchesLiteral)
{
    const unsigned cores = GetParam();
    fast::FastConfig cfg;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.guardrails.hashCommits = true;
    cfg.numCores = cores;
    cfg.core.tmThreads = 1;
    const std::string p = ckptPath("golden_" + std::to_string(cores) + "core");

    // Run to a fixed cycle, then drain to the next quiesced boundary.
    Cycle at = 0;
    std::uint64_t expected = 0;
    if (cores == 1) {
        auto opts =
            workloads::bootOptionsFor(workloads::byName("164.gzip"), 500);
        opts.timerInterval = 4000;
        fast::FastSimulator sim(cfg);
        sim.boot(kernel::buildBootImage(opts));
        sim.run(30000);
        ASSERT_TRUE(sim.checkpointNow(p));
        at = sim.cycle();
        expected = 0x51f6f2628f103af2ull;
    } else {
        workloads::ServiceConfig svc;
        svc.loadGenerators = cores - 1;
        svc.requestsPerGen = 4;
        fast::SmpSimulator sim(cfg);
        sim.boot(kernel::buildBootImage(workloads::serviceBootOptions(svc)));
        sim.run(60000);
        ASSERT_TRUE(sim.checkpointNow(p));
        at = sim.cycle();
        expected = 0xd84c7cd1a66de59eull;
    }
    const std::vector<std::uint8_t> image = fast::snapshot_io::readFile(p);
    std::remove(p.c_str());
    ASSERT_GE(image.size(), 32u);
    ASSERT_EQ(image[4], fast::snapshot_io::SnapshotVersion);
    const std::uint64_t digest = serialize::fnv1a(image.data(), image.size());
    EXPECT_EQ(digest, expected)
        << std::hex << "image digest 0x" << digest << std::dec << " ("
        << image.size() << " bytes, quiesced at cycle " << at << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Cores, SnapshotGolden, ::testing::Values(1u, 4u),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        return std::to_string(info.param) + "core";
    });

} // namespace
