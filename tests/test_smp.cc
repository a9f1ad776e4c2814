/**
 * @file
 * The N-core coupled simulator (DESIGN.md §16): SMP boot, the
 * request/response service workload, N-core determinism (repeated runs
 * and tmThreads-invariance), snapshot v5 kill/resume, the core-count
 * fingerprint guard, and the coherence-fabric lints (FAB013, partition
 * coverage).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/fabric_lint.hh"
#include "analysis/partition.hh"
#include "base/logging.hh"
#include "fast/parallel.hh"
#include "fast/simulator.hh"
#include "fast/smp.hh"
#include "kernel/boot.hh"
#include "workloads/service.hh"

using namespace fastsim;

namespace {

constexpr Cycle MaxCycles = 50000000ull;

fast::FastConfig
smpConfig(unsigned cores, unsigned tm_threads = 1)
{
    fast::FastConfig cfg;
    cfg.numCores = cores;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.core.statsIntervalBb = 1u << 30;
    cfg.core.tmThreads = tm_threads;
    cfg.guardrails.hashCommits = true;
    return cfg;
}

workloads::ServiceConfig
serviceCfg(unsigned generators, unsigned requests)
{
    workloads::ServiceConfig svc;
    svc.loadGenerators = generators;
    svc.requestsPerGen = requests;
    return svc;
}

struct FinalState
{
    bool finished;
    std::uint64_t cycles;
    std::uint64_t insts;
    std::uint64_t commitHash;
    std::string console;
};

FinalState
runService(fast::SmpSimulator &sim, const workloads::ServiceConfig &svc)
{
    sim.boot(kernel::buildBootImage(workloads::serviceBootOptions(svc)));
    const auto r = sim.run(MaxCycles);
    return {r.finished, static_cast<std::uint64_t>(r.cycles), r.insts,
            sim.commitHash(), sim.fmCore(0).console().output()};
}

std::string
ckptPath(const std::string &tag)
{
    return ::testing::TempDir() + "fastsim_smp_" + tag + ".ckpt";
}

// --- SMP boot + service workload ------------------------------------------

TEST(SmpService, ServerAndTwoGeneratorsCompleteAllRequests)
{
    const auto svc = serviceCfg(2, 6);
    fast::SmpSimulator sim(smpConfig(3));
    workloads::ServiceMonitor monitor(svc, sim);
    const FinalState fs = runService(sim, svc);

    ASSERT_TRUE(fs.finished) << "service run did not reach all-halted";
    EXPECT_NE(fs.console.find(kernel::BootImage::ReadyMarker),
              std::string::npos);
    EXPECT_NE(fs.console.find(kernel::BootImage::ExitMarker),
              std::string::npos);

    const auto rep = monitor.report();
    EXPECT_EQ(rep.cores, 3u);
    EXPECT_EQ(rep.totalRequests, 12u);
    EXPECT_EQ(rep.completed, 12u)
        << "every request must have a host-observed response";
    EXPECT_GT(rep.p50, 0u);
    EXPECT_LE(rep.p50, rep.p95);
    EXPECT_LE(rep.p95, rep.p99);
    EXPECT_GT(rep.requestsPerSec, 0.0);
    EXPECT_GT(rep.lastAnswer, rep.firstIssue);

    const std::string json = rep.json();
    EXPECT_NE(json.find("\"cores\":3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"load_generators\":2"), std::string::npos);
    EXPECT_NE(json.find("\"latency_cycles\":{\"p50\":"), std::string::npos);
    EXPECT_NE(json.find("\"requests_per_sec\":"), std::string::npos);
}

TEST(SmpService, SamplesCarryPerGeneratorSequences)
{
    const auto svc = serviceCfg(2, 3);
    fast::SmpSimulator sim(smpConfig(3));
    workloads::ServiceMonitor monitor(svc, sim);
    ASSERT_TRUE(runService(sim, svc).finished);

    const auto rep = monitor.report();
    ASSERT_EQ(rep.samples.size(), 6u);
    unsigned perGen[2] = {0, 0};
    for (const auto &s : rep.samples) {
        ASSERT_LT(s.generator, 2u);
        ++perGen[s.generator];
        EXPECT_GT(s.answered, s.issued);
    }
    EXPECT_EQ(perGen[0], 3u);
    EXPECT_EQ(perGen[1], 3u);
}

/** A response observed before its request's cycle is recorded with
 *  latency 0 and counted, and the report carries the count. */
TEST(SmpService, ReportCountsClampedLatencies)
{
    const auto svc = serviceCfg(2, 3);
    fast::SmpSimulator sim(smpConfig(3));
    workloads::ServiceMonitor monitor(svc, sim);
    ASSERT_TRUE(runService(sim, svc).finished);

    const auto rep = monitor.report();
    std::uint64_t zero_latency = 0;
    for (const auto &s : rep.samples)
        zero_latency += s.latency() == 0;
    EXPECT_LE(rep.latencyClamped, zero_latency);
    EXPECT_NE(rep.json().find("\"latency_clamped\":" +
                              std::to_string(rep.latencyClamped) + ","),
              std::string::npos)
        << rep.json();
}

// --- determinism -----------------------------------------------------------

TEST(SmpDeterminism, RepeatedRunsAreBitIdentical)
{
    const auto svc = serviceCfg(1, 4);
    fast::SmpSimulator a(smpConfig(2));
    fast::SmpSimulator b(smpConfig(2));
    const FinalState fa = runService(a, svc);
    const FinalState fb = runService(b, svc);
    ASSERT_TRUE(fa.finished);
    ASSERT_TRUE(fb.finished);
    EXPECT_EQ(fa.cycles, fb.cycles);
    EXPECT_EQ(fa.insts, fb.insts);
    EXPECT_EQ(fa.commitHash, fb.commitHash);
    EXPECT_EQ(fa.console, fb.console);
}

TEST(SmpDeterminism, HashChainInvariantAcrossTmThreads)
{
    const auto svc = serviceCfg(2, 4);
    FinalState ref{};
    bool first = true;
    for (unsigned threads : {1u, 2u, 4u}) {
        fast::SmpSimulator sim(smpConfig(3, threads));
        const FinalState fs = runService(sim, svc);
        ASSERT_TRUE(fs.finished) << "tmThreads=" << threads;
        if (first) {
            ref = fs;
            first = false;
            continue;
        }
        EXPECT_EQ(fs.cycles, ref.cycles) << "tmThreads=" << threads;
        EXPECT_EQ(fs.insts, ref.insts) << "tmThreads=" << threads;
        EXPECT_EQ(fs.commitHash, ref.commitHash)
            << "BSP schedule must be thread-count-invariant (tmThreads="
            << threads << ")";
        EXPECT_EQ(fs.console, ref.console);
    }
}

// --- the single-core gates -------------------------------------------------

TEST(SmpGates, SingleCoreRunnersRejectMultiCoreConfigs)
{
    EXPECT_THROW(fast::FastSimulator(smpConfig(2)), FatalError);
    EXPECT_THROW(fast::ParallelFastSimulator(smpConfig(2, 2)), FatalError);
}

TEST(SmpGates, SmpSimulatorRejectsSingleCoreConfig)
{
    EXPECT_THROW(fast::SmpSimulator(smpConfig(1)), FatalError);
}

TEST(SmpGates, SingleCoreBootImageIsUnchangedByTheSmpKnob)
{
    // numCores=1 must keep the pre-SMP golden hashes: the image may not
    // gain a secondary stub, a release-flag store, or new symbols.
    kernel::BuildOptions base;
    kernel::BuildOptions one;
    one.smpCores = 1;
    const auto a = kernel::buildBootImage(base);
    const auto b = kernel::buildBootImage(one);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        EXPECT_EQ(a.segments[i].pa, b.segments[i].pa);
        EXPECT_EQ(a.segments[i].bytes, b.segments[i].bytes);
    }
    EXPECT_EQ(a.symbols.count("smp_secondary_entry"), 0u);

    kernel::BuildOptions two;
    two.smpCores = 2;
    const auto c = kernel::buildBootImage(two);
    EXPECT_EQ(c.segments.size(), a.segments.size() + 1);
    EXPECT_EQ(c.symbols.count("smp_secondary_entry"), 1u);
    EXPECT_EQ(c.symbols.count("smp_release_flag"), 1u);
}

// --- snapshot v5: kill/resume ---------------------------------------------

TEST(SmpCheckpoint, KillAndResumeIsBitIdentical)
{
    const auto svc = serviceCfg(2, 6);
    const Cycle every = 30000;

    auto configured = [&](const std::string &path) {
        fast::FastConfig cfg = smpConfig(3);
        cfg.checkpointEvery = every;
        cfg.checkpointPath = path;
        return cfg;
    };

    // Reference: uninterrupted run with the same cadence.
    const std::string refPath = ckptPath("ref");
    fast::SmpSimulator ref(configured(refPath));
    const FinalState want = runService(ref, svc);
    ASSERT_TRUE(want.finished);
    ASSERT_GE(ref.stats().counter("checkpoints_taken"), 1u)
        << "cadence too coarse to exercise resume";

    // Victim: run to the first checkpoint, then crash (abandon the
    // object).
    const std::string path = ckptPath("kill");
    std::remove(path.c_str());
    {
        fast::SmpSimulator victim(configured(path));
        victim.boot(kernel::buildBootImage(
            workloads::serviceBootOptions(svc)));
        Cycle bound = every + 1;
        while (victim.stats().counter("checkpoints_taken") == 0) {
            ASSERT_LT(bound, MaxCycles);
            victim.run(bound);
            bound += every;
        }
    }

    fast::SmpSimulator resumed(configured(path));
    resumed.boot(kernel::buildBootImage(
        workloads::serviceBootOptions(svc)));
    resumed.resumeFrom(path);
    const auto r = resumed.run(MaxCycles);
    const FinalState got = {r.finished,
                            static_cast<std::uint64_t>(r.cycles), r.insts,
                            resumed.commitHash(),
                            resumed.fmCore(0).console().output()};

    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.insts, want.insts);
    EXPECT_EQ(got.commitHash, want.commitHash)
        << "committed-instruction hash chain diverged after SMP resume";
    EXPECT_EQ(got.console, want.console);

    std::remove(refPath.c_str());
    std::remove(path.c_str());
}

TEST(SmpCheckpoint, ResumesUnderDifferentTmThreads)
{
    // tmThreads is a host-side execution strategy, not machine state: a
    // snapshot from a sequential run must resume under a parallel TM (and
    // land on the same hash chain).  numCores, by contrast, is machine
    // state — see the rejection test below.
    const auto svc = serviceCfg(1, 6);
    const Cycle every = 30000;

    auto configured = [&](unsigned threads, const std::string &path) {
        fast::FastConfig cfg = smpConfig(2, threads);
        cfg.checkpointEvery = every;
        cfg.checkpointPath = path;
        return cfg;
    };

    const std::string refPath = ckptPath("threads_ref");
    fast::SmpSimulator ref(configured(1, refPath));
    const FinalState want = runService(ref, svc);
    ASSERT_TRUE(want.finished);

    const std::string path = ckptPath("threads");
    std::remove(path.c_str());
    {
        fast::SmpSimulator victim(configured(1, path));
        victim.boot(kernel::buildBootImage(
            workloads::serviceBootOptions(svc)));
        Cycle bound = every + 1;
        while (victim.stats().counter("checkpoints_taken") == 0) {
            ASSERT_LT(bound, MaxCycles);
            victim.run(bound);
            bound += every;
        }
    }

    fast::SmpSimulator resumed(configured(2, path));
    resumed.boot(kernel::buildBootImage(
        workloads::serviceBootOptions(svc)));
    resumed.resumeFrom(path);
    const auto r = resumed.run(MaxCycles);

    EXPECT_TRUE(r.finished);
    EXPECT_EQ(static_cast<std::uint64_t>(r.cycles), want.cycles);
    EXPECT_EQ(resumed.commitHash(), want.commitHash);

    std::remove(refPath.c_str());
    std::remove(path.c_str());
}

TEST(SmpCheckpoint, RejectsCoreCountMismatch)
{
    // The snapshot fingerprint covers numCores: state from a 2-core
    // machine must not restore into a 3-core machine.
    const auto svc = serviceCfg(1, 4);
    const std::string path = ckptPath("cores_mismatch");
    std::remove(path.c_str());

    fast::FastConfig cfg2 = smpConfig(2);
    cfg2.checkpointEvery = 30000;
    cfg2.checkpointPath = path;
    fast::SmpSimulator victim(cfg2);
    victim.boot(kernel::buildBootImage(
        workloads::serviceBootOptions(svc)));
    Cycle bound = 30001;
    while (victim.stats().counter("checkpoints_taken") == 0) {
        ASSERT_LT(bound, MaxCycles);
        victim.run(bound);
        bound += 30000;
    }

    const auto svc3 = serviceCfg(2, 4);
    fast::SmpSimulator other(smpConfig(3));
    other.boot(kernel::buildBootImage(
        workloads::serviceBootOptions(svc3)));
    EXPECT_THROW(other.resumeFrom(path), FatalError);

    std::remove(path.c_str());
}

// --- coherence fabric lints ------------------------------------------------

TEST(SmpFabric, FourCoreFabricLintsCleanAndPartitionCoversCores)
{
    fast::SmpSimulator sim(smpConfig(4));
    const auto g = analysis::FabricGraph::fromRegistry(sim.core().registry());

    analysis::Report r;
    analysis::lintFabric(g, r);
    EXPECT_FALSE(r.hasErrors()) << r.text();
    EXPECT_FALSE(r.has("FAB013")) << r.text();

    // One partition per core slice plus the shared L2/memory domain, and
    // every cut must be barrier-legal.
    const auto plan = analysis::computePartition(g, 5);
    EXPECT_GE(plan.partitions.size(), 4u)
        << "an N-core fabric must expose at least N parallel partitions";
    analysis::Report pr;
    analysis::lintPartition(g, plan, pr);
    EXPECT_FALSE(pr.has("FAB011")) << pr.text();

    // fastlint --partition names SMP partitions by the slice they cover.
    std::vector<std::string> labels;
    for (std::size_t p = 0; p < plan.partitions.size(); ++p)
        labels.push_back(analysis::partitionLabel(g, plan, p));
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_NE(std::find(labels.begin(), labels.end(),
                            "core " + std::to_string(c)),
                  labels.end())
            << "no partition labeled for core " << c;
    EXPECT_NE(std::find(labels.begin(), labels.end(), "shared"),
              labels.end())
        << "shared L2/memory partition must be labeled";
}

TEST(SmpFabric, Fab013FlagsIllegalCoherenceEdges)
{
    // Hand-crafted graph: a snoop edge and a shared-L2 edge, both broken.
    analysis::FabricGraph g;
    for (const char *name : {"c0.l1d", "c1.l1d", "smp.l2"}) {
        analysis::FabricModule m;
        m.name = name;
        g.modules.push_back(m);
    }
    auto edge = [&](const std::string &name, int prod, int cons,
                    Cycle min_latency, unsigned max_tx) {
        analysis::FabricEdge e;
        e.name = name;
        e.producer = prod;
        e.consumer = cons;
        e.producerBindings = 1;
        e.consumerBindings = 1;
        e.params.minLatency = min_latency;
        e.params.maxTransactions = max_tx;
        g.edges.push_back(e);
    };
    edge("c0.snoop", 2, 0, 0, 0); // zero-latency snoop: visible pre-barrier
    edge("c1.l1dToL2", 1, 2, 1, 4); // bounded edge into the shared L2

    analysis::Report r;
    analysis::lintFabric(g, r);
    EXPECT_EQ(r.countOf("FAB013"), 2u) << r.text();

    // The fixed versions (latency >= 1, unbounded) are clean.
    g.edges.clear();
    edge("c0.snoop", 2, 0, 1, 0);
    edge("c1.l1dToL2", 1, 2, 1, 0);
    analysis::Report r2;
    analysis::lintFabric(g, r2);
    EXPECT_FALSE(r2.has("FAB013")) << r2.text();
}

// --- per-core guardrails diagnosis (no-progress report) -------------------

TEST(SmpGuardrails, DiagnosisReportsEveryCoreAndTheConnectors)
{
    const auto svc = serviceCfg(2, 4);
    fast::SmpSimulator sim(smpConfig(3));
    sim.boot(kernel::buildBootImage(workloads::serviceBootOptions(svc)));
    for (int i = 0; i < 2000; ++i)
        sim.tickOnce();

    const std::string d = sim.diagnose();
    for (unsigned c = 0; c < 3; ++c) {
        const std::string tag = "core " + std::to_string(c) + " ";
        EXPECT_NE(d.find(tag), std::string::npos)
            << "diagnosis must cover every core:\n" << d;
    }
    // Per-core protocol flags and the connector occupancy dump.
    EXPECT_NE(d.find("awaitResteer="), std::string::npos) << d;
    EXPECT_NE(d.find("c1."), std::string::npos)
        << "per-core connector occupancies missing:\n" << d;
    EXPECT_NE(d.find("smp."), std::string::npos)
        << "shared-fabric connector occupancies missing:\n" << d;
}

} // namespace
