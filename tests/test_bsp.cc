/**
 * @file
 * BSP-parallel timing model (DESIGN.md §13): the static partitioner, the
 * FAB011/FAB012 legality proof, and the BspScheduler itself.
 *
 * The load-bearing property is thread-count invariance: a legal plan run
 * bulk-synchronously must be *bit-identical* to the sequential
 * registration-order schedule — same module counters, same host-cycle
 * totals, same in-flight connector contents — at 2 and 4 threads, on
 * synthetic fabrics that genuinely split (the real core's sync domains
 * collapse it to one partition, which is itself asserted here).  The
 * negative paths matter equally: every FAB011 sub-case must reject a
 * crafted bad assignment at construction, before a thread exists.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/partition.hh"
#include "analysis/verify.hh"
#include "base/logging.hh"
#include "fast/parallel.hh"
#include "fast/simulator.hh"
#include "isa/assembler.hh"
#include "kernel/boot.hh"
#include "tm/bsp.hh"
#include "tm/core.hh"
#include "tm/modules/mem_mod.hh"
#include "tm/trace_buffer.hh"
#include "workloads/workloads.hh"

using namespace fastsim;
using tm::Connector;
using tm::ConnectorParams;
using tm::Module;
using tm::ModuleRegistry;
using tm::Port;
using tm::PortDir;

namespace {

// --- synthetic fabrics -------------------------------------------------------

/** Unbounded latency-1 edge: the only legal cut-edge shape. */
ConnectorParams
cutLegalParams()
{
    ConnectorParams p;
    p.inputThroughput = 0;
    p.outputThroughput = 0;
    p.minLatency = 1;
    p.maxTransactions = 0;
    return p;
}

/**
 * A ring node: drains its in-edge, mixes what it received into an LCG,
 * pushes one token per cycle to its out-edge.  Fully deterministic, all
 * communication through ports — the partitioner may split a ring of
 * these anywhere.
 */
class RingNode : public Module
{
  public:
    RingNode(std::string name, Connector<std::uint64_t> &in,
             Connector<std::uint64_t> &out, std::uint64_t seed)
        : Module(std::move(name)), in_(in), out_(out), lcg_(seed),
          stSum_(stats().handle(this->name() + "_sum")),
          stRecv_(stats().handle(this->name() + "_recv")),
          stSent_(stats().handle(this->name() + "_sent"))
    {
    }

    void
    tick(Cycle now) override
    {
        (void)now;
        in_.drainReady([this](const std::uint64_t &v) {
            sum_ += v;
            ++stRecv_;
        });
        stSum_.set(sum_);
        lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
        if (out_.canPush()) {
            out_.push(lcg_ ^ sum_);
            ++stSent_;
        }
        chargeHost(1 + static_cast<unsigned>(lcg_ & 3));
    }

    std::vector<Port>
    ports() const override
    {
        return {{&in_, PortDir::In}, {&out_, PortDir::Out}};
    }

  private:
    Connector<std::uint64_t> &in_;
    Connector<std::uint64_t> &out_;
    std::uint64_t lcg_;
    std::uint64_t sum_ = 0;
    stats::Handle stSum_;
    stats::Handle stRecv_;
    stats::Handle stSent_;
};

/** N ring nodes joined by N latency-1 unbounded edges. */
struct RingFabric
{
    explicit RingFabric(unsigned n, const ConnectorParams &p =
                                        cutLegalParams())
    {
        for (unsigned i = 0; i < n; ++i)
            edges.push_back(std::make_unique<Connector<std::uint64_t>>(
                "ring_" + std::to_string(i), p));
        for (unsigned i = 0; i < n; ++i)
            nodes.push_back(std::make_unique<RingNode>(
                "node" + std::to_string(i), *edges[(i + n - 1) % n],
                *edges[i], 0x9e3779b9u + 17u * i));
        for (auto &m : nodes)
            reg.add(*m);
        for (auto &e : edges)
            reg.noteConnector(*e);
        reg.setPerCycleOverhead(3);
    }

    std::vector<std::unique_ptr<Connector<std::uint64_t>>> edges;
    std::vector<std::unique_ptr<RingNode>> nodes;
    ModuleRegistry reg;
};

/** Fingerprint everything the schedule can influence. */
std::uint64_t
fabricFingerprint(const RingFabric &f, std::uint64_t host_total)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(host_total);
    for (const auto &m : f.nodes)
        for (const auto &kv : m->stats().all())
            mix(kv.second);
    for (const auto &e : f.edges) {
        mix(e->size());
        e->forEachValue([&mix](const std::uint64_t &v) { mix(v); });
    }
    return h;
}

// --- hand-crafted graphs for the lint tests ----------------------------------

analysis::FabricGraph
graphOf(std::size_t nmodules)
{
    analysis::FabricGraph g;
    for (std::size_t i = 0; i < nmodules; ++i) {
        analysis::FabricModule m;
        m.name = "m" + std::to_string(i);
        g.modules.push_back(m);
    }
    return g;
}

void
addEdge(analysis::FabricGraph &g, const std::string &name, int producer,
        int consumer, Cycle min_latency, unsigned max_transactions)
{
    analysis::FabricEdge e;
    e.name = name;
    e.params = cutLegalParams();
    e.params.minLatency = min_latency;
    e.params.maxTransactions = max_transactions;
    e.producer = producer;
    e.consumer = consumer;
    e.producerBindings = 1;
    e.consumerBindings = 1;
    g.edges.push_back(e);
}

/** A plan with an explicit assignment (partitions derived from it). */
analysis::PartitionPlan
planOf(std::vector<int> assignment, unsigned threads)
{
    analysis::PartitionPlan plan;
    plan.requestedThreads = threads;
    plan.assignment = std::move(assignment);
    int nparts = 0;
    for (const int p : plan.assignment)
        nparts = std::max(nparts, p + 1);
    plan.partitions.assign(static_cast<std::size_t>(nparts), {});
    for (std::size_t i = 0; i < plan.assignment.size(); ++i)
        plan.partitions[static_cast<std::size_t>(plan.assignment[i])]
            .push_back(i);
    plan.groupOf.assign(plan.assignment.size(), 0);
    plan.groupCount = plan.assignment.empty() ? 0 : 1;
    return plan;
}

// --- partitioner edge cases --------------------------------------------------

TEST(Partition, SingleModuleFabric)
{
    const analysis::FabricGraph g = graphOf(1);
    const analysis::PartitionPlan plan = analysis::computePartition(g, 4);
    EXPECT_EQ(plan.partitions.size(), 1u);
    EXPECT_EQ(plan.groupCount, 1u);
    EXPECT_TRUE(plan.cutEdges.empty());

    analysis::Report r;
    analysis::lintPartition(g, plan, r);
    EXPECT_FALSE(r.has("FAB011"));
    EXPECT_TRUE(r.has("FAB012")) << "collapse below 4 threads is advisory";
}

TEST(Partition, AllZeroLatencyFabricCollapsesToOnePartition)
{
    // m0 -> m1 -> m2 -> m3 chained by zero-latency edges: one atomic
    // group no matter how many threads are requested.
    analysis::FabricGraph g = graphOf(4);
    for (int i = 0; i < 3; ++i)
        addEdge(g, "z" + std::to_string(i), i, i + 1, /*min_latency=*/0,
                /*max_transactions=*/0);
    const analysis::PartitionPlan plan = analysis::computePartition(g, 4);
    EXPECT_EQ(plan.groupCount, 1u);
    EXPECT_EQ(plan.partitions.size(), 1u);
    EXPECT_TRUE(plan.cutEdges.empty());

    analysis::Report r;
    analysis::lintPartition(g, plan, r);
    EXPECT_EQ(r.errorCount(), 0u);
    EXPECT_TRUE(r.has("FAB012"));
}

TEST(Partition, MoreThreadsThanGroups)
{
    // Three independent pairs (three atomic groups) for eight threads:
    // exactly three partitions, never empty ones.
    analysis::FabricGraph g = graphOf(6);
    for (int i = 0; i < 3; ++i)
        addEdge(g, "z" + std::to_string(i), 2 * i, 2 * i + 1, 0, 0);
    const analysis::PartitionPlan plan = analysis::computePartition(g, 8);
    EXPECT_EQ(plan.groupCount, 3u);
    EXPECT_EQ(plan.partitions.size(), 3u);
    for (const auto &p : plan.partitions)
        EXPECT_EQ(p.size(), 2u);

    analysis::Report r;
    analysis::lintPartition(g, plan, r);
    EXPECT_EQ(r.errorCount(), 0u);
    EXPECT_TRUE(r.has("FAB012")) << "3 partitions for 8 threads";
}

TEST(Partition, DeterministicAndRegistrationOrdered)
{
    RingFabric f(6);
    const analysis::FabricGraph g =
        analysis::FabricGraph::fromRegistry(f.reg);
    const analysis::PartitionPlan a = analysis::computePartition(g, 3);
    const analysis::PartitionPlan b = analysis::computePartition(g, 3);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.cutEdges, b.cutEdges);

    // Partition ids follow registration order: partition p's first
    // module precedes partition p+1's first module.
    for (std::size_t p = 1; p < a.partitions.size(); ++p)
        EXPECT_LT(a.partitions[p - 1].front(), a.partitions[p].front());

    // Every cut edge in the ring is latency >= 1 and unbounded: legal.
    analysis::Report r;
    analysis::lintPartition(g, a, r);
    EXPECT_EQ(r.errorCount(), 0u);
}

TEST(Partition, BalancedAssignment)
{
    // Eight singleton groups over two threads: a 4/4 split.
    const analysis::FabricGraph g = graphOf(8);
    const analysis::PartitionPlan plan = analysis::computePartition(g, 2);
    ASSERT_EQ(plan.partitions.size(), 2u);
    EXPECT_EQ(plan.partitions[0].size(), 4u);
    EXPECT_EQ(plan.partitions[1].size(), 4u);
}

// --- FAB011/FAB012 crafted violations ----------------------------------------

TEST(PartitionLint, Fab011RejectsZeroLatencyCutEdge)
{
    analysis::FabricGraph g = graphOf(2);
    addEdge(g, "combinational", 0, 1, /*min_latency=*/0, 0);
    analysis::Report r;
    analysis::lintPartition(g, planOf({0, 1}, 2), r);
    EXPECT_TRUE(r.has("FAB011"));
    EXPECT_GE(r.errorCount(), 1u);
}

TEST(PartitionLint, Fab011RejectsBoundedCutEdge)
{
    analysis::FabricGraph g = graphOf(2);
    addEdge(g, "bounded", 0, 1, /*min_latency=*/2, /*max_transactions=*/4);
    analysis::Report r;
    analysis::lintPartition(g, planOf({0, 1}, 2), r);
    EXPECT_TRUE(r.has("FAB011"));
}

TEST(PartitionLint, Fab011RejectsSplitSyncDomain)
{
    analysis::FabricGraph g = graphOf(3);
    g.modules[0].domain = 0;
    g.modules[2].domain = 0; // shares state with m0, assigned elsewhere
    analysis::Report r;
    analysis::lintPartition(g, planOf({0, 0, 1}, 2), r);
    EXPECT_TRUE(r.has("FAB011"));

    // The same domains kept together are clean.
    analysis::Report ok;
    analysis::lintPartition(g, planOf({0, 1, 0}, 2), ok);
    EXPECT_FALSE(ok.has("FAB011"));
}

TEST(PartitionLint, Fab012ImbalanceAdvisory)
{
    const analysis::FabricGraph g = graphOf(8);
    // 7-vs-1 split: correct but lopsided.
    analysis::Report r;
    analysis::lintPartition(g, planOf({0, 0, 0, 0, 0, 0, 0, 1}, 2), r);
    EXPECT_EQ(r.errorCount(), 0u);
    EXPECT_TRUE(r.has("FAB012"));
}

// --- scheduler construction fail-fast ----------------------------------------

TEST(BspScheduler, ConstructionRejectsCraftedIllegalPlan)
{
    // A live two-node fabric joined by a zero-latency edge; a hand-made
    // plan that splits it must die in the constructor (FatalError),
    // before any worker thread exists.
    ConnectorParams zero = cutLegalParams();
    zero.minLatency = 0;
    Connector<std::uint64_t> fwd("fwd", zero);
    Connector<std::uint64_t> back("back", cutLegalParams());
    RingNode a("a", back, fwd, 1);
    RingNode b("b", fwd, back, 2);
    ModuleRegistry reg;
    reg.add(a);
    reg.add(b);
    reg.noteConnector(fwd);
    reg.noteConnector(back);

    EXPECT_THROW(tm::BspScheduler(reg, planOf({0, 1}, 2)), FatalError);

    // The legal collapse of the same fabric constructs fine.
    EXPECT_NO_THROW(tm::BspScheduler(reg, planOf({0, 0}, 2)));

    // And the computed plan agrees: one partition, no scheduler needed.
    EXPECT_EQ(tm::BspScheduler::forThreads(reg, 4), nullptr);
}

TEST(BspScheduler, ForThreadsRespectsGroupCount)
{
    RingFabric f(6);
    auto sched = tm::BspScheduler::forThreads(f.reg, 8);
    ASSERT_NE(sched, nullptr);
    // Six singleton groups, eight threads: six partitions.
    EXPECT_EQ(sched->partitionCount(), 6u);
    EXPECT_EQ(sched->plan().cutEdges.size(), 6u) << "every ring edge cut";
}

// --- bit-identity: sequential vs BSP -----------------------------------------

TEST(BspScheduler, RingBitIdenticalAcrossThreadCounts)
{
    constexpr unsigned N = 8;
    constexpr Cycle Cycles = 2000;

    RingFabric ref(N);
    std::uint64_t ref_host = 0;
    for (Cycle c = 0; c < Cycles; ++c)
        ref_host += ref.reg.tickAll(c);
    const std::uint64_t want = fabricFingerprint(ref, ref_host);

    for (const unsigned threads : {2u, 4u}) {
        RingFabric f(N);
        auto sched = tm::BspScheduler::forThreads(f.reg, threads);
        ASSERT_NE(sched, nullptr);
        EXPECT_EQ(sched->partitionCount(), threads);
        EXPECT_FALSE(sched->plan().cutEdges.empty());
        std::uint64_t host = 0;
        sched->driverRole.assertHeld(); // the test thread drives the BSP
        for (Cycle c = 0; c < Cycles; ++c)
            host += sched->tickAll(c);
        EXPECT_EQ(host, ref_host) << threads << " threads";
        EXPECT_EQ(fabricFingerprint(f, host), want)
            << "BSP diverged from the sequential schedule at " << threads
            << " threads";
    }
}

/** A traffic driver that exercises a standalone MemHierarchy replica the
 *  way the core's stages do — synchronous access() calls — so it must
 *  share the replica's sync domain. */
class MemDriver : public Module
{
  public:
    MemDriver(std::string name, tm::modules::MemHierarchy &h,
              std::uint64_t seed)
        : Module(std::move(name)), h_(h), lcg_(seed),
          stReady_(stats().handle(this->name() + "_ready_sum"))
    {
        setSyncDomain(&h_.fx);
    }

    void
    tick(Cycle now) override
    {
        lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
        // Closed-loop: issue only while the MSHR table has room, like a
        // real stage throttled by its pipeline (an open-loop stream
        // queues an unbounded backlog behind the MSHR gate).
        if (h_.l1d.outstandingMisses(now) < 8) {
            const PAddr pa = static_cast<PAddr>((lcg_ >> 16) & 0xffffc0ull);
            const auto r = h_.l1d.access(pa, now);
            ready_ += r.readyAt;
            stReady_.set(ready_);
        }
        chargeHost(1);
    }

    std::vector<Port>
    ports() const override
    {
        return {};
    }

  private:
    tm::modules::MemHierarchy &h_;
    std::uint64_t lcg_;
    std::uint64_t ready_ = 0;
    stats::Handle stReady_;
};

tm::CoreConfig
mshr8Config()
{
    tm::CoreConfig cfg;
    cfg.caches.l1i.blocking = false;
    cfg.caches.l1d.blocking = false;
    cfg.caches.l2.blocking = false;
    cfg.mem.l1iMshrs = 8;
    cfg.mem.l1dMshrs = 8;
    cfg.mem.l2Mshrs = 8;
    return cfg;
}

TEST(BspScheduler, ReplicatedHierarchiesBitIdentical)
{
    // Four MSHR-8 hierarchies, each driven synchronously by its own
    // traffic module: four sync domains, four partitions, no cut edges —
    // the "multi-core TM" shape the bench measures.
    constexpr unsigned Replicas = 4;
    constexpr Cycle Cycles = 1500;

    auto run = [](unsigned threads) {
        std::vector<std::unique_ptr<tm::modules::MemHierarchy>> hs;
        std::vector<std::unique_ptr<MemDriver>> drivers;
        ModuleRegistry reg;
        for (unsigned i = 0; i < Replicas; ++i) {
            hs.push_back(std::make_unique<tm::modules::MemHierarchy>(
                mshr8Config()));
            drivers.push_back(std::make_unique<MemDriver>(
                "drv" + std::to_string(i), *hs.back(), 7919u * (i + 1)));
        }
        for (unsigned i = 0; i < Replicas; ++i) {
            auto &h = *hs[i];
            reg.add(*drivers[i]);
            reg.add(h.l1i);
            reg.add(h.l1d);
            reg.add(h.l2);
            reg.add(h.mem);
            h.fx.noteInto(reg);
        }
        reg.setPerCycleOverhead(2);

        std::unique_ptr<tm::BspScheduler> sched;
        if (threads > 1) {
            sched = tm::BspScheduler::forThreads(reg, threads);
            EXPECT_NE(sched, nullptr);
            if (sched) {
                EXPECT_EQ(sched->partitionCount(),
                          std::min<std::size_t>(threads, Replicas));
            }
        }
        std::uint64_t host = 0, sum = 0;
        if (sched) {
            sched->driverRole.assertHeld();
            for (Cycle c = 0; c < Cycles; ++c)
                host += sched->tickAll(c);
        } else {
            for (Cycle c = 0; c < Cycles; ++c)
                host += reg.tickAll(c);
        }
        // Fingerprint every counter of every module, registration order.
        for (const Module *m : reg.modules())
            for (const auto &kv : m->stats().all())
                sum = sum * 31 + kv.second;
        return std::make_pair(host, sum);
    };

    const auto want = run(1);
    EXPECT_EQ(run(2), want);
    EXPECT_EQ(run(4), want);
}

// NOTE on FAB005: the four replicas share module names ("l1i", ...), so
// their counters collide in an aggregate view — irrelevant here (we read
// per-module stats), and the bench names its replicas distinctly.

// --- the real core: collapse + golden parity ---------------------------------

TEST(CoreBsp, RealCoreCollapsesToSequential)
{
    tm::TraceBuffer tb(256);
    tm::CoreConfig cfg;
    cfg.tmThreads = 4;
    tm::Core core(cfg, tb);
    // Fully entangled (shared CoreState + synchronous cache walks): the
    // partitioner must refuse to split it, honestly.
    EXPECT_EQ(core.bspScheduler(), nullptr);

    analysis::Report r;
    analysis::VerifyOptions opts;
    opts.fabric = true;
    analysis::verify(core, opts, r);
    EXPECT_EQ(r.errorCount(), 0u);
    EXPECT_TRUE(r.has("FAB012")) << "collapse must be surfaced, not silent";
}

struct GoldenSubset
{
    const char *workload;
    unsigned scale;
    std::uint64_t cycles;
    std::uint64_t insts;
    std::uint64_t eventHash;
};

// Literals copied from test_golden_core.cc's capture (sequential TM).
const GoldenSubset kGoldenSubset[] = {
    {"Linux-2.4", 1, 113236, 146306, 0x1b8c36714f9887e8ull},
    {"181.mcf", 2500, 408853, 512487, 0x6404cf97b013344cull},
    {"255.vortex", 4000, 249780, 380990, 0xb0a4174fedd88286ull},
    {"Linux-2.6", 1, 164563, 181425, 0x5600607b91f092aaull},
};

TEST(CoreBsp, GoldenSubsetParityAtTmThreads2And4)
{
    // The full 17-workload matrix runs in CI (test_golden_core under
    // FASTSIM_TM_THREADS); this in-process subset keeps plain ctest
    // covering the same contract.
    for (const GoldenSubset &g : kGoldenSubset) {
        for (const unsigned threads : {2u, 4u}) {
            const workloads::Workload &w = workloads::byName(g.workload);
            fast::FastConfig cfg;
            cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
            cfg.core.statsIntervalBb = 1u << 30;
            cfg.core.tmThreads = threads;
            fast::FastSimulator sim(cfg);

            std::uint64_t hash = 1469598103934665603ull;
            sim.onEvent = [&hash](const tm::TmEvent &e) {
                auto mix = [&hash](std::uint64_t v) {
                    for (int i = 0; i < 8; ++i) {
                        hash ^= (v >> (8 * i)) & 0xff;
                        hash *= 1099511628211ull;
                    }
                };
                mix(static_cast<std::uint64_t>(e.kind));
                mix(e.in);
                mix(e.pc);
            };

            auto opts = workloads::bootOptionsFor(w, g.scale);
            opts.timerInterval = 4000;
            sim.boot(kernel::buildBootImage(opts));
            auto r = sim.run(2000000000ull);

            EXPECT_TRUE(r.finished) << g.workload;
            EXPECT_EQ(static_cast<std::uint64_t>(r.cycles), g.cycles)
                << g.workload << " tmThreads=" << threads;
            EXPECT_EQ(r.insts, g.insts)
                << g.workload << " tmThreads=" << threads;
            EXPECT_EQ(hash, g.eventHash)
                << g.workload << " tmThreads=" << threads;
        }
    }
}

// --- parallel runner + epoch pipelining composition --------------------------

kernel::BootImage
branchyImage(unsigned iters)
{
    using isa::Assembler;
    using namespace isa;
    kernel::BuildOptions opts;
    opts.timerInterval = 0x7FFFFFFF;
    opts.bootDiskReads = 0;
    opts.userProgram = [iters](Assembler &u) {
        u.movri(R5, 0xACE1);
        u.movri(R2, iters);
        isa::Label top = u.here();
        isa::Label skip = u.newLabel();
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

TEST(RunnerBsp, ParallelAndEpochPipelinedParity)
{
    constexpr Cycle MaxCycles = 2000000000ull;
    const auto image = branchyImage(120);

    fast::FastConfig ref_cfg;
    ref_cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    ref_cfg.core.statsIntervalBb = 1u << 30;
    ref_cfg.guardrails.hashCommits = true;
    fast::FastSimulator ref(ref_cfg);
    ref.boot(image);
    auto rr = ref.run(MaxCycles);
    ASSERT_TRUE(rr.finished);

    for (const unsigned threads : {2u, 4u}) {
        fast::FastConfig cfg = ref_cfg;
        cfg.core.tmThreads = threads;
        fast::ParallelFastSimulator par(cfg);
        par.boot(image);
        auto pr = par.run(MaxCycles);
        ASSERT_TRUE(pr.finished) << "tmThreads=" << threads;
        EXPECT_FALSE(par.degraded());
        EXPECT_EQ(static_cast<std::uint64_t>(pr.cycles),
                  static_cast<std::uint64_t>(rr.cycles))
            << "tmThreads=" << threads;
        EXPECT_EQ(pr.insts, rr.insts);
        EXPECT_EQ(par.commitHash(), ref.commitHash())
            << "tmThreads=" << threads;
    }
}

// --- kill-and-resume across differing tmThreads ------------------------------

TEST(CheckpointBsp, ResumeUnderDifferentTmThreads)
{
    constexpr Cycle MaxCycles = 2000000000ull;
    const Cycle every = 30000;

    auto configFor = [every](unsigned threads, const std::string &path) {
        fast::FastConfig cfg;
        cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
        cfg.core.statsIntervalBb = 1u << 30;
        cfg.core.tmThreads = threads;
        cfg.guardrails.hashCommits = true;
        cfg.checkpointEvery = every;
        cfg.checkpointPath = path;
        return cfg;
    };
    auto image = [] {
        const workloads::Workload &w = workloads::byName("Linux-2.4");
        auto opts = workloads::bootOptionsFor(w, 1);
        opts.timerInterval = 4000;
        return kernel::buildBootImage(opts);
    };

    // Reference: uninterrupted, sequential TM, same cadence.
    const std::string refPath =
        ::testing::TempDir() + "fastsim_bsp_ref.ckpt";
    fast::FastSimulator ref(configFor(1, refPath));
    ref.boot(image());
    auto want = ref.run(MaxCycles);
    ASSERT_TRUE(want.finished);

    // Both directions: capture at T_a, resume at T_b (a != b).  The
    // fingerprint must accept the file and the run must land on the
    // reference bit-for-bit.
    const unsigned pairs[][2] = {{4, 1}, {1, 4}};
    for (const auto &pr : pairs) {
        const std::string path = ::testing::TempDir() + "fastsim_bsp_" +
                                 std::to_string(pr[0]) + "to" +
                                 std::to_string(pr[1]) + ".ckpt";
        std::remove(path.c_str());
        {
            fast::FastSimulator victim(configFor(pr[0], path));
            victim.boot(image());
            Cycle bound = every + 1;
            while (victim.stats().counter("checkpoints_taken") == 0) {
                ASSERT_LT(bound, MaxCycles);
                victim.run(bound);
                bound += every;
            }
        }
        fast::FastSimulator resumed(configFor(pr[1], path));
        resumed.boot(image());
        resumed.resumeFrom(path);
        auto got = resumed.run(MaxCycles);

        EXPECT_TRUE(got.finished);
        EXPECT_EQ(static_cast<std::uint64_t>(got.cycles),
                  static_cast<std::uint64_t>(want.cycles))
            << pr[0] << " -> " << pr[1];
        EXPECT_EQ(got.insts, want.insts);
        EXPECT_EQ(resumed.commitHash(), ref.commitHash())
            << pr[0] << " -> " << pr[1];
        std::remove(path.c_str());
    }
    std::remove(refPath.c_str());
}

} // namespace
