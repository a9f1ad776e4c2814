/**
 * @file
 * Timing-model component tests: Connectors (latency/throughput/capacity
 * contracts — DESIGN.md invariant 3), primitives, branch predictors,
 * caches, TLB and the trace buffer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <vector>

#include "base/random.hh"
#include "base/serialize.hh"
#include "tm/branch_pred.hh"
#include "tm/cache.hh"
#include "tm/connector.hh"
#include "tm/modules/mem_mod.hh"
#include "tm/modules/smp_mem.hh"
#include "tm/primitives.hh"
#include "tm/trace_buffer.hh"

namespace fastsim {
namespace tm {
namespace {

// --- Connector ---------------------------------------------------------------

TEST(Connector, MinLatencyEnforced)
{
    Connector<int> c("c", {1, 1, 3, 8});
    c.tick(0);
    c.push(42);
    for (Cycle t = 1; t < 3; ++t) {
        c.tick(t);
        EXPECT_FALSE(c.canPop()) << "cycle " << t;
    }
    c.tick(3);
    ASSERT_TRUE(c.canPop());
    EXPECT_EQ(c.pop(), 42);
}

TEST(Connector, InputThroughputLimits)
{
    Connector<int> c("c", {2, 4, 1, 16});
    c.tick(0);
    EXPECT_TRUE(c.canPush());
    c.push(1);
    EXPECT_TRUE(c.canPush());
    c.push(2);
    EXPECT_FALSE(c.canPush()); // 2 per cycle max
    c.tick(1);
    EXPECT_TRUE(c.canPush()); // new cycle
}

TEST(Connector, OutputThroughputLimits)
{
    Connector<int> c("c", {4, 2, 1, 16});
    c.tick(0);
    c.push(1);
    c.push(2);
    c.push(3);
    c.tick(1);
    EXPECT_TRUE(c.canPop());
    c.pop();
    c.pop();
    EXPECT_FALSE(c.canPop()); // output throughput exhausted
    c.tick(2);
    EXPECT_TRUE(c.canPop());
}

TEST(Connector, CapacityBounds)
{
    Connector<int> c("c", {8, 8, 1, 3});
    c.tick(0);
    c.push(1);
    c.push(2);
    c.push(3);
    EXPECT_FALSE(c.canPush()); // maxTransactions
    c.tick(1);
    c.pop();
    EXPECT_TRUE(c.canPush());
}

TEST(Connector, FifoOrderPreserved)
{
    Connector<int> c("c", {4, 4, 1, 16});
    c.tick(0);
    for (int i = 0; i < 4; ++i)
        c.push(i);
    c.tick(1);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(c.pop(), i);
}

TEST(Connector, FlushEmptiesQueue)
{
    Connector<int> c("c", {4, 4, 1, 16});
    c.tick(0);
    c.push(1);
    c.push(2);
    c.flush();
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.stats().value("flushed"), 2u);
}

TEST(Connector, FlushResetsThroughputBudgets)
{
    // A flush models a pipeline squash: the wires are cleared, so the
    // per-cycle throughput budgets must re-arm within the same cycle, not
    // stay charged for transactions that no longer exist.
    Connector<int> c("c", {2, 1, 1, 16});
    c.tick(0);
    c.push(1);
    c.push(2);
    EXPECT_FALSE(c.canPush()); // input budget spent
    c.flush();
    EXPECT_TRUE(c.canPush()); // budget restored with the squash
    c.push(3);
    c.push(4);
    EXPECT_FALSE(c.canPush());

    c.tick(1);
    ASSERT_TRUE(c.canPop());
    EXPECT_EQ(c.pop(), 3);
    EXPECT_FALSE(c.canPop()); // output budget spent
    c.flush();
    c.push(5);
    c.tick(2);
    ASSERT_TRUE(c.canPop()); // output budget also re-armed by the flush
    EXPECT_EQ(c.pop(), 5);
}

TEST(Connector, ReconfigurationChangesIssueBand)
{
    // Paper §4: widening a Connector converts a single-issue target into a
    // multi-issue target.  Measure entries movable per cycle.
    for (unsigned width : {1u, 2u, 4u}) {
        Connector<int> c("c", {width, width, 1, 4 * width});
        Cycle now = 0;
        unsigned moved = 0;
        for (int iter = 0; iter < 10; ++iter) {
            c.tick(now++);
            while (c.canPush())
                c.push(0);
            while (c.canPop()) {
                c.pop();
                ++moved;
            }
        }
        EXPECT_GE(moved, 9 * width);
        EXPECT_LE(moved, 10 * width);
    }
}

TEST(Connector, RandomizedContractProperty)
{
    Rng rng(0xC0);
    for (int trial = 0; trial < 20; ++trial) {
        ConnectorParams p;
        p.inputThroughput = 1 + rng.below(4);
        p.outputThroughput = 1 + rng.below(4);
        p.minLatency = 1 + rng.below(4);
        p.maxTransactions = 1 + rng.below(12);
        Connector<std::pair<int, Cycle>> c("c", p);
        int pushed = 0, popped = 0;
        for (Cycle t = 0; t < 200; ++t) {
            c.tick(t);
            unsigned pops = rng.below(5);
            for (unsigned k = 0; k < pops && c.canPop(); ++k) {
                auto [v, at] = c.pop();
                EXPECT_EQ(v, popped++);
                EXPECT_GE(t, at + p.minLatency); // latency contract
            }
            unsigned pushes = rng.below(5);
            for (unsigned k = 0; k < pushes && c.canPush(); ++k)
                c.push({pushed++, t});
            EXPECT_LE(c.size(), p.maxTransactions);
        }
        EXPECT_EQ(popped + static_cast<int>(c.size()), pushed);
    }
}

/** Serialize a token that `make` builds in memory pre-filled with
 *  `garbage` (guaranteed copy elision: built in place, as a producer's
 *  `push(SnoopMsg{pa, reason})` builds it), the way
 *  Connector::saveState writes each in-flight token. */
template <typename T, typename Make>
std::vector<std::uint8_t>
savedToken(unsigned char garbage, Make &&make)
{
    alignas(T) unsigned char buf[sizeof(T)];
    std::memset(buf, garbage, sizeof(buf));
    const T *token = new (buf) T(make());
    serialize::Sink s;
    s.put<T>(*token);
    return s.data();
}

/** Snapshot bytes of in-flight tokens depend only on their values: equal
 *  tokens built over 0xAA and over 0x55 garbage save identically, so no
 *  uninitialised padding byte reaches a snapshot image. */
TEST(Connector, SavedTokensAreByteReproducible)
{
    auto snoop = [] { return modules::SnoopMsg{0x1240, 1}; };
    EXPECT_EQ(savedToken<modules::SnoopMsg>(0xAA, snoop),
              savedToken<modules::SnoopMsg>(0x55, snoop));
    auto req = [] { return modules::MemReq{0x2000, 1, 1, 1}; };
    EXPECT_EQ(savedToken<modules::MemReq>(0xAA, req),
              savedToken<modules::MemReq>(0x55, req));
    auto fill = [] { return modules::MemFill{0x3000, 1}; };
    EXPECT_EQ(savedToken<modules::MemFill>(0xAA, fill),
              savedToken<modules::MemFill>(0x55, fill));
}

// --- primitives ----------------------------------------------------------------

TEST(Primitives, ModeledMemPortMultiplexing)
{
    ModeledMem m{64, 32, 2};
    // Paper §3.3: "a twenty-ported memory can be simulated by cycling a
    // dual-ported memory ten times".
    EXPECT_EQ(m.hostCycles(20), 10u);
    EXPECT_EQ(m.hostCycles(1), 1u);
    EXPECT_EQ(m.hostCycles(2), 1u);
    EXPECT_EQ(m.hostCycles(3), 2u);
}

TEST(Primitives, ModeledMemCostScalesWithBits)
{
    ModeledMem small{64, 8, 2};
    ModeledMem big{8192, 64, 2};
    EXPECT_GT(big.cost().blockRams, small.cost().blockRams);
}

TEST(Primitives, CamSegmentedSearch)
{
    ModeledCam cam{16, 8, 8};
    EXPECT_EQ(cam.hostCycles(1), 2u); // 16 entries / 8 per pass
    EXPECT_EQ(cam.hostCycles(2), 4u);
    EXPECT_EQ(cam.hostCycles(0), 0u);
}

TEST(Primitives, RoundRobinArbiterFairness)
{
    RoundRobinArbiter arb(4);
    // All requesting: grants rotate.
    EXPECT_EQ(arb.grant(0xF), 0);
    EXPECT_EQ(arb.grant(0xF), 1);
    EXPECT_EQ(arb.grant(0xF), 2);
    EXPECT_EQ(arb.grant(0xF), 3);
    EXPECT_EQ(arb.grant(0xF), 0);
    EXPECT_EQ(arb.grant(0), -1);
    // Skips non-requesters.
    EXPECT_EQ(arb.grant(0x8), 3);
}

TEST(Primitives, LruArbiterPrefersLeastRecent)
{
    LruArbiter arb(3);
    EXPECT_EQ(arb.grant(0x7), 0);
    EXPECT_EQ(arb.grant(0x7), 1);
    EXPECT_EQ(arb.grant(0x3), 0); // 0 now least-recent among {0,1}
    EXPECT_EQ(arb.grant(0x4), 2); // 2 never granted: least recent overall
}

TEST(Primitives, LruStateVictimSelection)
{
    LruState lru(4);
    lru.touch(0);
    lru.touch(1);
    lru.touch(2);
    lru.touch(3);
    EXPECT_EQ(lru.victim(), 0u);
    lru.touch(0);
    EXPECT_EQ(lru.victim(), 1u);
}

// --- branch predictors -----------------------------------------------------------

fm::TraceEntry
branchEntry(Addr pc, bool taken, Addr target, bool cond = true)
{
    fm::TraceEntry e;
    e.pc = pc;
    e.size = 5;
    e.op = cond ? isa::Opcode::Jcc32 : isa::Opcode::Jmp32;
    e.isBranch = true;
    e.isCond = cond;
    e.branchTaken = taken;
    e.fallThrough = pc + 5;
    e.target = target;
    e.nextPc = taken ? target : pc + 5;
    return e;
}

TEST(BranchPred, PerfectNeverMispredicts)
{
    auto bp = makeBranchPredictor({BpKind::Perfect});
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        auto e = branchEntry(0x1000 + 8 * rng.below(32), rng.chance(0.5),
                             0x2000);
        EXPECT_FALSE(bp->predict(e).mispredicted);
    }
    EXPECT_DOUBLE_EQ(bp->accuracy(), 1.0);
}

TEST(BranchPred, FixedAccuracyCalibrated)
{
    for (double acc : {0.92, 0.95, 0.97}) {
        BpConfig cfg;
        cfg.kind = BpKind::FixedAccuracy;
        cfg.fixedAccuracy = acc;
        auto bp = makeBranchPredictor(cfg);
        for (int i = 0; i < 10000; ++i)
            bp->predict(branchEntry(0x1000, i % 2 == 0, 0x2000));
        EXPECT_NEAR(bp->accuracy(), acc, 0.002);
    }
}

TEST(BranchPred, GshareLearnsLoopBranch)
{
    BpConfig cfg;
    cfg.kind = BpKind::Gshare;
    auto bp = makeBranchPredictor(cfg);
    // A loop branch taken 15 times then not taken, repeatedly.
    for (int rep = 0; rep < 50; ++rep)
        for (int i = 0; i < 16; ++i)
            bp->predict(branchEntry(0x1000, i != 15, 0x800));
    // With 13 bits of history the pattern is fully learnable.
    EXPECT_GT(bp->accuracy(), 0.93);
}

TEST(BranchPred, GshareRandomBranchNearChance)
{
    BpConfig cfg;
    cfg.kind = BpKind::Gshare;
    auto bp = makeBranchPredictor(cfg);
    Rng rng(7);
    for (int i = 0; i < 20000; ++i)
        bp->predict(branchEntry(0x1000, rng.chance(0.5), 0x800));
    EXPECT_LT(bp->accuracy(), 0.65);
    EXPECT_GT(bp->accuracy(), 0.35);
}

TEST(BranchPred, TwoBitWorseThanGshareOnPatterns)
{
    BpConfig g;
    g.kind = BpKind::Gshare;
    BpConfig t;
    t.kind = BpKind::TwoBit;
    auto gshare = makeBranchPredictor(g);
    auto two_bit = makeBranchPredictor(t);
    // Alternating pattern: gshare learns it, 2-bit thrashes.
    for (int i = 0; i < 4000; ++i) {
        auto e = branchEntry(0x1000, i % 2 == 0, 0x800);
        gshare->predict(e);
        two_bit->predict(e);
    }
    EXPECT_GT(gshare->accuracy(), two_bit->accuracy() + 0.2);
}

TEST(BranchPred, RasPredictsReturns)
{
    BpConfig cfg;
    cfg.kind = BpKind::Gshare;
    auto bp = makeBranchPredictor(cfg);
    // call at 0x100 -> 0x500; ret at 0x520 -> 0x105.
    fm::TraceEntry call;
    call.pc = 0x100;
    call.size = 5;
    call.op = isa::Opcode::Call32;
    call.isBranch = true;
    call.branchTaken = true;
    call.fallThrough = 0x105;
    call.target = 0x500;
    call.nextPc = 0x500;
    fm::TraceEntry ret;
    ret.pc = 0x520;
    ret.size = 1;
    ret.op = isa::Opcode::Ret;
    ret.isBranch = true;
    ret.branchTaken = true;
    ret.fallThrough = 0x521;
    ret.target = 0x105;
    ret.nextPc = 0x105;
    for (int i = 0; i < 100; ++i) {
        bp->predict(call);
        auto p = bp->predict(ret);
        EXPECT_FALSE(p.mispredicted) << i;
        EXPECT_EQ(p.target, 0x105u);
    }
}

TEST(BranchPred, IndirectJumpUsesBtb)
{
    BpConfig cfg;
    cfg.kind = BpKind::Gshare;
    auto bp = makeBranchPredictor(cfg);
    fm::TraceEntry j;
    j.pc = 0x300;
    j.size = 2;
    j.op = isa::Opcode::JmpR;
    j.isBranch = true;
    j.branchTaken = true;
    j.fallThrough = 0x302;
    j.target = 0x900;
    j.nextPc = 0x900;
    // First encounter: BTB cold -> mispredict; then learned.
    EXPECT_TRUE(bp->predict(j).mispredicted);
    EXPECT_FALSE(bp->predict(j).mispredicted);
    // Target change -> mispredict once, then relearned.
    j.target = 0xA00;
    j.nextPc = 0xA00;
    EXPECT_TRUE(bp->predict(j).mispredicted);
    EXPECT_FALSE(bp->predict(j).mispredicted);
}

// --- caches ------------------------------------------------------------------------

TEST(Cache, HitAfterFill)
{
    CacheLevel c({"t", 1024, 2, 64, 1, true});
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1020)); // same 64B line
    EXPECT_FALSE(c.access(0x2000));
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B lines, 2 sets (256 B total).
    CacheLevel c({"t", 256, 2, 64, 1, true});
    // Fill both ways of set 0 (line addresses 0x000, 0x100 map to set 0).
    c.access(0x000);
    c.access(0x100);
    EXPECT_TRUE(c.probe(0x000));
    c.access(0x000);  // touch: 0x100 becomes LRU
    c.access(0x200);  // evicts 0x100
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_TRUE(c.probe(0x200));
}

namespace {

tm::CoreConfig
memCfg(const HierarchyParams &p)
{
    tm::CoreConfig cfg;
    cfg.caches = p;
    return cfg;
}

} // namespace

TEST(Cache, HierarchyLatencies)
{
    modules::MemHierarchy h(memCfg(HierarchyParams{}));
    // Cold: L1 miss + L2 miss -> 1 + 8 + 25.
    auto r1 = h.l1d.access(0x10000, 100);
    EXPECT_FALSE(r1.l1Hit);
    EXPECT_FALSE(r1.l2Hit);
    EXPECT_EQ(r1.latency, 1u + 8u + 25u);
    // Hot in L1.
    auto r2 = h.l1d.access(0x10000, 200);
    EXPECT_TRUE(r2.l1Hit);
    EXPECT_EQ(r2.latency, 1u);
}

TEST(Cache, L2HitAfterL1Eviction)
{
    HierarchyParams p;
    p.l1d = {"l1d", 128, 1, 64, 1, true}; // tiny direct-mapped L1
    modules::MemHierarchy h(memCfg(p));
    h.l1d.access(0x0000, 0);   // fills L1 set 0 and L2
    h.l1d.access(0x1000, 100); // evicts 0x0000 from tiny L1
    auto r = h.l1d.access(0x0000, 200);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l2Hit);
    EXPECT_EQ(r.latency, 1u + 8u);
}

TEST(Cache, BlockingCacheSerializesMisses)
{
    modules::MemHierarchy h(memCfg(HierarchyParams{}));
    auto r1 = h.l1d.access(0x10000, 0); // miss: busy until 34
    auto r2 = h.l1d.access(0x20000, 1); // blocked behind the first miss
    EXPECT_GT(r2.readyAt, r1.readyAt);
    EXPECT_EQ(r1.readyAt, 34u);
    // Depth-1 MSHR gating: the second miss starts at the first fill.
    EXPECT_EQ(r2.readyAt, 34u + 34u);
}

TEST(Cache, MshrDepthOneMatchesBlocking)
{
    // blocking=true and blocking=false + one MSHR must produce identical
    // access timing: blocking is the degenerate depth-1 case, not a
    // separate code path.
    HierarchyParams nb;
    nb.l1d.blocking = false;
    nb.l2.blocking = false;
    tm::CoreConfig one = memCfg(nb);
    one.mem.l1dMshrs = 1;
    one.mem.l1iMshrs = 1;
    one.mem.l2Mshrs = 1;

    modules::MemHierarchy blocking(memCfg(HierarchyParams{}));
    modules::MemHierarchy depth1(one);

    const PAddr pas[] = {0x10000, 0x20000, 0x10040, 0x30000,
                         0x10000, 0x40000, 0x20000, 0x50000};
    Cycle now = 0;
    for (PAddr pa : pas) {
        auto a = blocking.l1d.access(pa, now);
        auto b = depth1.l1d.access(pa, now);
        EXPECT_EQ(a.latency, b.latency) << "pa 0x" << std::hex << pa;
        EXPECT_EQ(a.readyAt, b.readyAt) << "pa 0x" << std::hex << pa;
        EXPECT_EQ(a.l1Hit, b.l1Hit);
        EXPECT_EQ(a.l2Hit, b.l2Hit);
        now += 2;
    }
}

TEST(Cache, MshrDepthUnblocksIndependentMisses)
{
    // With 4 MSHRs the second independent miss overlaps the first instead
    // of serializing behind it — the timing diverges from blocking mode.
    HierarchyParams nb;
    nb.l1d.blocking = false;
    nb.l2.blocking = false;
    tm::CoreConfig cfg = memCfg(nb);
    cfg.mem.l1dMshrs = 4;
    cfg.mem.l2Mshrs = 4;
    modules::MemHierarchy h(cfg);

    auto r1 = h.l1d.access(0x10000, 0);
    auto r2 = h.l1d.access(0x20000, 1);
    EXPECT_EQ(r1.readyAt, 34u);
    // Overlapped: gated only by the shared L2 port model, not the full
    // first-miss latency.
    EXPECT_LT(r2.readyAt, 34u + 34u);
    EXPECT_EQ(h.l1d.outstandingMisses(1), 2u);
    EXPECT_EQ(h.l1d.outstandingMisses(100), 0u);
}

TEST(Cache, MshrGateWaitsForEarliestFill)
{
    modules::MshrTable t(2);
    t.allocate(10);
    t.allocate(20);
    EXPECT_EQ(t.gate(5), 10u);  // full: wait for the earliest completion
    EXPECT_EQ(t.gate(10), 10u); // slot frees at its completion cycle
    t.allocate(30);
    EXPECT_EQ(t.outstanding(10), 2u);
    EXPECT_EQ(t.gate(40), 40u);
}

TEST(Cache, HitRateZeroWhenNeverAccessed)
{
    // A never-touched cache must not report a perfect hit rate.
    CacheLevel c({"t", 1024, 2, 64, 1, true});
    EXPECT_FALSE(c.everAccessed());
    EXPECT_EQ(c.hitRate(), 0.0);
    c.access(0x1000);
    c.access(0x1000);
    EXPECT_TRUE(c.everAccessed());
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);

    TlbModel tlb("t", 64, 30);
    EXPECT_FALSE(tlb.everAccessed());
    EXPECT_EQ(tlb.hitRate(), 0.0);
}

TEST(Cache, FabricRecordsMissTraffic)
{
    // Misses leave request tokens on the fabric edges; hits do not.
    modules::MemHierarchy h(memCfg(HierarchyParams{}));
    ModuleRegistry reg;
    h.fx.noteInto(reg);
    reg.tickConnectors(0);
    auto r = h.l1d.access(0x10000, 0);
    EXPECT_FALSE(r.l1Hit);
    // The L1D itself pushed its miss down to the L2, the L2 to memory,
    // and the fills ride back at their readiness.
    EXPECT_EQ(h.fx.l1dToL2.size(), 1u);
    EXPECT_EQ(h.fx.l2ToMem.size(), 1u);
    EXPECT_EQ(h.fx.memToL2.size(), 1u);
    EXPECT_EQ(h.fx.l2ToL1d.size(), 1u);
    h.l1d.access(0x10000, 100); // hit: no new traffic
    EXPECT_EQ(h.fx.l1dToL2.size(), 1u);
}

TEST(Cache, HostCyclesScaleWithAssociativity)
{
    CacheLevel a8({"a8", 32 * 1024, 8, 64, 1, true});
    CacheLevel a2({"a2", 32 * 1024, 2, 64, 1, true});
    EXPECT_EQ(a8.hostCycles(), 4u); // 8 ways over a dual-ported tag RAM
    EXPECT_EQ(a2.hostCycles(), 1u);
}

TEST(Tlb, MissThenHit)
{
    TlbModel tlb("t", 64, 30);
    EXPECT_EQ(tlb.access(0x400000), 30u);
    EXPECT_EQ(tlb.access(0x400010), 0u); // same page
    EXPECT_EQ(tlb.access(0x401000), 30u);
    EXPECT_GT(tlb.stats().value("misses"), 0u);
}

// --- trace buffer -----------------------------------------------------------------

fm::TraceEntry
tbEntry(InstNum in, Epoch epoch = 0)
{
    fm::TraceEntry e;
    e.in = in;
    e.epoch = epoch;
    e.pc = 0x1000 + static_cast<Addr>(in) * 4;
    return e;
}

TEST(TraceBufferTest, PushFetchCommitFlow)
{
    TraceBuffer tb(8);
    for (InstNum i = 1; i <= 5; ++i)
        tb.push(tbEntry(i));
    EXPECT_EQ(tb.size(), 5u);
    EXPECT_EQ(tb.peekFetch()->in, 1u);
    EXPECT_EQ(tb.takeFetch().in, 1u);
    EXPECT_EQ(tb.takeFetch().in, 2u);
    EXPECT_TRUE(tb.commitTo(2));
    EXPECT_EQ(tb.size(), 3u);
    EXPECT_EQ(tb.peekFetch()->in, 3u);
}

TEST(TraceBufferTest, FullAndFlowControl)
{
    TraceBuffer tb(3);
    tb.push(tbEntry(1));
    tb.push(tbEntry(2));
    tb.push(tbEntry(3));
    EXPECT_TRUE(tb.full());
    tb.takeFetch();
    EXPECT_TRUE(tb.full()); // fetch does not free space (Fig. 1)
    EXPECT_TRUE(tb.commitTo(1));
    EXPECT_FALSE(tb.full()); // commit does
}

TEST(TraceBufferTest, RewindOverwritesWrongPath)
{
    TraceBuffer tb(16);
    for (InstNum i = 1; i <= 6; ++i)
        tb.push(tbEntry(i));
    tb.takeFetch(); // 1
    tb.takeFetch(); // 2
    // Mispredict after IN 2: overwrite 3..6 with wrong-path entries.
    EXPECT_TRUE(tb.rewindTo(3));
    EXPECT_EQ(tb.size(), 2u);
    tb.push(tbEntry(3, 1));
    tb.push(tbEntry(4, 1));
    EXPECT_EQ(tb.peekFetch()->in, 3u);
    EXPECT_EQ(tb.peekFetch()->epoch, 1u);
}

TEST(TraceBufferTest, RewindClampsFetchPointer)
{
    TraceBuffer tb(16);
    for (InstNum i = 1; i <= 6; ++i)
        tb.push(tbEntry(i));
    for (int k = 0; k < 5; ++k)
        tb.takeFetch();
    EXPECT_TRUE(tb.rewindTo(3));
    // Fetch pointer clamped to the new end.
    EXPECT_EQ(tb.unfetched(), 0u);
    tb.push(tbEntry(3, 1));
    EXPECT_EQ(tb.peekFetch()->in, 3u);
}

TEST(TraceBufferTest, RewindFetchForExceptionReplay)
{
    TraceBuffer tb(16);
    for (InstNum i = 1; i <= 6; ++i)
        tb.push(tbEntry(i));
    for (int k = 0; k < 6; ++k)
        tb.takeFetch();
    tb.rewindFetchTo(4);
    EXPECT_EQ(tb.peekFetch()->in, 4u);
    EXPECT_EQ(tb.unfetched(), 3u);
}

TEST(TraceBufferTest, ContiguityEnforced)
{
    TraceBuffer tb(8);
    tb.push(tbEntry(1));
    EXPECT_THROW(tb.push(tbEntry(3)), PanicError);
}

} // namespace
} // namespace tm
} // namespace fastsim
