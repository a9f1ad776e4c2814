/**
 * @file
 * Direct unit tests of the timing-model core: hand-built trace entries are
 * pushed into the trace buffer and the pipeline is stepped cycle by cycle,
 * so latencies, dependences, resource limits and protocol events can be
 * checked in isolation from the functional model.
 */

#include <gtest/gtest.h>

#include "tm/core.hh"
#include "tm/trace_buffer.hh"

namespace fastsim {
namespace tm {
namespace {

using fm::TraceEntry;
using isa::Opcode;

/** Trace-entry builder for hand-made streams. */
class EntryMaker
{
  public:
    explicit EntryMaker(Addr pc = 0x1000) : pc_(pc) {}

    TraceEntry
    alu(isa::Opcode op = Opcode::AddRi, std::uint8_t reg = 0)
    {
        TraceEntry e = base(op, 6);
        e.reg = reg;
        return e;
    }

    TraceEntry
    load(PAddr pa, std::uint8_t dst = 1, std::uint8_t base_reg = 2)
    {
        TraceEntry e = base(Opcode::Ld, 3);
        e.reg = dst;
        e.rm = base_reg;
        e.isLoad = true;
        e.loadVa = pa;
        e.loadPa = pa;
        e.dataSize = 4;
        return e;
    }

    TraceEntry
    store(PAddr pa, std::uint8_t src = 3, std::uint8_t base_reg = 2)
    {
        TraceEntry e = base(Opcode::St, 3);
        e.reg = src;
        e.rm = base_reg;
        e.isStore = true;
        e.storeVa = pa;
        e.storePa = pa;
        e.dataSize = 4;
        return e;
    }

    TraceEntry
    branch(bool taken, Addr target, bool cond = true)
    {
        TraceEntry e = base(cond ? Opcode::Jcc32 : Opcode::Jmp32, 5);
        e.isBranch = true;
        e.isCond = cond;
        e.branchTaken = taken;
        e.target = target;
        e.nextPc = taken ? target : e.fallThrough;
        if (taken)
            pc_ = target;
        return e;
    }

    TraceEntry
    halt()
    {
        TraceEntry e = base(Opcode::Hlt, 1);
        e.halt = true;
        return e;
    }

    /** Continue producing from a new IN/epoch (after a resteer). */
    void
    resteer(InstNum in, Epoch epoch, Addr pc)
    {
        in_ = in;
        epoch_ = epoch;
        pc_ = pc;
    }

    InstNum nextIn() const { return in_; }

  private:
    TraceEntry
    base(Opcode op, std::uint8_t size)
    {
        TraceEntry e;
        e.in = in_++;
        e.epoch = epoch_;
        // Keep the stream inside one 64-byte line so cold I-cache misses
        // do not dominate these micro-tests (loops do this naturally).
        const Addr pc = (pc_ & ~Addr(63)) | (off_ % 48);
        e.pc = pc;
        e.instPa = pc;
        e.size = size;
        e.op = op;
        e.fallThrough = pc + size;
        e.nextPc = pc + size;
        e.hasUcode = true;
        e.uopCount = 1;
        off_ += size;
        return e;
    }

    std::uint32_t off_ = 0;

    Addr pc_;
    InstNum in_ = 1;
    Epoch epoch_ = 0;
};

CoreConfig
quietConfig()
{
    CoreConfig cfg;
    cfg.bp.kind = BpKind::Perfect;
    cfg.statsIntervalBb = 1u << 30;
    cfg.statsHostOverhead = 0;
    return cfg;
}

/** Run until n instructions commit (bounded). */
Cycle
runUntilCommitted(Core &core, std::uint64_t n, Cycle bound = 100000)
{
    while (core.committedInsts() < n && core.cycle() < bound)
        core.tick();
    return core.cycle();
}

TEST(TmCore, CommitsStraightLineCode)
{
    TraceBuffer tb(64);
    Core core(quietConfig(), tb);
    EntryMaker mk;
    for (int i = 0; i < 20; ++i)
        tb.push(mk.alu(Opcode::AddRi, i % 8)); // independent chains
    runUntilCommitted(core, 20);
    EXPECT_EQ(core.committedInsts(), 20u);
    // Cold iTLB (30) + cold I-line fill (34) + ~N/issueWidth cycles.
    EXPECT_LT(core.cycle(), 100u);
    EXPECT_GT(core.ipc(), 0.2);
}

TEST(TmCore, CommitOrderIsProgramOrder)
{
    TraceBuffer tb(64);
    Core core(quietConfig(), tb);
    std::vector<InstNum> committed;
    core.onCommit = [&committed](const TraceEntry &e) {
        committed.push_back(e.in);
    };
    EntryMaker mk;
    // A slow divide followed by fast ALUs: commit must stay in order.
    TraceEntry div = mk.alu(Opcode::IdivRr);
    tb.push(div);
    for (int i = 0; i < 6; ++i)
        tb.push(mk.alu());
    runUntilCommitted(core, 7);
    ASSERT_EQ(committed.size(), 7u);
    for (std::size_t i = 0; i < committed.size(); ++i)
        EXPECT_EQ(committed[i], i + 1);
}

TEST(TmCore, LoadMissCostsMemoryLatency)
{
    TraceBuffer tb(64);
    // Dependent chain: load -> alu using the loaded register.
    Core cold(quietConfig(), tb);
    EntryMaker mk;
    tb.push(mk.load(0x40000, /*dst=*/5));
    TraceEntry use = mk.alu(Opcode::AddRr, /*reg=*/5);
    use.rm = 5;
    tb.push(use);
    Cycle cycles = runUntilCommitted(cold, 2);
    // Cold iTLB + I-line fill, then the data miss (1 + 8 + 25).
    EXPECT_GT(cycles, 34u);
    EXPECT_LT(cycles, 140u);
}

TEST(TmCore, CacheHitIsFast)
{
    TraceBuffer tb(64);
    Core core(quietConfig(), tb);
    EntryMaker mk;
    // Two loads to the same line: second hits.
    tb.push(mk.load(0x40000));
    tb.push(mk.load(0x40004));
    runUntilCommitted(core, 2);
    EXPECT_EQ(core.l1d().level().stats().value("hits"), 1u);
    EXPECT_EQ(core.l1d().level().stats().value("misses"), 1u);
}

TEST(TmCore, StoreToLoadSameAddressOrders)
{
    TraceBuffer tb(64);
    Core core(quietConfig(), tb);
    std::vector<InstNum> committed;
    core.onCommit = [&committed](const TraceEntry &e) {
        committed.push_back(e.in);
    };
    EntryMaker mk;
    tb.push(mk.store(0x50000));
    tb.push(mk.load(0x50000)); // must wait for the store
    tb.push(mk.load(0x51000)); // independent
    runUntilCommitted(core, 3);
    EXPECT_EQ(committed.size(), 3u);
    EXPECT_EQ(committed[0], 1u);
    EXPECT_EQ(committed[1], 2u);
}

TEST(TmCore, MispredictEmitsProtocolEvents)
{
    CoreConfig cfg = quietConfig();
    cfg.bp.kind = BpKind::FixedAccuracy;
    cfg.bp.fixedAccuracy = 0.0; // mispredict every branch
    TraceBuffer tb(64);
    Core core(cfg, tb);
    EntryMaker mk;
    tb.push(mk.alu());
    tb.push(mk.branch(true, 0x2000));

    std::vector<TmEvent> seen;
    // Tick until the WrongPath event fires (past the cold-TLB/I$ fill).
    for (int i = 0; i < 300 && seen.empty(); ++i) {
        core.tick();
        for (auto &e : core.slice().drainEvents())
            if (e.kind == TmEvent::Kind::WrongPath)
                seen.push_back(e);
    }
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].in, 3u); // resteer at branch IN + 1
    EXPECT_EQ(core.slice().state().expectedEpoch, 1u);

    // Provide wrong-path entries; the branch then resolves and the core
    // emits Resolve and squashes them.
    EntryMaker wrong(0x3000);
    wrong.resteer(3, 1, 0x3000);
    tb.push(wrong.alu());
    tb.push(wrong.alu());
    bool resolved = false;
    InstNum resolve_in = 0;
    Addr resolve_pc = 0;
    for (int i = 0; i < 100 && !resolved; ++i) {
        core.tick();
        for (auto &e : core.slice().drainEvents())
            if (e.kind == TmEvent::Kind::Resolve) {
                resolved = true;
                resolve_in = e.in;
                resolve_pc = e.pc;
            }
    }
    ASSERT_TRUE(resolved);
    EXPECT_EQ(resolve_in, 3u);
    EXPECT_EQ(resolve_pc, 0x2000u); // the branch's true successor
    EXPECT_EQ(core.slice().state().expectedEpoch, 2u);
    EXPECT_GT(core.stats().value("squashed_insts"), 0u);

    // Correct-path entries at epoch 2 commit; wrong-path work never does.
    ASSERT_TRUE(tb.rewindTo(3));
    EntryMaker right(0x2000);
    right.resteer(3, 2, 0x2000);
    std::vector<InstNum> committed;
    core.onCommit = [&committed](const TraceEntry &e) {
        committed.push_back(e.in);
    };
    tb.push(right.alu());
    tb.push(right.alu());
    runUntilCommitted(core, 4);
    EXPECT_EQ(core.committedInsts(), 4u);
}

TEST(TmCore, StaleEpochEntriesDropped)
{
    CoreConfig cfg = quietConfig();
    TraceBuffer tb(64);
    Core core(cfg, tb);
    EntryMaker mk;
    tb.push(mk.alu());
    // Simulate an interrupt-style resteer: epoch bumps, stale entries for
    // IN 2 remain in flight.
    tb.push(mk.alu()); // IN 2, epoch 0 (stale after resteer)
    runUntilCommitted(core, 1, 20);
    core.slice().requestDrain();
    while (!core.slice().drained())
        core.tick();
    core.slice().noteResteer(); // expected epoch -> 1
    // New entries at epoch 1 replace the stale one.
    EntryMaker fresh(0x9000);
    fresh.resteer(core.slice().nextFetchIn(), 1, 0x9000);
    ASSERT_TRUE(tb.rewindTo(core.slice().nextFetchIn()));
    tb.push(fresh.alu());
    tb.push(fresh.alu());
    runUntilCommitted(core, 3);
    EXPECT_EQ(core.committedInsts(), 3u);
}

TEST(TmCore, SerializingInstructionDrainsPipeline)
{
    TraceBuffer tb(64);
    Core core(quietConfig(), tb);
    EntryMaker mk;
    for (int i = 0; i < 4; ++i)
        tb.push(mk.alu());
    TraceEntry ser = mk.alu(Opcode::Cli);
    ser.serializing = true;
    tb.push(ser);
    for (int i = 0; i < 4; ++i)
        tb.push(mk.alu());
    runUntilCommitted(core, 9);
    EXPECT_EQ(core.committedInsts(), 9u);
    EXPECT_GT(core.stats().value("dispatch_stall_serialize"), 0u);
}

TEST(TmCore, ExceptionRefetchesHandlerEntries)
{
    TraceBuffer tb(64);
    Core core(quietConfig(), tb);
    EntryMaker mk;
    tb.push(mk.alu());
    TraceEntry exc = mk.alu(Opcode::IdivRr);
    exc.exception = true;
    exc.vector = isa::VecDivide;
    exc.serializing = true;
    exc.nextPc = 0x8000;
    tb.push(exc);
    // Handler entries (same epoch) already in the TB.
    EntryMaker handler(0x8000);
    handler.resteer(3, 0, 0x8000);
    tb.push(handler.alu());
    tb.push(handler.alu());

    bool refetch = false;
    while (core.committedInsts() < 4 && core.cycle() < 1000) {
        core.tick();
        for (auto &e : core.slice().drainEvents())
            if (e.kind == TmEvent::Kind::RefetchAt) {
                refetch = true;
                EXPECT_EQ(e.in, 3u);
            }
    }
    EXPECT_TRUE(refetch);
    EXPECT_EQ(core.committedInsts(), 4u);
    EXPECT_EQ(core.stats().value("exception_flushes"), 1u);
}

TEST(TmCore, ExceptionRefetchWhileDrainRequested)
{
    // Protocol edge: an exception reaches commit while an interrupt drain
    // request already holds fetch.  The exception flush (RefetchAt) must
    // still run, the drain request must survive it (fetch stays held until
    // noteResteer), and the subsequent injection must use the
    // post-exception fetch point.
    TraceBuffer tb(64);
    Core core(quietConfig(), tb);
    EntryMaker mk;
    tb.push(mk.alu());
    TraceEntry exc = mk.alu(Opcode::IdivRr);
    exc.exception = true;
    exc.vector = isa::VecDivide;
    exc.serializing = true;
    exc.nextPc = 0x8000;
    tb.push(exc);

    // Let both instructions enter the pipeline, then request a drain (as
    // the device-timing engine does when a timer tick is pending).
    while (core.stats().value("fetched_insts") < 2 && core.cycle() < 200)
        core.tick();
    ASSERT_EQ(core.stats().value("fetched_insts"), 2u);
    core.slice().requestDrain();

    bool refetch_during_drain = false;
    while (core.committedInsts() < 2 && core.cycle() < 1000) {
        const std::uint64_t d0 =
            core.stats().value("fetch_stall_drainreq");
        core.tick();
        for (auto &e : core.slice().drainEvents())
            if (e.kind == TmEvent::Kind::RefetchAt &&
                core.stats().value("fetch_stall_drainreq") > d0) {
                refetch_during_drain = true;
                EXPECT_EQ(e.in, 3u);
            }
    }
    EXPECT_TRUE(refetch_during_drain);
    EXPECT_EQ(core.committedInsts(), 2u);
    EXPECT_EQ(core.stats().value("exception_flushes"), 1u);

    // The drain request survives the exception flush: the core is drained
    // at the refetch point and fetch stays held until the injection.
    ASSERT_TRUE(core.slice().drained());
    EXPECT_EQ(core.slice().nextFetchIn(), 3u);
    const std::uint64_t held = core.stats().value("fetch_stall_drainreq");
    core.tick();
    EXPECT_GT(core.stats().value("fetch_stall_drainreq"), held);

    // Inject: the runner resteers the producer at IN 3 and the pipeline
    // resumes with handler entries on the new epoch.
    core.slice().noteResteer();
    ASSERT_TRUE(tb.rewindTo(core.slice().nextFetchIn()));
    EntryMaker handler(0x8000);
    handler.resteer(3, core.slice().state().expectedEpoch, 0x8000);
    tb.push(handler.alu());
    tb.push(handler.alu());
    runUntilCommitted(core, 4);
    EXPECT_EQ(core.committedInsts(), 4u);
}

TEST(TmCore, DrainRequestDuringMispredictResteerStillResolves)
{
    // Protocol edge: a drain request lands while a mispredict resteer is
    // in flight (wrong-path entries streaming in).  The branch must still
    // resolve — Resolve is emitted while fetch is held — and the drain
    // then completes on the squashed pipeline.
    CoreConfig cfg = quietConfig();
    cfg.bp.kind = BpKind::FixedAccuracy;
    cfg.bp.fixedAccuracy = 0.0; // mispredict every branch
    TraceBuffer tb(64);
    Core core(cfg, tb);
    EntryMaker mk;
    tb.push(mk.alu());
    tb.push(mk.branch(true, 0x2000));

    std::vector<TmEvent> wrong;
    for (int i = 0; i < 300 && wrong.empty(); ++i) {
        core.tick();
        for (auto &e : core.slice().drainEvents())
            if (e.kind == TmEvent::Kind::WrongPath)
                wrong.push_back(e);
    }
    ASSERT_EQ(wrong.size(), 1u);

    // Wrong-path entries arrive; now a device event requests a drain
    // while the resteer is still unresolved.
    EntryMaker wp(0x3000);
    wp.resteer(3, 1, 0x3000);
    tb.push(wp.alu());
    tb.push(wp.alu());
    core.slice().requestDrain();

    bool resolve_during_drain = false;
    for (int i = 0; i < 300 && !resolve_during_drain; ++i) {
        const std::uint64_t d0 =
            core.stats().value("fetch_stall_drainreq");
        core.tick();
        for (auto &e : core.slice().drainEvents())
            if (e.kind == TmEvent::Kind::Resolve &&
                core.stats().value("fetch_stall_drainreq") > d0)
                resolve_during_drain = true;
    }
    EXPECT_TRUE(resolve_during_drain);
    EXPECT_EQ(core.slice().state().expectedEpoch, 2u);

    // With fetch held, the squashed pipeline drains completely.
    for (int i = 0; i < 300 && !core.slice().drained(); ++i)
        core.tick();
    ASSERT_TRUE(core.slice().drained());

    // Injection proceeds at the branch's resolved successor.
    core.slice().noteResteer();
    ASSERT_TRUE(tb.rewindTo(core.slice().nextFetchIn()));
    EntryMaker right(0x2000);
    right.resteer(core.slice().nextFetchIn(),
                  core.slice().state().expectedEpoch, 0x2000);
    tb.push(right.alu());
    tb.push(right.alu());
    runUntilCommitted(core, 4);
    EXPECT_EQ(core.committedInsts(), 4u);
}

TEST(TmCore, NestedBranchLimitStallsFetch)
{
    CoreConfig cfg = quietConfig();
    cfg.maxNestedBranches = 1;
    TraceBuffer tb(64);
    Core core(cfg, tb);
    EntryMaker mk;
    for (int i = 0; i < 6; ++i) {
        tb.push(mk.branch(false, 0x5000));
        tb.push(mk.alu());
    }
    runUntilCommitted(core, 12);
    EXPECT_EQ(core.committedInsts(), 12u);
    EXPECT_GT(core.stats().value("fetch_stall_branches"), 0u);
}

TEST(TmCore, IssueWidthBoundsThroughput)
{
    Cycle cycles[2];
    int i = 0;
    for (unsigned width : {1u, 4u}) {
        CoreConfig cfg = quietConfig();
        cfg.issueWidth = width;
        TraceBuffer tb(128);
        Core core(cfg, tb);
        EntryMaker mk;
        for (int k = 0; k < 64; ++k)
            tb.push(mk.alu(Opcode::AddRi, k % 8));
        runUntilCommitted(core, 64);
        cycles[i++] = core.cycle();
    }
    EXPECT_GT(cycles[0], cycles[1] + 20); // 1-wide much slower than 4-wide
}

TEST(TmCore, UntranslatedInstructionsCarryNoDependences)
{
    // Two cores run the same stream; in one, the "FP" instructions have
    // microcode-free NOPs (eon's situation).  The NOP stream must not be
    // slower despite the serial register chain.
    Cycle with_deps, without_deps;
    {
        TraceBuffer tb(64);
        Core core(quietConfig(), tb);
        EntryMaker mk;
        for (int k = 0; k < 24; ++k) {
            TraceEntry e = mk.alu(Opcode::ImulRr, 0); // serial chain on r0
            e.rm = 0;
            tb.push(e);
        }
        runUntilCommitted(core, 24);
        with_deps = core.cycle();
    }
    {
        TraceBuffer tb(64);
        Core core(quietConfig(), tb);
        EntryMaker mk;
        for (int k = 0; k < 24; ++k) {
            TraceEntry e = mk.alu(Opcode::Fadd, 0);
            e.hasUcode = false; // decodes to a NOP µop
            tb.push(e);
        }
        runUntilCommitted(core, 24);
        without_deps = core.cycle();
    }
    EXPECT_LT(without_deps, with_deps);
}

TEST(TmCore, HostCycleAccountingAccumulates)
{
    TraceBuffer tb(64);
    Core core(quietConfig(), tb);
    EntryMaker mk;
    for (int i = 0; i < 16; ++i)
        tb.push(mk.alu());
    runUntilCommitted(core, 16);
    EXPECT_GT(core.hostCycles(), core.cycle()); // > 1 host cycle per cycle
    EXPECT_GT(core.hostCyclesPerTargetCycle(), 2.0);
}

TEST(TmCore, HaltEntryCommitsAndPipelineIdles)
{
    TraceBuffer tb(64);
    Core core(quietConfig(), tb);
    EntryMaker mk;
    tb.push(mk.alu());
    tb.push(mk.halt());
    runUntilCommitted(core, 2);
    EXPECT_EQ(core.committedInsts(), 2u);
    // Further ticks idle with no entries (the perlbmk HALT situation).
    const Cycle before = core.cycle();
    for (int i = 0; i < 10; ++i)
        core.tick();
    EXPECT_EQ(core.cycle(), before + 10);
    EXPECT_EQ(core.committedInsts(), 2u);
}

// Regression: TmEvent must be fully determinate when default-constructed.
// Both runners declare `TmEvent e;` before filling it (protocol.hh
// toEvent(), the parallel runner's ring pop), and the golden-run tests
// hash the raw event stream — an indeterminate field hashes garbage.
// The determinism linter enforces this shape-wide (DET003); this pins
// the one struct that already slipped through.
TEST(TmCore, DefaultConstructedTmEventIsDeterminate)
{
    TmEvent e;
    EXPECT_EQ(e.kind, TmEvent::Kind::WrongPath);
    EXPECT_EQ(e.in, 0u);
    EXPECT_EQ(e.pc, 0u);
}

// --- parameterized sweep: the core must be sound for any config mix -------

struct CoreParam
{
    unsigned issueWidth;
    unsigned robEntries;
    unsigned rsEntries;
    unsigned frontEndDepth;
};

class TmCoreSweep : public ::testing::TestWithParam<CoreParam>
{
};

TEST_P(TmCoreSweep, CommitsEverythingInOrder)
{
    const CoreParam p = GetParam();
    CoreConfig cfg = quietConfig();
    cfg.issueWidth = p.issueWidth;
    cfg.robEntries = p.robEntries;
    cfg.rsEntries = p.rsEntries;
    cfg.frontEndDepth = p.frontEndDepth;
    TraceBuffer tb(256);
    Core core(cfg, tb);
    EntryMaker mk;
    std::vector<InstNum> committed;
    core.onCommit = [&committed](const TraceEntry &e) {
        committed.push_back(e.in);
    };
    // A mix of ALU, memory and (correctly predicted) branch entries.
    for (int k = 0; k < 40; ++k) {
        switch (k % 5) {
          case 0: tb.push(mk.load(0x40000 + 64u * k)); break;
          case 1: tb.push(mk.store(0x60000 + 64u * k)); break;
          case 2: tb.push(mk.branch(k % 2 == 0, 0x7000 + 16u * k)); break;
          default: tb.push(mk.alu(Opcode::AddRi, k % 8)); break;
        }
    }
    runUntilCommitted(core, 40, 200000);
    ASSERT_EQ(committed.size(), 40u);
    for (std::size_t i = 0; i < committed.size(); ++i)
        EXPECT_EQ(committed[i], i + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TmCoreSweep,
    ::testing::Values(CoreParam{1, 16, 8, 2}, CoreParam{2, 64, 16, 4},
                      CoreParam{4, 64, 16, 4}, CoreParam{8, 128, 32, 6},
                      CoreParam{2, 16, 8, 8}, CoreParam{1, 128, 32, 2}),
    [](const ::testing::TestParamInfo<CoreParam> &info) {
        const auto &p = info.param;
        return "w" + std::to_string(p.issueWidth) + "_rob" +
               std::to_string(p.robEntries) + "_rs" +
               std::to_string(p.rsEntries) + "_fe" +
               std::to_string(p.frontEndDepth);
    });

} // namespace
} // namespace tm
} // namespace fastsim
