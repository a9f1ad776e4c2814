/**
 * @file
 * Tests for the fastlint static verifier (src/analysis): every diagnostic
 * ID fires on a hand-crafted violation, the default configuration and the
 * real FX86 table verify clean, and simulator construction refuses a
 * structurally broken fabric unless opted out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "analysis/codec_lint.hh"
#include "analysis/diagnostics.hh"
#include "analysis/fabric_lint.hh"
#include "analysis/partition.hh"
#include "analysis/protocol_model.hh"
#include "analysis/verify.hh"
#include "base/logging.hh"
#include "fast/parallel.hh"
#include "fast/simulator.hh"
#include "fpga/model.hh"
#include "tm/core.hh"
#include "tm/trace_buffer.hh"

namespace fastsim {
namespace analysis {
namespace {

using isa::ExecClass;
using isa::OperTemplate;

// --- fabric graph helpers -------------------------------------------------

FabricModule
mod(const std::string &name, std::vector<std::string> stats = {})
{
    FabricModule m;
    m.name = name;
    m.statNames = std::move(stats);
    return m;
}

FabricEdge
edge(const std::string &name, int producer, int consumer,
     tm::ConnectorParams p = {1, 1, 1, 4})
{
    FabricEdge e;
    e.name = name;
    e.params = p;
    e.producer = producer;
    e.consumer = consumer;
    e.producerBindings = producer >= 0 ? 1 : 0;
    e.consumerBindings = consumer >= 0 ? 1 : 0;
    return e;
}

// --- FAB001: zero-latency connector cycle --------------------------------

TEST(FabricLint, Fab001FiresOnZeroLatencyCycle)
{
    FabricGraph g;
    g.modules = {mod("a"), mod("b")};
    g.edges = {edge("a_to_b", 0, 1, {1, 1, 0, 4}),
               edge("b_to_a", 1, 0, {1, 1, 0, 4})};
    Report r;
    lintFabric(g, r);
    EXPECT_TRUE(r.has("FAB001"));
    EXPECT_TRUE(r.hasErrors());
}

TEST(FabricLint, Fab001FiresOnZeroLatencySelfLoop)
{
    FabricGraph g;
    g.modules = {mod("a")};
    g.edges = {edge("a_to_a", 0, 0, {1, 1, 0, 4})};
    Report r;
    lintFabric(g, r);
    EXPECT_TRUE(r.has("FAB001"));
}

TEST(FabricLint, Fab001SilentWhenCycleHasLatency)
{
    // The same loop with one registered edge is a legal pipeline ring.
    FabricGraph g;
    g.modules = {mod("a"), mod("b")};
    g.edges = {edge("a_to_b", 0, 1, {1, 1, 0, 4}),
               edge("b_to_a", 1, 0, {1, 1, 1, 4})};
    Report r;
    lintFabric(g, r);
    EXPECT_FALSE(r.has("FAB001"));
}

// --- FAB002: dangling endpoints ------------------------------------------

TEST(FabricLint, Fab002FiresOnDanglingConsumer)
{
    FabricGraph g;
    g.modules = {mod("a")};
    g.edges = {edge("orphan", 0, -1)};
    Report r;
    lintFabric(g, r);
    EXPECT_TRUE(r.has("FAB002"));
}

TEST(FabricLint, Fab002FiresOnFullyUnboundEdge)
{
    FabricGraph g;
    g.modules = {mod("a")};
    g.edges = {edge("orphan", -1, -1)};
    Report r;
    lintFabric(g, r);
    EXPECT_EQ(r.countOf("FAB002"), 2u); // no producer AND no consumer
}

// --- FAB003: double-bound endpoints --------------------------------------

TEST(FabricLint, Fab003FiresOnTwoProducers)
{
    FabricGraph g;
    g.modules = {mod("a"), mod("b"), mod("c")};
    FabricEdge e = edge("contested", 0, 2);
    e.producerBindings = 2; // both a and b declare Out ports
    g.edges = {e};
    Report r;
    lintFabric(g, r);
    EXPECT_TRUE(r.has("FAB003"));
}

// --- FAB004: throughput/capacity inconsistency ---------------------------

TEST(FabricLint, Fab004FiresWhenCapacityCannotCoverLatency)
{
    FabricGraph g;
    g.modules = {mod("a"), mod("b")};
    // 2 pushes/cycle for 4 cycles of latency needs >= 8 slots; 2 stall.
    g.edges = {edge("narrow", 0, 1, {2, 2, 4, 2})};
    Report r;
    lintFabric(g, r);
    EXPECT_TRUE(r.has("FAB004"));
}

TEST(FabricLint, Fab004FiresOnUnlimitedInputIntoBoundedBuffer)
{
    FabricGraph g;
    g.modules = {mod("a"), mod("b")};
    g.edges = {edge("bounded", 0, 1, {0, 1, 1, 4})};
    Report r;
    lintFabric(g, r);
    EXPECT_TRUE(r.has("FAB004"));
}

// --- FAB005: statistics name collisions ----------------------------------

TEST(FabricLint, Fab005FiresOnStatNameCollision)
{
    FabricGraph g;
    g.modules = {mod("a", {"cycles", "stalls"}), mod("b", {"cycles"})};
    g.edges = {edge("a_to_b", 0, 1)};
    Report r;
    lintFabric(g, r);
    EXPECT_TRUE(r.has("FAB005"));
}

// --- FAB006: FPGA budget --------------------------------------------------

TEST(FabricLint, Fab006FiresWhenCostExceedsDevice)
{
    tm::FpgaCost cost;
    cost.slices = 1e6;
    cost.blockRams = 10;
    Report r;
    lintFabricCost(cost, fpga::virtex4lx200(), r);
    EXPECT_TRUE(r.has("FAB006"));
}

TEST(FabricLint, Fab006SilentWhenCostFits)
{
    tm::FpgaCost cost;
    cost.slices = 100;
    cost.blockRams = 1;
    Report r;
    lintFabricCost(cost, fpga::virtex4lx200(), r);
    EXPECT_FALSE(r.hasErrors());
}

// --- FAB007..FAB009: configuration-level checks ---------------------------

TEST(ConfigLint, DefaultConfigIsClean)
{
    tm::CoreConfig cfg;
    Report r;
    lintConfig(cfg, r);
    EXPECT_FALSE(r.hasErrors()) << r.text();
}

TEST(ConfigLint, Fab007FiresOnBoundedEdgeUnderMshrDepth)
{
    tm::CoreConfig cfg;
    cfg.caches.l1d.blocking = false;
    cfg.mem.l1dMshrs = 8;
    // Only 4 slots for up to 8 outstanding miss tokens.
    cfg.mem.l1dToL2 = tm::ConnectorParams{1, 1, 1, 4};
    Report r;
    lintConfig(cfg, r);
    EXPECT_TRUE(r.has("FAB007"));
}

TEST(ConfigLint, Fab007FiresOnBoundedEdgeWithUnlimitedMshrs)
{
    tm::CoreConfig cfg;
    cfg.caches.l1i.blocking = false; // l1iMshrs stays 0: unlimited
    cfg.mem.fetchToL1i = tm::ConnectorParams{1, 1, 1, 16};
    Report r;
    lintConfig(cfg, r);
    EXPECT_TRUE(r.has("FAB007"));
}

TEST(ConfigLint, Fab007SilentWhenCapacityCoversDepth)
{
    tm::CoreConfig cfg;
    cfg.caches.l1d.blocking = false;
    cfg.mem.l1dMshrs = 4;
    cfg.mem.l1dToL2 = tm::ConnectorParams{1, 1, 1, 4};
    Report r;
    lintConfig(cfg, r);
    EXPECT_FALSE(r.has("FAB007")) << r.text();
}

TEST(ConfigLint, Fab007ChecksL2EdgesAgainstL2Depth)
{
    tm::CoreConfig cfg;
    cfg.caches.l2.blocking = false;
    cfg.mem.l2Mshrs = 6;
    cfg.mem.l2ToMem = tm::ConnectorParams{1, 1, 1, 2};
    Report r;
    lintConfig(cfg, r);
    EXPECT_TRUE(r.has("FAB007"));
}

TEST(ConfigLint, Fab008FiresWhenCommitChannelSmallerThanRob)
{
    tm::CoreConfig cfg; // robEntries = 64
    cfg.writebackToCommit = tm::ConnectorParams{0, 0, 1, 32};
    Report r;
    lintConfig(cfg, r);
    EXPECT_TRUE(r.has("FAB008"));
}

TEST(ConfigLint, Fab008SilentWhenCommitChannelCoversRob)
{
    tm::CoreConfig cfg;
    cfg.writebackToCommit = tm::ConnectorParams{0, 0, 1, 64};
    Report r;
    lintConfig(cfg, r);
    EXPECT_FALSE(r.has("FAB008")) << r.text();
}

TEST(ConfigLint, Fab009FiresWhenIssueWidthExceedsUnits)
{
    tm::CoreConfig cfg;
    cfg.numAlus = 2;
    cfg.numBranchUnits = 1;
    cfg.numLoadStoreUnits = 1;
    cfg.issueWidth = 6; // > 4 functional units
    Report r;
    lintConfig(cfg, r);
    EXPECT_TRUE(r.has("FAB009"));
}

TEST(ConfigLint, VerifyRunsConfigChecks)
{
    tm::CoreConfig cfg;
    cfg.numAlus = 1;
    cfg.numBranchUnits = 1;
    cfg.numLoadStoreUnits = 1;
    cfg.issueWidth = 8;
    tm::TraceBuffer tb(256);
    tm::Core core(cfg, tb);
    VerifyOptions opts;
    opts.fabric = true;
    Report r;
    verify(core, opts, r);
    EXPECT_TRUE(r.has("FAB009"));
}

// --- the real fabric ------------------------------------------------------

TEST(FabricLint, DefaultCoreFabricIsClean)
{
    tm::CoreConfig cfg;
    tm::TraceBuffer tb(256);
    tm::Core core(cfg, tb);
    const FabricGraph g = FabricGraph::fromRegistry(core.registry());
    // Five stage modules plus L1I/L1D/L2/mem/iTLB; the five pipeline
    // connectors plus the ten request/fill edges of the memory fabric.
    EXPECT_EQ(g.modules.size(), 10u);
    EXPECT_EQ(g.edges.size(), 15u);
    const char *memory_modules[] = {"l1i", "l1d", "l2", "mem", "itlb"};
    for (const char *name : memory_modules) {
        const bool present =
            std::any_of(g.modules.begin(), g.modules.end(),
                        [name](const FabricModule &m) {
                            return m.name == name;
                        });
        EXPECT_TRUE(present) << name << " missing from FabricGraph";
    }
    Report r;
    lintFabric(g, r);
    EXPECT_FALSE(r.hasErrors()) << r.text();
}

TEST(FabricLint, FromRegistryReflectsPortBindings)
{
    tm::CoreConfig cfg;
    tm::TraceBuffer tb(256);
    tm::Core core(cfg, tb);
    const FabricGraph g = FabricGraph::fromRegistry(core.registry());
    for (const FabricEdge &e : g.edges) {
        EXPECT_EQ(e.producerBindings, 1u) << e.name;
        EXPECT_EQ(e.consumerBindings, 1u) << e.name;
    }
}

// --- codec table lint -----------------------------------------------------

OpSpec
spec(const std::string &name, std::uint8_t byte, OperTemplate tmpl,
     ExecClass cls, std::uint32_t flags = 0, bool escape = false)
{
    OpSpec s;
    s.name = name;
    s.escape = escape;
    s.byte = byte;
    s.tmpl = tmpl;
    s.cls = cls;
    s.flags = flags;
    s.condSlots = 1;
    s.operandBytesMax = operTemplateMaxBytes(tmpl);
    return s;
}

/** A minimal table that satisfies the COD007 coverage matrix. */
std::vector<OpSpec>
coveringTable()
{
    using isa::OpFlag;
    std::vector<OpSpec> t;
    t.push_back(spec("Jc", 0x40, OperTemplate::Rel8, ExecClass::BranchCond,
                     isa::OpfBranch | isa::OpfCond | isa::OpfReadFlags));
    t.push_back(spec("Jmp", 0x50, OperTemplate::Rel32,
                     ExecClass::BranchUncond, isa::OpfBranch));
    t.push_back(spec("Ld", 0x30, OperTemplate::RM, ExecClass::Load,
                     isa::OpfLoad));
    t.push_back(spec("St", 0x31, OperTemplate::RM, ExecClass::Store,
                     isa::OpfStore));
    t.push_back(spec("Fadd", 0x00, OperTemplate::RR, ExecClass::FpAlu,
                     isa::OpfFp, true));
    t.push_back(spec("Cli", 0x02, OperTemplate::None, ExecClass::IntFlag,
                     isa::OpfSerialize));
    t.push_back(spec("Hlt", 0x01, OperTemplate::None, ExecClass::Halt));
    t.push_back(spec("Int", 0x60, OperTemplate::I8, ExecClass::IntSw,
                     isa::OpfSerialize | isa::OpfBranch | isa::OpfStore));
    t.push_back(spec("Ud", 0x06, OperTemplate::None, ExecClass::Undefined));
    t.push_back(spec("Movsb", 0x65, OperTemplate::None, ExecClass::String,
                     isa::OpfLoad | isa::OpfStore | isa::OpfRepable |
                         isa::OpfWriteFlags));
    t.push_back(spec("AddRr", 0x10, OperTemplate::RR, ExecClass::IntAlu,
                     isa::OpfWriteFlags));
    return t;
}

TEST(CodecLint, CoveringTableIsClean)
{
    Report r;
    lintOpcodeTable(coveringTable(), r);
    EXPECT_FALSE(r.hasErrors()) << r.text();
}

TEST(CodecLint, Cod001FiresOnOverlappingBytes)
{
    auto t = coveringTable();
    t.push_back(spec("Dup", 0x10, OperTemplate::RR, ExecClass::IntAlu,
                     isa::OpfWriteFlags)); // collides with AddRr
    Report r;
    lintOpcodeTable(t, r);
    EXPECT_TRUE(r.has("COD001"));
}

TEST(CodecLint, Cod001FiresOnCondRangeOverlap)
{
    auto t = coveringTable();
    OpSpec jcc = spec("Jcc", 0x4E, OperTemplate::Rel32,
                      ExecClass::BranchCond,
                      isa::OpfBranch | isa::OpfCond | isa::OpfReadFlags);
    jcc.condSlots = isa::NumCondCodes; // claims 0x4E..0x59, hits 0x50 Jmp
    t.push_back(jcc);
    Report r;
    lintOpcodeTable(t, r);
    EXPECT_TRUE(r.has("COD001"));
}

TEST(CodecLint, Cod002FiresOnPrefixShadowedByte)
{
    auto t = coveringTable();
    t.push_back(spec("Shadow", isa::PrefixRep, OperTemplate::None,
                     ExecClass::Nop));
    Report r;
    lintOpcodeTable(t, r);
    EXPECT_TRUE(r.has("COD002"));
}

TEST(CodecLint, Cod003FiresOnOverlongEncoding)
{
    auto t = coveringTable();
    OpSpec big = spec("Big", 0x70, OperTemplate::RI, ExecClass::IntAlu);
    big.operandBytesMax = 20; // 1 opcode byte + 20 > 15
    t.push_back(big);
    Report r;
    lintOpcodeTable(t, r);
    EXPECT_TRUE(r.has("COD003"));
}

TEST(CodecLint, Cod005FiresOnTooManyOpcodes)
{
    std::vector<OpSpec> t;
    for (unsigned i = 0; i < 130; ++i) {
        // Spread over both planes to avoid COD001 noise.
        t.push_back(spec("Op" + std::to_string(i),
                         static_cast<std::uint8_t>(i % 128),
                         OperTemplate::None, ExecClass::Nop, 0, i >= 128));
    }
    Report r;
    lintOpcodeTable(t, r);
    EXPECT_TRUE(r.has("COD005"));
}

TEST(CodecLint, Cod005FiresOnByteRangeOverflow)
{
    auto t = coveringTable();
    OpSpec jcc = spec("JccHigh", 0xF8, OperTemplate::Rel8,
                      ExecClass::BranchCond,
                      isa::OpfBranch | isa::OpfCond | isa::OpfReadFlags);
    jcc.condSlots = isa::NumCondCodes; // 0xF8 + 12 slots > 0xFF
    t.push_back(jcc);
    Report r;
    lintOpcodeTable(t, r);
    EXPECT_TRUE(r.has("COD005"));
}

TEST(CodecLint, Cod006FiresOnFlagClassContradiction)
{
    auto t = coveringTable();
    t.push_back(spec("BadLd", 0x71, OperTemplate::RM, ExecClass::Load,
                     0 /* missing OpfLoad */));
    Report r;
    lintOpcodeTable(t, r);
    EXPECT_TRUE(r.has("COD006"));
}

TEST(CodecLint, Cod007FiresWhenStoresUnreachable)
{
    auto t = coveringTable();
    // Rebuild without any store-capable opcode.
    std::vector<OpSpec> nostores;
    for (OpSpec &s : t)
        if (!(s.flags & isa::OpfStore))
            nostores.push_back(s);
    Report r;
    lintOpcodeTable(nostores, r);
    EXPECT_TRUE(r.has("COD007"));
}

TEST(CodecLint, RealTableIsClean)
{
    Report r;
    lintOpcodeTable(defaultOpSpecs(), r);
    EXPECT_FALSE(r.hasErrors()) << r.text();
}

// --- codec round-trip -----------------------------------------------------

TEST(CodecLint, RealCodecRoundTripsClean)
{
    Report r;
    lintCodecRoundTrip(r);
    EXPECT_FALSE(r.hasErrors()) << r.text();
}

TEST(CodecLint, Cod004FiresOnCorruptingEncoder)
{
    // An encoder that flips a bit in the last emitted byte: decode either
    // disagrees field-wise or fails outright — both are COD004.
    EncodeFn corrupting = [](isa::Insn &insn, std::uint8_t *buf) {
        const unsigned len = isa::encode(insn, buf);
        buf[len - 1] ^= 0x10;
        return len;
    };
    Report r;
    lintCodecRoundTrip(r, corrupting);
    EXPECT_TRUE(r.has("COD004"));
}

TEST(CodecLint, Cod004FiresOnDecoderTableDrift)
{
    // A decoder that rejects a byte the table claims (Nop, 0x00).
    DecodeFn drifting = [](const std::uint8_t *buf, std::size_t avail,
                           isa::Insn &insn) {
        const isa::DecodeStatus st = isa::decode(buf, avail, insn);
        if (st == isa::DecodeStatus::Ok && insn.op == isa::Opcode::Nop &&
            insn.pad == 0 && !insn.rep)
            return isa::DecodeStatus::BadOpcode;
        return st;
    };
    Report r;
    lintCodecRoundTrip(r, {}, drifting);
    EXPECT_TRUE(r.has("COD004"));
}

// --- report ---------------------------------------------------------------

TEST(Report, SuppressionDropsFindings)
{
    FabricGraph g;
    g.modules = {mod("a")};
    g.edges = {edge("orphan", 0, -1)};
    Report r;
    r.suppress("FAB002");
    lintFabric(g, r);
    EXPECT_FALSE(r.has("FAB002"));
    EXPECT_FALSE(r.hasErrors());
}

TEST(Report, JsonAndTextRenderFindings)
{
    Report r;
    r.error("FAB002", "edge \"x\"", "dangling");
    r.warning("FAB004", "y", "capacity");
    EXPECT_NE(r.text().find("[FAB002]"), std::string::npos);
    EXPECT_NE(r.json().find("\"errors\":1"), std::string::npos);
    EXPECT_NE(r.json().find("\"warnings\":1"), std::string::npos);
    EXPECT_NE(r.json().find("\\\"x\\\""), std::string::npos); // escaping
}

// --- construction fail-fast ----------------------------------------------

fast::FastConfig
zeroLatencyLoopConfig()
{
    fast::FastConfig cfg;
    // Make every edge of the fetch -> dispatch -> issue -> writeback ->
    // commit -> fetch ring zero-latency: a combinational loop.
    cfg.core.fetchToDispatch = tm::ConnectorParams{2, 2, 0, 8};
    cfg.core.dispatchToIssue = tm::ConnectorParams{0, 0, 0, 0};
    cfg.core.execToWriteback = tm::ConnectorParams{0, 0, 0, 0};
    cfg.core.writebackToCommit = tm::ConnectorParams{0, 0, 0, 0};
    cfg.core.commitToFetch = tm::ConnectorParams{0, 0, 0, 0};
    return cfg;
}

TEST(ConstructionVerify, RefusesZeroLatencyLoop)
{
    EXPECT_THROW(fast::FastSimulator sim(zeroLatencyLoopConfig()),
                 FatalError);
}

TEST(ConstructionVerify, ParallelRunnerRefusesZeroLatencyLoop)
{
    EXPECT_THROW(fast::ParallelFastSimulator sim(zeroLatencyLoopConfig()),
                 FatalError);
}

TEST(ConstructionVerify, OptOutConstructsAnyway)
{
    fast::FastConfig cfg = zeroLatencyLoopConfig();
    cfg.verifyFabric = false;
    EXPECT_NO_THROW(fast::FastSimulator sim(cfg));
}

TEST(ConstructionVerify, DefaultConfigConstructsClean)
{
    fast::FastConfig cfg;
    EXPECT_NO_THROW(fast::FastSimulator sim(cfg));
}

// --- full verify() over the default core ---------------------------------

TEST(Verify, DefaultCoreFullyClean)
{
    tm::CoreConfig cfg;
    tm::TraceBuffer tb(256);
    tm::Core core(cfg, tb);
    VerifyOptions opts;
    opts.fabric = true;
    opts.cost = true;
    opts.codec = true;
    Report r;
    verify(core, opts, r);
    EXPECT_FALSE(r.hasErrors()) << r.text();
}

TEST(Verify, CostPassFlagsTinyDevice)
{
    // The default core cannot fit the small Virtex-II Pro 30 (the paper's
    // XUP board carries a cut-down configuration).
    tm::CoreConfig cfg;
    tm::TraceBuffer tb(256);
    tm::Core core(cfg, tb);
    VerifyOptions opts;
    opts.fabric = false;
    opts.cost = true;
    opts.codec = false;
    opts.device = &fpga::virtex2p30();
    Report r;
    verify(core, opts, r);
    EXPECT_TRUE(r.has("FAB006"));
}

// --- pass composition: config lints follow fabric lints --------------------

TEST(Verify, ConfigLintsRunAfterFabricLintsOnSameSnapshot)
{
    // One core carrying both a structural violation (zero-latency
    // commit->fetch ring: FAB001) and a configuration violation
    // (issueWidth over the functional units: FAB009).  verify() must
    // surface both from ONE graph snapshot, with every structural finding
    // ordered before the first config finding.
    tm::CoreConfig cfg;
    cfg.fetchToDispatch = tm::ConnectorParams{2, 2, 0, 8};
    cfg.dispatchToIssue = tm::ConnectorParams{0, 0, 0, 0};
    cfg.execToWriteback = tm::ConnectorParams{0, 0, 0, 0};
    cfg.writebackToCommit = tm::ConnectorParams{0, 0, 0, 0};
    cfg.commitToFetch = tm::ConnectorParams{0, 0, 0, 0};
    cfg.numAlus = 1;
    cfg.numBranchUnits = 1;
    cfg.numLoadStoreUnits = 1;
    cfg.issueWidth = 8;
    tm::TraceBuffer tb(256);
    tm::Core core(cfg, tb);
    VerifyOptions opts;
    opts.fabric = true;
    Report r;
    verify(core, opts, r);
    ASSERT_TRUE(r.has("FAB001")) << r.text();
    ASSERT_TRUE(r.has("FAB009")) << r.text();
    std::size_t last_structural = 0, first_config = SIZE_MAX;
    const auto &diags = r.diagnostics();
    for (std::size_t i = 0; i < diags.size(); ++i) {
        if (diags[i].id == "FAB001")
            last_structural = i;
        if (diags[i].id == "FAB009")
            first_config = std::min(first_config, i);
    }
    EXPECT_LT(last_structural, first_config)
        << "structural findings must precede config findings: " << r.text();
}

// --- suppression across every pass family ----------------------------------

TEST(Report, SuppressionSpansAllPassFamilies)
{
    Report r;
    r.suppress("FAB002");  // fabric
    r.suppress("FAB012");  // partition advisory
    r.suppress("COD001");  // codec
    r.suppress("PROT001"); // protocol model
    r.suppress("PROT002");

    // Fabric: a dangling edge.
    FabricGraph g;
    g.modules = {mod("a")};
    g.edges = {edge("orphan", 0, -1)};
    lintFabric(g, r);

    // Partition: a collapse advisory (1 partition for 4 threads).
    PartitionPlan plan = computePartition(g, 4);
    lintPartition(g, plan, r);

    // Codec: two opcodes sharing a byte (the COD001 recipe above).
    auto t = coveringTable();
    t.push_back(spec("Dup", 0x10, OperTemplate::RR, ExecClass::IntAlu,
                     isa::OpfWriteFlags));
    lintOpcodeTable(t, r);

    // Protocol: the drain-latch deadlock (PROT001 + PROT002).
    ProtocolModelConfig pm;
    pm.bugDrainLatch = true;
    pm.withTimer = false;
    pm.withDisk = false;
    pm.faultDrop = false;
    pm.faultDup = false;
    checkProtocol(pm, r);

    EXPECT_FALSE(r.has("FAB002"));
    EXPECT_FALSE(r.has("FAB012"));
    EXPECT_FALSE(r.has("COD001"));
    EXPECT_FALSE(r.has("PROT001"));
    EXPECT_FALSE(r.has("PROT002"));
    EXPECT_FALSE(r.hasErrors()) << r.text();
    EXPECT_EQ(r.warningCount(), 0u) << r.text();
}

// --- the diagnostic catalog -------------------------------------------------

TEST(Catalog, CoversEveryPassFamily)
{
    const std::vector<CatalogEntry> &cat = diagnosticCatalog();
    std::set<std::string> ids;
    for (const CatalogEntry &e : cat) {
        EXPECT_TRUE(ids.insert(e.id).second) << "duplicate id " << e.id;
        EXPECT_NE(std::string(e.summary), "") << e.id;
    }
    const char *expected[] = {
        "FAB001", "FAB002", "FAB003", "FAB004",  "FAB005",  "FAB006",
        "FAB007", "FAB008", "FAB009", "FAB011",  "FAB012",  "FAB013",
        "COD001", "COD002", "COD003", "COD004",  "COD005",  "COD006",
        "COD007", "DET001", "DET002", "DET003",  "DET004",  "DET005",
        "DET006", "PROT001", "PROT002", "PROT003", "PROT004",
    };
    for (const char *id : expected)
        EXPECT_EQ(ids.count(id), 1u) << id << " missing from the catalog";
    EXPECT_EQ(cat.size(), std::size(expected))
        << "catalog has entries this test does not know about — keep the "
           "two lists (and kCatalogVersion) in sync";
}

TEST(Catalog, IsKnownDiagnosticValidatesSuppressIds)
{
    EXPECT_TRUE(isKnownDiagnostic("FAB001"));
    EXPECT_TRUE(isKnownDiagnostic("DET006"));
    EXPECT_TRUE(isKnownDiagnostic("PROT004"));
    EXPECT_FALSE(isKnownDiagnostic("PROT005"));
    EXPECT_FALSE(isKnownDiagnostic("FAB010")); // retired, never reused
    EXPECT_FALSE(isKnownDiagnostic("FAB999"));
    EXPECT_FALSE(isKnownDiagnostic(""));
    EXPECT_FALSE(isKnownDiagnostic("fab001")); // IDs are case-sensitive
}

TEST(Catalog, JsonDocumentCarriesStableSchema)
{
    Report r;
    r.warning("FAB012", "partition", "imbalance");
    std::vector<PassRecord> passes;
    PassRecord fabric;
    fabric.name = "fabric";
    fabric.runtimeUs = 120;
    fabric.findings = 1;
    PassRecord protocol;
    protocol.name = "protocol";
    protocol.runtimeUs = 52000;
    protocol.findings = 0;
    passes = {fabric, protocol};

    const std::string doc = jsonDocument(r, passes);
    EXPECT_NE(doc.find("\"catalog_version\":10"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"passes\":[{\"name\":\"fabric\",\"runtime_us\":120,"
                       "\"findings\":1},{\"name\":\"protocol\","
                       "\"runtime_us\":52000,\"findings\":0}]"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"errors\":0"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"warnings\":1"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"diagnostics\":[{\"id\":\"FAB012\""),
              std::string::npos)
        << doc;
}

// --- FAB012: configurable imbalance threshold -------------------------------

namespace {

/** 7 modules, no edges: a hand-built 5-vs-2 split. */
void
imbalancedPlan(FabricGraph &g, PartitionPlan &plan)
{
    g.modules = {mod("m0"), mod("m1"), mod("m2"), mod("m3"),
                 mod("m4"), mod("m5"), mod("m6")};
    plan.requestedThreads = 2;
    plan.assignment = {0, 0, 0, 0, 0, 1, 1};
    plan.partitions = {{0, 1, 2, 3, 4}, {5, 6}};
    plan.groupOf = {0, 1, 2, 3, 4, 5, 6};
    plan.groupCount = 7;
}

} // namespace

TEST(PartitionLint, Fab012DefaultThresholdMatchesLegacyRule)
{
    // Regression: the default PartitionOptions must reproduce the
    // historical "heaviest more than twice the lightest" rule exactly.
    FabricGraph g;
    PartitionPlan plan;
    imbalancedPlan(g, plan); // 5 vs 2: 5 > 2*2 fires
    Report r;
    lintPartition(g, plan, r); // 3-arg overload = defaults
    EXPECT_TRUE(r.has("FAB012")) << r.text();
    EXPECT_NE(r.text().find("threshold 100%"), std::string::npos)
        << r.text();

    // Exactly-double is legal under the legacy rule: 4 vs 2 stays silent.
    FabricGraph g2;
    PartitionPlan p2;
    imbalancedPlan(g2, p2);
    g2.modules.pop_back();
    p2.assignment = {0, 0, 0, 0, 1, 1};
    p2.partitions = {{0, 1, 2, 3}, {4, 5}};
    p2.groupOf = {0, 1, 2, 3, 4, 5};
    p2.groupCount = 6;
    Report r2;
    lintPartition(g2, p2, r2);
    EXPECT_FALSE(r2.has("FAB012")) << r2.text();
}

TEST(PartitionLint, Fab012RaisedThresholdWaivesKnownImbalance)
{
    FabricGraph g;
    PartitionPlan plan;
    imbalancedPlan(g, plan); // 5 vs 2
    PartitionOptions opts;
    opts.imbalancePct = 150; // 5*100 > 2*250 is false: waived
    Report r;
    lintPartition(g, plan, opts, r);
    EXPECT_FALSE(r.has("FAB012")) << r.text();

    opts.imbalancePct = 140; // 500 > 480: still imbalanced at 140%
    Report r2;
    lintPartition(g, plan, opts, r2);
    EXPECT_TRUE(r2.has("FAB012")) << r2.text();
    EXPECT_NE(r2.text().find("threshold 140%"), std::string::npos)
        << r2.text();
}

TEST(PartitionLint, VerifyForwardsImbalanceThreshold)
{
    // The plumbing test: VerifyOptions.partition reaches lintPartition.
    // The default core collapses to one partition under tmThreads=2 (the
    // advisory is the collapse, not imbalance), so this just proves the
    // option travels and the pass still runs clean end-to-end.
    tm::CoreConfig cfg;
    cfg.tmThreads = 2;
    tm::TraceBuffer tb(256);
    tm::Core core(cfg, tb);
    VerifyOptions opts;
    opts.fabric = true;
    opts.partition.imbalancePct = 500;
    Report r;
    verify(core, opts, r);
    EXPECT_FALSE(r.hasErrors()) << r.text();
}

} // namespace
} // namespace analysis
} // namespace fastsim
