#include "analysis/verify.hh"

#include "analysis/codec_lint.hh"
#include "analysis/fabric_lint.hh"
#include "analysis/partition.hh"
#include "analysis/protocol_model.hh"
#include "base/logging.hh"

namespace fastsim {
namespace analysis {

void
verify(const tm::ModuleRegistry &reg, const tm::CoreConfig &cfg,
       const tm::FpgaCost &cost, const VerifyOptions &opts, Report &report)
{
    if (opts.fabric) {
        // Pass composition is deliberate: the structural fabric lints
        // (FAB001..FAB005, FAB013) run first, then the configuration
        // lints (FAB007..FAB009) and the partition proof — all over the
        // SAME graph snapshot, so a config finding always refers to the
        // fabric the structural pass just blessed.
        const FabricGraph g = FabricGraph::fromRegistry(reg);
        lintFabric(g, report);
        lintConfig(cfg, report);
        // BSP partition legality (FAB011) and the collapse/imbalance
        // advisory (FAB012) whenever a parallel TM is requested — the
        // same proof BspScheduler re-runs at construction.
        if (cfg.tmThreads > 1) {
            const PartitionPlan plan = computePartition(g, cfg.tmThreads);
            lintPartition(g, plan, opts.partition, report);
        }
    }
    if (opts.cost) {
        const fpga::Device &dev =
            opts.device ? *opts.device : fpga::virtex4lx200();
        lintFabricCost(fpga::applyPrototypeOverheads(cost), dev, report);
    }
}

void
verify(const tm::Core &core, const VerifyOptions &opts, Report &report)
{
    verify(core.registry(), core.config(), core.fpgaCost(), opts, report);
    if (opts.codec) {
        lintOpcodeTable(defaultOpSpecs(), report);
        lintCodecRoundTrip(report);
    }
    if (opts.protocol) {
        ProtocolModelConfig mc;
        mc.maxDepth = opts.protocolDepth;
        checkProtocol(mc, report);
    }
}

void
verifyFabricOrFatal(const tm::Core &core)
{
    Report report;
    VerifyOptions opts;
    opts.fabric = true;
    verify(core, opts, report);
    if (report.hasErrors())
        fatal("fabric verification failed (%zu error(s)); pass "
              "verifyFabric=false / --no-verify-fabric to construct "
              "anyway:\n%s",
              report.errorCount(), report.text().c_str());
}

void
verifyFabricOrFatal(const tm::ModuleRegistry &reg, const tm::CoreConfig &cfg)
{
    Report report;
    VerifyOptions opts;
    opts.fabric = true;
    verify(reg, cfg, tm::FpgaCost{}, opts, report);
    if (report.hasErrors())
        fatal("fabric verification failed (%zu error(s)); pass "
              "verifyFabric=false / --no-verify-fabric to construct "
              "anyway:\n%s",
              report.errorCount(), report.text().c_str());
}

} // namespace analysis
} // namespace fastsim
