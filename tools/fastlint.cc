/**
 * @file
 * fastlint: the FAST static verifier as a standalone CLI.
 *
 * Constructs a timing-model core for a configuration and runs the
 * src/analysis passes over it:
 *   pass 1  fabric lint      (FAB001..FAB005, FAB007..FAB013)
 *   pass 2  cost check       (FAB006 against a device)
 *   pass 3  codec check      (COD001..COD007 over the FX86 table + codec)
 *   pass 4  protocol model   (--protocol: PROT001..PROT004 by exhaustive
 *                             exploration of the FM<->TM transition system)
 * (the determinism lint is source-level: tools/lint_determinism.py)
 *
 * Exit status: 0 when no errors (warnings allowed), 1 on errors, 2 on
 * usage mistakes.
 *
 * Usage:
 *   fastlint [--json] [--list] [--no-verify-fabric] [--no-verify-codec]
 *            [--no-verify-cost] [--protocol[=depth]] [--issue-width N]
 *            [--front-end-depth N] [--partition[=N]] [--cores N]
 *            [--imbalance-threshold=PCT] [--device NAME] [--suppress ID]...
 *
 * --cores N (N >= 2) lints the N-core SMP fabric (tm::SmpCore): per-core
 * pipeline/L1 slices joined to the shared L2, including the coherence
 * edge legality pass (FAB013).  --partition then names each partition by
 * the core slice it covers ("core 0", "shared").  Note that ~4 cores
 * exceed the BRAM budget of every catalogued paper-era device (FAB006 is
 * an honest finding — a multi-core FAST would span FPGAs); combine with
 * --no-verify-cost to check structure alone.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/codec_lint.hh"
#include "analysis/diagnostics.hh"
#include "analysis/fabric_lint.hh"
#include "analysis/partition.hh"
#include "analysis/verify.hh"
#include "base/logging.hh"
#include "fpga/model.hh"
#include "tm/core.hh"
#include "tm/smp_core.hh"
#include "tm/trace_buffer.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--json] [--list] [--no-verify-fabric]\n"
        "          [--no-verify-codec] [--no-verify-cost]\n"
        "          [--protocol[=depth]] [--issue-width N]\n"
        "          [--front-end-depth N] [--partition[=N]] [--cores N]\n"
        "          [--imbalance-threshold=PCT] [--device NAME]\n"
        "          [--suppress ID]...\n",
        argv0);
    return 2;
}

/** --partition[=N]: show the BSP plan the scheduler would adopt. */
void
printPartition(const fastsim::analysis::FabricGraph &g,
               const fastsim::analysis::PartitionPlan &plan, bool json)
{
    using fastsim::analysis::FabricEdge;
    if (json) {
        std::string out = "{\"requested_threads\":" +
                          std::to_string(plan.requestedThreads) +
                          ",\"atomic_groups\":" +
                          std::to_string(plan.groupCount) +
                          ",\"partitions\":[";
        for (std::size_t p = 0; p < plan.partitions.size(); ++p) {
            out += p ? ",[" : "[";
            for (std::size_t i = 0; i < plan.partitions[p].size(); ++i)
                out += (i ? ",\"" : "\"") +
                       g.modules[plan.partitions[p][i]].name + "\"";
            out += "]";
        }
        out += "],\"partition_labels\":[";
        for (std::size_t p = 0; p < plan.partitions.size(); ++p)
            out += std::string(p ? "," : "") + "\"" +
                   fastsim::analysis::partitionLabel(g, plan, p) + "\"";
        out += "],\"cut_edges\":[";
        for (std::size_t i = 0; i < plan.cutEdges.size(); ++i) {
            const FabricEdge &e = g.edges[plan.cutEdges[i]];
            out += std::string(i ? "," : "") + "{\"name\":\"" + e.name +
                   "\",\"from\":" +
                   std::to_string(plan.assignment[static_cast<std::size_t>(
                       e.producer)]) +
                   ",\"to\":" +
                   std::to_string(plan.assignment[static_cast<std::size_t>(
                       e.consumer)]) +
                   ",\"min_latency\":" + std::to_string(e.params.minLatency) +
                   ",\"max_transactions\":" +
                   std::to_string(e.params.maxTransactions) + "}";
        }
        out += "]}";
        std::printf("%s\n", out.c_str());
        return;
    }
    std::printf("partition plan: %zu partition(s) for %u requested "
                "thread(s), %zu atomic group(s)\n",
                plan.partitions.size(), plan.requestedThreads,
                plan.groupCount);
    for (std::size_t p = 0; p < plan.partitions.size(); ++p) {
        const std::string label =
            fastsim::analysis::partitionLabel(g, plan, p);
        if (label.empty())
            std::printf("  partition %zu:", p);
        else
            std::printf("  partition %zu (%s):", p, label.c_str());
        for (const std::size_t mi : plan.partitions[p])
            std::printf(" %s", g.modules[mi].name.c_str());
        std::printf("\n");
    }
    if (plan.cutEdges.empty()) {
        std::printf("  cut edges: none\n");
        return;
    }
    std::printf("  cut edges:\n");
    for (const std::size_t ei : plan.cutEdges) {
        const FabricEdge &e = g.edges[ei];
        std::printf(
            "    %s: partition %d -> %d, minLatency=%llu, "
            "maxTransactions=%u\n",
            e.name.c_str(),
            plan.assignment[static_cast<std::size_t>(e.producer)],
            plan.assignment[static_cast<std::size_t>(e.consumer)],
            static_cast<unsigned long long>(e.params.minLatency),
            e.params.maxTransactions);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fastsim;

    bool json = false;
    bool show_partition = false;
    bool do_fabric = true;
    bool do_codec = true;
    bool do_cost = true;
    bool do_protocol = false;
    unsigned protocol_depth = 0;
    unsigned imbalance_pct = analysis::PartitionOptions{}.imbalancePct;
    unsigned num_cores = 1;
    std::string device_name;
    std::vector<std::string> suppress;
    tm::CoreConfig cfg;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires %s\n", arg.c_str(), what);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--json") {
            json = true;
        } else if (arg == "--list") {
            for (const analysis::CatalogEntry &d :
                 analysis::diagnosticCatalog())
                std::printf("%s  %s\n", d.id, d.summary);
            return 0;
        } else if (arg == "--no-verify-fabric") {
            do_fabric = false;
        } else if (arg == "--no-verify-codec") {
            do_codec = false;
        } else if (arg == "--no-verify-cost") {
            do_cost = false;
        } else if (arg == "--protocol" ||
                   arg.rfind("--protocol=", 0) == 0) {
            do_protocol = true;
            if (arg.size() > std::strlen("--protocol"))
                protocol_depth = static_cast<unsigned>(
                    std::atoi(arg.c_str() + std::strlen("--protocol=")));
        } else if (arg.rfind("--imbalance-threshold=", 0) == 0) {
            imbalance_pct = static_cast<unsigned>(std::atoi(
                arg.c_str() + std::strlen("--imbalance-threshold=")));
            if (imbalance_pct < 1) {
                std::fprintf(stderr,
                             "--imbalance-threshold needs PCT >= 1\n");
                return 2;
            }
        } else if (arg == "--partition" ||
                   arg.rfind("--partition=", 0) == 0) {
            show_partition = true;
            if (arg.size() > std::strlen("--partition"))
                cfg.tmThreads = static_cast<unsigned>(
                    std::atoi(arg.c_str() + std::strlen("--partition=")));
            else
                cfg.tmThreads = 4;
            if (cfg.tmThreads < 1) {
                std::fprintf(stderr, "--partition needs N >= 1\n");
                return 2;
            }
        } else if (arg == "--cores") {
            num_cores = static_cast<unsigned>(std::atoi(next("a count")));
            if (num_cores < 1 || num_cores > 32) {
                std::fprintf(stderr, "--cores needs 1 <= N <= 32\n");
                return 2;
            }
        } else if (arg == "--issue-width") {
            cfg.issueWidth =
                static_cast<unsigned>(std::atoi(next("a width")));
        } else if (arg == "--front-end-depth") {
            cfg.frontEndDepth =
                static_cast<unsigned>(std::atoi(next("a depth")));
        } else if (arg == "--device") {
            device_name = next("a device name");
        } else if (arg == "--suppress") {
            suppress.push_back(next("a diagnostic ID"));
        } else {
            return usage(argv[0]);
        }
    }

    const fpga::Device *device = &fpga::virtex4lx200();
    if (!device_name.empty()) {
        device = nullptr;
        for (const fpga::Device &d : fpga::knownDevices())
            if (d.name == device_name)
                device = &d;
        if (!device) {
            std::fprintf(stderr, "unknown device '%s'; known:\n",
                         device_name.c_str());
            for (const fpga::Device &d : fpga::knownDevices())
                std::fprintf(stderr, "  %s\n", d.name.c_str());
            return 2;
        }
    }

    analysis::Report report;
    for (const std::string &id : suppress) {
        if (!analysis::isKnownDiagnostic(id))
            std::fprintf(stderr,
                         "fastlint: warning: --suppress %s matches no "
                         "catalogued diagnostic (see --list)\n",
                         id.c_str());
        report.suppress(id);
    }

    // Each pass is timed individually for the JSON document; the findings
    // count is the delta the pass contributed to the shared report.
    std::vector<analysis::PassRecord> passes;
    auto timedPass = [&report, &passes](const char *name, auto &&body) {
        const std::size_t before = report.diagnostics().size();
        const auto t0 = std::chrono::steady_clock::now();
        body();
        const auto t1 = std::chrono::steady_clock::now();
        analysis::PassRecord rec;
        rec.name = name;
        rec.runtimeUs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count());
        rec.findings = report.diagnostics().size() - before;
        passes.push_back(std::move(rec));
    };

    try {
        tm::TraceBuffer tb(256);
        tm::Core core(cfg, tb);
        // --cores N: the fabric under lint is the N-core SMP core (the
        // codec and protocol passes stay fabric-independent).
        std::vector<std::unique_ptr<tm::TraceBuffer>> smp_tbs;
        std::unique_ptr<tm::SmpCore> smp;
        if (num_cores >= 2) {
            std::vector<tm::TraceBuffer *> ptrs;
            for (unsigned c = 0; c < num_cores; ++c) {
                smp_tbs.push_back(std::make_unique<tm::TraceBuffer>(256));
                ptrs.push_back(smp_tbs.back().get());
            }
            smp = std::make_unique<tm::SmpCore>(cfg, ptrs);
        }
        const tm::ModuleRegistry &reg =
            smp ? smp->registry() : core.registry();
        analysis::VerifyOptions opts;
        opts.fabric = false;
        opts.cost = false;
        opts.codec = false;
        opts.device = device;
        opts.partition.imbalancePct = imbalance_pct;
        if (do_fabric)
            timedPass("fabric", [&] {
                analysis::VerifyOptions o = opts;
                o.fabric = true;
                analysis::verify(reg, cfg,
                                 smp ? smp->fpgaCost() : core.fpgaCost(),
                                 o, report);
            });
        if (do_cost)
            timedPass("cost", [&] {
                analysis::VerifyOptions o = opts;
                o.cost = true;
                analysis::verify(reg, cfg,
                                 smp ? smp->fpgaCost() : core.fpgaCost(),
                                 o, report);
            });
        if (do_codec)
            timedPass("codec", [&] {
                analysis::VerifyOptions o = opts;
                o.codec = true;
                analysis::verify(core, o, report);
            });
        if (do_protocol)
            timedPass("protocol", [&] {
                analysis::VerifyOptions o = opts;
                o.protocol = true;
                o.protocolDepth = protocol_depth;
                analysis::verify(core, o, report);
            });
        if (show_partition) {
            const analysis::FabricGraph g =
                analysis::FabricGraph::fromRegistry(reg);
            const analysis::PartitionPlan plan =
                analysis::computePartition(g, cfg.tmThreads);
            printPartition(g, plan, json);
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fastlint: configuration unusable: %s\n",
                     e.what());
        return 1;
    }

    if (json)
        std::printf("%s\n", analysis::jsonDocument(report, passes).c_str());
    else
        std::fputs(report.text().c_str(), stdout);
    return report.hasErrors() ? 1 : 0;
}
