/**
 * @file
 * Pass 1 of fastlint: static verification of the Module/Connector fabric.
 *
 * The FAST paper's §4 argument is that a timing model assembled from
 * parameterized Modules and Connectors is *statically analyzable*: the
 * set of (module, port) bindings IS the hardware graph.  This pass walks
 * that graph — as value types, decoupled from the live simulator objects —
 * and proves structural properties before a single cycle is simulated:
 *
 *   FAB001  zero-latency Connector cycle (a combinational loop: every
 *           edge of the cycle has minLatency == 0, so a cycle's outputs
 *           feed its own inputs within one target cycle)
 *   FAB002  dangling Connector endpoint (no module declares a producer
 *           or consumer port for the edge)
 *   FAB003  double-bound Connector endpoint (two modules claim the same
 *           end of one edge)
 *   FAB004  throughput/capacity inconsistency (a bounded buffer too small
 *           to cover its own latency at full input rate, or an unbounded
 *           input rate into a bounded buffer)
 *   FAB005  statistics-counter name collision across modules (the
 *           registry's aggregate roll-up assumes disjoint counter names)
 *   FAB006  aggregate FPGA cost exceeds the target device's budget
 *           (lintFabricCost; paper Table 2 / §4.7)
 *
 * A second entry point, lintConfig(), checks properties that are only
 * visible in the CoreConfig — relations between sizing parameters that
 * the structural graph cannot express:
 *
 *   FAB007  bounded memory-fabric edge undersized for the owning cache
 *           level's MSHR depth (capacity < outstanding misses, or a
 *           bounded edge fed by an unlimited MSHR table: in-flight
 *           tokens overflow the buffer and are dropped, so the
 *           fabric-visible traffic record silently diverges)
 *   FAB008  writeback -> commit capacity smaller than the ROB (every
 *           in-flight µop can have a completion outstanding; a smaller
 *           bounded buffer drops completions and wedges retirement)
 *   FAB009  issueWidth exceeds the total functional units (the extra
 *           issue slots can never all launch in one cycle)
 */

#ifndef FASTSIM_ANALYSIS_FABRIC_LINT_HH
#define FASTSIM_ANALYSIS_FABRIC_LINT_HH

#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "fpga/model.hh"
#include "tm/connector.hh"
#include "tm/core_types.hh"
#include "tm/module.hh"

namespace fastsim {
namespace analysis {

/** A module of the fabric graph (value type: name + counter names). */
struct FabricModule
{
    std::string name;
    std::vector<std::string> statNames;
    /** Sync-domain id (tm::Module::syncDomain() keys densely renumbered in
     *  registration order); -1 = communicates only through its ports. */
    int domain = -1;
};

/** A Connector edge of the fabric graph. */
struct FabricEdge
{
    std::string name;
    tm::ConnectorParams params;
    int producer = -1; //!< module index with the Out port (-1: none)
    int consumer = -1; //!< module index with the In port (-1: none)
    unsigned producerBindings = 0; //!< number of Out ports naming this edge
    unsigned consumerBindings = 0; //!< number of In ports naming this edge
};

/**
 * The fabric as a plain graph.  Built from a live ModuleRegistry or
 * assembled by hand (the unit tests craft known-bad fabrics this way).
 */
struct FabricGraph
{
    std::vector<FabricModule> modules;
    std::vector<FabricEdge> edges;

    /** Snapshot the registry's modules, ports and noted connectors. */
    static FabricGraph fromRegistry(const tm::ModuleRegistry &reg);
};

/** Run FAB001–FAB005 over the graph. */
void lintFabric(const FabricGraph &graph, Report &report);

/** FAB006: check an aggregate cost estimate against a device budget. */
void lintFabricCost(const tm::FpgaCost &cost, const fpga::Device &dev,
                    Report &report);

/** Run FAB007–FAB009 over the resolved configuration. */
void lintConfig(const tm::CoreConfig &cfg, Report &report);

} // namespace analysis
} // namespace fastsim

#endif // FASTSIM_ANALYSIS_FABRIC_LINT_HH
