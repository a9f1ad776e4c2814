/**
 * @file
 * fastlint driver: runs the static verification passes against a live
 * timing-model core.
 *
 * Two entry points:
 *  - verify(): full configurable run (fabric, FPGA budget, codec) used by
 *    tools/fastlint and the tests;
 *  - verifyFabricOrFatal(): the construction-time fail-fast hook — the
 *    simulator facades call it from their constructors (opt out with
 *    FastConfig::verifyFabric = false) so a structurally broken fabric
 *    (e.g. a zero-latency Connector cycle) never starts ticking.
 *    Structural checks only: the FPGA budget (FAB006) is advisory at
 *    construction time because estimating an over-budget configuration is
 *    itself a legitimate use of the simulator.
 */

#ifndef FASTSIM_ANALYSIS_VERIFY_HH
#define FASTSIM_ANALYSIS_VERIFY_HH

#include "analysis/diagnostics.hh"
#include "analysis/partition.hh"
#include "fpga/model.hh"
#include "tm/core.hh"

namespace fastsim {
namespace analysis {

/** What verify() runs. */
struct VerifyOptions
{
    bool fabric = true; //!< FAB001..FAB005 over the module/connector graph
                        //!< plus FAB007..FAB009 over the configuration
    bool cost = false;  //!< FAB006 against `device`
    bool codec = false; //!< COD001..COD007 over the real FX86 table+codec
    bool protocol = false; //!< PROT001..PROT004 over the FM<->TM protocol
                           //!< model (explicit-state exploration)
    unsigned protocolDepth = 0; //!< DFS depth bound; 0 = exhaustive
    const fpga::Device *device = nullptr; //!< nullptr: Virtex-4 LX200
    PartitionOptions partition; //!< FAB012 advisory thresholds
};

/** Run the selected passes; diagnostics land in `report`. */
void verify(const tm::Core &core, const VerifyOptions &opts, Report &report);

/**
 * Same passes over an arbitrary fabric registry — the entry point the
 * multi-core facade (tm::SmpCore) uses, since its fabric is not a
 * tm::Core.  `cost` feeds FAB006 when opts.cost is set.
 */
void verify(const tm::ModuleRegistry &reg, const tm::CoreConfig &cfg,
            const tm::FpgaCost &cost, const VerifyOptions &opts,
            Report &report);

/**
 * Construction-time structural and configuration check (FAB001..FAB005,
 * FAB007..FAB009, FAB013).  Throws FatalError
 * (via fatal()) listing every finding if the fabric has errors.
 */
void verifyFabricOrFatal(const tm::Core &core);

/** Registry-based variant (the SMP simulator's construction hook). */
void verifyFabricOrFatal(const tm::ModuleRegistry &reg,
                         const tm::CoreConfig &cfg);

} // namespace analysis
} // namespace fastsim

#endif // FASTSIM_ANALYSIS_VERIFY_HH
