/**
 * @file
 * The N-core coupled FAST simulator (DESIGN.md §16).
 *
 * fast::SmpSimulator runs the coupled loop of simulator.hh over N >= 2
 * cores: one fm::SmpFuncModel (N speculative functional models sharing a
 * machine), one tm::SmpCore (N tm::CoreSlice pipelines, the same one
 * tm::Core holds, with their L1s joined to a shared L2), and one face —
 * TraceBuffer + CmdChannel + TraceLink — per core.  The FM<->TM protocol
 * is unchanged per core (each slice is the CoreDrainPort the single-core
 * engine drives), and the loop's fixed
 * orders carry the multi-core determinism:
 *
 *  - produceEntries() steps the functional models in a deterministic
 *    round-robin at instruction granularity (core 0 first, each core at
 *    most fmStepsPerCycle steps per target cycle);
 *  - drainCommits() and handleEvents() fold commits and apply protocol
 *    events in core order;
 *  - deviceTiming() runs the shared timer/disk state machines through
 *    ONE ProtocolEngine bound to core 0's drain port: the platform
 *    devices interrupt core 0 only (the other cores' LAPIC-style pics
 *    never see them), mirroring small real SMP machines where the boot
 *    core fields the legacy timer/disk lines.
 *
 * One deliberate departure from the single-core protocol (paper §2.1):
 * wrong-path resteers are *suppressed*.  A single-core FM may freely run
 * down a mispredicted path — every effect lands in its private undo log
 * and the Resolve event unwinds it.  With N cores sharing one physical
 * memory, a wrong-path store would be visible to every other core's
 * functional model the moment it executes, and the eventual rollback has
 * no way to revoke values another core already consumed (there is no
 * cross-FM validation path).  So on a WrongPath event the SMP runner
 * rolls the FM back to the mispredict point *on its natural PC* — it
 * never leaves the architectural path — and the timing model still pays
 * the full resteer penalty as fetch bubbles.  The cost of the fiction is
 * that SMP timing omits wrong-path cache pollution.  The loop selects this
 * rule by core count: one core keeps wrong-path execution.
 *
 * Every arbitration above is a fixed function of core index and target
 * state, and every TM-side cross-core interaction rides the coherence
 * Connectors' token readiness — so an N-core run produces an identical
 * commit-hash chain across repeated runs and across tmThreads settings.
 */

#ifndef FASTSIM_FAST_SMP_HH
#define FASTSIM_FAST_SMP_HH

#include "fast/simulator.hh"
#include "fm/smp.hh"
#include "tm/smp_core.hh"

namespace fastsim {
namespace fast {

extern template class CoupledLoop<tm::SmpCore>;

/**
 * The coupled N-core simulator: the shared coupled loop over N >= 2
 * faces.  Constructed from the same FastConfig as the single-core
 * runners; cfg.numCores >= 2 (use FastSimulator for 1).
 */
class SmpSimulator : public CoupledLoop<tm::SmpCore>
{
  public:
    explicit SmpSimulator(const FastConfig &cfg)
        : CoupledLoop(cfg, "fast_smp")
    {
    }

    /** Observation hook: every committed instruction, tagged with the
     *  committing core, in the core-major fold order of the commit hash
     *  (service workload latency probes ride on this). */
    using CoupledLoop::onCommitEntry;
};

} // namespace fast
} // namespace fastsim

#endif // FASTSIM_FAST_SMP_HH
