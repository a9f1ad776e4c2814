/**
 * @file
 * One core's pipeline, written once for every timing-model facade: the
 * shared CoreState (with the five pipeline Connectors fetch->dispatch,
 * dispatch->issue, exec->writeback, writeback->commit and the
 * commit->fetch back-edge), the branch predictor, the iTLB and the five
 * stage Modules (paper Figure 3 and §4).
 *
 * tm::Core holds one slice beside its private cache hierarchy; tm::SmpCore
 * holds N beside the shared L2 and memory (DESIGN.md §7, §16.1).  What
 * differs by facade is only what a slice is handed: the two stage-facing
 * L1 ports (the synchronous CacheModules of one core, or the token-
 * speaking SmpL1Modules of N), the per-core MemFabric, and the name
 * prefix ("" for one core, "cN." for core N).  The facade keeps module
 * registration, so each keeps its own tick order.
 *
 * The slice is the CoreDrainPort its ProtocolEngine drives and the per-
 * core face every runner uses (events, protocol state, commit hook); it
 * also owns the quiesce predicate, the per-core snapshot section and the
 * reset of in-flight state after a restore.
 */

#ifndef FASTSIM_TM_CORE_SLICE_HH
#define FASTSIM_TM_CORE_SLICE_HH

#include <array>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "base/serialize.hh"
#include "base/types.hh"
#include "fm/trace_entry.hh"
#include "tm/branch_pred.hh"
#include "tm/core_types.hh"
#include "tm/drain_port.hh"
#include "tm/module.hh"
#include "tm/modules/cache_mod.hh"
#include "tm/modules/commit.hh"
#include "tm/modules/core_state.hh"
#include "tm/modules/dispatch.hh"
#include "tm/modules/fetch.hh"
#include "tm/modules/issue_exec.hh"
#include "tm/modules/mem_mod.hh"
#include "tm/modules/writeback.hh"
#include "tm/trace_buffer.hh"

namespace fastsim {
namespace tm {

class CoreSlice final : public CoreDrainPort
{
  public:
    /** The stage-facing L1s: fetch reads through l1i, issue/execute
     *  through l1d. */
    struct L1Ports
    {
        modules::L1Port &l1i;
        modules::L1Port &l1d;
    };

    /**
     * @param fx       the core's memory fabric (stage<->L1 edges)
     * @param prefix   connector / module name prefix ("" or "cN.")
     * @param make_l1s called once the slice's CoreState exists and before
     *                 the stages are built: returns the L1s the stages use
     *                 (the SMP L1s are bound to that CoreState)
     */
    CoreSlice(const CoreConfig &cfg, TraceBuffer &tb, modules::MemFabric &fx,
              const std::string &prefix,
              const std::function<L1Ports(modules::CoreState &)> &make_l1s);

    // --- CoreDrainPort (driven by this core's ProtocolEngine) ------------
    void requestDrain() override { state_.drainRequested = true; }
    bool
    drained() const override
    {
        return state_.rob.empty() && state_.fetchToDispatch.empty();
    }
    InstNum nextFetchIn() const override { return state_.nextFetchIn; }
    void
    noteResteer() override
    {
        ++state_.expectedEpoch;
        state_.drainRequested = false;
    }

    /** Cancel a drain request without an epoch bump (checkpoint path when
     *  the FM turned out to have no run-ahead to roll back). */
    void clearDrainRequest() { state_.drainRequested = false; }

    /** Protocol events raised since the last call. */
    std::vector<TmEvent> drainEvents();

    /**
     * True at a clean snapshot boundary: pipeline fully drained, every
     * pipeline Connector empty, no resteer/serialize in flight.
     */
    bool quiesced() const;

    /**
     * True when any in-flight instruction (ROB or front-end pipe) raises
     * an exception.  The parallel runner's epoch-pipelined hold ticks
     * must exclude this: an exception commit rewinds the trace buffer's
     * fetch pointer from the TM thread (commit.cc), which is only legal
     * when no FM-side rewind is concurrently in flight.
     */
    bool robHasException() const;

    /** Commit/fetch positions, epoch, drain/resteer/serialize flags. */
    modules::CoreState &state() { return state_; }
    const modules::CoreState &state() const { return state_; }

    /** Observation hook invoked for every committed instruction. */
    std::function<void(const fm::TraceEntry &)> onCommit;

    BranchPredictor &bp() { return *bp_; }
    const BranchPredictor &bp() const { return *bp_; }
    modules::TlbModule &itlb() { return itlb_; }
    modules::CommitModule &commitStage() { return commit_; }
    modules::FetchModule &fetchStage() { return fetch_; }

    // --- fabric wiring (the facade keeps the registration order) ---------
    /** Register the five stages, oldest first: an instruction takes at
     *  least one target cycle per stage (reverse pipeline evaluation). */
    void addStages(ModuleRegistry &r);
    /** Note the five pipeline Connectors. */
    void noteConnectors(ModuleRegistry &r);
    /**
     * One sync domain per core: the stages mutate the shared CoreState
     * directly and call the iTLB and the L1 access paths synchronously —
     * none of that is Connector traffic, so no partitioner may split it.
     * `also` lists the facade's modules that join the domain.
     */
    void joinSyncDomain(std::initializer_list<Module *> also);
    /** Add the predictor (the one sub-model outside the registry) and the
     *  per-core Connector overhead — "under-optimized regarding area,
     *  especially in the block RAMs" (§4.7). */
    void addFpgaCost(FpgaCost &c) const;

    // --- snapshot support -------------------------------------------------
    /**
     * The per-core section: progress counters, fetch/epoch position,
     * statistics-fabric accumulators, functional-unit busy times and the
     * predictor.  Only legal when quiesced(); in-flight sets (doneSeqs/
     * retireReady) are deliberately not serialized — µop seqs are
     * globally unique and monotonic (seqGen is serialized), so stale
     * entries can never alias, and a quiesced boundary has none live.
     */
    void saveState(serialize::Sink &s) const;
    /** Read the per-core section back at target cycle `cycle` and reset
     *  the in-flight state a quiesced boundary does not carry. */
    void restoreState(serialize::Source &s, Cycle cycle);
    /** The five pipeline Connectors' statistics. */
    void saveConnectorStats(serialize::Sink &s) const;
    void restoreConnectorStats(serialize::Source &s);

  private:
    const CoreConfig &cfg_; //!< the facade's
    std::unique_ptr<BranchPredictor> bp_;
    modules::TlbModule itlb_;
    modules::CoreState state_;
    L1Ports l1_;
    modules::CommitModule commit_;
    modules::WritebackModule writeback_;
    modules::IssueExecModule issueExec_;
    modules::DispatchModule dispatch_;
    modules::FetchModule fetch_;
    //!< the five pipeline Connectors of state_, in pipeline order
    const std::array<ConnectorBase *, 5> pipe_;
};

} // namespace tm
} // namespace fastsim

#endif // FASTSIM_TM_CORE_SLICE_HH
