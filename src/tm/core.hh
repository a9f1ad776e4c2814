/**
 * @file
 * The FAST timing model: a cycle-accurate out-of-order superscalar core
 * built from Modules and Connectors (paper Figure 3 and §4).
 *
 * Target microarchitecture (defaults match the paper's prototype):
 * two-issue single core, eight-way 32 KB L1 I/D caches, eight-way 256 KB
 * shared L2, 64 ROB entries, 16 shared reservation stations, 16 load/store
 * queue entries, a 4-way 8K-BTB gshare branch predictor, multiple branch
 * units, one load/store unit, eight general-purpose ALUs, up to four
 * nested branches, and an 8-10-stage pipeline.
 *
 * Prototype limitations we model deliberately (paper §4.1): resolving
 * mis-predictions flushes the pipeline through the ROB before right-path
 * instructions can enter (drainOnMispredict), and the cache levels default
 * to blocking — which, in the MSHR-modeled memory fabric, is the
 * degenerate depth-1 case (tm/modules/cache_mod.hh).
 *
 * Structure (paper §4): the pipeline is five stage Modules — Fetch,
 * Dispatch, Issue/Execute, Writeback, Commit (tm/modules/) — joined by
 * five Connectors (fetch->dispatch, dispatch->issue, exec->writeback,
 * writeback->commit, commit->fetch, closing the pipeline ring), plus the
 * memory fabric: L1I, L1D, the shared L2, the fixed-delay memory model and
 * the iTLB as Modules joined by ten request/fill Connectors
 * (tm/modules/cache_mod.hh, tm/modules/mem_mod.hh).  All parameters come
 * from CoreConfig, and a ModuleRegistry drives the modules in
 * oldest-stage-first order each target cycle.  This class is the thin
 * facade: it wires modules to the shared CoreState, owns the predictor,
 * rolls up statistics / FPGA cost / host cycles, and runs the statistics
 * fabric and trigger queries.
 *
 * The core consumes trace entries from the TraceBuffer and emits protocol
 * events (wrong-path request, resolve, commit, exception re-fetch) that the
 * runner relays to the functional model.  Host-FPGA cycles consumed per
 * target cycle are accounted per §3.3's multi-host-cycle discipline.
 */

#ifndef FASTSIM_TM_CORE_HH
#define FASTSIM_TM_CORE_HH

#include <functional>
#include <memory>
#include <vector>

#include "base/statistics.hh"
#include "base/types.hh"
#include "fm/trace_entry.hh"
#include "tm/branch_pred.hh"
#include "tm/cache.hh"
#include "tm/connector.hh"
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
#include "tm/triggers.hh"

namespace fastsim {
namespace tm {

class BspScheduler; // tm/bsp.hh (not included here: it pulls in the
                    // analysis layer, which includes this header)

/**
 * The timing-model core: a facade over the Module/Connector fabric.
 */
class Core : public CoreDrainPort
{
  public:
    Core(const CoreConfig &cfg, TraceBuffer &tb);
    ~Core(); // out of line: sched_ is a unique_ptr to an incomplete type

    /** Advance one target cycle.  Events are appended to events(). */
    void tick();

    /** Events raised since the last drainEvents(). */
    std::vector<TmEvent> drainEvents();

    /** Current target cycle. */
    Cycle cycle() const { return state_.cycle; }

    /** Host (FPGA) cycles consumed so far. */
    HostCycle hostCycles() const { return hostCycles_; }

    /** Committed target-path instructions. */
    std::uint64_t committedInsts() const { return state_.committedInsts; }
    std::uint64_t committedUops() const { return state_.committedUops; }

    /** Committed basic blocks (branch-terminated, the Fig. 6 x-axis). */
    std::uint64_t committedBasicBlocks() const { return state_.bbCount; }

    /** IN of the next instruction the fetch stage expects. */
    InstNum nextFetchIn() const override { return state_.nextFetchIn; }

    /** Speculation epoch the fetch stage expects (protocol debugging). */
    Epoch expectedEpoch() const { return state_.expectedEpoch; }

    /** True when nothing is in flight (drained). */
    bool
    drained() const override
    {
        return state_.rob.empty() && state_.fetchToDispatch.empty();
    }

    /**
     * Interrupt support: stop fetching so the pipeline drains; once
     * drained() the runner resteers the FM and calls noteResteer().
     */
    void requestDrain() override { state_.drainRequested = true; }
    void
    noteResteer() override
    {
        ++state_.expectedEpoch;
        state_.drainRequested = false;
    }

    /** Cancel a drain request without an epoch bump (checkpoint path when
     *  the FM turned out to have no run-ahead to roll back). */
    void clearDrainRequest() { state_.drainRequested = false; }

    // --- per-core face, shaped like tm::SmpCore's ------------------------
    // The coupled loop (fast/simulator.hh) drives a one-core and an N-core
    // timing model through the same calls; on this core every index is 0.
    std::vector<TmEvent> drainEvents(unsigned) { return drainEvents(); }
    CoreDrainPort &drainPort(unsigned) { return *this; }
    void clearDrainRequest(unsigned) { clearDrainRequest(); }
    const modules::CoreState &sliceState(unsigned) const { return state_; }
    bool sliceDrained(unsigned) const { return drained(); }
    std::uint64_t committedInstsTotal() const { return committedInsts(); }
    std::size_t coherenceTokensInFlight(unsigned) const { return 0; }
    void
    setOnCommit(unsigned, std::function<void(const fm::TraceEntry &)> fn)
    {
        onCommit = std::move(fn);
    }

    // In-flight protocol state, exposed for the guardrails' structured
    // deadlock diagnosis (the no-progress causes live in these flags).
    bool drainRequested() const { return state_.drainRequested; }
    bool awaitingResteer() const { return state_.awaitingResteer; }
    bool serializeInFlight() const { return state_.serializeInFlight; }
    bool drainForMispredict() const { return state_.drainForMispredict; }

    /** Instructions in the ROB (epoch-pipelining hold-tick predicate). */
    std::size_t robInsts() const { return state_.rob.size(); }

    /** Commit-stage retirement width (issueWidth * 2, see commit.cc). */
    unsigned commitWidth() const { return cfg_.issueWidth * 2; }

    /**
     * True when any in-flight instruction (ROB or front-end pipe) raises
     * an exception.  The parallel runner's epoch-pipelined hold ticks
     * must exclude this: an exception commit rewinds the trace buffer's
     * fetch pointer from the TM thread (commit.cc), which is only legal
     * when no FM-side rewind is concurrently in flight.
     */
    bool
    robHasException() const
    {
        for (const modules::DynInst &di : state_.rob)
            if (di.e.exception)
                return true;
        bool found = false;
        state_.fetchToDispatch.forEachValue(
            [&found](const modules::DynInst &di) {
                if (di.e.exception)
                    found = true;
            });
        return found;
    }

    /**
     * True when the core is at a clean snapshot boundary: pipeline fully
     * drained, every connector empty, no resteer/serialize in flight.
     */
    bool
    quiescedForSnapshot() const
    {
        return drained() && state_.dispatchToIssue.empty() &&
               state_.execToWriteback.empty() &&
               state_.writebackToCommit.empty() &&
               state_.commitToFetch.empty() && !state_.awaitingResteer &&
               !state_.drainForMispredict && !state_.serializeInFlight &&
               state_.robUops == 0;
    }

    /**
     * Snapshot support.  Only legal when quiescedForSnapshot(); in-flight
     * sets (doneSeqs/retireReady) are deliberately not serialized — µop
     * seqs are globally unique and monotonic (seqGen is serialized), so
     * stale entries can never alias, and a quiesced boundary has none live.
     */
    void saveState(serialize::Sink &s) const;
    void restoreState(serialize::Source &s);

    // --- observation -----------------------------------------------------
    BranchPredictor &bp() { return *bp_; }
    const BranchPredictor &bp() const { return *bp_; }
    modules::CacheModule &l1i() { return memh_.l1i; }
    const modules::CacheModule &l1i() const { return memh_.l1i; }
    modules::CacheModule &l1d() { return memh_.l1d; }
    const modules::CacheModule &l1d() const { return memh_.l1d; }
    modules::CacheModule &l2() { return memh_.l2; }
    const modules::CacheModule &l2() const { return memh_.l2; }
    modules::MemModule &mem() { return memh_.mem; }
    const modules::MemModule &mem() const { return memh_.mem; }
    modules::MemFabric &memFabric() { return memh_.fx; }
    const modules::MemFabric &memFabric() const { return memh_.fx; }
    TlbModel &itlb() { return itlbM_.model(); }
    const TlbModel &itlb() const { return itlbM_.model(); }
    const CoreConfig &config() const { return cfg_; }

    /** The module fabric (tick order, per-module stats and cost). */
    const ModuleRegistry &registry() const { return registry_; }

    /** The BSP scheduler, or null when the fabric runs sequentially
     *  (tmThreads <= 1, or the partitioner collapsed it — see
     *  CoreConfig::tmThreads). */
    const BspScheduler *bspScheduler() const { return sched_.get(); }

    /**
     * Aggregate statistics view: core-level counters plus every module
     * counter, refreshed from the registry on each call.  Stable node
     * addresses (std::map) keep previously returned references valid.
     */
    stats::Group &
    stats()
    {
        registry_.aggregateStats(stats_);
        return stats_;
    }
    const stats::Group &
    stats() const
    {
        registry_.aggregateStats(stats_);
        return stats_;
    }

    double
    ipc() const
    {
        return state_.cycle
                   ? double(state_.committedInsts) / double(state_.cycle)
                   : 0.0;
    }

    double
    hostCyclesPerTargetCycle() const
    {
        return state_.cycle ? double(hostCycles_) / double(state_.cycle)
                            : 0.0;
    }

    /** Statistics-fabric time series (paper Fig. 6). */
    const stats::IntervalSeries &icacheSeries() const { return sIcache_; }
    const stats::IntervalSeries &bpSeries() const { return sBp_; }
    const stats::IntervalSeries &drainSeries() const { return sDrain_; }

    /** Total FPGA resource consumption of this core's modules. */
    FpgaCost fpgaCost() const;

    /** Observation hook invoked for every committed instruction. */
    std::function<void(const fm::TraceEntry &)> onCommit;

    /**
     * Register a run-time hardware query (paper §3); evaluated every
     * target cycle at zero host-cycle cost.  @return query index.
     */
    std::size_t
    addTrigger(std::string name, TriggerQuery::Predicate pred)
    {
        triggers_.emplace_back(std::move(name), std::move(pred));
        return triggers_.size() - 1;
    }

    const TriggerQuery &trigger(std::size_t idx) const
    {
        return triggers_.at(idx);
    }
    const std::vector<TriggerQuery> &triggers() const { return triggers_; }

  private:
    void sampleStatsFabric();

    CoreConfig cfg_;
    TraceBuffer &tb_;
    std::unique_ptr<BranchPredictor> bp_;
    modules::MemHierarchy memh_;
    modules::TlbModule itlbM_;

    modules::CoreState state_;
    modules::CommitModule commitM_;
    modules::WritebackModule writebackM_;
    modules::IssueExecModule issueExecM_;
    modules::DispatchModule dispatchM_;
    modules::FetchModule fetchM_;
    ModuleRegistry registry_;
    std::unique_ptr<BspScheduler> sched_; //!< null: sequential loop

    HostCycle hostCycles_ = 0;
    mutable stats::Group stats_; //!< aggregate view (core + modules)

    stats::Handle stCycles_;
    stats::Handle stCommittedInsts_; //!< commit module's counter
    stats::Handle stFetchedInsts_;   //!< fetch module's counter

    std::vector<TriggerQuery> triggers_;
    std::uint64_t lastCommitSample_ = 0; //!< trigger-snapshot deltas
    std::uint64_t lastFetchSample_ = 0;

    // Statistics fabric interval state.
    std::uint64_t lastSampleBb_ = 0;
    stats::IntervalSeries sIcache_;
    stats::IntervalSeries sBp_;
    stats::IntervalSeries sDrain_;
};

} // namespace tm
} // namespace fastsim

#endif // FASTSIM_TM_CORE_HH
