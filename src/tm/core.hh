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
 * Structure (paper §4): one CoreSlice (tm/core_slice.hh) — the five
 * stage Modules Fetch, Dispatch, Issue/Execute, Writeback and Commit
 * (tm/modules/) joined by five Connectors (fetch->dispatch,
 * dispatch->issue, exec->writeback, writeback->commit, commit->fetch,
 * closing the pipeline ring), the branch predictor and the iTLB — plus
 * this core's private memory fabric: L1I, L1D, L2 and the fixed-delay
 * memory model as Modules joined by ten request/fill Connectors
 * (tm/modules/cache_mod.hh, tm/modules/mem_mod.hh).  tm::SmpCore builds
 * its N cores from the same slice.  All parameters come from CoreConfig,
 * and a ModuleRegistry drives the modules in oldest-stage-first order
 * each target cycle.  This class is the thin facade: it hands the slice
 * its L1s, registers the fabric, rolls up statistics / FPGA cost / host
 * cycles, and runs the statistics fabric and trigger queries.
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
#include "tm/core_slice.hh"
#include "tm/core_types.hh"
#include "tm/module.hh"
#include "tm/modules/cache_mod.hh"
#include "tm/modules/mem_mod.hh"
#include "tm/trace_buffer.hh"
#include "tm/triggers.hh"

namespace fastsim {
namespace tm {

class BspScheduler; // tm/bsp.hh (not included here: it pulls in the
                    // analysis layer, which includes this header)

/**
 * The timing-model core: a facade over one pipeline slice and a private
 * cache hierarchy.
 */
class Core
{
  public:
    Core(const CoreConfig &cfg, TraceBuffer &tb);
    ~Core(); // out of line: sched_ is a unique_ptr to an incomplete type

    /** Advance one target cycle.  Events collect in slice().drainEvents(). */
    void tick();

    /** The pipeline: drain port, protocol events and state, commit hook. */
    CoreSlice &slice() { return slice_; }
    const CoreSlice &slice() const { return slice_; }

    /** Current target cycle. */
    Cycle cycle() const { return slice_.state().cycle; }

    /** Host (FPGA) cycles consumed so far. */
    HostCycle hostCycles() const { return hostCycles_; }

    /** Committed target-path instructions (committedInstsTotal: the same
     *  count under tm::SmpCore's name for the sum over its cores). */
    std::uint64_t committedInsts() const
    {
        return slice_.state().committedInsts;
    }
    std::uint64_t committedInstsTotal() const { return committedInsts(); }

    /** Committed basic blocks (branch-terminated, the Fig. 6 x-axis). */
    std::uint64_t committedBasicBlocks() const
    {
        return slice_.state().bbCount;
    }

    /** Commit-stage retirement width (issueWidth * 2, see commit.cc). */
    unsigned commitWidth() const { return cfg_.issueWidth * 2; }

    /** True at a clean snapshot boundary (CoreSlice::quiesced). */
    bool quiescedForSnapshot() const { return slice_.quiesced(); }

    /** Snapshot support; only legal when quiescedForSnapshot(). */
    void saveState(serialize::Sink &s) const;
    void restoreState(serialize::Source &s);

    // --- observation -----------------------------------------------------
    BranchPredictor &bp() { return slice_.bp(); }
    const BranchPredictor &bp() const { return slice_.bp(); }
    modules::CacheModule &l1i() { return memh_.l1i; }
    const modules::CacheModule &l1i() const { return memh_.l1i; }
    modules::CacheModule &l1d() { return memh_.l1d; }
    const modules::CacheModule &l1d() const { return memh_.l1d; }
    modules::CacheModule &l2() { return memh_.l2; }
    const modules::CacheModule &l2() const { return memh_.l2; }
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
        return cycle() ? double(committedInsts()) / double(cycle()) : 0.0;
    }

    double
    hostCyclesPerTargetCycle() const
    {
        return cycle() ? double(hostCycles_) / double(cycle()) : 0.0;
    }

    /** Statistics-fabric time series (paper Fig. 6). */
    const stats::IntervalSeries &icacheSeries() const { return sIcache_; }
    const stats::IntervalSeries &bpSeries() const { return sBp_; }
    const stats::IntervalSeries &drainSeries() const { return sDrain_; }

    /** Total FPGA resource consumption of this core's modules. */
    FpgaCost fpgaCost() const;

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
    modules::MemHierarchy memh_;
    CoreSlice slice_;
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

  public:
    /** Observation hook invoked for every committed instruction (the
     *  slice's; declared last so the slice it names already exists). */
    std::function<void(const fm::TraceEntry &)> &onCommit = slice_.onCommit;
};

} // namespace tm
} // namespace fastsim

#endif // FASTSIM_TM_CORE_HH
