/**
 * @file
 * The N-core SMP timing model: per-core pipeline/L1 fabrics joined to one
 * shared L2/memory through the coherence Connectors of smp_mem.hh
 * (DESIGN.md §16).
 *
 * Each core slice replicates the single-core fabric — the five stage
 * Modules, the inter-stage Connectors, branch predictor, iTLB and the two
 * SMP L1s — under a "cN." name prefix, sync-domained on its own CoreState
 * so the BSP partitioner can place every core in its own partition.  The
 * shared L2 (+ MESI-lite directory) and the memory model form one more
 * domain ("smp."), reached only through latency >= 1, unbounded
 * Connectors: with N cores the partitioner proves N+1 partitions, and
 * results are bit-identical at any tmThreads because every cross-domain
 * interaction rides token readiness, never call order.
 *
 * One ModuleRegistry drives the whole fabric; registration order is
 * core-major (core 0's stages and L1s first), mirroring the single-core
 * order within each slice, and the shared L2/mem tick last — so a request
 * launched in cycle T is serviced no earlier than T+1 regardless of
 * thread count, matching the cross-partition barrier semantics exactly.
 *
 * Each slice exposes the CoreDrainPort face the FM<->TM protocol engine
 * drives, so the coupled SMP runner (fast/smp.hh) owns one ProtocolEngine
 * and one TraceBuffer per core with no engine changes.
 */

#ifndef FASTSIM_TM_SMP_CORE_HH
#define FASTSIM_TM_SMP_CORE_HH

#include <functional>
#include <memory>
#include <vector>

#include "base/statistics.hh"
#include "base/types.hh"
#include "tm/branch_pred.hh"
#include "tm/core_types.hh"
#include "tm/drain_port.hh"
#include "tm/module.hh"
#include "tm/modules/commit.hh"
#include "tm/modules/core_state.hh"
#include "tm/modules/dispatch.hh"
#include "tm/modules/fetch.hh"
#include "tm/modules/issue_exec.hh"
#include "tm/modules/mem_mod.hh"
#include "tm/modules/smp_mem.hh"
#include "tm/modules/writeback.hh"
#include "tm/trace_buffer.hh"

namespace fastsim {
namespace tm {

class BspScheduler; // tm/bsp.hh (pulls in the analysis layer)

class SmpCore
{
  public:
    /** @param tbs one TraceBuffer per core (the runner owns them). */
    SmpCore(const CoreConfig &cfg, std::vector<TraceBuffer *> tbs);
    ~SmpCore();

    unsigned numCores() const { return static_cast<unsigned>(slices_.size()); }

    /** Advance the whole fabric one target cycle. */
    void tick();

    Cycle cycle() const { return cycle_; }
    HostCycle hostCycles() const { return hostCycles_; }

    // --- per-slice protocol face (tm::Core offers the same set) ----------
    CoreDrainPort &drainPort(unsigned i);
    std::vector<TmEvent> drainEvents(unsigned i);
    std::uint64_t committedInstsTotal() const;
    void clearDrainRequest(unsigned i);
    void setOnCommit(unsigned i,
                     std::function<void(const fm::TraceEntry &)> fn);

    /** Slice `i`'s protocol state: commit/fetch positions, epoch and the
     *  drain/resteer/serialize flags (runner checks and diagnosis). */
    const modules::CoreState &sliceState(unsigned i) const;
    bool sliceDrained(unsigned i) const;

    /** Every slice quiesced.  Coherence tokens may legally remain in
     *  flight (a pending ifetch miss survives a drain exactly as the
     *  single core's busy-until did); they are serialized. */
    bool quiescedForSnapshot() const;

    void saveState(serialize::Sink &s) const;
    void restoreState(serialize::Source &s);

    // --- observation ------------------------------------------------------
    const ModuleRegistry &registry() const { return registry_; }
    const BspScheduler *bspScheduler() const { return sched_.get(); }
    modules::SmpL1Module &l1i(unsigned i);
    modules::SmpL1Module &l1d(unsigned i);
    modules::SharedL2Module &l2() { return *l2_; }
    const modules::SharedL2Module &l2() const { return *l2_; }
    const CoreConfig &config() const { return cfg_; }

    /** Occupancy of this core's coherence edges (guardrails diagnosis). */
    std::size_t coherenceTokensInFlight(unsigned i) const;

    stats::Group &
    stats()
    {
        registry_.aggregateStats(stats_);
        return stats_;
    }

    FpgaCost fpgaCost() const;

  private:
    struct Slice;

    CoreConfig cfg_;
    modules::MemFabric smpFx_; //!< shared fabric: only l2<->mem edges used
    modules::MemModule mem_;
    std::vector<std::unique_ptr<Slice>> slices_;
    std::unique_ptr<modules::SharedL2Module> l2_;
    ModuleRegistry registry_;
    std::unique_ptr<BspScheduler> sched_; //!< null: sequential loop

    Cycle cycle_ = 0;
    HostCycle hostCycles_ = 0;
    mutable stats::Group stats_;
};

} // namespace tm
} // namespace fastsim

#endif // FASTSIM_TM_SMP_CORE_HH
