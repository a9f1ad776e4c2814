/**
 * @file
 * The N-core SMP timing model: per-core pipeline/L1 fabrics joined to one
 * shared L2/memory through the coherence Connectors of smp_mem.hh
 * (DESIGN.md §16).
 *
 * Each core is one CoreSlice (tm/core_slice.hh) — the same five stage
 * Modules, pipeline Connectors, branch predictor and iTLB tm::Core holds —
 * under a "cN." name prefix, handed the core's two SMP L1s instead of
 * the synchronous cache hierarchy, and sync-domained on its own CoreState
 * (with those L1s) so the BSP partitioner can place every core in its own
 * partition.  The shared L2 (+ MESI-lite directory) and the memory model
 * form one more domain ("smp."), reached only through latency >= 1,
 * unbounded Connectors: with N cores the partitioner proves N+1
 * partitions, and results are bit-identical at any tmThreads because
 * every cross-domain interaction rides token readiness, never call order.
 *
 * One ModuleRegistry drives the whole fabric; registration order is
 * core-major (core 0's stages, L1s and iTLB first), and the shared
 * L2/mem tick last — so a request launched in cycle T is serviced no
 * earlier than T+1 regardless of thread count, matching the
 * cross-partition barrier semantics exactly.
 *
 * Each slice is the CoreDrainPort the FM<->TM protocol engine drives, so
 * the coupled SMP runner (fast/smp.hh) owns one ProtocolEngine and one
 * TraceBuffer per core with no engine changes.
 */

#ifndef FASTSIM_TM_SMP_CORE_HH
#define FASTSIM_TM_SMP_CORE_HH

#include <memory>
#include <vector>

#include "base/statistics.hh"
#include "base/types.hh"
#include "tm/core_slice.hh"
#include "tm/core_types.hh"
#include "tm/module.hh"
#include "tm/modules/mem_mod.hh"
#include "tm/modules/smp_mem.hh"
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

    /** Core `i`'s pipeline: drain port, protocol events and state,
     *  commit hook (tm::Core::slice() is the one-core counterpart). */
    CoreSlice &slice(unsigned i) { return *slices_.at(i); }
    const CoreSlice &slice(unsigned i) const { return *slices_.at(i); }

    /** Committed instructions summed over every core. */
    std::uint64_t committedInstsTotal() const;

    /** Every slice quiesced.  Coherence tokens may legally remain in
     *  flight (a pending ifetch miss survives a drain exactly as the
     *  single core's busy-until did); they are serialized. */
    bool quiescedForSnapshot() const;

    void saveState(serialize::Sink &s) const;
    void restoreState(serialize::Source &s);

    // --- observation ------------------------------------------------------
    const ModuleRegistry &registry() const { return registry_; }
    const BspScheduler *bspScheduler() const { return sched_.get(); }
    modules::SmpL1Module &l1i(unsigned i) { return *mems_.at(i)->l1i; }
    modules::SmpL1Module &l1d(unsigned i) { return *mems_.at(i)->l1d; }
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
    /** One core's side of the coherence fabric.  The L1s are built by
     *  the core's slice once its CoreState exists (they are bound to it). */
    struct CoreMem
    {
        CoreMem(const CoreConfig &cfg, const std::string &prefix);

        modules::MemFabric fx; //!< per-core edges; l2<->mem pair unused
        Connector<modules::SnoopMsg> snoop;
        std::unique_ptr<modules::SmpL1Module> l1i;
        std::unique_ptr<modules::SmpL1Module> l1d;
    };

    CoreConfig cfg_;
    modules::MemFabric smpFx_; //!< shared fabric: only l2<->mem edges used
    modules::MemModule mem_;
    std::vector<std::unique_ptr<CoreMem>> mems_;
    std::vector<std::unique_ptr<CoreSlice>> slices_;
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
