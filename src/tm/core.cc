#include "tm/core.hh"

#include "tm/bsp.hh"

namespace fastsim {
namespace tm {

Core::~Core() = default;

Core::Core(const CoreConfig &cfg, TraceBuffer &tb)
    : cfg_(cfg), memh_(cfg_),
      slice_(cfg_, tb, memh_.fx, "",
             [this](modules::CoreState &) {
                 return CoreSlice::L1Ports{memh_.l1i, memh_.l1d};
             }),
      stats_("core"), sIcache_("icache_hit_rate"), sBp_("bp_accuracy"),
      sDrain_("pipe_drain_pct")
{
    // Deterministic tick order: oldest stage first, then the memory
    // modules after the stages that access them, so host cycles charged
    // during stage ticks are collected in the same tickAll() pass.
    slice_.addStages(registry_);
    registry_.add(memh_.l1i);
    registry_.add(memh_.l1d);
    registry_.add(memh_.l2);
    registry_.add(memh_.mem);
    registry_.add(slice_.itlb());
    slice_.noteConnectors(registry_);
    memh_.fx.noteInto(registry_);
    // 2 host cycles of FM<->TM sync plus the §4.7 statistics mechanism.
    registry_.setPerCycleOverhead(2 + cfg_.statsHostOverhead);

    // The whole core is one sync domain: the fill walk chains down to mem
    // through synchronous calls.  (MemHierarchy's standalone &fx domain
    // is widened here.)
    slice_.joinSyncDomain({&memh_.l1i, &memh_.l1d, &memh_.l2, &memh_.mem});

    // BSP-parallel TM.  For this fully entangled single-core fabric the
    // partitioner collapses to one partition and forThreads() returns
    // null — the sequential loop is kept, and results stay bit-identical
    // at any tmThreads by construction (no scheduler to differ).
    sched_ = BspScheduler::forThreads(registry_, cfg_.tmThreads);

    stCycles_ = stats_.handle("cycles");
    stCommittedInsts_ =
        slice_.commitStage().stats().handle("committed_insts");
    stFetchedInsts_ = slice_.fetchStage().stats().handle("fetched_insts");
}

void
Core::sampleStatsFabric()
{
    modules::CoreState &st = slice_.state();
    if (st.bbCount - lastSampleBb_ < cfg_.statsIntervalBb)
        return;
    lastSampleBb_ = st.bbCount;
    const double icache =
        st.intIcacheAcc ? double(st.intIcacheHit) / double(st.intIcacheAcc)
                        : 1.0;
    const double bp =
        st.intBranches
            ? 1.0 - double(st.intMispredicts) / double(st.intBranches)
            : 1.0;
    const double drain =
        st.intCycles ? double(st.intDrainCycles) / double(st.intCycles)
                     : 0.0;
    sIcache_.record(st.bbCount, icache * 100.0);
    sBp_.record(st.bbCount, bp * 100.0);
    sDrain_.record(st.bbCount, drain * 100.0);
    st.intIcacheAcc = st.intIcacheHit = 0;
    st.intBranches = st.intMispredicts = 0;
    st.intDrainCycles = st.intCycles = 0;
}

void
Core::tick()
{
    using modules::DynInst;
    using modules::UopSlot;
    modules::CoreState &st = slice_.state();

    // One seam drives the whole fabric: connectors advance first (entries
    // pushed in earlier cycles become visible, per-cycle throughput
    // budgets re-arm), then modules tick, and the host cycles are
    // collected together with the per-cycle sync/stats overhead (§4.7).
    // With tmThreads > 1 the BSP scheduler runs the same loop split
    // across partitions with a barrier per cycle.  Whoever ticks the
    // core is the one BSP driver this cycle.
    unsigned host_this_cycle;
    if (sched_) {
        sched_->driverRole.assertHeld();
        host_this_cycle = sched_->tickAll(st.cycle);
    } else {
        host_this_cycle = registry_.tickAll(st.cycle);
    }

    ++st.intCycles;
    if (st.awaitingResteer)
        ++st.intDrainCycles; // waiting for wrong-path entries: starved
    sampleStatsFabric();

    // Run-time hardware queries (§3): free of host-cycle cost.
    if (!triggers_.empty()) {
        CycleSnapshot snap;
        snap.cycle = st.cycle;
        for (const DynInst &di : st.rob)
            for (const UopSlot &u : di.uops)
                if (u.st == UopSlot::St::Exec && u.readyAt > st.cycle)
                    ++snap.activeFus;
        snap.robOccupancy = st.robUops;
        snap.rsOccupancy = st.rsUsed;
        snap.lsqOccupancy = st.lsqUsed;
        snap.committedThisCycle = static_cast<unsigned>(
            stCommittedInsts_.value() - lastCommitSample_);
        snap.fetchedThisCycle = static_cast<unsigned>(
            stFetchedInsts_.value() - lastFetchSample_);
        snap.fetchStalled = snap.fetchedThisCycle == 0;
        snap.draining = st.drainForMispredict || st.awaitingResteer;
        lastCommitSample_ = stCommittedInsts_.value();
        lastFetchSample_ = stFetchedInsts_.value();
        for (TriggerQuery &t : triggers_)
            t.evaluate(snap);
    }

    hostCycles_ += host_this_cycle;
    ++st.cycle;
    ++stCycles_;
}

// --- snapshot support --------------------------------------------------------

void
Core::saveState(serialize::Sink &s) const
{
    s.put<Cycle>(cycle());
    slice_.saveState(s);

    s.put<HostCycle>(hostCycles_);
    s.put<std::uint64_t>(lastCommitSample_);
    s.put<std::uint64_t>(lastFetchSample_);
    s.put<std::uint64_t>(lastSampleBb_);
    for (const auto *series : {&sIcache_, &sBp_, &sDrain_}) {
        const auto &samples = series->samples();
        s.put<std::uint64_t>(samples.size());
        for (const auto &sample : samples) {
            s.put<std::uint64_t>(sample.position);
            s.put<double>(sample.value);
        }
    }

    // Cache levels, MSHR tables, the memory model and the iTLB are
    // registry modules: saveAll() covers them.  The fabric's in-flight
    // queues (legal across a quiesced boundary) follow explicitly.
    registry_.saveAll(s);
    memh_.fx.save(s);
    slice_.saveConnectorStats(s);
}

void
Core::restoreState(serialize::Source &s)
{
    const Cycle cycle = s.get<Cycle>();
    slice_.restoreState(s, cycle);

    hostCycles_ = s.get<HostCycle>();
    lastCommitSample_ = s.get<std::uint64_t>();
    lastFetchSample_ = s.get<std::uint64_t>();
    lastSampleBb_ = s.get<std::uint64_t>();
    for (auto *series : {&sIcache_, &sBp_, &sDrain_}) {
        std::vector<stats::IntervalSeries::Sample> samples(
            s.get<std::uint64_t>());
        for (auto &sample : samples) {
            sample.position = s.get<std::uint64_t>();
            sample.value = s.get<double>();
        }
        series->setSamples(std::move(samples));
    }

    registry_.restoreAll(s);
    memh_.fx.restore(s);
    slice_.restoreConnectorStats(s);
}

FpgaCost
Core::fpgaCost() const
{
    // Stage + memory modules (Table-2 rollup through the registry), then
    // the predictor and the connector overhead.
    FpgaCost c = registry_.fpgaCost();
    slice_.addFpgaCost(c);
    return c;
}

} // namespace tm
} // namespace fastsim
