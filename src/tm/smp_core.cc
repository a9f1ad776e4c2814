#include "tm/smp_core.hh"

#include "tm/bsp.hh"

namespace fastsim {
namespace tm {

using modules::SmpL1Module;

SmpCore::CoreMem::CoreMem(const CoreConfig &cfg, const std::string &prefix)
    : fx(resolveMemTopology(cfg), prefix),
      snoop(prefix + "snoop", ConnectorParams{0, 0, 1, 0})
{
}

SmpCore::~SmpCore() = default;

SmpCore::SmpCore(const CoreConfig &cfg, std::vector<TraceBuffer *> tbs)
    : cfg_(cfg), smpFx_(resolveMemTopology(cfg), "smp."),
      mem_(cfg.caches.memLatency, cfg.mem.memServiceInterval, smpFx_,
           "smp."),
      stats_("smp_core")
{
    fastsim_assert(!tbs.empty() && tbs.size() <= 32);
    for (unsigned i = 0; i < tbs.size(); ++i) {
        const std::string prefix = "c" + std::to_string(i) + ".";
        CoreMem &m = *mems_.emplace_back(
            std::make_unique<CoreMem>(cfg_, prefix));
        auto make_l1s = [&](modules::CoreState &st) {
            const HierarchyParams &c = cfg_.caches;
            m.l1i = std::make_unique<SmpL1Module>(
                c.l1i, SmpL1Module::Role::Instr, i,
                effectiveMshrDepth(c.l1i, cfg_.mem.l1iMshrs), st,
                m.fx.l1iToL2, m.fx.l2ToL1i, m.fx.fetchToL1i, m.fx.l1iToFetch,
                nullptr, prefix);
            m.l1d = std::make_unique<SmpL1Module>(
                c.l1d, SmpL1Module::Role::Data, i,
                effectiveMshrDepth(c.l1d, cfg_.mem.l1dMshrs), st,
                m.fx.l1dToL2, m.fx.l2ToL1d, m.fx.issueToL1d, m.fx.l1dToIssue,
                &m.snoop, prefix);
            m.l1d->setSibling(m.l1i.get());
            return CoreSlice::L1Ports{*m.l1i, *m.l1d};
        };
        slices_.push_back(std::make_unique<CoreSlice>(cfg_, *tbs[i], m.fx,
                                                      prefix, make_l1s));
    }

    std::vector<modules::SmpCoreLinks> links;
    for (auto &m : mems_)
        links.push_back({&m->fx.l1iToL2, &m->fx.l1dToL2, &m->fx.l2ToL1i,
                         &m->fx.l2ToL1d, &m->snoop});
    l2_ = std::make_unique<modules::SharedL2Module>(
        cfg_.caches.l2,
        effectiveMshrDepth(cfg_.caches.l2, cfg_.mem.l2Mshrs),
        /*dirty_penalty=*/cfg_.caches.l2.hitLatency * 2, std::move(links),
        modules::MemLink{&smpFx_.l2ToMem, &smpFx_.memToL2}, mem_);

    // Core-major registration, single-core stage order within a slice;
    // the shared L2/mem tick last so a request launched in cycle T is
    // never serviced before T+1 — identical to the barrier semantics of
    // a partitioned run.
    for (unsigned i = 0; i < numCores(); ++i) {
        slices_[i]->addStages(registry_);
        registry_.add(*mems_[i]->l1i);
        registry_.add(*mems_[i]->l1d);
        registry_.add(slices_[i]->itlb());
    }
    registry_.add(*l2_);
    registry_.add(mem_);

    for (unsigned i = 0; i < numCores(); ++i) {
        slices_[i]->noteConnectors(registry_);
        CoreMem &m = *mems_[i];
        registry_.noteConnector(m.fx.fetchToL1i);
        registry_.noteConnector(m.fx.l1iToFetch);
        registry_.noteConnector(m.fx.issueToL1d);
        registry_.noteConnector(m.fx.l1dToIssue);
        registry_.noteConnector(m.fx.l1iToL2);
        registry_.noteConnector(m.fx.l2ToL1i);
        registry_.noteConnector(m.fx.l1dToL2);
        registry_.noteConnector(m.fx.l2ToL1d);
        registry_.noteConnector(m.snoop);
        // The core's own l2_to_mem/mem_to_l2 pair is deliberately
        // unused (misses go to the *shared* L2) and stays un-noted so
        // the fabric graph carries no dangling edges (FAB002).
    }
    registry_.noteConnector(smpFx_.l2ToMem);
    registry_.noteConnector(smpFx_.memToL2);
    registry_.setPerCycleOverhead(2 + cfg_.statsHostOverhead);

    // Sync domains: each core's slice and L1s share that core's
    // CoreState (l1d also invalidates its sibling's tags); the shared
    // L2 and the memory model speak synchronously through smpFx_.  The
    // partitioner thus proves numCores + 1 partitions, every cut edge a
    // latency >= 1, unbounded coherence Connector (FAB013).
    for (unsigned i = 0; i < numCores(); ++i)
        slices_[i]->joinSyncDomain({mems_[i]->l1i.get(), mems_[i]->l1d.get()});
    l2_->setSyncDomain(&smpFx_);
    mem_.setSyncDomain(&smpFx_);

    sched_ = BspScheduler::forThreads(registry_, cfg_.tmThreads);
}

void
SmpCore::tick()
{
    unsigned host;
    if (sched_) {
        sched_->driverRole.assertHeld();
        host = sched_->tickAll(cycle_);
    } else {
        host = registry_.tickAll(cycle_);
    }
    hostCycles_ += host;
    ++cycle_;
    for (auto &s : slices_) {
        s->state().cycle = cycle_;
        ++s->state().intCycles;
    }
}

std::uint64_t
SmpCore::committedInstsTotal() const
{
    std::uint64_t n = 0;
    for (const auto &s : slices_)
        n += s->state().committedInsts;
    return n;
}

bool
SmpCore::quiescedForSnapshot() const
{
    for (const auto &s : slices_)
        if (!s->quiesced())
            return false;
    return true;
}

std::size_t
SmpCore::coherenceTokensInFlight(unsigned i) const
{
    const CoreMem &m = *mems_.at(i);
    return m.fx.l1iToL2.size() + m.fx.l2ToL1i.size() + m.fx.l1dToL2.size() +
           m.fx.l2ToL1d.size() + m.snoop.size();
}

// --- snapshot support --------------------------------------------------------

void
SmpCore::saveState(serialize::Sink &s) const
{
    s.put<Cycle>(cycle_);
    s.put<HostCycle>(hostCycles_);
    for (const auto &sp : slices_)
        sp->saveState(s);

    // Modules (L1 tags + pending/dirty lines, L2 tags + MSHRs +
    // directory, mem, iTLB, stage stats) in registration order.
    registry_.saveAll(s);

    // In-flight coherence tokens: a quiesced boundary legally carries
    // outstanding ifetch fills and snoop invalidates.
    for (unsigned i = 0; i < numCores(); ++i) {
        mems_[i]->fx.save(s);
        mems_[i]->snoop.saveState(s);
        slices_[i]->saveConnectorStats(s);
    }
    smpFx_.save(s);
}

void
SmpCore::restoreState(serialize::Source &s)
{
    cycle_ = s.get<Cycle>();
    hostCycles_ = s.get<HostCycle>();
    for (auto &sp : slices_)
        sp->restoreState(s, cycle_);

    registry_.restoreAll(s);

    for (unsigned i = 0; i < numCores(); ++i) {
        mems_[i]->fx.restore(s);
        mems_[i]->snoop.restoreState(s);
        slices_[i]->restoreConnectorStats(s);
    }
    smpFx_.restore(s);
}

FpgaCost
SmpCore::fpgaCost() const
{
    FpgaCost c = registry_.fpgaCost();
    for (const auto &s : slices_)
        s->addFpgaCost(c);
    return c;
}

} // namespace tm
} // namespace fastsim
