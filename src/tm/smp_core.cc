#include "tm/smp_core.hh"

#include "tm/bsp.hh"

namespace fastsim {
namespace tm {

using modules::CoreState;
using modules::SmpL1Module;

/**
 * One core slice: the single-core fabric under a "cN." prefix, sync-
 * domained on its own CoreState, with SMP L1s in place of the synchronous
 * cache hierarchy.
 */
struct SmpCore::Slice : CoreDrainPort
{
    Slice(const CoreConfig &cfg, unsigned id_, TraceBuffer &tb_)
        : id(id_), prefix("c" + std::to_string(id_) + "."), tb(tb_),
          bp(makeBranchPredictor(cfg.bp)),
          fx(resolveMemTopology(cfg), prefix),
          snoop(prefix + "snoop", ConnectorParams{0, 0, 1, 0}),
          itlb(prefix + "itlb", cfg.itlbEntries, cfg.tlbMissPenalty),
          state(cfg, resolveTopology(cfg), prefix),
          l1i(cfg.caches.l1i, SmpL1Module::Role::Instr, id_,
              effectiveMshrDepth(cfg.caches.l1i, cfg.mem.l1iMshrs), state,
              fx.l1iToL2, fx.l2ToL1i, fx.fetchToL1i, fx.l1iToFetch,
              nullptr, prefix),
          l1d(cfg.caches.l1d, SmpL1Module::Role::Data, id_,
              effectiveMshrDepth(cfg.caches.l1d, cfg.mem.l1dMshrs), state,
              fx.l1dToL2, fx.l2ToL1d, fx.issueToL1d, fx.l1dToIssue, &snoop,
              prefix),
          commit(cfg, state, tb_, prefix), writeback(cfg, state, prefix),
          issueExec(cfg, state, l1d, fx, prefix),
          dispatch(cfg, state, prefix),
          fetch(cfg, state, tb_, *bp, l1i, itlb, fx, prefix)
    {
        l1d.setSibling(&l1i);
        state.onCommit = &onCommitFn;
    }

    unsigned id = 0;
    std::string prefix;
    TraceBuffer &tb;
    std::unique_ptr<BranchPredictor> bp;
    modules::MemFabric fx; //!< per-core edges; l2<->mem pair unused
    Connector<modules::SnoopMsg> snoop;
    modules::TlbModule itlb;
    CoreState state;
    SmpL1Module l1i;
    SmpL1Module l1d;
    modules::CommitModule commit;
    modules::WritebackModule writeback;
    modules::IssueExecModule issueExec;
    modules::DispatchModule dispatch;
    modules::FetchModule fetch;
    std::function<void(const fm::TraceEntry &)> onCommitFn;

    // --- CoreDrainPort (driven by this core's ProtocolEngine) ------------
    void requestDrain() override { state.drainRequested = true; }
    bool
    drained() const override
    {
        return state.rob.empty() && state.fetchToDispatch.empty();
    }
    InstNum nextFetchIn() const override { return state.nextFetchIn; }
    void
    noteResteer() override
    {
        ++state.expectedEpoch;
        state.drainRequested = false;
    }

    bool
    quiesced() const
    {
        return drained() && state.dispatchToIssue.empty() &&
               state.execToWriteback.empty() &&
               state.writebackToCommit.empty() &&
               state.commitToFetch.empty() && !state.awaitingResteer &&
               !state.drainForMispredict && !state.serializeInFlight &&
               state.robUops == 0;
    }
};

SmpCore::~SmpCore() = default;

SmpCore::SmpCore(const CoreConfig &cfg, std::vector<TraceBuffer *> tbs)
    : cfg_(cfg), smpFx_(resolveMemTopology(cfg), "smp."),
      mem_(cfg.caches.memLatency, cfg.mem.memServiceInterval, smpFx_,
           "smp."),
      stats_("smp_core")
{
    fastsim_assert(!tbs.empty() && tbs.size() <= 32);
    for (unsigned i = 0; i < tbs.size(); ++i)
        slices_.push_back(std::make_unique<Slice>(cfg_, i, *tbs[i]));

    std::vector<modules::SmpCoreLinks> links;
    for (auto &s : slices_)
        links.push_back({&s->fx.l1iToL2, &s->fx.l1dToL2, &s->fx.l2ToL1i,
                         &s->fx.l2ToL1d, &s->snoop});
    l2_ = std::make_unique<modules::SharedL2Module>(
        cfg_.caches.l2,
        effectiveMshrDepth(cfg_.caches.l2, cfg_.mem.l2Mshrs),
        /*dirty_penalty=*/cfg_.caches.l2.hitLatency * 2, std::move(links),
        modules::MemLink{&smpFx_.l2ToMem, &smpFx_.memToL2}, mem_);

    // Core-major registration, single-core stage order within a slice;
    // the shared L2/mem tick last so a request launched in cycle T is
    // never serviced before T+1 — identical to the barrier semantics of
    // a partitioned run.
    for (auto &s : slices_) {
        registry_.add(s->commit);
        registry_.add(s->writeback);
        registry_.add(s->issueExec);
        registry_.add(s->dispatch);
        registry_.add(s->fetch);
        registry_.add(s->l1i);
        registry_.add(s->l1d);
        registry_.add(s->itlb);
    }
    registry_.add(*l2_);
    registry_.add(mem_);

    for (auto &s : slices_) {
        registry_.noteConnector(s->state.fetchToDispatch);
        registry_.noteConnector(s->state.dispatchToIssue);
        registry_.noteConnector(s->state.execToWriteback);
        registry_.noteConnector(s->state.writebackToCommit);
        registry_.noteConnector(s->state.commitToFetch);
        registry_.noteConnector(s->fx.fetchToL1i);
        registry_.noteConnector(s->fx.l1iToFetch);
        registry_.noteConnector(s->fx.issueToL1d);
        registry_.noteConnector(s->fx.l1dToIssue);
        registry_.noteConnector(s->fx.l1iToL2);
        registry_.noteConnector(s->fx.l2ToL1i);
        registry_.noteConnector(s->fx.l1dToL2);
        registry_.noteConnector(s->fx.l2ToL1d);
        registry_.noteConnector(s->snoop);
        // The slice's own l2_to_mem/mem_to_l2 pair is deliberately
        // unused (misses go to the *shared* L2) and stays un-noted so
        // the fabric graph carries no dangling edges (FAB002).
    }
    registry_.noteConnector(smpFx_.l2ToMem);
    registry_.noteConnector(smpFx_.memToL2);
    registry_.setPerCycleOverhead(2 + cfg_.statsHostOverhead);

    // Sync domains: each slice's stages, L1s and iTLB share that core's
    // CoreState (l1d also invalidates its sibling's tags); the shared
    // L2 and the memory model speak synchronously through smpFx_.  The
    // partitioner thus proves numCores + 1 partitions, every cut edge a
    // latency >= 1, unbounded coherence Connector (FAB013).
    for (auto &s : slices_) {
        Module *mods[] = {&s->commit, &s->writeback, &s->issueExec,
                          &s->dispatch, &s->fetch, &s->l1i, &s->l1d,
                          &s->itlb};
        for (Module *m : mods)
            m->setSyncDomain(&s->state);
    }
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
        s->state.cycle = cycle_;
        ++s->state.intCycles;
    }
}

CoreDrainPort &
SmpCore::drainPort(unsigned i)
{
    return *slices_.at(i);
}

std::vector<TmEvent>
SmpCore::drainEvents(unsigned i)
{
    std::vector<TmEvent> out;
    out.swap(slices_.at(i)->state.events);
    return out;
}

std::uint64_t
SmpCore::committedInstsTotal() const
{
    std::uint64_t n = 0;
    for (const auto &s : slices_)
        n += s->state.committedInsts;
    return n;
}

void
SmpCore::clearDrainRequest(unsigned i)
{
    slices_.at(i)->state.drainRequested = false;
}

void
SmpCore::setOnCommit(unsigned i,
                     std::function<void(const fm::TraceEntry &)> fn)
{
    slices_.at(i)->onCommitFn = std::move(fn);
}

const CoreState &
SmpCore::sliceState(unsigned i) const
{
    return slices_.at(i)->state;
}

bool
SmpCore::sliceDrained(unsigned i) const
{
    return slices_.at(i)->drained();
}

bool
SmpCore::quiescedForSnapshot() const
{
    for (const auto &s : slices_)
        if (!s->quiesced())
            return false;
    return true;
}

SmpL1Module &
SmpCore::l1i(unsigned i)
{
    return slices_.at(i)->l1i;
}

SmpL1Module &
SmpCore::l1d(unsigned i)
{
    return slices_.at(i)->l1d;
}

std::size_t
SmpCore::coherenceTokensInFlight(unsigned i) const
{
    const Slice &s = *slices_.at(i);
    return s.fx.l1iToL2.size() + s.fx.l2ToL1i.size() +
           s.fx.l1dToL2.size() + s.fx.l2ToL1d.size() + s.snoop.size();
}

// --- snapshot support --------------------------------------------------------

void
SmpCore::saveState(serialize::Sink &s) const
{
    fastsim_assert(quiescedForSnapshot());

    s.put<Cycle>(cycle_);
    s.put<HostCycle>(hostCycles_);
    for (const auto &sp : slices_) {
        const CoreState &st = sp->state;
        fastsim_assert(st.events.empty());
        s.put<std::uint64_t>(st.seqGen);
        s.put<std::uint64_t>(st.committedInsts);
        s.put<std::uint64_t>(st.committedUops);
        s.put<InstNum>(st.nextFetchIn);
        s.put<Epoch>(st.expectedEpoch);
        s.put<Cycle>(st.fetchBusyUntil);
        s.put<std::uint8_t>(st.drainRequested);
        s.put<std::uint64_t>(st.bbCount);
        s.put<std::uint64_t>(st.intIcacheAcc);
        s.put<std::uint64_t>(st.intIcacheHit);
        s.put<std::uint64_t>(st.intBranches);
        s.put<std::uint64_t>(st.intMispredicts);
        s.put<std::uint64_t>(st.intDrainCycles);
        s.put<std::uint64_t>(st.intCycles);
        for (const auto *v : {&st.aluFreeAt, &st.buFreeAt, &st.lsuFreeAt}) {
            s.put<std::uint32_t>(static_cast<std::uint32_t>(v->size()));
            for (Cycle c : *v)
                s.put<Cycle>(c);
        }
        sp->bp->save(s);
    }

    // Modules (L1 tags + pending/dirty lines, L2 tags + MSHRs +
    // directory, mem, iTLB, stage stats) in registration order.
    registry_.saveAll(s);

    // In-flight coherence tokens: a quiesced boundary legally carries
    // outstanding ifetch fills and snoop invalidates.
    for (const auto &sp : slices_) {
        sp->fx.save(s);
        sp->snoop.saveState(s);
        for (const ConnectorBase *c :
             {static_cast<const ConnectorBase *>(&sp->state.fetchToDispatch),
              static_cast<const ConnectorBase *>(&sp->state.dispatchToIssue),
              static_cast<const ConnectorBase *>(&sp->state.execToWriteback),
              static_cast<const ConnectorBase *>(
                  &sp->state.writebackToCommit),
              static_cast<const ConnectorBase *>(&sp->state.commitToFetch)})
            serialize::putGroup(s, c->stats());
    }
    smpFx_.save(s);
}

void
SmpCore::restoreState(serialize::Source &s)
{
    cycle_ = s.get<Cycle>();
    hostCycles_ = s.get<HostCycle>();
    for (auto &sp : slices_) {
        CoreState &st = sp->state;
        st.cycle = cycle_;
        st.seqGen = s.get<std::uint64_t>();
        st.committedInsts = s.get<std::uint64_t>();
        st.committedUops = s.get<std::uint64_t>();
        st.nextFetchIn = s.get<InstNum>();
        st.expectedEpoch = s.get<Epoch>();
        st.fetchBusyUntil = s.get<Cycle>();
        st.drainRequested = s.get<std::uint8_t>();
        st.bbCount = s.get<std::uint64_t>();
        st.intIcacheAcc = s.get<std::uint64_t>();
        st.intIcacheHit = s.get<std::uint64_t>();
        st.intBranches = s.get<std::uint64_t>();
        st.intMispredicts = s.get<std::uint64_t>();
        st.intDrainCycles = s.get<std::uint64_t>();
        st.intCycles = s.get<std::uint64_t>();
        for (auto *v : {&st.aluFreeAt, &st.buFreeAt, &st.lsuFreeAt}) {
            s.require(s.get<std::uint32_t>() == v->size(),
                      "functional-unit count mismatch");
            for (Cycle &c : *v)
                c = s.get<Cycle>();
        }
        sp->bp->restore(s);
    }

    registry_.restoreAll(s);

    for (auto &sp : slices_) {
        sp->fx.restore(s);
        sp->snoop.restoreState(s);
        for (ConnectorBase *c :
             {static_cast<ConnectorBase *>(&sp->state.fetchToDispatch),
              static_cast<ConnectorBase *>(&sp->state.dispatchToIssue),
              static_cast<ConnectorBase *>(&sp->state.execToWriteback),
              static_cast<ConnectorBase *>(&sp->state.writebackToCommit),
              static_cast<ConnectorBase *>(&sp->state.commitToFetch)})
            serialize::getGroup(s, c->stats());

        CoreState &st = sp->state;
        st.rob.clear();
        st.doneSeqs.clear();
        st.retireReady.clear();
        st.robUops = 0;
        st.rsUsed = 0;
        st.lsqUsed = 0;
        st.awaitingResteer = false;
        st.drainForMispredict = false;
        st.serializeInFlight = false;
        st.events.clear();
        st.rebuildRenameTable();
    }
    smpFx_.restore(s);
}

FpgaCost
SmpCore::fpgaCost() const
{
    FpgaCost c = registry_.fpgaCost();
    for (const auto &s : slices_) {
        c += s->bp->cost();
        // Per-core connector overhead, as in the single-core facade.
        c.blockRams += 24.0 + (cfg_.issueWidth > 1 ? 3.2 : 0.0);
        c.slices += 1200.0;
    }
    return c;
}

} // namespace tm
} // namespace fastsim
