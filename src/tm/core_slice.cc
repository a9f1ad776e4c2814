#include "tm/core_slice.hh"

namespace fastsim {
namespace tm {

CoreSlice::CoreSlice(
    const CoreConfig &cfg, TraceBuffer &tb, modules::MemFabric &fx,
    const std::string &prefix,
    const std::function<L1Ports(modules::CoreState &)> &make_l1s)
    : cfg_(cfg), bp_(makeBranchPredictor(cfg.bp)),
      itlb_(prefix + "itlb", cfg.itlbEntries, cfg.tlbMissPenalty),
      state_(cfg, resolveTopology(cfg), prefix), l1_(make_l1s(state_)),
      commit_(cfg, state_, tb, prefix), writeback_(cfg, state_, prefix),
      issueExec_(cfg, state_, l1_.l1d, fx, prefix),
      dispatch_(cfg, state_, prefix),
      fetch_(cfg, state_, tb, *bp_, l1_.l1i, itlb_, fx, prefix),
      pipe_{&state_.fetchToDispatch, &state_.dispatchToIssue,
            &state_.execToWriteback, &state_.writebackToCommit,
            &state_.commitToFetch}
{
    state_.onCommit = &onCommit;
}

std::vector<TmEvent>
CoreSlice::drainEvents()
{
    std::vector<TmEvent> out;
    out.swap(state_.events);
    return out;
}

bool
CoreSlice::quiesced() const
{
    return drained() && state_.dispatchToIssue.empty() &&
           state_.execToWriteback.empty() &&
           state_.writebackToCommit.empty() && state_.commitToFetch.empty() &&
           !state_.awaitingResteer && !state_.drainForMispredict &&
           !state_.serializeInFlight && state_.robUops == 0;
}

bool
CoreSlice::robHasException() const
{
    for (const modules::DynInst &di : state_.rob)
        if (di.e.exception)
            return true;
    bool found = false;
    state_.fetchToDispatch.forEachValue([&found](const modules::DynInst &di) {
        if (di.e.exception)
            found = true;
    });
    return found;
}

void
CoreSlice::addStages(ModuleRegistry &r)
{
    r.add(commit_);
    r.add(writeback_);
    r.add(issueExec_);
    r.add(dispatch_);
    r.add(fetch_);
}

void
CoreSlice::noteConnectors(ModuleRegistry &r)
{
    for (ConnectorBase *c : pipe_)
        r.noteConnector(*c);
}

void
CoreSlice::joinSyncDomain(std::initializer_list<Module *> also)
{
    for (Module *m : std::initializer_list<Module *>{
             &commit_, &writeback_, &issueExec_, &dispatch_, &fetch_, &itlb_})
        m->setSyncDomain(&state_);
    for (Module *m : also)
        m->setSyncDomain(&state_);
}

void
CoreSlice::addFpgaCost(FpgaCost &c) const
{
    c += bp_->cost();
    c.blockRams += 24.0 + (cfg_.issueWidth > 1 ? 3.2 : 0.0);
    c.slices += 1200.0;
}

// --- snapshot support --------------------------------------------------------

void
CoreSlice::saveState(serialize::Sink &s) const
{
    fastsim_assert(quiesced() && state_.events.empty());

    s.put<std::uint64_t>(state_.seqGen);
    s.put<std::uint64_t>(state_.committedInsts);
    s.put<std::uint64_t>(state_.committedUops);
    s.put<InstNum>(state_.nextFetchIn);
    s.put<Epoch>(state_.expectedEpoch);
    s.put<Cycle>(state_.fetchBusyUntil);
    s.put<std::uint8_t>(state_.drainRequested);
    s.put<std::uint64_t>(state_.bbCount);
    s.put<std::uint64_t>(state_.intIcacheAcc);
    s.put<std::uint64_t>(state_.intIcacheHit);
    s.put<std::uint64_t>(state_.intBranches);
    s.put<std::uint64_t>(state_.intMispredicts);
    s.put<std::uint64_t>(state_.intDrainCycles);
    s.put<std::uint64_t>(state_.intCycles);
    for (const auto *v :
         {&state_.aluFreeAt, &state_.buFreeAt, &state_.lsuFreeAt}) {
        s.put<std::uint32_t>(static_cast<std::uint32_t>(v->size()));
        for (Cycle c : *v)
            s.put<Cycle>(c);
    }
    bp_->save(s);
}

void
CoreSlice::restoreState(serialize::Source &s, Cycle cycle)
{
    state_.cycle = cycle;
    state_.seqGen = s.get<std::uint64_t>();
    state_.committedInsts = s.get<std::uint64_t>();
    state_.committedUops = s.get<std::uint64_t>();
    state_.nextFetchIn = s.get<InstNum>();
    state_.expectedEpoch = s.get<Epoch>();
    state_.fetchBusyUntil = s.get<Cycle>();
    state_.drainRequested = s.get<std::uint8_t>();
    state_.bbCount = s.get<std::uint64_t>();
    state_.intIcacheAcc = s.get<std::uint64_t>();
    state_.intIcacheHit = s.get<std::uint64_t>();
    state_.intBranches = s.get<std::uint64_t>();
    state_.intMispredicts = s.get<std::uint64_t>();
    state_.intDrainCycles = s.get<std::uint64_t>();
    state_.intCycles = s.get<std::uint64_t>();
    for (auto *v : {&state_.aluFreeAt, &state_.buFreeAt, &state_.lsuFreeAt}) {
        s.require(s.get<std::uint32_t>() == v->size(),
                  "functional-unit count mismatch");
        for (Cycle &c : *v)
            c = s.get<Cycle>();
    }
    bp_->restore(s);

    // In-flight state: a quiesced boundary has none.
    state_.rob.clear();
    state_.doneSeqs.clear();
    state_.retireReady.clear();
    state_.robUops = 0;
    state_.rsUsed = 0;
    state_.lsqUsed = 0;
    state_.awaitingResteer = false;
    state_.drainForMispredict = false;
    state_.serializeInFlight = false;
    state_.events.clear();
    state_.rebuildRenameTable();
}

void
CoreSlice::saveConnectorStats(serialize::Sink &s) const
{
    for (const ConnectorBase *c : pipe_)
        serialize::putGroup(s, c->stats());
}

void
CoreSlice::restoreConnectorStats(serialize::Source &s)
{
    for (ConnectorBase *c : pipe_)
        serialize::getGroup(s, c->stats());
}

} // namespace tm
} // namespace fastsim
