#include "fast/guardrails.hh"

#include <cstdio>

#include "fast/protocol.hh"

namespace fastsim {
namespace fast {

Guardrails::Guardrails(const GuardrailConfig &cfg, stats::Group &stats)
    : cfg_(cfg), nextCrossCheckAt_(cfg.crossCheckEveryCommits),
      stWatchdogFires_(stats.handle("watchdog_fires")),
      stCrossChecks_(stats.handle("cross_checks")),
      stHashedCommits_(stats.handle("hashed_commits"))
{
}

bool
Guardrails::notePoll(std::uint64_t committed_insts, std::uint64_t aux_progress)
{
    if (cfg_.watchdogBudget == 0)
        return false;
    if (committed_insts != lastCommitted_ || aux_progress != lastAux_) {
        lastCommitted_ = committed_insts;
        lastAux_ = aux_progress;
        pollsSinceProgress_ = 0;
        fired_ = false;
        return false;
    }
    ++pollsSinceProgress_;
    if (fired_ || pollsSinceProgress_ < cfg_.watchdogBudget)
        return false;
    fired_ = true;
    ++stWatchdogFires_;
    return true;
}

std::string
Guardrails::diagnose(Cycle cycle, const std::vector<CoreView> &cores,
                     const ProtocolEngine &engine,
                     const tm::ModuleRegistry &fabric,
                     const std::string &runner_state) const
{
    char line[256];
    std::string d = "no-progress watchdog: structured diagnosis\n";
    std::snprintf(line, sizeof(line),
                  "  polls without commit: %llu (budget %llu)  cycle=%llu "
                  "cores=%zu\n",
                  static_cast<unsigned long long>(pollsSinceProgress_),
                  static_cast<unsigned long long>(cfg_.watchdogBudget),
                  static_cast<unsigned long long>(cycle), cores.size());
    d += line;
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const CoreView &v = cores[c];
        std::snprintf(
            line, sizeof(line),
            "  core %zu tm: committed=%llu nextFetchIn=%llu epoch=%llu "
            "drained=%d drainReq=%d awaitResteer=%d serialize=%d "
            "mispredDrain=%d rob=%zu\n",
            c, static_cast<unsigned long long>(v.tm.committedInsts),
            static_cast<unsigned long long>(v.tm.nextFetchIn),
            static_cast<unsigned long long>(v.tm.expectedEpoch),
            v.drained ? 1 : 0, v.tm.drainRequested ? 1 : 0,
            v.tm.awaitingResteer ? 1 : 0, v.tm.serializeInFlight ? 1 : 0,
            v.tm.drainForMispredict ? 1 : 0, v.tm.rob.size());
        d += line;
        std::snprintf(
            line, sizeof(line),
            "  core %zu fm: nextIn=%llu lastCommitted=%llu epoch=%llu "
            "wrongPath=%d halted=%d undoDepth=%zu\n",
            c, static_cast<unsigned long long>(v.fm.nextIn()),
            static_cast<unsigned long long>(v.fm.lastCommitted()),
            static_cast<unsigned long long>(v.fm.epoch()),
            v.fm.onWrongPath() ? 1 : 0, v.fm.halted() ? 1 : 0,
            v.fm.undoDepth());
        d += line;
        std::snprintf(line, sizeof(line),
                      "  core %zu tb: size=%zu unfetched=%zu "
                      "expectedNextIn=%llu full=%d  coherence tokens in "
                      "flight=%zu\n",
                      c, v.tb.size(), v.tb.unfetched(),
                      static_cast<unsigned long long>(v.tb.expectedNextIn()),
                      v.tb.full() ? 1 : 0, v.coherenceTokens);
        d += line;
    }
    std::snprintf(line, sizeof(line),
                  "  protocol engine (core 0 devices): injectionPending=%d\n",
                  engine.injectionPending() ? 1 : 0);
    d += line;
    d += "  connector occupancies:\n";
    for (const tm::ConnectorBase *c : fabric.connectors()) {
        std::snprintf(line, sizeof(line), "    %-24s size=%zu\n",
                      c->name().c_str(), c->size());
        d += line;
    }
    if (!runner_state.empty())
        d += runner_state;
    return d;
}

bool
Guardrails::crossCheckDue(std::uint64_t committed_insts) const
{
    return cfg_.crossCheckEveryCommits != 0 &&
           committed_insts >= nextCrossCheckAt_;
}

void
Guardrails::crossCheck(const std::vector<CoreView> &cores,
                       std::uint64_t committed_total)
{
    auto mix = [this](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            crossHash_ ^= (v >> (8 * i)) & 0xFF;
            crossHash_ *= 1099511628211ull;
        }
    };
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const fm::FuncModel &f = cores[c].fm;
        const tm::modules::CoreState &t = cores[c].tm;
        // Lockstep invariants: both sides agree on the speculation epoch
        // and the committed/fetch boundary ordering.
        if (f.epoch() != t.expectedEpoch)
            fatal("cross-check: core %zu FM epoch %llu != TM expected epoch "
                  "%llu (committed=%llu nextFetchIn=%llu fmNextIn=%llu)",
                  c, static_cast<unsigned long long>(f.epoch()),
                  static_cast<unsigned long long>(t.expectedEpoch),
                  static_cast<unsigned long long>(t.committedInsts),
                  static_cast<unsigned long long>(t.nextFetchIn),
                  static_cast<unsigned long long>(f.nextIn()));
        if (!(f.lastCommitted() < t.nextFetchIn &&
              t.nextFetchIn <= f.nextIn() + 1))
            fatal("cross-check: core %zu boundary ordering violated "
                  "(fmLastCommitted=%llu < tmNextFetchIn=%llu <= "
                  "fmNextIn+1=%llu)",
                  c, static_cast<unsigned long long>(f.lastCommitted()),
                  static_cast<unsigned long long>(t.nextFetchIn),
                  static_cast<unsigned long long>(f.nextIn() + 1));

        // Fold the committed architectural state (undo-walk
        // reconstruction) and the dirty speculative-memory checksum into
        // the chain; two runs that diverge architecturally produce
        // different chains even if the invariants above still hold.
        const fm::ArchState st = f.committedArchState();
        for (std::uint32_t v : st.gpr)
            mix(v);
        mix(st.flags);
        mix(st.pc);
        for (std::uint32_t v : st.ctrl)
            mix(v);
        mix(f.speculativeMemChecksum());
        mix(t.committedInsts);
    }
    nextCrossCheckAt_ = committed_total + cfg_.crossCheckEveryCommits;
    ++stCrossChecks_;
}

} // namespace fast
} // namespace fastsim
