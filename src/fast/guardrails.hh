/**
 * @file
 * Runtime guardrails for the FM<->TM pipeline: a progress watchdog with
 * structured deadlock diagnosis, periodic FM-vs-TM architectural
 * cross-checks at commit boundaries, and a committed-instruction hash
 * chain used by fault-injection campaigns and kill-and-resume tests to
 * prove bit-identical recovery.
 *
 * Every runner owns one Guardrails instance and drives it the same way:
 * notePoll() once per tick/loop iteration (the watchdog counts polls, not
 * cycles, so it also fires when the parallel runner's tick gate wedges),
 * crossCheck() after protocol events are applied (the only point where
 * the FM/TM epoch and boundary invariants are stable), and onCommitEntry()
 * for every committed instruction, in core order, when hashing is enabled.
 */

#ifndef FASTSIM_FAST_GUARDRAILS_HH
#define FASTSIM_FAST_GUARDRAILS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/serialize.hh"
#include "base/statistics.hh"
#include "base/thread_annotations.hh"
#include "fm/func_model.hh"
#include "fm/trace_entry.hh"
#include "tm/core.hh"
#include "tm/trace_buffer.hh"

namespace fastsim {
namespace fast {

class ProtocolEngine;

/**
 * What the guardrails read of one core: its functional model and trace
 * ring plus its pipeline slice's protocol state (tm::CoreSlice::state).
 * The coupled loop builds one per core.
 */
struct CoreView
{
    const fm::FuncModel &fm;
    const tm::TraceBuffer &tb;
    const tm::modules::CoreState &tm;
    bool drained = false;
    std::size_t coherenceTokens = 0; //!< in-flight coherence tokens (SMP)
};

/** Guardrail configuration (defaults keep every guardrail cheap or off). */
struct GuardrailConfig
{
    /**
     * Progress watchdog: number of consecutive polls (ticks / loop
     * iterations) without a committed-instruction advance before the
     * watchdog fires.  0 disables.  The default is generous enough that
     * legitimate stalls (drain + icache miss chains, halted-waiting-for-
     * timer gaps) stay far below it.
     */
    std::uint64_t watchdogBudget = 50'000'000;

    /** Fire behaviour: fatal() with the diagnosis, or warn and continue
     *  (the parallel runner may instead degrade to coupled mode). */
    bool watchdogFatal = false;

    /** Cross-check the FM/TM invariants every N committed instructions.
     *  0 disables. */
    std::uint64_t crossCheckEveryCommits = 0;

    /** Chain an FNV hash over every committed (in, pc, op).  Costs one
     *  std::function call per commit, so it is opt-in. */
    bool hashCommits = false;

    /** Parallel runner only: on watchdog fire, drain and fall back to
     *  coupled mode instead of dying. */
    bool degradeOnWatchdog = false;
};

/**
 * The guardrail engine.  Counters land in the provided stats group:
 * watchdog_fires, cross_checks, hashed_commits.
 */
class Guardrails
{
  public:
    Guardrails(const GuardrailConfig &cfg, stats::Group &stats);

    /**
     * The watchdog/diagnosis/cross-check state is single-owner: the
     * thread driving the simulation loop (the TM thread in the parallel
     * runner, the only thread in the coupled one).  Ownership migrates
     * at well-defined joins — run() re-asserts the role after the FM
     * thread is joined.  The hash accessors (commitHash, crossCheckHash,
     * save) stay role-free: they are read cross-thread after completion.
     */
    ThreadRole ownerRole;

    // --- progress watchdog -------------------------------------------------
    /**
     * Record one poll.  @return true exactly once per stall: when the
     * no-progress budget is first exceeded.  The caller decides whether
     * to diagnose-and-die, warn, or degrade.
     *
     * `aux_progress` is an optional second monotonic progress signal: the
     * parallel runner passes the FM thread's produced+applied counter so
     * that a TM thread parked behind a legitimately busy FM (epoch
     * rendezvous, trace-ring refill) does not accumulate watchdog polls —
     * the watchdog only fires when *neither* side is moving.  The coupled
     * runner leaves it 0 (never advances), preserving the old behaviour.
     */
    bool notePoll(std::uint64_t committed_insts, std::uint64_t aux_progress = 0)
        FASTSIM_REQUIRES(ownerRole);

    bool
    watchdogFired() const FASTSIM_REQUIRES(ownerRole)
    {
        return fired_;
    }

    /** Re-arm after the caller handled a fire (e.g. degradation). */
    void
    rearmWatchdog() FASTSIM_REQUIRES(ownerRole)
    {
        fired_ = false;
        pollsSinceProgress_ = 0;
    }

    // --- structured diagnosis ----------------------------------------------
    /**
     * Build the structured no-progress diagnosis: one block per core with
     * its committed/fetch positions, protocol flags (drain/resteer/
     * serialize), FM speculation state, trace-ring occupancy and in-flight
     * coherence tokens, then the protocol engine's in-flight state and
     * every Connector occupancy of `fabric` — so a wedged run names the
     * core (and the edge) that stopped moving.  `runner_state` is
     * appended verbatim when non-empty — the parallel runner uses it for
     * park/wake counters and epoch-window state.
     */
    std::string diagnose(Cycle cycle, const std::vector<CoreView> &cores,
                         const ProtocolEngine &engine,
                         const tm::ModuleRegistry &fabric,
                         const std::string &runner_state = {}) const;

    const std::string &
    lastDiagnosis() const FASTSIM_REQUIRES(ownerRole)
    {
        return lastDiagnosis_;
    }
    void
    noteDiagnosis(std::string d) FASTSIM_REQUIRES(ownerRole)
    {
        lastDiagnosis_ = std::move(d);
    }

    // --- FM-vs-TM cross-check ----------------------------------------------
    /** True when the commit count has advanced past the next check point. */
    bool crossCheckDue(std::uint64_t committed_insts) const
        FASTSIM_REQUIRES(ownerRole);

    /**
     * Verify every core's FM/TM lockstep invariants at a commit boundary
     * (epoch equality, IN ordering) and fold each core's committed
     * architectural state and speculative-memory checksum into the
     * cross-check hash, in core order.  fatal()s with a structured
     * message on violation.
     *
     * Call only after the runner applied all pending protocol events —
     * between TM event emission and FM appliance the epochs legitimately
     * disagree.
     */
    void crossCheck(const std::vector<CoreView> &cores,
                    std::uint64_t committed_total) FASTSIM_REQUIRES(ownerRole);

    std::uint64_t crossCheckHash() const { return crossHash_; }

    // --- commit hash chain --------------------------------------------------
    /** Fold one committed instruction into the hash chain. */
    void
    onCommitEntry(const fm::TraceEntry &e) FASTSIM_REQUIRES(ownerRole)
    {
        auto mix = [this](std::uint64_t v) {
            for (unsigned i = 0; i < 8; ++i) {
                commitHash_ ^= (v >> (8 * i)) & 0xFF;
                commitHash_ *= 1099511628211ull;
            }
        };
        mix(e.in);
        mix(e.pc);
        mix(static_cast<std::uint64_t>(e.op));
        ++stHashedCommits_;
    }

    std::uint64_t commitHash() const { return commitHash_; }

    const GuardrailConfig &config() const { return cfg_; }

    // --- snapshot support ---------------------------------------------------
    void
    save(serialize::Sink &s) const
    {
        s.put<std::uint64_t>(commitHash_);
        s.put<std::uint64_t>(crossHash_);
        s.put<std::uint64_t>(nextCrossCheckAt_);
    }

    void
    restore(serialize::Source &s) FASTSIM_REQUIRES(ownerRole)
    {
        commitHash_ = s.get<std::uint64_t>();
        crossHash_ = s.get<std::uint64_t>();
        nextCrossCheckAt_ = s.get<std::uint64_t>();
        pollsSinceProgress_ = 0;
        fired_ = false;
    }

  private:
    GuardrailConfig cfg_;

    // Watchdog + diagnosis state: written on every poll, owner-only.
    std::uint64_t lastCommitted_ FASTSIM_GUARDED_BY(ownerRole) = 0;
    std::uint64_t lastAux_ FASTSIM_GUARDED_BY(ownerRole) = 0;
    std::uint64_t pollsSinceProgress_ FASTSIM_GUARDED_BY(ownerRole) = 0;
    bool fired_ FASTSIM_GUARDED_BY(ownerRole) = false;
    std::string lastDiagnosis_ FASTSIM_GUARDED_BY(ownerRole);

    std::uint64_t nextCrossCheckAt_ = 0;
    std::uint64_t crossHash_ = 1469598103934665603ull;
    std::uint64_t commitHash_ = 1469598103934665603ull;

    stats::Handle stWatchdogFires_;
    stats::Handle stCrossChecks_;
    stats::Handle stHashedCommits_;
};

} // namespace fast
} // namespace fastsim

#endif // FASTSIM_FAST_GUARDRAILS_HH
