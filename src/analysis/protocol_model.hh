/**
 * @file
 * fastcheck: explicit-state model checking of the FM<->TM protocol.
 *
 * The fourth analysis family (PROTnnn, alongside FAB/COD/DET).  The
 * runtime protocol — ProtocolEngine's drain-freeze-inject sequencing
 * (paper §3.4), the CmdChannel's at-least-once delivery with dedup, and
 * the parallel runner's epoch pipelining (DESIGN.md §12) — is small
 * enough to verify *exhaustively* rather than by sampling interleavings.
 * This pass abstracts it into a value-type transition system:
 *
 *  - the FM and TM are nondeterministic actors; transitions model
 *    produce/fetch/commit, mispredict + resolve resteers, serializing
 *    instructions, exception refetch, external (checkpoint) drain
 *    requests, and the timer/disk freeze-inject state machines;
 *  - the TM->FM command channel is a bounded FIFO of command kinds;
 *    fault operators (CmdDrop with link-retry retransmission, CmdDup
 *    with the dedup guard) are explored as ordinary transitions, so the
 *    exactly-once property is proven *under* faults, not around them;
 *  - every reachable state is visited by an explicit DFS over a packed
 *    64-bit encoding (FNV-hashed visited set), optionally cut by a
 *    bounded-depth frontier.
 *
 * Checks (each failure prints a named counterexample transition chain):
 *
 *   PROT001  deadlock: a reachable non-terminal state with no enabled
 *            transition (terminal = a checkpoint-quiesced boundary)
 *   PROT002  quiesce liveness: from every reachable state a checkpoint
 *            boundary remains reachable (AG EF quiesce; a livelock that
 *            never deadlocks, e.g. an injection loop that cannot drain,
 *            fails here and nowhere else)
 *   PROT003  command-channel exactly-once under fault operators: no
 *            command is ever applied twice (dup past the dedup guard)
 *            or zero times (drop without retransmission)
 *   PROT004  rewind safety: no resteer-class rewind ever targets an
 *            epoch the FM already verified (released to the commit
 *            floor)
 *
 * The shipped protocol passes all four; the `bug*` flags re-introduce
 * known-bad variants (including the PR 4 fetch drain-latch ordering) so
 * tests can prove the checker has teeth.  Soundness caveats — what the
 * abstraction deliberately leaves out — are catalogued in DESIGN.md §14.
 */

#ifndef FASTSIM_ANALYSIS_PROTOCOL_MODEL_HH
#define FASTSIM_ANALYSIS_PROTOCOL_MODEL_HH

#include <cstddef>
#include <cstdint>

#include "analysis/diagnostics.hh"

namespace fastsim {
namespace analysis {

/**
 * Model configuration: abstraction caps (state-space bounds, not protocol
 * parameters), which fault operators to explore, and the crafted-bug
 * reintroductions the tests use to prove each PROT check fires.
 */
struct ProtocolModelConfig
{
    // --- state-space bounds (encoding limits: tb/rob <= 3, chan <= 4,
    // --- epochs <= 3; checkProtocol() clamps and warns beyond them) ----
    unsigned tbCap = 2;       //!< unfetched trace-ring entries
    unsigned robCap = 2;      //!< fetched, uncommitted entries
    unsigned chanCap = 3;     //!< TM->FM commands in flight
    unsigned epochWindow = 2; //!< the parallel runner's EpochWindow

    /** Bounded-depth frontier: 0 explores exhaustively; otherwise states
     *  deeper than this are not expanded (PROT001/PROT002 are then only
     *  verified over the explored prefix and stats.truncated is set). */
    unsigned maxDepth = 0;

    // --- optional machinery ------------------------------------------------
    bool withTimer = true; //!< model the timer freeze-inject machine
    bool withDisk = true;  //!< model the disk schedule/complete machine
    bool faultDrop = true; //!< explore one CmdDrop (+ link-retry redeliver)
    bool faultDup = true;  //!< explore one CmdDup (vs the dedup guard)

    // --- crafted-bug reintroductions (tests only; all default off) ---------
    /** The PR 4 fetch ordering: the drainRequested early-return ahead of
     *  the drainForMispredict clearing, so an external drain arriving
     *  mid-mispredict-flush latches the flag forever -> PROT001 (and
     *  PROT002 with devices on). */
    bool bugDrainLatch = false;
    /** A dropped command is never retransmitted (lost) -> PROT003. */
    bool bugNoRetransmit = false;
    /** The dedup guard is gone: a duplicated resteer-class command is
     *  applied twice -> PROT003. */
    bool bugNoDedup = false;
    /** Fetch ignores the resteer window: stale-path entries are fetched
     *  and committed while a resteer is still in flight, so the cumulative
     *  commit floor can overtake the rewind target -> PROT004. */
    bool bugFetchDuringResteer = false;
    /** Injection delivery fails to consume the pending device event: the
     *  engine re-requests a drain forever (live, never quiesced)
     *  -> PROT002. */
    bool bugStickyPending = false;
};

/** Exploration statistics (also the bench_fastcheck payload). */
struct ProtocolCheckStats
{
    std::size_t statesExplored = 0;   //!< distinct states visited
    std::size_t transitionsFired = 0; //!< successor edges generated
    std::size_t peakFrontier = 0;     //!< max DFS stack depth reached
    std::size_t deadlockStates = 0;   //!< PROT001 witnesses found
    bool truncated = false; //!< frontier cut by maxDepth (PROT002 skipped)
};

/**
 * Explore the model exhaustively (or to cfg.maxDepth) and report every
 * PROT001..PROT004 violation into `report` as errors, each carrying its
 * counterexample transition chain.  Deterministic: the transition order
 * is fixed, so the same config always yields the same counterexample.
 */
ProtocolCheckStats checkProtocol(const ProtocolModelConfig &cfg,
                                 Report &report);

} // namespace analysis
} // namespace fastsim

#endif // FASTSIM_ANALYSIS_PROTOCOL_MODEL_HH
