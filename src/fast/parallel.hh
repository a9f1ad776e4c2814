/**
 * @file
 * The parallel FAST simulator: functional model and timing model on
 * separate host threads.
 *
 * This demonstrates the paper's core contribution (§3): "the communication
 * between the functional and timing partitions can be made latency-
 * tolerant, allowing the functional model to run efficiently in parallel
 * with the timing model".  The FM thread interprets instructions and fills
 * the trace buffer; the TM thread models target cycles and raises protocol
 * events; round-trip synchronization occurs only on mis-speculations,
 * resolutions and interrupts — exactly the F term of the §3.1 analytical
 * model.
 *
 * Synchronization design (lock-free steady state):
 *
 *  - the trace buffer itself is an SPSC ring (trace_buffer.hh): the FM
 *    thread owns the write/free indices, the TM thread owns the fetch
 *    index, acquire/release publication, no lock;
 *  - protocol events travel TM -> FM through a second SPSC ring
 *    (base/spsc_ring.hh); Commit events are *applied on the FM thread*,
 *    which is what keeps both trace-buffer producer-side indices single-
 *    writer;
 *  - the FM interprets up to FmBatchInsts (64) instructions per
 *    event-ring poll instead of taking a mutex per instruction;
 *  - resteer-class events (WrongPath / Resolve / InjectTimer /
 *    InjectDisk) are the one multi-writer moment: applying them rewinds
 *    the trace buffer's write index *backwards*, which is only safe if
 *    the TM is not concurrently reading slots.  The TM therefore counts
 *    resteers issued, the FM publishes resteers applied (release), and
 *    the TM does not touch the buffer between issue and ack.  The FM
 *    polls the event ring every instruction, so the ack normally lands
 *    within ~one interpreted instruction.
 *
 * Performance machinery (DESIGN.md §12), one fixed schedule — the
 * constants EpochWindow, CommitBatch, FmBatchInsts and SpinIters in
 * parallel.cc:
 *
 *  - *epoch pipelining*: with up to EpochWindow (2) resteers in flight
 *    the TM does not idle for the whole resteer round trip — while the
 *    FM is still applying the rewind, the TM keeps ticking the
 *    mispredict drain cycles that provably cannot touch the trace
 *    buffer (the fetch stage early-returns under drainForMispredict and
 *    the commit stage can retire at most commitWidth ROB entries per
 *    tick).  Those held ticks are exactly the cycles the coupled
 *    reference spends draining the same flush, so cycle counts and
 *    golden hashes stay bit-identical; rewinds still only ever target
 *    the oldest unverified epoch because the FM applies ring-ordered
 *    events.  The window equals the protocol model's (fastcheck
 *    PROT001-004 explore it exhaustively).
 *  - *batched TM->FM commands*: Commit events are cumulative
 *    ("everything up to IN retired"), so the TM coalesces up to
 *    CommitBatch (16) of them into the newest one before pushing,
 *    flushing the held batch before any resteer-class or injection push
 *    (order through the CmdChannel is preserved) and whenever the tick
 *    gate closes (the FM may be waiting on exactly that commit to free
 *    trace-buffer space or reach the final boundary).
 *  - *spin-then-park*: a waiting TM polls up to SpinIters (2048) times
 *    before parking on the shared condition variable; parks and wakes
 *    are counted (fm_parks / tm_parks / fm_wakes / tm_wakes) and the
 *    watchdog treats a park behind a *moving* FM as healthy via the
 *    aux-progress channel of Guardrails::notePoll.
 *
 * The trace ring keeps FastConfig::traceBufferEntries for the whole run.
 *
 * Functional results (committed work, console output, final state) are
 * identical to the coupled simulator.  With the default device semantics,
 * interrupt *timing* may vary with host scheduling (as on the paper's
 * real DRC platform), so cycle counts of timer/disk-driven runs are near,
 * but not bit-equal to, the coupled reference; device-free runs are
 * bit-identical (tested).  With cfg.deterministicDevices the
 * CommittedDeviceMirror anchors device-register writes at commit time and
 * *every* run — timers and disk included — is bit-identical to the
 * coupled runner, cycles and golden hashes both (tested on all 17 golden
 * workloads).
 *
 * Robustness (DESIGN.md §10): the same FaultPlan / TraceLink / CmdChannel
 * stack as the coupled runner runs on the FM thread (all fault streams
 * fire on one thread), plus the FmStall class, which pauses FM production
 * to provoke the tick gate.  The TM loop drives the progress watchdog;
 * when it fires the runner stops both threads and either fatal()s with
 * the structured diagnosis or — with cfg.guardrails.degradeOnWatchdog —
 * drains the event ring and continues on the coupled loop itself, on
 * the caller's thread, preserving all functional results ("warn and
 * continue" is not offered: a wedged rendezvous never unwedges itself,
 * and a second fire in the coupled loop is fatal).
 */

#ifndef FASTSIM_FAST_PARALLEL_HH
#define FASTSIM_FAST_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "base/spsc_ring.hh"
#include "fast/protocol.hh"
#include "fast/simulator.hh"

namespace fastsim {
namespace fast {

/**
 * Two-thread FAST simulator.  Its single-core parts — functional model,
 * trace buffer, timing core, protocol engine, fault stack, guardrails —
 * are the coupled loop's (simulator.hh), built by the same code; after a
 * watchdog degradation the run continues on that loop.
 */
class ParallelFastSimulator : private CoupledLoop<tm::Core>
{
  public:
    explicit ParallelFastSimulator(const FastConfig &cfg);
    ~ParallelFastSimulator();

    using CoupledLoop::boot;
    using CoupledLoop::commitHash;
    using CoupledLoop::core;
    using CoupledLoop::faultPlan;
    using CoupledLoop::fm;
    using CoupledLoop::guardrails;
    using CoupledLoop::stats;
    using CoupledLoop::traceBuffer;

    /** Run with both threads until the guest finishes or the bound. */
    RunResult run(Cycle max_cycles);

    /** True when a watchdog fire demoted this run to the coupled loop. */
    bool degraded() const { return degraded_; }

  private:
    void fmThreadMain();
    void tmThreadMain(Cycle max_cycles);
    void tmTick();

    void applyMessage(const tm::TmEvent &e);
    void publishSnapshots();
    void fmBlockedWait();
    void pushEvent(const tm::TmEvent &e);
    void deviceTiming();
    bool finishedTm() const;
    bool resteerPending() const;

    // Epoch pipelining / batching / parking (see file comment).
    bool holdTickSafe() const;
    void relayTickEvents();
    void flushCommitBatch();
    void wakeFm(); //!< TM thread: kick a parked FM (counts fm_wakes)
    void wakeTm(); //!< FM thread: kick a parked TM (counts tm_wakes)
    template <typename Pred> void tmSpinThenPark(Pred &&ready);
    std::string runnerStateDiagnosis() const;

    // The coupled loop's core-0 face, by name.  All fault streams fire on
    // the FM thread (link/cmd/devices/stall); guardrails_ is driven by the
    // TM loop and, after a degradation, by the single remaining thread.
    // mirror_ (cfg.deterministicDevices) is TM-thread-owned: fed by the
    // core's commit hook inside core_->tick(), read by deviceTiming() —
    // both on the TM thread.
    tm::TraceBuffer &tb_;
    inject::TraceLink &link_;
    CmdChannel &cmd_;
    std::uint64_t fmStallRemaining_ = 0; //!< FM-thread-local (FmStall)
    bool degraded_ = false;              //!< set after both threads stopped

    // TM -> FM protocol-event channel (SPSC: TM produces, FM consumes).
    SpscRing<tm::TmEvent> events_;

    // Rendezvous accounting.  resteersIssued_ is TM-thread-local;
    // resteersApplied_ / injectsApplied_ are released by the FM after the
    // corresponding rewind+resteer completed.
    std::uint64_t resteersIssued_ = 0;
    std::uint64_t injectsIssued_ = 0;
    std::atomic<std::uint64_t> resteersApplied_{0};
    std::atomic<std::uint64_t> injectsApplied_{0};

    // Commit rendezvous: lets the TM distinguish "the trace buffer is full
    // because the FM truly has no space" (deterministic in target time;
    // the coupled runner ticks here) from "Commit events I issued are
    // still in flight" (host-speed lag; ticking would diverge).  Matters
    // only when the TB capacity is small enough that fetched-uncommitted
    // entries can fill it.
    std::uint64_t commitsIssued_ = 0;
    std::atomic<std::uint64_t> commitsApplied_{0};

    // Commit-batching state (TM-thread-local): the newest held cumulative
    // Commit event and how many were coalesced into it.
    bool commitHeld_ = false;
    unsigned heldCount_ = 0;
    tm::TmEvent heldCommit_{};

    //!< TM-thread-local: last tmSpinThenPark ended in an expired park, so
    //!< the next one skips the spin phase (see tmSpinThenPark).
    bool tmLastParked_ = false;

    // FM-side monotonic progress (produced entries + applied events),
    // read by the TM's watchdog poll as the aux-progress channel: a TM
    // parked behind a busy FM is healthy, not wedged.
    std::atomic<std::uint64_t> fmProgress_{0};

    // Cross-thread flags (lock-free reads on the hot paths).
    std::atomic<bool> fmStalledWrongPath_{false};
    std::atomic<bool> fmHalted_{false};
    std::atomic<bool> fmIdleWaiting_{false}; //!< halted with interrupts on
    std::atomic<bool> stop_{false};
    std::atomic<bool> guestFinished_{false};

    // FM-thread-published device snapshots: the TM thread must never
    // touch the functional model directly.  The engine's device-timing
    // state machines consume these through a DeviceView each tick.
    std::atomic<bool> timerEnabledSnap_{false};
    std::atomic<std::uint32_t> timerIntervalSnap_{0};
    std::atomic<bool> diskBusySnap_{false};

    // The in-order event queue guarantees every Commit is applied before
    // an injection the TM queued after it, so the committed-boundary
    // check the coupled runner performs holds here by construction.
    const std::function<bool(InstNum)> boundaryAlwaysOk_ =
        [](InstNum) { return true; };

    // Sleep/wake backstop for the rare blocked states.
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::atomic<bool> fmWaiting_{false};
    std::atomic<bool> tmWaiting_{false};

    // Park/wake/pipelining counters.  Pre-resolved in the constructor:
    // stats::Group map mutation is not thread-safe, and each counter has
    // exactly one writer thread (parks on the parking thread, wakes on
    // the waking thread, batching and hold-ticks on the TM thread).
    stats::Handle stFmParks_;
    stats::Handle stTmParks_;
    stats::Handle stFmWakes_;
    stats::Handle stTmWakes_;
    stats::Handle stEpochHoldTicks_;
    stats::Handle stCmdBatches_;
    stats::Handle stBatchedCommits_;

    std::thread fmThread_;
};

} // namespace fast
} // namespace fastsim

#endif // FASTSIM_FAST_PARALLEL_HH
