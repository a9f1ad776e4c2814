#include "fast/parallel.hh"

#include <chrono>
#include <cstdio>

#include "analysis/protocol_model.hh"
#include "base/logging.hh"

namespace fastsim {
namespace fast {

using tm::TmEvent;

namespace {
// The runner's one schedule.  None of it is configurable; DESIGN.md §12.6
// records the pair measurements that chose it.

/** Epoch window: resteer-class events that may be outstanding (issued,
 *  not yet FM-acknowledged) while the TM ticks the mispredict drain. */
constexpr std::uint64_t EpochWindow = 2;
static_assert(EpochWindow == analysis::ProtocolModelConfig{}.epochWindow,
              "fastcheck (PROT001-004) explores the shipped epoch window");

/** Cumulative Commit events coalesced into one TM->FM command. */
constexpr unsigned CommitBatch = 16;

/** Fruitless polls before a waiting TM parks on the condition variable. */
constexpr unsigned SpinIters = 2048;

/** TM -> FM event channel depth.  Sized so the TM can run hundreds of
 *  ticks (one Commit each) ahead of a sleeping FM without blocking. */
constexpr std::size_t EventRingEntries = 4096;

/** The configuration of the coupled loop a degraded run continues on:
 *  the parallel runner takes no checkpoints, and a watchdog fire in the
 *  degraded loop is fatal — degradation was the one recovery. */
FastConfig
degradedLoopConfig(FastConfig cfg)
{
    cfg.checkpointEvery = 0;
    cfg.guardrails.watchdogFatal = true;
    return cfg;
}
} // namespace

ParallelFastSimulator::ParallelFastSimulator(const FastConfig &cfg)
    : CoupledLoop(degradedLoopConfig(cfg), "fast_parallel"),
      tb_(*faces_[0].tb), link_(*faces_[0].link), cmd_(*faces_[0].cmd),
      events_(EventRingEntries),
      stFmParks_(stats_.handle("fm_parks")),
      stTmParks_(stats_.handle("tm_parks")),
      stFmWakes_(stats_.handle("fm_wakes")),
      stTmWakes_(stats_.handle("tm_wakes")),
      stEpochHoldTicks_(stats_.handle("epoch_hold_ticks")),
      stCmdBatches_(stats_.handle("cmd_commit_batches")),
      stBatchedCommits_(stats_.handle("cmd_batched_commits"))
{
}

ParallelFastSimulator::~ParallelFastSimulator()
{
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lk(mu_);
    }
    cv_.notify_all();
    if (fmThread_.joinable())
        fmThread_.join();
}

bool
ParallelFastSimulator::resteerPending() const
{
    return resteersApplied_.load(std::memory_order_acquire) !=
           resteersIssued_;
}

void
ParallelFastSimulator::wakeFm()
{
    if (fmWaiting_.load(std::memory_order_acquire)) {
        ++stFmWakes_;
        std::lock_guard<std::mutex> lk(mu_);
        cv_.notify_all();
    }
}

void
ParallelFastSimulator::wakeTm()
{
    if (tmWaiting_.load(std::memory_order_acquire)) {
        ++stTmWakes_;
        std::lock_guard<std::mutex> lk(mu_);
        cv_.notify_all();
    }
}

template <typename Pred>
void
ParallelFastSimulator::tmSpinThenPark(Pred &&ready)
{
    // TM thread.  Bounded spin first: the FM polls the event ring every
    // interpreted instruction, so the condition normally flips within a
    // handful of host instructions and parking would cost two context
    // switches for nothing.  Only after SpinIters fruitless
    // iterations does the thread take the mutex and park (with a timeout:
    // the wait conditions are re-derived from atomics the waker does not
    // always touch under the lock, so the cv is a latency optimization,
    // never the correctness mechanism).  The spin phase only runs on a
    // *fresh* wait: once a park expired without the condition flipping,
    // the wait is long by definition and re-spinning every poll would
    // just burn host cycles (and, on a single-core host, yield whole
    // scheduler quanta to the other thread per poll — fatal for the
    // watchdog's polls-until-fire budget).
    using namespace std::chrono_literals;
    const unsigned spin = tmLastParked_ ? 0 : SpinIters;
    for (unsigned i = 0; i < spin; ++i) {
        if (ready() || stop_.load(std::memory_order_relaxed)) {
            tmLastParked_ = false;
            return;
        }
        if ((i & 63u) == 63u)
            std::this_thread::yield();
    }
    if (stop_.load(std::memory_order_relaxed))
        return;
    std::unique_lock<std::mutex> lk(mu_);
    tmWaiting_.store(true, std::memory_order_release);
    if (!ready()) {
        ++stTmParks_;
        cv_.wait_for(lk, 100us);
        tmLastParked_ = !ready();
    } else {
        tmLastParked_ = false;
    }
    tmWaiting_.store(false, std::memory_order_relaxed);
}

void
ParallelFastSimulator::applyMessage(const TmEvent &e)
{
    // Runs on the FM thread (the TM thread takes the channel over after
    // the join).  Rewinds are safe here: the TM quiesces between issuing
    // a resteer-class event and observing the applied-count ack released
    // below (see parallel.hh).  The command channel (fault layer) wraps
    // the protocol engine's FM-side appliance; this wrapper layers the
    // thread-visible acks around it in the order the rendezvous requires.
    cmd_.ownerRole.assertHeld();
    if (cmd_.apply(e, *fm_, tb_, stats_))
        fmStalledWrongPath_.store(false, std::memory_order_relaxed);
    switch (e.kind) {
      case TmEvent::Kind::Commit:
        // Release after commitTo so that when the TM's tick gate observes
        // this ack (acquire) and then reads tb_.full(), it sees the freed
        // space: "full with all commits applied" is then a true statement
        // about target state, not a stale snapshot.
        commitsApplied_.store(
            commitsApplied_.load(std::memory_order_relaxed) + 1,
            std::memory_order_release);
        break;
      case TmEvent::Kind::InjectTimer:
      case TmEvent::Kind::InjectDisk:
        injectsApplied_.store(
            injectsApplied_.load(std::memory_order_relaxed) + 1,
            std::memory_order_release);
        [[fallthrough]];
      case TmEvent::Kind::WrongPath:
      case TmEvent::Kind::Resolve:
        // Snapshots (notably fmHalted_) must be refreshed *before* the
        // applied-count release below: the instant the TM observes the ack
        // it re-evaluates its tick gate, and a stale halted flag from a
        // rolled-back speculative halt would let it free-run starved
        // cycles the coupled runner never ticks.
        publishSnapshots();
        resteersApplied_.store(
            resteersApplied_.load(std::memory_order_relaxed) + 1,
            std::memory_order_release);
        break;
      case TmEvent::Kind::RefetchAt:
        break; // the core handled the TB itself
    }
    fmProgress_.store(fmProgress_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

void
ParallelFastSimulator::publishSnapshots()
{
    // FM thread: publish device-facing state for the TM thread's timing
    // decisions, and recompute quiescence.  "The guest is done" must be a
    // live property, never a latch: the FM can touch the final halt during
    // speculative run-ahead and then be rolled back by a later resteer.
    // An idle core that was just handed an interrupt or disk completion
    // is still halted until its next step() delivers it, but it is no
    // longer idle: publishing it as halted would let the TM tick starved
    // cycles the coupled runner (which steps the FM before every tick)
    // never sees.
    timerEnabledSnap_.store(fm_->timer().enabled(), std::memory_order_relaxed);
    timerIntervalSnap_.store(fm_->timer().interval(),
                             std::memory_order_relaxed);
    diskBusySnap_.store(fm_->disk().busy(), std::memory_order_relaxed);
    const bool halted = fm_->halted() && !fm_->wakePending();
    fmHalted_.store(halted, std::memory_order_release);
    fmIdleWaiting_.store(halted && (fm_->state().flags & isa::FlagI) != 0,
                         std::memory_order_release);
    const bool done = halted && !(fm_->state().flags & isa::FlagI) &&
                      fm_->lastCommitted() + 1 == fm_->nextIn();
    guestFinished_.store(done, std::memory_order_release);
}

void
ParallelFastSimulator::fmBlockedWait()
{
    using namespace std::chrono_literals;
    events_.consumerRole.assertHeld(); // FM thread: the ring's consumer
    std::unique_lock<std::mutex> lk(mu_);
    cv_.notify_all();
    if (events_.empty() && !stop_.load(std::memory_order_relaxed)) {
        ++stFmParks_;
        fmWaiting_.store(true, std::memory_order_relaxed);
        cv_.wait_for(lk, 200us);
        fmWaiting_.store(false, std::memory_order_relaxed);
    }
}

void
ParallelFastSimulator::fmThreadMain()
{
    events_.consumerRole.assertHeld(); // this thread consumes TM events
    const unsigned batch = cfg_.fmBatchInsts ? cfg_.fmBatchInsts : 1;
    while (!stop_.load(std::memory_order_acquire)) {
        // Apply protocol messages in order.
        TmEvent e;
        bool applied = false;
        while (events_.tryPop(e)) {
            applyMessage(e);
            applied = true;
        }
        if (applied) {
            publishSnapshots();
            wakeTm();
        }

        if (tb_.full() || fmStalledWrongPath_.load(std::memory_order_relaxed)
            || guestFinished_.load(std::memory_order_relaxed)) {
            fmBlockedWait();
            continue;
        }

        // Seeded device misfires fire on this thread (the devices are
        // FM-owned); the device guards decide suppression.
        if (plan_) {
            if (plan_->fire(inject::FaultClass::SpuriousTimer))
                fm_->timer().injectMisfire();
            if (plan_->fire(inject::FaultClass::SpuriousDisk))
                fm_->disk().injectMisfire();
        }

        // Heavy interpretation, batched: this is the parallelism the
        // partitioning buys (§3).  The event ring is polled per
        // instruction (two atomic loads), so a resteer still gets its
        // ack within ~one interpreted instruction.
        bool produced = false;
        bool halted = false;
        for (unsigned n = 0; n < batch; ++n) {
            if (!events_.empty())
                break;
            if (tb_.full())
                break;
            // FmStall: production pauses, event appliance keeps running
            // (only the producer faulted, not the control path).
            if (fmStallRemaining_ > 0) {
                --fmStallRemaining_;
                break;
            }
            if (plan_ && plan_->fire(inject::FaultClass::FmStall)) {
                fmStallRemaining_ = plan_->stallSteps();
                break;
            }
            fm::StepResult r = fm_->step();
            if (r.kind == fm::StepResult::Kind::Ok) {
                link_.deliver(tb_, r.entry);
                produced = true;
                continue;
            }
            if (r.kind == fm::StepResult::Kind::WrongPathStall) {
                fmStalledWrongPath_.store(true, std::memory_order_release);
            } else {
                halted = true;
            }
            break;
        }

        publishSnapshots();
        if (produced) {
            fmProgress_.store(fmProgress_.load(std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed);
            wakeTm();
        }
        if (halted)
            fmBlockedWait();
    }
}

void
ParallelFastSimulator::pushEvent(const TmEvent &e)
{
    // TM thread.  The ring is deep; filling it means the FM has been
    // behind for a long stretch: wake it, spin briefly, park if it still
    // has not drained.
    events_.producerRole.assertHeld();
    while (!events_.tryPush(e)) {
        if (stop_.load(std::memory_order_relaxed))
            return;
        wakeFm();
        tmSpinThenPark([this] {
            events_.producerRole.assertHeld(); // still the TM thread
            return events_.drained();
        });
    }
    wakeFm();
}

void
ParallelFastSimulator::flushCommitBatch()
{
    // TM thread.  Push the held cumulative Commit (commit(IN) means
    // "everything up to IN retired", so the newest subsumes the ones
    // coalesced into it).  One pushed event = one commitsIssued_ unit;
    // the FM acks per applied event, so the rendezvous counters stay
    // paired under batching.
    if (!commitHeld_)
        return;
    commitHeld_ = false;
    heldCount_ = 0;
    ++stCmdBatches_;
    ++commitsIssued_;
    pushEvent(heldCommit_);
}

void
ParallelFastSimulator::relayTickEvents()
{
    // TM thread: forward this tick's protocol events to the FM.  Commits
    // are coalesced (see flushCommitBatch); the batch is flushed before
    // any resteer-class push so the FM applies events in exactly the
    // order the coupled runner would.
    for (const TmEvent &e : core_->drainEvents()) {
        switch (e.kind) {
          case TmEvent::Kind::WrongPath:
          case TmEvent::Kind::Resolve:
            flushCommitBatch();
            ++resteersIssued_;
            pushEvent(e);
            break;
          case TmEvent::Kind::Commit:
            if (commitHeld_)
                ++stBatchedCommits_; // superseded in place
            commitHeld_ = true;
            heldCommit_ = e;
            ++heldCount_;
            if (heldCount_ >= CommitBatch)
                flushCommitBatch();
            break;
          default:
            break;
        }
    }
}

bool
ParallelFastSimulator::holdTickSafe() const
{
    // Epoch pipelining: may the TM tick while a resteer ack is still in
    // flight?  Only when every trace-buffer touch point is provably cold
    // this tick:
    //  - the fetch stage early-returns under drainForMispredict before
    //    reading the buffer;
    //  - the commit stage retires at most commitWidth() ROB entries per
    //    tick, so requiring strictly more than that in the ROB keeps the
    //    drain from completing (and fetch from resuming) within the tick;
    //  - an exception commit is the one commit-side path that rewinds the
    //    buffer's fetch pointer (RefetchAt), so any excepting entry in
    //    flight disqualifies the tick.
    // These held ticks are exactly the drain cycles the coupled runner
    // ticks after the same flush, so cycle counts stay bit-identical.
    // A second mispredict resolving during a held tick simply raises the
    // in-flight count, and holding stops once the epoch window is full.
    const std::uint64_t inflight =
        resteersIssued_ - resteersApplied_.load(std::memory_order_acquire);
    return inflight < EpochWindow && core_->drainForMispredict() &&
           core_->robInsts() > core_->commitWidth() &&
           !core_->robHasException();
}

void
ParallelFastSimulator::deviceTiming()
{
    // TM thread.  While an injection is in flight the device snapshots are
    // stale (the FM has not yet applied the resteer), so both starting a
    // new disk countdown and delivering the next event are held off.
    const bool injectPending =
        injectsApplied_.load(std::memory_order_acquire) != injectsIssued_;
    // Under cfg.deterministicDevices the commit-anchored view is fed by
    // this thread's own commits, so the host-speed snapshot publication
    // plays no timing role and the injection schedule is deterministic in
    // target time.
    const DeviceView dev =
        timingView({timerEnabledSnap_.load(std::memory_order_relaxed),
                    timerIntervalSnap_.load(std::memory_order_relaxed),
                    diskBusySnap_.load(std::memory_order_relaxed)});

    // No committed-boundary check here: the Commit messages are already
    // queued ahead of the injection, so the FM thread applies them first
    // and the contract holds by construction.
    const Injection inj = engine_->deviceTick(
        dev, core_->cycle(), /*allow_disk_schedule=*/!injectPending,
        /*allow_inject=*/!injectPending, boundaryAlwaysOk_);
    if (!inj)
        return;
    if (inj.kind == Injection::Kind::Disk) {
        diskBusySnap_.store(false, std::memory_order_relaxed);
        mirror_.onDiskInjection();
    }
    flushCommitBatch(); // held commits must reach the FM before the inject
    ++injectsIssued_;
    ++resteersIssued_;
    pushEvent(inj.toEvent());
}

bool
ParallelFastSimulator::finishedTm() const
{
    events_.producerRole.assertHeld(); // TM-side view of the ring
    return guestFinished_.load(std::memory_order_acquire) &&
           events_.drained() && tb_.unfetched() == 0 && core_->drained() &&
           !resteerPending() &&
           injectsApplied_.load(std::memory_order_acquire) == injectsIssued_;
}

void
ParallelFastSimulator::tmTick()
{
    // TM thread: one target cycle.  The core's commit hook folds the hash
    // chain and the device mirror on this thread inside tick(), before
    // the injection decision reads the mirror.
    core_->tick();
    relayTickEvents();
    deviceTiming();
}

void
ParallelFastSimulator::tmThreadMain(Cycle max_cycles)
{
    guardrails_.ownerRole.assertHeld(); // the TM loop drives the watchdog
    while (!stop_.load(std::memory_order_relaxed)) {
        if (core_->cycle() >= max_cycles)
            break;

        // Progress watchdog: one poll per TM loop iteration (waits
        // included, so a wedged tick gate is seen too).  The FM-side
        // progress counter rides along as the aux channel: a TM parked
        // behind an FM that is still producing or applying is healthy
        // and must not accumulate toward the budget.  On fire, stop
        // both threads; run() diagnoses with the FM quiesced and decides
        // between fatal() and degradation.
        if (guardrails_.notePoll(core_->committedInsts(),
                                 fmProgress_.load(std::memory_order_relaxed)))
            break;

        // Resteer rendezvous: between issuing a resteer-class event and
        // the FM's ack, the trace buffer's write side may move backwards,
        // so this thread must not touch the buffer at all.  Within the
        // epoch window the drain cycles of the flush are ticked *under*
        // the outstanding resteer instead of idling — holdTickSafe()
        // proves tick-by-tick that the buffer stays untouched.  When no
        // safe tick exists, spin briefly, then park until the ack.
        if (resteerPending()) {
            if (holdTickSafe()) {
                ++stEpochHoldTicks_;
                tmTick();
                continue;
            }
            tmSpinThenPark([this] { return !resteerPending(); });
            continue;
        }

        if (finishedTm())
            break;

        // Tick only when this cycle's fetch behaviour is guaranteed to
        // match the coupled reference: either a full issue group is
        // available, or the FM cannot produce more right now for a reason
        // that is deterministic in *target* time.  Those reasons are:
        //  - wrong-path stall: the speculative path ran into a fault; the
        //    coupled runner's FM is stalled at the same point, so ticking
        //    through to the branch resolution is bit-identical;
        //  - halted guest while the TM still has work (entries to fetch or
        //    a ROB to drain) or while the guest is interruptibly idle
        //    (halted with interrupts enabled): empty cycles are then the
        //    deterministic march toward the next device event, exactly as
        //    in the coupled runner.
        // Crucially, the gate must NOT open on mere host-speed lag of the
        // FM (e.g. "the FM thread happens to be parked right now"), and it
        // must close once a non-interruptible halt has been fully drained:
        // any tick spent merely waiting for the FM to acknowledge
        // quiescence would inflate the cycle count nondeterministically
        // and break invariant #4 (bit-identical statistics).
        //
        // One more deterministic reason: the trace buffer is full and every
        // Commit this thread ever issued has been applied.  At the default
        // capacity (256 ≫ ROB + front end) fetched-uncommitted entries can
        // never fill the buffer, but at tiny capacities (~issue width) they
        // routinely do, with the FM neither stalled nor halted — without
        // this term both threads would wait on each other forever.  It is
        // deterministic because once the commits are applied the free index
        // is final and, the buffer being full, the write index cannot move
        // either: the FM has produced the maximum the buffer admits, which
        // is exactly the state the coupled runner ticks from (its
        // produceEntries() fills the buffer before every tick).  The
        // commit-ack check must come first — its acquire load orders the
        // tb_.full() read after the FM's freed space becomes visible, so a
        // stale "full" can never open the gate while a Commit is still in
        // flight.
        const std::size_t unfetched = tb_.unfetched();
        const bool commitsQuiesced =
            commitsApplied_.load(std::memory_order_acquire) ==
            commitsIssued_ && !commitHeld_;
        const bool can_tick =
            unfetched >= cfg_.core.issueWidth ||
            (commitsQuiesced && tb_.full()) ||
            fmStalledWrongPath_.load(std::memory_order_acquire) ||
            (fmHalted_.load(std::memory_order_acquire) &&
             (unfetched > 0 || !core_->drained() ||
              fmIdleWaiting_.load(std::memory_order_acquire))) ||
            injectsApplied_.load(std::memory_order_acquire) != injectsIssued_;
        if (!can_tick) {
            // The FM may be waiting on exactly the commits this thread is
            // still holding back (to free ring space or to reach the final
            // committed boundary): release them before parking.
            flushCommitBatch();
            const std::uint64_t fm0 =
                fmProgress_.load(std::memory_order_relaxed);
            tmSpinThenPark([this, fm0] {
                return fmProgress_.load(std::memory_order_relaxed) != fm0;
            });
            continue;
        }

        tmTick();
    }
    // Leave no command behind: run() (degradation, final accounting) and
    // the FM's last drain assume everything issued is in the ring.
    flushCommitBatch();
}

std::string
ParallelFastSimulator::runnerStateDiagnosis() const
{
    // Called with both threads stopped (run(), after the join): reading
    // the counters and stats is race-free here.
    char line[256];
    std::string d = "  parallel runner state:\n";
    std::snprintf(
        line, sizeof(line),
        "    resteers issued=%llu applied=%llu commits issued=%llu "
        "applied=%llu held=%u\n",
        static_cast<unsigned long long>(resteersIssued_),
        static_cast<unsigned long long>(
            resteersApplied_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(commitsIssued_),
        static_cast<unsigned long long>(
            commitsApplied_.load(std::memory_order_relaxed)),
        commitHeld_ ? heldCount_ : 0u);
    d += line;
    std::snprintf(
        line, sizeof(line),
        "    injects issued=%llu applied=%llu fmProgress=%llu\n",
        static_cast<unsigned long long>(injectsIssued_),
        static_cast<unsigned long long>(
            injectsApplied_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            fmProgress_.load(std::memory_order_relaxed)));
    d += line;
    std::snprintf(
        line, sizeof(line),
        "    parks fm=%llu tm=%llu wakes fm=%llu tm=%llu holdTicks=%llu\n",
        static_cast<unsigned long long>(stFmParks_.value()),
        static_cast<unsigned long long>(stTmParks_.value()),
        static_cast<unsigned long long>(stFmWakes_.value()),
        static_cast<unsigned long long>(stTmWakes_.value()),
        static_cast<unsigned long long>(stEpochHoldTicks_.value()));
    d += line;
    return d;
}

RunResult
ParallelFastSimulator::run(Cycle max_cycles)
{
    fmThread_ = std::thread([this] { fmThreadMain(); });
    tmThreadMain(max_cycles);
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lk(mu_);
    }
    cv_.notify_all();
    fmThread_.join();

    // Past the join this thread owns every role: it always was the
    // guardrails/TM owner, and the FM thread's consumer/channel roles
    // migrate here with the join.
    guardrails_.ownerRole.assertHeld();
    events_.consumerRole.assertHeld();

    if (guardrails_.watchdogFired()) {
        // Both threads are stopped: the diagnosis reads a quiesced FM.
        guardrails_.noteDiagnosis(diagnose(runnerStateDiagnosis()));
        if (!cfg_.guardrails.degradeOnWatchdog)
            fatal("%s", guardrails_.lastDiagnosis().c_str());

        warn("%s", guardrails_.lastDiagnosis().c_str());
        warn("degrading to coupled mode");
        ++stats_.counter("degraded_to_coupled");
        degraded_ = true;

        // Drain the in-flight protocol commands on this thread, then
        // continue on the coupled loop from the last verified commit
        // (DESIGN.md §10.3): this thread now owns every structure.
        TmEvent e;
        while (events_.tryPop(e))
            applyMessage(e);
        guardrails_.rearmWatchdog();
        faces_[0].stalledWrongPath =
            fmStalledWrongPath_.load(std::memory_order_relaxed);
        return CoupledLoop::run(max_cycles);
    }

    RunResult r;
    r.finished = finishedTm();
    r.cycles = core_->cycle();
    r.insts = core_->committedInsts();
    r.ipc = core_->ipc();

    // One final cross-check at the quiesced end state (periodic checks
    // would race with the FM thread mid-run).
    if (r.finished && cfg_.guardrails.crossCheckEveryCommits != 0)
        crossCheck();
    return r;
}

} // namespace fast
} // namespace fastsim
