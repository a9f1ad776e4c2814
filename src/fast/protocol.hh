/**
 * @file
 * The FM<->TM protocol engine, shared by both runners.
 *
 * The coupled loop (simulator.cc, every core count) and the parallel
 * runner (parallel.cc) speak the same protocol — TmEvent relay toward the functional model,
 * set_pc/rollback resteer sequencing, commit release, exception refetch,
 * and the timer/disk device-timing state machines of paper §3.4.  This
 * class holds the single implementation of that protocol:
 *
 *  - applyToFm(): the FM-side appliance of one protocol event (trace
 *    buffer rewind + functional-model resteer/commit + counter), used
 *    inline by the coupled runner and on the FM thread by the parallel
 *    runner (which layers its atomic acks around each call);
 *  - deviceTick(): the per-cycle timer/disk state machines plus the §3.4
 *    drain-freeze-inject sequence ("the TM freezes, notifies the
 *    functional model ... and waits"), parameterized only by what the
 *    runner can see of the devices (a DeviceView — direct FM reads for
 *    the coupled runner, atomically published snapshots for the parallel
 *    one) and by the runner's transport constraints.
 *
 * The coupled runner is the deterministic reference implementation of the
 * protocol; the parallel runner is only the threading/SPSC shell around
 * this engine.
 */

#ifndef FASTSIM_FAST_PROTOCOL_HH
#define FASTSIM_FAST_PROTOCOL_HH

#include <functional>

#include "base/serialize.hh"
#include "base/statistics.hh"
#include "base/thread_annotations.hh"
#include "fm/func_model.hh"
#include "host/link_model.hh"
#include "inject/fault_plan.hh"
#include "tm/core.hh"
#include "tm/trace_buffer.hh"

namespace fastsim {
namespace fast {

/** What the engine may see of the guest devices this cycle.  The parallel
 *  runner fills this from FM-thread-published atomic snapshots; the
 *  coupled runner reads the functional model directly. */
struct DeviceView
{
    bool timerEnabled = false;
    std::uint32_t timerInterval = 0;
    bool diskBusy = false;
};

/**
 * Commit-anchored device view (FastConfig::deterministicDevices).
 *
 * The default DeviceView is read at FM *interpretation* time: the coupled
 * runner sees a device-register write as soon as its run-ahead production
 * interprets it, and the parallel runner sees it whenever the FM thread
 * happens to publish the snapshot — a host-speed-dependent target cycle,
 * which is why interrupt arrival (and hence the committed instruction
 * stream) of timer-driven parallel runs drifts between hosts, exactly as
 * on the paper's real DRC platform (§3.4).
 *
 * This mirror instead replays committed OUT instructions (the port and
 * value ride in the trace entry) on the TM side of both runners: a
 * device-register write becomes timing-visible exactly when it *commits*.
 * Commit time is deterministic in target time in both runners, wrong-path
 * writes never commit, and the mirror state is a pure function of the
 * committed stream — so with the flag on, timer- and disk-driven runs are
 * bit-identical between the coupled and parallel runners, including
 * cycle counts.  The semantics differ from the default mode only in when
 * a reprogrammed device register takes timing effect (commit instead of
 * run-ahead interpretation), never in guest-visible behaviour.
 */
class CommittedDeviceMirror
{
  public:
    /** @param disk_blocks the disk geometry (FmConfig::diskBlocks); the
     *  mirror reproduces DiskDevice's out-of-range-command guard. */
    void configure(std::uint32_t disk_blocks) { diskBlocks_ = disk_blocks; }

    /** Replay one committed entry (Core::onCommit, TM side). */
    void
    onCommitEntry(const fm::TraceEntry &e)
    {
        if (!e.isIo)
            return;
        switch (e.ioPort) {
          case fm::PortTimerCtl:
            view_.timerEnabled = (e.ioValue & 1) != 0;
            break;
          case fm::PortTimerInterval:
            view_.timerInterval = e.ioValue ? e.ioValue : 1;
            break;
          case fm::PortDiskBlock:
            diskBlock_ = e.ioValue;
            break;
          case fm::PortDiskCmd:
            // DiskDevice ignores commands while busy or out of range.
            if (!view_.diskBusy && diskBlock_ < diskBlocks_)
                view_.diskBusy = true;
            break;
          default:
            break;
        }
    }

    /** The engine delivered the completion: the disk is idle again (the
     *  FM-side status write lands with the injection's resteer). */
    void onDiskInjection() { view_.diskBusy = false; }

    const DeviceView &view() const { return view_; }

    /** Snapshot support: the mirror is deterministic target state. */
    void
    save(serialize::Sink &s) const
    {
        s.put<std::uint8_t>(view_.timerEnabled ? 1 : 0);
        s.put<std::uint32_t>(view_.timerInterval);
        s.put<std::uint8_t>(view_.diskBusy ? 1 : 0);
        s.put<std::uint32_t>(diskBlock_);
    }
    void
    restore(serialize::Source &s)
    {
        view_.timerEnabled = s.get<std::uint8_t>() != 0;
        view_.timerInterval = s.get<std::uint32_t>();
        view_.diskBusy = s.get<std::uint8_t>() != 0;
        diskBlock_ = s.get<std::uint32_t>();
    }

  private:
    // Reset values mirror the devices' own: TimerDevice wakes with
    // interval 10000, the disk idle.
    DeviceView view_{false, 10000, false};
    std::uint32_t diskBlock_ = 0;
    std::uint32_t diskBlocks_ = 0;
};

/** A device event the engine decided to deliver (§3.4): the pipeline has
 *  drained and the interrupt/completion must be injected at `in`. */
struct Injection
{
    enum class Kind { None, Timer, Disk } kind = Kind::None;
    InstNum in = 0;

    explicit operator bool() const { return kind != Kind::None; }

    /** The runner-synthesized protocol event for this injection. */
    tm::TmEvent
    toEvent() const
    {
        tm::TmEvent e;
        e.kind = kind == Kind::Disk ? tm::TmEvent::Kind::InjectDisk
                                    : tm::TmEvent::Kind::InjectTimer;
        e.in = in;
        return e;
    }
};

/**
 * The shared protocol implementation.  One instance per runner; owns the
 * TM-side device-timing state and drives the core's drain/resteer
 * sequencing.  FM-side event appliance is stateless (static).
 */
class ProtocolEngine
{
  public:
    /** `core` is the drain/resteer face of the TM this engine paces:
     *  the single-core tm::Core, or one per-core slice of the SMP
     *  fabric (tm/smp_core.hh). */
    ProtocolEngine(tm::CoreDrainPort &core, Cycle disk_latency_cycles)
        : core_(core), diskLatency_(disk_latency_cycles)
    {
    }

    /**
     * Apply one protocol event to the functional model and trace buffer,
     * counting it in `stats` (counter names are shared by both runners).
     * Must run on whichever thread owns the FM.
     *
     * @return true for resteer-class events (WrongPath / Resolve /
     * Inject*): the FM's wrong-path stall is obsolete and the caller
     * must clear its stall flag.
     */
    static bool applyToFm(const tm::TmEvent &e, fm::FuncModel &fm,
                          tm::TraceBuffer &tb, stats::Group &stats);

    /**
     * Advance the timer/disk state machines one target cycle and decide
     * whether a device event is ready to inject.
     *
     * When something is pending the engine requests a pipeline drain and,
     * once the core reports drained, checks `boundary_ok(in)` — the
     * runner's verification that the functional model has committed
     * everything below the injection point (the coupled runner compares
     * lastCommitted(); the parallel runner's in-order event queue makes
     * it hold by construction).  On success the pending state is consumed,
     * the core's epoch is advanced (noteResteer), and the Injection is
     * returned for the runner to transport; disk completions take
     * priority over timer ticks.
     *
     * @param allow_disk_schedule gate for *starting* a new disk latency
     *   countdown (the parallel runner holds it off while an injection
     *   is still in flight, because diskBusy is then a stale snapshot).
     * @param allow_inject gate for delivering (same reason).
     */
    Injection deviceTick(const DeviceView &dev, Cycle now,
                         bool allow_disk_schedule, bool allow_inject,
                         const std::function<bool(InstNum)> &boundary_ok);

    /** True while a timer tick or disk completion awaits injection. */
    bool
    injectionPending() const
    {
        return pendingTimerIrq_ || pendingDiskComplete_;
    }

    /** Device-timing state machine, for snapshots.  Only meaningful at a
     *  clean commit boundary (no injection pending). */
    void
    save(serialize::Sink &s) const
    {
        s.put<std::uint8_t>(timerArmed_);
        s.put<Cycle>(timerNextFire_);
        s.put<std::uint8_t>(diskScheduled_);
        s.put<Cycle>(diskCompleteAt_);
        s.put<std::uint8_t>(pendingTimerIrq_);
        s.put<std::uint8_t>(pendingDiskComplete_);
    }

    void
    restore(serialize::Source &s)
    {
        timerArmed_ = s.get<std::uint8_t>();
        timerNextFire_ = s.get<Cycle>();
        diskScheduled_ = s.get<std::uint8_t>();
        diskCompleteAt_ = s.get<Cycle>();
        pendingTimerIrq_ = s.get<std::uint8_t>();
        pendingDiskComplete_ = s.get<std::uint8_t>();
    }

  private:
    tm::CoreDrainPort &core_;
    Cycle diskLatency_;

    bool timerArmed_ = false;
    Cycle timerNextFire_ = 0;
    bool diskScheduled_ = false;
    Cycle diskCompleteAt_ = 0;
    bool pendingTimerIrq_ = false;
    bool pendingDiskComplete_ = false;
};

/**
 * The FM-bound command channel: every protocol event both runners apply
 * to the functional model flows through one CmdChannel on the FM-owning
 * thread.  With no FaultPlan it is a zero-state passthrough to
 * ProtocolEngine::applyToFm.
 *
 * With a plan, it models the lossy control path of the link:
 *
 *   CmdDrop — the command is lost; the sender's ack timeout retransmits
 *             it (counted + charged; the retransmitted copy is applied).
 *   CmdDup  — the command is delivered twice.  Re-applying a
 *             resteer-class command is NOT idempotent (the second set_pc
 *             bumps the FM's speculation epoch again and desynchronizes
 *             it from the TM's expected epoch), so the channel keeps the
 *             last-applied command and discards an identical immediate
 *             successor — the classic at-least-once-delivery dedup guard.
 */
class CmdChannel
{
  public:
    CmdChannel(inject::FaultPlan *plan, const host::LinkRetryPolicy &policy,
               stats::Group &stats);

    /**
     * Whichever thread owns the FM owns the channel: the coupled runner's
     * single thread, or the parallel runner's FM thread (the TM thread
     * takes the role over only in degraded mode / after join).  The dedup
     * guard state below is meaningless if two threads interleave apply().
     */
    ThreadRole ownerRole;

    /** Apply `e` exactly once.  Same return contract as applyToFm(). */
    bool apply(const tm::TmEvent &e, fm::FuncModel &fm, tm::TraceBuffer &tb,
               stats::Group &stats) FASTSIM_REQUIRES(ownerRole);

  private:
    inject::FaultPlan *plan_;
    host::LinkRetryPolicy policy_;

    bool haveLast_ FASTSIM_GUARDED_BY(ownerRole) = false;
    tm::TmEvent last_ FASTSIM_GUARDED_BY(ownerRole);

    stats::Handle stDropRetransmits_;
    stats::Handle stDupSuppressed_;
    stats::Handle stRetryNs_;
};

} // namespace fast
} // namespace fastsim

#endif // FASTSIM_FAST_PROTOCOL_HH
