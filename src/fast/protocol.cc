#include "fast/protocol.hh"

namespace fastsim {
namespace fast {

using tm::TmEvent;

namespace {

const char *
eventKindName(TmEvent::Kind k)
{
    switch (k) {
      case TmEvent::Kind::WrongPath: return "WrongPath";
      case TmEvent::Kind::Resolve: return "Resolve";
      case TmEvent::Kind::Commit: return "Commit";
      case TmEvent::Kind::RefetchAt: return "RefetchAt";
      case TmEvent::Kind::InjectTimer: return "InjectTimer";
      case TmEvent::Kind::InjectDisk: return "InjectDisk";
    }
    return "?";
}

/** Structured FatalError for a trace-buffer operation that reported
 *  failure: the silent-clamp behavior this replaces wedged the pipeline
 *  with no diagnosis (DESIGN.md §10.2). */
[[noreturn]] void
tbOperationFailed(const char *op, const TmEvent &e, const fm::FuncModel &fm,
                  const tm::TraceBuffer &tb)
{
    fatal("protocol: TraceBuffer::%s failed applying %s(in=%llu pc=%#x) — "
          "corrupt or reordered command [tb size=%zu unfetched=%zu "
          "expectedNextIn=%llu | fm nextIn=%llu lastCommitted=%llu "
          "epoch=%u]",
          op, eventKindName(e.kind), (unsigned long long)e.in, e.pc,
          tb.size(), tb.unfetched(), (unsigned long long)tb.expectedNextIn(),
          (unsigned long long)fm.nextIn(),
          (unsigned long long)fm.lastCommitted(), fm.epoch());
}

} // namespace

bool
ProtocolEngine::applyToFm(const TmEvent &e, fm::FuncModel &fm,
                          tm::TraceBuffer &tb, stats::Group &stats)
{
    switch (e.kind) {
      case TmEvent::Kind::WrongPath:
        if (!tb.rewindTo(e.in))
            tbOperationFailed("rewindTo", e, fm, tb);
        fm.setPc(e.in, e.pc, /*wrong_path=*/true);
        ++stats.counter("wrong_path_resteers");
        return true;
      case TmEvent::Kind::Resolve:
        if (!tb.rewindTo(e.in))
            tbOperationFailed("rewindTo", e, fm, tb);
        fm.setPc(e.in, e.pc, /*wrong_path=*/false);
        ++stats.counter("resolve_resteers");
        return true;
      case TmEvent::Kind::Commit:
        fm.commit(e.in);
        if (!tb.commitTo(e.in))
            tbOperationFailed("commitTo", e, fm, tb);
        return false;
      case TmEvent::Kind::RefetchAt:
        // The core already re-aimed the TB fetch pointer itself.
        ++stats.counter("exception_refetches");
        return false;
      case TmEvent::Kind::InjectTimer:
        if (!tb.rewindTo(e.in))
            tbOperationFailed("rewindTo", e, fm, tb);
        fm.resteerForInterrupt(e.in, isa::VecTimer);
        ++stats.counter("timer_interrupts");
        return true;
      case TmEvent::Kind::InjectDisk:
        if (!tb.rewindTo(e.in))
            tbOperationFailed("rewindTo", e, fm, tb);
        fm.resteerForDiskComplete(e.in);
        ++stats.counter("disk_completions");
        return true;
    }
    return false;
}

CmdChannel::CmdChannel(inject::FaultPlan *plan,
                       const host::LinkRetryPolicy &policy,
                       stats::Group &stats)
    : plan_(plan), policy_(policy),
      stDropRetransmits_(stats.handle("cmd_drop_retransmits")),
      stDupSuppressed_(stats.handle("cmd_dup_suppressed")),
      stRetryNs_(stats.handle("cmd_retry_ns"))
{
}

bool
CmdChannel::apply(const TmEvent &e, fm::FuncModel &fm, tm::TraceBuffer &tb,
                  stats::Group &stats)
{
    if (plan_ && plan_->fire(inject::FaultClass::CmdDrop)) {
        // The command is lost in transit; the sender times out waiting
        // for the ack and retransmits.  The retransmitted copy below is
        // the one that lands.
        ++stDropRetransmits_;
        stRetryNs_ += static_cast<std::uint64_t>(policy_.backoffNs(0));
    }

    const bool resteer = ProtocolEngine::applyToFm(e, fm, tb, stats);
    last_ = e;
    haveLast_ = true;

    if (plan_ && plan_->fire(inject::FaultClass::CmdDup)) {
        // A duplicate copy of `e` arrives right after the original.  The
        // dedup guard recognizes it as identical to the last applied
        // command and discards it; re-applying a resteer-class command
        // would bump the FM epoch a second time and desynchronize FM
        // and TM.
        const tm::TmEvent dup = e;
        fastsim_assert(haveLast_ && dup.kind == last_.kind &&
                       dup.in == last_.in && dup.pc == last_.pc);
        ++stDupSuppressed_;
    }
    return resteer;
}

Injection
ProtocolEngine::deviceTick(const DeviceView &dev, Cycle now,
                           bool allow_disk_schedule, bool allow_inject,
                           const std::function<bool(InstNum)> &boundary_ok)
{
    // Timer: the guest programs interval/enable through its ports; the
    // timing model decides *when* ticks land, in target cycles (§3.4).
    if (dev.timerEnabled) {
        if (!timerArmed_) {
            timerArmed_ = true;
            timerNextFire_ = now + dev.timerInterval;
        }
        if (now >= timerNextFire_ && !pendingTimerIrq_) {
            pendingTimerIrq_ = true;
            timerNextFire_ = now + dev.timerInterval;
        }
    } else {
        timerArmed_ = false;
    }

    // Disk: completion lands a fixed number of target cycles after the
    // command was observed in flight.
    if (dev.diskBusy && !diskScheduled_ && !pendingDiskComplete_ &&
        allow_disk_schedule) {
        diskScheduled_ = true;
        diskCompleteAt_ = now + diskLatency_;
    }
    if (diskScheduled_ && now >= diskCompleteAt_) {
        diskScheduled_ = false;
        pendingDiskComplete_ = true;
    }

    if (!pendingTimerIrq_ && !pendingDiskComplete_)
        return {};
    if (!allow_inject)
        return {}; // one injection in flight at a time

    // Reproducible injection (paper §3.4: the TM "freezes, notifies the
    // functional model ... and waits"): drain the pipeline, commit
    // everything, then resteer the FM at the exact next IN.
    core_.requestDrain();
    if (!core_.drained())
        return {};
    const InstNum in = core_.nextFetchIn();
    if (!boundary_ok(in)) {
        // Not everything fetched has committed yet; keep draining.
        return {};
    }
    Injection inj;
    inj.in = in;
    if (pendingDiskComplete_) {
        inj.kind = Injection::Kind::Disk;
        pendingDiskComplete_ = false;
    } else {
        inj.kind = Injection::Kind::Timer;
        pendingTimerIrq_ = false;
    }
    core_.noteResteer();
    return inj;
}

} // namespace fast
} // namespace fastsim
