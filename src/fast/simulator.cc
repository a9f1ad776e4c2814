#include "fast/simulator.hh"

#include "analysis/verify.hh"
#include "base/logging.hh"
#include "base/serialize.hh"
#include "fast/snapshot_io.hh"
#include "fm/smp.hh"
#include "tm/bsp.hh"
#include "tm/smp_core.hh"

namespace fastsim {
namespace fast {

using fm::StepResult;
using tm::TmEvent;

template <typename Tm>
CoupledLoop<Tm>::CoupledLoop(const FastConfig &cfg, const char *stats_name)
    : cfg_(cfg), stats_(stats_name), guardrails_(cfg.guardrails, stats_)
{
    constexpr bool multi = std::is_same_v<Tm, tm::SmpCore>;
    const unsigned n = cfg.numCores;
    if (!multi && n != 1)
        fatal("the single-core runners model exactly one core "
              "(numCores=%u); multi-core configurations run on "
              "fast::SmpSimulator",
              n);
    if (multi && (n < 2 || n > 32))
        fatal("SmpSimulator models 2..32 cores (numCores=%u); single-core "
              "configurations run on fast::FastSimulator", n);
    if (multi && cfg.faults.any())
        fatal("fault injection is not supported on the SMP runner "
              "(numCores=%u): the plan's deterministic draw sequence is "
              "defined against a single FM/TM stream", n);
    if (cfg.faults.any())
        plan_ = std::make_unique<inject::FaultPlan>(cfg.faults);

    fm::FmConfig fm_cfg = cfg.fm;
    fm_cfg.fmDrivenDevices = false; // the timing model owns device timing
    if constexpr (multi)
        fm_ = std::make_unique<fm::SmpFuncModel>(fm_cfg, n);
    else
        fm_ = std::make_unique<fm::FuncModel>(fm_cfg);

    // Per-core link/command channels; counters with equal names share one
    // slot in stats_, so the fault-free hot path aggregates across cores.
    faces_.resize(n);
    std::vector<tm::TraceBuffer *> tbs;
    for (unsigned c = 0; c < n; ++c) {
        Face &f = faces_[c];
        if constexpr (multi)
            f.fm = &fm_->core(c);
        else
            f.fm = fm_.get();
        f.tb = std::make_unique<tm::TraceBuffer>(cfg.traceBufferEntries);
        tbs.push_back(f.tb.get());
        f.link = std::make_unique<inject::TraceLink>(plan_.get(),
                                                     cfg.linkRetry, stats_);
        f.cmd = std::make_unique<CmdChannel>(plan_.get(), cfg.linkRetry,
                                             stats_);
    }
    if constexpr (multi)
        core_ = std::make_unique<tm::SmpCore>(cfg.core, tbs);
    else
        core_ = std::make_unique<tm::Core>(cfg.core, *tbs[0]);
    if (cfg.verifyFabric)
        analysis::verifyFabricOrFatal(core_->registry(), cfg.core);
    for (unsigned c = 0; c < n; ++c)
        faces_[c].port = &core_->drainPort(c);

    // One engine, bound to core 0's drain port: the shared platform
    // devices interrupt the boot core only (DESIGN.md §16.1).
    engine_ = std::make_unique<ProtocolEngine>(*faces_[0].port,
                                               cfg.diskLatencyCycles);
    boundaryOk_ = [this](InstNum in) {
        return faces_[0].fm->lastCommitted() + 1 == in;
    };
    mirror_.configure(cfg.fm.diskBlocks);

    // Commit hooks fire on whichever thread ticks the committing slice (a
    // BSP worker under tmThreads > 1).  With N >= 2 cores different cores
    // commit concurrently, so their hooks only append to the core's own
    // buffer and drainCommits() folds the buffers core-major on the
    // loop's thread after the tick — which keeps the commit hash chain
    // (and every observer) invariant under tmThreads; they are always
    // installed because onCommitEntry observers attach after
    // construction.  One core's commits are the only ones and the loop's
    // thread waits out the tick, so its hook folds each commit directly.
    if constexpr (multi) {
        for (unsigned c = 0; c < n; ++c)
            core_->setOnCommit(c, [this, c](const fm::TraceEntry &e) {
                faces_[c].commits.push_back(e);
            });
    } else if (cfg.guardrails.hashCommits || cfg.deterministicDevices) {
        core_->setOnCommit(0, [this](const fm::TraceEntry &e) {
            guardrails_.ownerRole.assertHeld(); // the ticking thread
            observeCommit(0, e);
        });
    }
}

template <typename Tm> CoupledLoop<Tm>::~CoupledLoop() = default;

template <typename Tm>
void
CoupledLoop<Tm>::boot(const kernel::BootImage &image)
{
    kernel::loadAndReset(*faces_[0].fm, image);
    if (numCores() == 1)
        return;
    const auto it = image.symbols.find("smp_secondary_entry");
    if (it == image.symbols.end())
        fatal("SMP boot: the image has no smp_secondary_entry symbol "
              "(build it with BuildOptions::smpCores = %u)", numCores());
    for (unsigned c = 1; c < numCores(); ++c)
        faces_[c].fm->reset(it->second);
}

template <typename Tm>
fm::FuncModel &
CoupledLoop<Tm>::activate(Face &f)
{
    if constexpr (std::is_same_v<Tm, tm::SmpCore>)
        f.fm->attachSharedDevices();
    return *f.fm;
}

template <typename Tm>
bool
CoupledLoop<Tm>::stepFm(Face &f)
{
    if (f.tb->full()) {
        ++stats_.counter("fm_stall_tb_full");
        return false;
    }
    StepResult r = activate(f).step();
    switch (r.kind) {
      case StepResult::Kind::Ok:
        f.link->deliver(*f.tb, r.entry);
        return true;
      case StepResult::Kind::Halted:
        ++stats_.counter("fm_halted_polls");
        return false;
      case StepResult::Kind::WrongPathStall:
        // Wrong path ran into a fault/halt: idle until a resteer.
        f.stalledWrongPath = true;
        return false;
    }
    return false;
}

template <typename Tm>
void
CoupledLoop<Tm>::produceEntries()
{
    // Deterministic round-robin at instruction granularity: step core 0,
    // 1, ..., N-1, then repeat, up to fmStepsPerCycle rounds.  A core that
    // cannot produce (ring full, halted, wrong path ran into a fault)
    // sits out the rest of the cycle — nothing in this phase can free its
    // ring, wake it or resteer it — so the interleave is a pure function
    // of target state.  (Locals: every FM step is an opaque call, after
    // which members would be reloaded — this runs once per target cycle.)
    Face *const faces = faces_.data();
    const unsigned n = numCores();
    std::uint32_t live = 0;
    for (unsigned c = 0; c < n; ++c)
        if (!faces[c].stalledWrongPath)
            live |= 1u << c;
    for (unsigned k = cfg_.fmStepsPerCycle; k != 0 && live != 0; --k)
        for (unsigned c = 0; c < n; ++c)
            if ((live & (1u << c)) && !stepFm(faces[c]))
                live &= ~(1u << c);
}

template <typename Tm>
void
CoupledLoop<Tm>::observeCommit(unsigned c, const fm::TraceEntry &e)
{
    if (cfg_.guardrails.hashCommits)
        guardrails_.onCommitEntry(e);
    if (cfg_.deterministicDevices && c == 0)
        mirror_.onCommitEntry(e);
    if (onCommitEntry)
        onCommitEntry(c, e);
}

template <typename Tm>
void
CoupledLoop<Tm>::drainCommits()
{
    guardrails_.ownerRole.assertHeld();
    for (unsigned c = 0; c < numCores(); ++c) {
        for (const fm::TraceEntry &e : faces_[c].commits)
            observeCommit(c, e);
        faces_[c].commits.clear();
    }
}

template <typename Tm>
void
CoupledLoop<Tm>::handleEvents()
{
    const unsigned n = numCores();
    for (unsigned c = 0; c < n; ++c) {
        Face &f = faces_[c];
        f.cmd->ownerRole.assertHeld(); // this thread owns every channel
        for (const TmEvent &e : core_->drainEvents(c)) {
            if (onEvent)
                onEvent(e);
            if (e.kind == TmEvent::Kind::WrongPath && n > 1) {
                // N >= 2 keeps every FM on the architectural path: a
                // wrong-path excursion's speculative stores would leak
                // through the shared physical memory into the other
                // cores' functional models, and a later rollback cannot
                // revoke what another core already consumed.  Roll back
                // to the mispredict point restoring its *natural* PC
                // instead of redirecting; the TM still pays the full
                // resteer penalty as fetch bubbles (DESIGN.md §16.4).
                if (!f.tb->rewindTo(e.in))
                    fatal("smp: TraceBuffer::rewindTo(%llu) failed "
                          "suppressing a wrong-path resteer on core %u",
                          (unsigned long long)e.in, c);
                activate(f).rollbackTo(e.in);
                f.stalledWrongPath = false;
                ++stats_.counter("wrong_path_suppressed");
                continue;
            }
            if (f.cmd->apply(e, activate(f), *f.tb, stats_))
                f.stalledWrongPath = false;
        }
    }
}

template <typename Tm>
DeviceView
CoupledLoop<Tm>::timingView(const DeviceView &interpreted) const
{
    return cfg_.deterministicDevices ? mirror_.view() : interpreted;
}

template <typename Tm>
void
CoupledLoop<Tm>::deviceTiming()
{
    Face &boot = faces_[0];
    boot.cmd->ownerRole.assertHeld();
    fm::FuncModel &devices = *boot.fm;
    // Seeded device misfires (§3.4 fault model): the device models decide
    // whether the misfire is guest-visible or suppressed by their guards.
    if (plan_) {
        if (plan_->fire(inject::FaultClass::SpuriousTimer))
            devices.timer().injectMisfire();
        if (plan_->fire(inject::FaultClass::SpuriousDisk))
            devices.disk().injectMisfire();
    }

    // Single-threaded: the engine may schedule and inject without
    // transport constraints, gated only on core 0's true committed
    // boundary.
    const DeviceView dev = timingView({devices.timer().enabled(),
                                       devices.timer().interval(),
                                       devices.disk().busy()});
    const Injection inj =
        engine_->deviceTick(dev, core_->cycle(), /*allow_disk_schedule=*/true,
                            /*allow_inject=*/true, boundaryOk_);
    if (inj) {
        if (inj.kind == Injection::Kind::Disk)
            mirror_.onDiskInjection();
        if (boot.cmd->apply(inj.toEvent(), activate(boot), *boot.tb, stats_))
            boot.stalledWrongPath = false;
    }
}

template <typename Tm>
std::vector<CoreView>
CoupledLoop<Tm>::coreViews() const
{
    std::vector<CoreView> v;
    for (unsigned c = 0; c < numCores(); ++c)
        v.push_back({*faces_[c].fm, *faces_[c].tb, core_->sliceState(c),
                     core_->sliceDrained(c),
                     core_->coherenceTokensInFlight(c)});
    return v;
}

template <typename Tm>
void
CoupledLoop<Tm>::crossCheck()
{
    guardrails_.crossCheck(coreViews(), core_->committedInstsTotal());
}

template <typename Tm>
std::string
CoupledLoop<Tm>::diagnose(const std::string &runner_state) const
{
    return guardrails_.diagnose(core_->cycle(), coreViews(), *engine_,
                                core_->registry(), runner_state);
}

template <typename Tm>
void
CoupledLoop<Tm>::runGuardrails()
{
    guardrails_.ownerRole.assertHeld();
    const std::uint64_t committed = core_->committedInstsTotal();
    if (guardrails_.crossCheckDue(committed))
        crossCheck();
    if (guardrails_.notePoll(committed)) {
        guardrails_.noteDiagnosis(diagnose());
        if (cfg_.guardrails.watchdogFatal)
            fatal("%s", guardrails_.lastDiagnosis().c_str());
        warn("%s", guardrails_.lastDiagnosis().c_str());
    }
}

template <typename Tm>
void
CoupledLoop<Tm>::tickOnce()
{
    produceEntries();
    core_->tick();
    drainCommits();
    handleEvents();
    deviceTiming();
    runGuardrails();
}

template <typename Tm>
bool
CoupledLoop<Tm>::finished() const
{
    for (unsigned c = 0; c < numCores(); ++c) {
        const fm::FuncModel &f = *faces_[c].fm;
        if (!f.halted() || (f.state().flags & isa::FlagI) ||
            faces_[c].tb->unfetched() != 0 || !core_->sliceDrained(c))
            return false;
    }
    return true;
}

template <typename Tm>
RunResult
CoupledLoop<Tm>::run(Cycle max_cycles)
{
    RunResult r;
    if (cfg_.checkpointEvery != 0 && nextCheckpointAt_ == 0)
        nextCheckpointAt_ = core_->cycle() + cfg_.checkpointEvery;
    while (core_->cycle() < max_cycles) {
        tickOnce();
        if (finished()) {
            r.finished = true;
            break;
        }
        if (cfg_.checkpointEvery != 0 && core_->cycle() >= nextCheckpointAt_) {
            // Keep requesting the drain every cycle: a device injection may
            // consume an earlier request (noteResteer clears it).
            checkpointDrainPending_ = true;
            for (Face &f : faces_)
                f.port->requestDrain();
        }
        if (checkpointDrainPending_ && checkpointReady()) {
            // Count before saving so the snapshot itself carries the
            // incremented counter; a resumed run then reproduces the
            // uninterrupted run's statistics exactly.
            ++stats_.counter("checkpoints_taken");
            saveSnapshot(cfg_.checkpointPath);
            checkpointDrainPending_ = false;
            nextCheckpointAt_ = core_->cycle() + cfg_.checkpointEvery;
        }
    }
    r.cycles = core_->cycle();
    r.insts = core_->committedInstsTotal();
    r.ipc = r.cycles ? static_cast<double>(r.insts) /
                           static_cast<double>(r.cycles)
                     : 0.0;
    return r;
}

// --- checkpoint / resume ----------------------------------------------------
//
// A snapshot is only taken at a *quiesced commit boundary*: every TM
// slice fully drained, no device injection pending, and every FM rolled
// back to exactly its last committed instruction.  At that point the
// whole simulator is describable by committed architectural state plus a
// handful of scalars, and the trace buffers are empty by construction —
// so the snapshot never has to serialize speculative state.
//
// On-disk format (little-endian):
//
//   u32 magic "FSNP"   u32 version   u64 config fingerprint
//   u64 payload size   u64 payload FNV-1a checksum
//   payload...
//
// The fingerprint rejects resuming under a different machine configuration
// (which would silently diverge); the checksum rejects torn/corrupt files.
// snapshot_io::writeFileAtomic publishes the image through a
// process-unique temp file and an atomic rename, so a crash mid-checkpoint
// leaves the previous snapshot intact.
//
// Version history (the constants live in snapshot_io.hh):
// v2: the memory hierarchy became registry modules — the payload now
// carries per-level MSHR tables and the ten memory-fabric connectors,
// and the fingerprint covers the MemConfig knobs that shape them.
// v3: the payload carries the adaptive trace-sizer state (EWMA + current
// ring capacity) and the fingerprint covers the parallel-runner tuning knobs
// that shape target-visible behaviour (epoch window, batch size and the
// adaptive bounds are all part of the deterministic contract a resumed
// run must reproduce).
// v4: the payload records the BSP tuning at capture time (tmThreads and
// the partition count the scheduler actually ran) — informational only.
// tmThreads is deliberately NOT part of the fingerprint: the BSP
// schedule is bit-identical at any thread count (DESIGN.md §13), so a
// checkpoint taken at tmThreads=4 must resume at tmThreads=1 and vice
// versa; the recorded values let tooling report how a snapshot was
// produced without constraining how it is consumed.
// v5: numCores joins the config fingerprint (a 2-core snapshot must not
// resume on a 4-core simulator: the payload shape and the coherence
// state are per-core), and the payload carries one FM/TM/sizer section
// per core under the same header format.  tmThreads stays out — the SMP
// fabric's BSP schedule is thread-count-invariant too.
// v6: the parallel runner's schedule became fixed constants and the
// trace ring a fixed capacity, so the fingerprint drops the seven tuning
// fields and the payload drops each core's sizer state and ring
// capacity.  In-flight Connector tokens carry zeroed padding, so equal
// runs write byte-identical images.

std::uint64_t
configFingerprint(const FastConfig &cfg)
{
    serialize::Sink s;
    s.put<std::uint64_t>(cfg.fm.ramBytes);
    s.put<std::uint32_t>(cfg.fm.diskBlocks);
    s.put<std::uint64_t>(cfg.fm.diskLatency);
    s.put<std::uint64_t>(cfg.fm.diskSeed);
    s.put<std::uint8_t>(cfg.fm.traceCompression ? 1 : 0);
    s.put<std::uint64_t>(cfg.traceBufferEntries);
    s.put<std::uint32_t>(cfg.fmStepsPerCycle);
    s.put<Cycle>(cfg.diskLatencyCycles);
    s.put<std::uint32_t>(cfg.core.issueWidth);
    s.put<std::uint32_t>(cfg.core.robEntries);
    s.put<std::uint8_t>(static_cast<std::uint8_t>(cfg.core.bp.kind));
    s.put<std::uint32_t>(cfg.core.bp.historyBits);
    s.put<std::uint64_t>(cfg.core.statsIntervalBb);
    s.put<std::uint8_t>(cfg.core.caches.l1i.blocking ? 1 : 0);
    s.put<std::uint8_t>(cfg.core.caches.l1d.blocking ? 1 : 0);
    s.put<std::uint8_t>(cfg.core.caches.l2.blocking ? 1 : 0);
    s.put<Cycle>(cfg.core.caches.memLatency);
    s.put<std::uint32_t>(cfg.core.mem.l1iMshrs);
    s.put<std::uint32_t>(cfg.core.mem.l1dMshrs);
    s.put<std::uint32_t>(cfg.core.mem.l2Mshrs);
    s.put<Cycle>(cfg.core.mem.memServiceInterval);
    s.put<std::uint8_t>(cfg.deterministicDevices ? 1 : 0);
    // v5: the core count shapes the payload (per-core FM/TM sections,
    // coherence directory) — a mismatched resume must be rejected.
    s.put<std::uint32_t>(cfg.numCores);
    return s.checksum();
}

template <typename Tm>
bool
CoupledLoop<Tm>::checkpointReady() const
{
    if (!core_->quiescedForSnapshot() || engine_->injectionPending())
        return false;
    for (unsigned c = 0; c < numCores(); ++c) {
        const Face &f = faces_[c];
        if (f.stalledWrongPath ||
            f.fm->lastCommitted() + 1 != core_->sliceState(c).nextFetchIn)
            return false;
    }
    return true;
}

template <typename Tm>
void
CoupledLoop<Tm>::quiesceToBoundary()
{
    fastsim_assert(checkpointReady());
    for (unsigned c = 0; c < numCores(); ++c) {
        Face &f = faces_[c];
        fm::FuncModel &m = activate(f);
        if (m.nextIn() != m.lastCommitted() + 1 || m.onWrongPath()) {
            // The FM ran ahead of the drained TM: discard the speculation
            // so both sides sit exactly at the committed boundary.  This
            // is the same resteer sequence a device injection uses, so the
            // epochs stay paired (FM rollback bump <-> TM noteResteer).
            m.rollbackToBoundary();
            if (!f.tb->rewindTo(m.nextIn()))
                fatal("checkpoint: core %u trace-buffer rewind to IN %llu "
                      "failed", c,
                      static_cast<unsigned long long>(m.nextIn()));
            f.port->noteResteer();
        } else {
            // Nothing to roll back: consume the drain request without an
            // epoch bump (an unpaired bump would desynchronize the epochs).
            core_->clearDrainRequest(c);
        }
    }
}

template <typename Tm>
std::vector<std::uint8_t>
CoupledLoop<Tm>::snapshotImage()
{
    quiesceToBoundary();

    serialize::Sink payload;
    fm_->saveState(payload);
    core_->saveState(payload);
    engine_->save(payload);
    guardrails_.save(payload);
    mirror_.save(payload);
    // v4: BSP tuning at capture time (informational; see the history).
    payload.put<std::uint32_t>(cfg_.core.tmThreads);
    payload.put<std::uint32_t>(static_cast<std::uint32_t>(
        core_->bspScheduler() ? core_->bspScheduler()->partitionCount()
                              : 1));
    serialize::putGroup(payload, stats_);

    serialize::Sink image;
    image.put<std::uint32_t>(snapshot_io::SnapshotMagic);
    image.put<std::uint32_t>(snapshot_io::SnapshotVersion);
    image.put<std::uint64_t>(configFingerprint(cfg_));
    image.put<std::uint64_t>(payload.data().size());
    image.put<std::uint64_t>(payload.checksum());
    image.putBytes(payload.data().data(), payload.data().size());
    return image.data();
}

template <typename Tm>
void
CoupledLoop<Tm>::saveSnapshot(const std::string &path)
{
    snapshot_io::writeFileAtomic(path, snapshotImage());
}

template <typename Tm>
void
CoupledLoop<Tm>::saveSnapshotToStream(std::FILE *f)
{
    snapshot_io::writeStream(f, snapshotImage(), "<stream>");
}

template <typename Tm>
bool
CoupledLoop<Tm>::checkpointNow(const std::string &path, Cycle max_extra_cycles)
{
    // Drive the machine to the next drained commit boundary (re-request
    // the drain each cycle: a device injection may consume one), then
    // snapshot.  Used by SIGTERM/SIGINT handlers — the emergency drain is
    // a real pipeline event, so cycle counts downstream of this snapshot
    // may differ from an uninterrupted run; the committed instruction
    // stream (hash chain, console) does not.
    const Cycle bound = core_->cycle() + max_extra_cycles;
    while (!checkpointReady() && !finished() && core_->cycle() < bound) {
        for (Face &f : faces_)
            f.port->requestDrain();
        tickOnce();
    }
    if (!checkpointReady())
        return false;
    ++stats_.counter("checkpoints_taken");
    saveSnapshot(path);
    return true;
}

template <typename Tm>
void
CoupledLoop<Tm>::resumeFrom(const std::string &path)
{
    resumeFromImage(snapshot_io::readFile(path));
}

template <typename Tm>
void
CoupledLoop<Tm>::resumeFromImage(const std::vector<std::uint8_t> &bytes)
{
    serialize::Source hdr(bytes.data(), bytes.size());
    hdr.require(bytes.size() >= 32, "snapshot header truncated");
    hdr.require(hdr.get<std::uint32_t>() == snapshot_io::SnapshotMagic,
                "bad snapshot magic");
    hdr.require(hdr.get<std::uint32_t>() == snapshot_io::SnapshotVersion,
                "unsupported snapshot version");
    hdr.require(hdr.get<std::uint64_t>() == configFingerprint(cfg_),
                "snapshot was taken under a different configuration");
    const std::uint64_t payload_size = hdr.get<std::uint64_t>();
    const std::uint64_t checksum = hdr.get<std::uint64_t>();
    hdr.require(hdr.offset() + payload_size == bytes.size(),
                "snapshot payload size mismatch");
    hdr.require(serialize::fnv1a(bytes.data() + hdr.offset(), payload_size) ==
                    checksum,
                "snapshot payload checksum mismatch");

    serialize::Source s(bytes.data() + hdr.offset(), payload_size);
    fm_->restoreState(s);
    core_->restoreState(s);
    engine_->restore(s);
    // Restore happens before any runner thread exists: the restoring
    // thread is the guardrails owner.
    guardrails_.ownerRole.assertHeld();
    guardrails_.restore(s);
    mirror_.restore(s);
    // v4 capture-time BSP tuning: validated for shape, not matched — a
    // snapshot resumes under any tmThreads (the schedule is
    // thread-count-invariant, so the values are provenance, not contract).
    // The scheduler never runs more partitions than threads.
    const std::uint32_t captureThreads = s.get<std::uint32_t>();
    const std::uint32_t captureParts = s.get<std::uint32_t>();
    s.require(captureThreads >= 1 && captureParts >= 1 &&
                  captureParts <= captureThreads,
              "snapshot BSP tuning record is malformed");
    serialize::getGroup(s, stats_);
    s.require(s.atEnd(), "snapshot has trailing bytes");

    // The resumed boundary is quiesced: every ring is logically empty and
    // its IN<->index mapping re-establishes on the first push.
    for (Face &f : faces_) {
        f.tb->reset();
        f.stalledWrongPath = false;
    }
    checkpointDrainPending_ = false;
    nextCheckpointAt_ = 0;
}

template class CoupledLoop<tm::Core>;
template class CoupledLoop<tm::SmpCore>;

} // namespace fast
} // namespace fastsim
