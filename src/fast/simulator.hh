/**
 * @file
 * The top-level FAST simulator: the speculative functional model and the
 * timing model coupled through per-core trace buffers and the
 * mis-speculation / commit / interrupt protocol of paper §2.1 and §3.4.
 *
 * One coupled loop (CoupledLoop below) implements that protocol for any
 * core count; the runners are faces of it:
 *  - FastSimulator (this file): one core, deterministic single-threaded
 *    interleaving, the reference implementation of the protocol;
 *  - SmpSimulator (smp.hh): the same loop over N >= 2 cores;
 *  - ParallelFastSimulator (parallel.hh): one core with the functional
 *    and timing models on separate host threads, demonstrating the
 *    latency-tolerant parallelization that is the paper's core
 *    contribution (§3); it falls back to the coupled loop when its
 *    watchdog degrades the run.
 */

#ifndef FASTSIM_FAST_SIMULATOR_HH
#define FASTSIM_FAST_SIMULATOR_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "base/statistics.hh"
#include "fast/guardrails.hh"
#include "fast/protocol.hh"
#include "fm/func_model.hh"
#include "host/link_model.hh"
#include "inject/fault_plan.hh"
#include "inject/trace_link.hh"
#include "kernel/boot.hh"
#include "tm/core.hh"
#include "tm/trace_buffer.hh"

namespace fastsim {
namespace fm {
class SmpFuncModel;
}
namespace tm {
class SmpCore;
}
namespace fast {

/**
 * Full-simulator configuration.  The parallel runner's schedule (epoch
 * window, command batch, FM batch, spin bound) is not configurable: it is
 * one fixed set of constants in fast/parallel.cc (DESIGN.md §12), and the
 * trace ring keeps traceBufferEntries for the whole run.  Neither is the
 * FM<->TM link retry schedule (fast/simulator.cc).
 */
struct FastConfig
{
    tm::CoreConfig core;
    fm::FmConfig fm; //!< fmDrivenDevices is forced off (TM owns timing)
    std::size_t traceBufferEntries = 256;

    /**
     * Number of simulated FX86 cores.  1 (the default) selects the
     * single-core runners (FastSimulator / ParallelFastSimulator) and is
     * bit-identical to the pre-SMP simulator; N >= 2 is served by
     * fast::SmpSimulator (smp.hh): per-core pipelines and L1s joined to
     * a shared L2/memory with a MESI-lite directory (DESIGN.md §16).
     */
    unsigned numCores = 1;

    /**
     * Functional-model run-ahead: instructions the FM may execute per
     * target cycle (the FM is not in lock-step with the TM, paper §2).
     */
    unsigned fmStepsPerCycle = 4;

    /** Disk completion latency in target cycles (TM device timing, §3.4). */
    Cycle diskLatencyCycles = 5000;

    /**
     * Fail fast on a structurally broken Module/Connector fabric: the
     * constructor runs the fastlint fabric pass (src/analysis) and throws
     * FatalError on any error — e.g. a zero-latency Connector cycle or a
     * dangling endpoint.  Disable to construct anyway (fastlint's own
     * --no-verify-fabric does this to report rather than throw).
     */
    bool verifyFabric = true;

    /** Fault-injection plan (all classes disabled by default). */
    inject::FaultPlanConfig faults;

    /** Runtime guardrails: watchdog, cross-checks, commit-hash chain. */
    GuardrailConfig guardrails;

    /**
     * Commit-anchored device timing (CommittedDeviceMirror): device-
     * register writes take timing effect when they *commit* instead of
     * when the FM's run-ahead interprets them.  Makes timer- and disk-
     * driven runs bit-identical between the coupled and parallel runners
     * (cycles included) at the cost of a slightly later timer arm than
     * the default interpretation-time semantics.  Off by default: the
     * golden reference numbers pin the default semantics.
     */
    bool deterministicDevices = false;

    /**
     * Crash-consistent checkpointing (coupled loop, any core count):
     * snapshot to `checkpointPath` every `checkpointEvery` target cycles
     * (0 = off).  Snapshots are taken at drained commit boundaries, so
     * enabling them perturbs cycle counts (the drains are real pipeline
     * events); kill-and-resume equivalence holds between runs with the
     * *same* checkpoint cadence.
     */
    Cycle checkpointEvery = 0;
    std::string checkpointPath = "fastsim.ckpt";
};

/**
 * The configuration fingerprint embedded in snapshot headers, shared by
 * every runner (fast/simulator.cc): resuming under a configuration with a
 * different fingerprint is rejected.  Covers every knob that shapes
 * target-visible state — including numCores — but not tmThreads (the BSP
 * schedule is thread-count-invariant).
 */
std::uint64_t configFingerprint(const FastConfig &cfg);

/** Aggregate results of a run. */
struct RunResult
{
    bool finished = false;    //!< guest reached its final halt
    Cycle cycles = 0;         //!< target cycles simulated
    std::uint64_t insts = 0;  //!< committed target-path instructions
    double ipc = 0.0;
};

/**
 * The coupled FM<->TM loop, written once over N per-core *faces* and
 * shared by every runner (DESIGN.md §16.7).  A face is one core's
 * functional model, trace buffer, drain port, trace link, command
 * channel and wrong-path-stall flag.  Each target
 * cycle the loop produces trace entries (round-robin over the faces),
 * ticks the timing model, folds the commits core-major, applies every
 * face's protocol events, runs the shared device timing against core 0
 * and polls the guardrails.
 *
 * Tm is tm::Core (one core) or tm::SmpCore (N >= 2 cores sharing memory
 * and an L2); both are built from the same tm::CoreSlice per core, and
 * each face holds its core's slice, so the loop needs no virtual call per
 * FM step or TM tick.  The core count selects the one protocol
 * difference: a single core executes down wrong paths, N cores suppress
 * them (DESIGN.md §16.4).
 *
 * Not a runner on its own: FastSimulator (N = 1) and SmpSimulator
 * (smp.hh, N >= 2) are its public faces, and ParallelFastSimulator
 * (parallel.hh) builds its single-core parts through it and continues on
 * it when its watchdog degrades the run.
 */
template <typename Tm>
class CoupledLoop
{
  public:
    /** The functional model matching Tm: one FuncModel, or N of them
     *  sharing one machine. */
    using Fm = std::conditional_t<std::is_same_v<Tm, tm::Core>,
                                  fm::FuncModel, fm::SmpFuncModel>;

    /**
     * Load a built software stack.  The image lands once in (shared)
     * physical memory and core 0 resets to its entry; with N >= 2 cores,
     * cores 1..N-1 reset to the image's "smp_secondary_entry" symbol
     * (kernel::BuildOptions::smpCores emits it: per-core stack setup +
     * spin on the kernel's release flag).
     */
    void boot(const kernel::BootImage &image);

    /** Advance one target cycle. */
    void tickOnce();

    /** Run until the guest's final halt or the cycle bound. */
    RunResult run(Cycle max_cycles);

    /** True when every core halted with interrupts off and all state
     *  committed (the mini-OS exit convention). */
    bool finished() const;

    unsigned numCores() const { return static_cast<unsigned>(faces_.size()); }
    Cycle cycle() const { return core_->cycle(); }
    Fm &fm() { return *fm_; }
    fm::FuncModel &fmCore(unsigned i) { return *faces_.at(i).fm; }
    Tm &core() { return *core_; }
    tm::TraceBuffer &traceBuffer(unsigned i = 0) { return *faces_.at(i).tb; }
    stats::Group &stats() { return stats_; }
    const FastConfig &config() const { return cfg_; }

    Guardrails &guardrails() { return guardrails_; }
    const Guardrails &guardrails() const { return guardrails_; }
    inject::FaultPlan *faultPlan() { return plan_.get(); }

    /** Committed-instruction hash chain (cfg.guardrails.hashCommits):
     *  every core's commits, folded in the core-major order of
     *  drainCommits(). */
    std::uint64_t commitHash() const { return guardrails_.commitHash(); }

    /** The structured no-progress diagnosis (what the watchdog prints):
     *  per-core protocol flags, FM state, trace-ring and coherence-token
     *  depth, plus every Connector occupancy; `runner_state` is appended. */
    std::string diagnose(const std::string &runner_state = {}) const;

    // --- checkpoint / resume (snapshot format v6) --------------------------
    /** True at a clean snapshot boundary: every core drained, no device
     *  injection pending, every FM at its committed boundary.  In-flight
     *  coherence tokens (a pending ifetch miss) are legal and serialized
     *  with the fabric. */
    bool checkpointReady() const;

    /**
     * Quiesce to a drained commit boundary (rolling back FM run-ahead)
     * and write a crash-consistent snapshot: process-unique temp file +
     * fsync + atomic rename, versioned header, config fingerprint,
     * payload checksum.  Only legal when checkpointReady(); run()
     * sequences this automatically when cfg.checkpointEvery != 0.
     */
    void saveSnapshot(const std::string &path);

    /** The complete on-disk snapshot image (header + payload) as bytes;
     *  quiesces like saveSnapshot().  The fastd worker checkpoints this
     *  through snapshot_io without touching the filesystem layout. */
    std::vector<std::uint8_t> snapshotImage();

    /** Write the snapshot image to an already-open stream (checkpoint-
     *  to-fd); FatalError on short write, e.g. ENOSPC. */
    void saveSnapshotToStream(std::FILE *f);

    /**
     * Emergency checkpoint for signal handlers (SIGTERM/SIGINT): request
     * a drain, tick to the next quiesced boundary (at most
     * max_extra_cycles), snapshot to `path`.  Returns false if no
     * boundary was reached within the bound (nothing is written).
     */
    bool checkpointNow(const std::string &path,
                       Cycle max_extra_cycles = 200000);

    /** Restore a snapshot written by saveSnapshot().  Call after boot()
     *  (boot re-creates the un-serialized environment: console input
     *  script, loaded image; the snapshot then overwrites machine state).
     *  Rejects snapshots taken under a different configuration —
     *  including a different numCores (the fingerprint covers it). */
    void resumeFrom(const std::string &path);

    /** resumeFrom(), but from an in-memory image. */
    void resumeFromImage(const std::vector<std::uint8_t> &bytes);

  protected:
    CoupledLoop(const FastConfig &cfg, const char *stats_name);
    ~CoupledLoop();

    /** One core's FM<->TM plumbing. */
    struct Face
    {
        fm::FuncModel *fm = nullptr; //!< owned by fm_
        std::unique_ptr<tm::TraceBuffer> tb;
        tm::CoreSlice *slice = nullptr; //!< the core's pipeline in core_
        std::unique_ptr<inject::TraceLink> link;
        std::unique_ptr<CmdChannel> cmd;
        bool stalledWrongPath = false;
        //!< N >= 2: filled by the core's commit hook, emptied by
        //!< drainCommits()
        std::vector<fm::TraceEntry> commits;
    };

    void produceEntries();
    /** One FM step on `f` into its ring; false when the core must sit
     *  out the rest of the cycle. */
    bool stepFm(Face &f);
    /** Fold one core's committed instruction into the hash chain, the
     *  device mirror (core 0) and the onCommitEntry observer. */
    void observeCommit(unsigned core, const fm::TraceEntry &e)
        FASTSIM_REQUIRES(guardrails_.ownerRole);
    void drainCommits();
    void handleEvents();
    void deviceTiming();
    void runGuardrails();
    void crossCheck() FASTSIM_REQUIRES(guardrails_.ownerRole);
    void quiesceToBoundary();

    /** The face's FM, with the shared devices attached to it (N >= 2:
     *  undo logging and raised IRQs land on the executing core). */
    fm::FuncModel &activate(Face &f);

    /** The device state the protocol engine times against: the
     *  commit-anchored mirror under cfg.deterministicDevices, otherwise
     *  `interpreted` — what the FM's run-ahead has executed so far. */
    DeviceView timingView(const DeviceView &interpreted) const;

    std::vector<CoreView> coreViews() const;

    /** Observation hook: every TM protocol event, in emission order
     *  (FastSimulator exposes it). */
    std::function<void(const tm::TmEvent &)> onEvent;

    /** Observation hook: every committed instruction, tagged with the
     *  committing core (SmpSimulator exposes it). */
    std::function<void(unsigned core, const fm::TraceEntry &)> onCommitEntry;

    FastConfig cfg_;
    stats::Group stats_;
    Guardrails guardrails_;
    std::unique_ptr<inject::FaultPlan> plan_; //!< null when no faults enabled
    std::unique_ptr<Fm> fm_;
    std::vector<Face> faces_;
    std::unique_ptr<Tm> core_;
    //!< device timing: the platform devices interrupt core 0 only
    std::unique_ptr<ProtocolEngine> engine_;
    CommittedDeviceMirror mirror_; //!< cfg.deterministicDevices (core 0)

    //!< injection boundary: core 0's FM committed everything below `in`
    std::function<bool(InstNum)> boundaryOk_;

    // Checkpoint sequencing (run()).
    bool checkpointDrainPending_ = false;
    Cycle nextCheckpointAt_ = 0;
};

extern template class CoupledLoop<tm::Core>;

/**
 * The coupled (single-threaded, deterministic) single-core FAST
 * simulator: the reference implementation of the protocol.
 */
class FastSimulator : public CoupledLoop<tm::Core>
{
  public:
    explicit FastSimulator(const FastConfig &cfg)
        : CoupledLoop(cfg, "fast")
    {
    }

    using CoupledLoop::onEvent;
};

} // namespace fast
} // namespace fastsim

#endif // FASTSIM_FAST_SIMULATOR_HH
