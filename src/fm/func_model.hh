/**
 * @file
 * The FAST speculative functional model (paper §3.2).
 *
 * A from-scratch full-system interpreter for the FX86 ISA that plays the
 * role the heavily-modified QEMU played in the paper's prototype.  It
 *
 *  - executes applications, OS and "BIOS" code at the functional level,
 *    including paging, privilege, interrupts, exceptions and devices;
 *  - generates the instruction trace (TraceEntry per dynamic instruction);
 *  - supports the set_pc(IN, PC) operation: roll back to any uncommitted
 *    instruction number and continue from a new PC — used by the timing
 *    model to force wrong-path execution and to resteer back onto the
 *    correct path;
 *  - releases roll-back resources as the timing model commits instructions.
 *
 * Roll-back is implemented with a per-instruction undo log covering
 * registers, memory, and device state — the equivalent of the paper's
 * "periodic software checkpoints of architectural state along with memory
 * and I/O logging".
 */

#ifndef FASTSIM_FM_FUNC_MODEL_HH
#define FASTSIM_FM_FUNC_MODEL_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "base/serialize.hh"
#include "base/statistics.hh"
#include "base/types.hh"
#include "fm/decode_cache.hh"
#include "fm/devices.hh"
#include "fm/phys_mem.hh"
#include "fm/trace_entry.hh"
#include "isa/insn.hh"
#include "ucode/table.hh"

namespace fastsim {
namespace fm {

/** Functional model configuration. */
struct FmConfig
{
    std::size_t ramBytes = 16u << 20;
    std::uint32_t diskBlocks = 256;
    std::uint64_t diskLatency = 2000; //!< instructions (fm-driven mode)
    std::uint64_t diskSeed = 0;

    /**
     * Compress the trace (paper §4: 11-bit opcodes, ~4 words/instruction).
     * When false, entries model a naive uncompressed format (ablation).
     */
    bool traceCompression = true;

    /**
     * When true (standalone functional simulation), the timer and disk fire
     * off the instruction count.  In FAST mode the timing model owns device
     * timing and injects interrupts explicitly, so this is false.
     */
    bool fmDrivenDevices = true;

    /**
     * Decoded-instruction cache (host-performance only; functionally
     * invisible — see decode_cache.hh for the invalidation argument).
     * Off reproduces the original fetch-and-decode-every-step path.
     */
    bool decodeCache = true;
    std::size_t decodeCacheEntries = 16384; //!< power of two
};

/** Architectural register state (exposed for tests and checkpointing). */
struct ArchState
{
    std::array<std::uint32_t, isa::NumGpRegs> gpr{};
    std::array<double, isa::NumFpRegs> fpr{};
    std::uint32_t flags = 0;
    Addr pc = 0;
    std::array<std::uint32_t, isa::NumCtrlRegs> ctrl{};
    bool halted = false;

    bool operator==(const ArchState &o) const = default;
};

/** Result of a single functional-model step. */
struct StepResult
{
    enum class Kind : std::uint8_t
    {
        Ok,             //!< entry is valid
        Halted,         //!< target is halted, waiting for an interrupt
        WrongPathStall, //!< wrong path hit a fault/halt; waiting for resteer
    };
    Kind kind = Kind::Ok;
    TraceEntry entry;
};

/**
 * The machine state an SMP complex shares between its cores: physical
 * memory plus the platform devices (console, timer, disk, RTC).  The
 * interrupt controller is deliberately NOT here — each core owns a local
 * PIC (LAPIC-style), so a device's raiseIrq reaches the core whose bus
 * is active when it fires (fm/smp.hh).  A single-core FuncModel owns one
 * of these privately, which keeps the pre-SMP behaviour bit-identical.
 */
struct SharedMachine
{
    explicit SharedMachine(const FmConfig &cfg);

    std::unique_ptr<PhysMem> mem;
    std::unique_ptr<ConsoleDevice> console;
    std::unique_ptr<TimerDevice> timer;
    std::unique_ptr<DiskDevice> disk;
    std::unique_ptr<RtcDevice> rtc;
};

/**
 * The speculative functional model.
 */
class FuncModel : public DeviceBus
{
  public:
    explicit FuncModel(const FmConfig &cfg = FmConfig());

    /**
     * One core of an SMP complex: executes against `machine`'s shared
     * memory and platform devices, owning only its architectural state,
     * undo log and local PIC.  `machine` must outlive the core.  The
     * guest reads its own id from PortCoreId.
     */
    FuncModel(const FmConfig &cfg, SharedMachine &machine, unsigned core_id);

    ~FuncModel() override;

    FuncModel(const FuncModel &) = delete;
    FuncModel &operator=(const FuncModel &) = delete;

    // --- setup -------------------------------------------------------------
    /** Load a boot image into physical memory (not undo-logged). */
    void loadImage(PAddr pa, const std::vector<std::uint8_t> &image);

    /** Reset architectural state and begin execution at the given PC. */
    void reset(Addr pc);

    // --- execution ---------------------------------------------------------
    /** Execute one instruction and produce its trace entry. */
    StepResult step();

    /**
     * set_pc: roll back so the next executed instruction is assigned IN
     * `in`, with the program counter forced to `pc` (paper §2.1).
     *
     * @param in         instruction number to rewind to (> last committed)
     * @param pc         PC to continue from
     * @param wrong_path subsequent entries are marked wrong-path
     */
    void setPc(InstNum in, Addr pc, bool wrong_path);

    /**
     * Roll back so the next instruction produced is `in`, restoring that
     * instruction's *natural* PC from the undo log — no forced redirect,
     * and the model stays on the architectural path.  The SMP runner uses
     * this to suppress wrong-path excursions: speculative wrong-path
     * stores would leak through the shared memory into the other cores'
     * functional models with no validation path back (fast/smp.hh).
     */
    void rollbackTo(InstNum in);

    /** Release roll-back resources for all instructions with IN <= upTo. */
    void commit(InstNum up_to);

    /**
     * Assert a device interrupt line (timing-model-driven injection).
     * Delivered at the next instruction boundary when IF is set.
     *
     * Contract: only call at a fully-committed boundary (the timing model
     * drains its pipeline and commits everything before injecting, paper
     * §3.4), i.e. lastCommitted() == nextIn() - 1 after any roll-back.
     * This guarantees the injection can never itself be rolled back.
     */
    void injectInterrupt(std::uint8_t vector);

    /**
     * Roll back to instruction number `in` (restoring that instruction's
     * original PC) and assert an interrupt line there.  Used by the timing
     * model to deliver an interrupt at a precise, reproducible point.
     * Requires lastCommitted() == in - 1.
     */
    void resteerForInterrupt(InstNum in, std::uint8_t vector);

    /** Roll back to `in` and complete the in-flight disk command there. */
    void resteerForDiskComplete(InstNum in);

    /**
     * Like injectInterrupt, but completes the in-flight disk command (DMA
     * plus completion interrupt) at the next instruction boundary.  The
     * timing model owns disk latency (paper §3.4); it calls this when the
     * modeled rotational/transfer delay has elapsed.  Same committed-
     * boundary contract as injectInterrupt.
     */
    void injectDiskCompletion();

    // --- observation ---------------------------------------------------------
    InstNum nextIn() const { return nextIn_; }
    InstNum lastCommitted() const { return lastCommitted_; }
    Epoch epoch() const { return epoch_; }
    bool onWrongPath() const { return wrongPath_; }
    bool halted() const { return state_.halted; }
    /** Halted, but an interrupt or injected device event is deliverable:
     *  the next step() wakes the core and produces an entry. */
    bool wakePending() const;
    const ArchState &state() const { return state_; }
    ArchState &mutableState() { return state_; } //!< tests only

    PhysMem &mem() { return *mem_; }
    unsigned coreId() const { return coreId_; }

    /**
     * Point the shared platform devices' bus at this core.  The SMP
     * round-robin calls it before each step so undo-logged device
     * mutations and raised IRQs land on the executing core; a handful
     * of pointer stores.  No-op in effect for a single-core model.
     */
    void
    attachSharedDevices()
    {
        console_->attach(this);
        timer_->attach(this);
        disk_->attach(this);
        rtc_->attach(this);
    }

    ConsoleDevice &console() { return *console_; }
    DiskDevice &disk() { return *disk_; }
    TimerDevice &timer() { return *timer_; }
    PicDevice &pic() { return *pic_; }

    stats::Group &stats() { return stats_; }
    const stats::Group &stats() const { return stats_; }

    /** Number of instructions currently held in the undo log. */
    std::size_t undoDepth() const { return groups_.size(); }

    /** Bytes currently consumed by the undo log (approximate). */
    std::size_t undoBytes() const;

    // --- guardrails / checkpointing -----------------------------------------
    /**
     * Discard all run-ahead speculation: roll back every uncommitted
     * instruction so nextIn() == lastCommitted() + 1 and the machine state
     * is exactly the committed architectural state.  Used when falling
     * back from parallel to coupled mode and when snapshotting.
     */
    void rollbackToBoundary();

    /**
     * Architectural register state as of the last committed instruction,
     * reconstructed by walking the undo log newest-to-oldest without
     * disturbing the speculative state.  Used by the FM-vs-TM cross-check.
     */
    ArchState committedArchState() const;

    /**
     * Deterministic checksum over the speculative memory undo records
     * (kind, address, pre-image), newest group last.  Lets the guardrails
     * fingerprint the dirty-page set without touching all of RAM.
     */
    std::uint64_t speculativeMemChecksum() const;

    /**
     * Snapshot support.  Only legal at a fully-committed boundary
     * (lastCommitted() == nextIn() - 1, empty undo log, correct path);
     * callers quiesce first via rollbackToBoundary().
     */
    /** `include_platform` = false (SMP secondary cores) omits the shared
     *  machine payload — memory pages, platform device blobs, disk
     *  blocks — which travels once with core 0 (fm/smp.hh). */
    void saveState(serialize::Sink &s, bool include_platform = true) const;
    void restoreState(serialize::Source &s, bool include_platform = true);

    // --- DeviceBus -----------------------------------------------------------
    void snapSelf(Device *dev) override;
    void snapBlock(Device *dev, std::uint32_t index) override;
    void dmaWrite8(PAddr pa, std::uint8_t v) override;
    std::uint8_t dmaRead8(PAddr pa) override;
    void raiseIrq(std::uint8_t vector) override;
    std::uint64_t
    icount() const override
    {
        return nextIn_ + haltTicks_;
    }

  private:
    // --- undo log ------------------------------------------------------------
    struct UndoRec
    {
        enum class Kind : std::uint8_t
        {
            Gpr, Fpr, Flags, Ctrl, Mem8, Mem32,
        };
        Kind kind = Kind::Gpr;
        std::uint8_t idx = 0;
        PAddr pa = 0;
        std::uint64_t old = 0;
    };

    struct UndoGroup
    {
        InstNum in = 0;
        Addr pcBefore = 0;
        bool haltedBefore = false;
        std::vector<UndoRec> recs;
        std::vector<std::pair<Device *, std::vector<std::uint8_t>>> devSnaps;
        std::vector<std::pair<std::pair<Device *, std::uint32_t>,
                              std::vector<std::uint8_t>>> blockSnaps;
    };

    void beginGroup();
    void rollbackGroup(UndoGroup &g);
    void recycleGroup(UndoGroup &&g);

    // --- state mutation helpers (undo-logged) ---------------------------------
    void setGpr(unsigned r, std::uint32_t v);
    void setFpr(unsigned r, double v);
    void setFlags(std::uint32_t v);
    void setCtrl(unsigned r, std::uint32_t v);
    void writePhys8(PAddr pa, std::uint8_t v);
    void writePhys32(PAddr pa, std::uint32_t v);

    // --- translation -----------------------------------------------------------
    enum class Access : std::uint8_t { Read, Write, Exec };

    /**
     * Translate a virtual address.
     * @return true on success; false means a page fault (faultVa_ is set).
     */
    bool translate(Addr va, Access acc, PAddr &pa);
    void flushTlb();

    // --- faults / interrupts -----------------------------------------------------
    struct Fault
    {
        bool raised = false;
        std::uint8_t vector = 0;
        Addr va = 0; //!< faulting address for #PF
    };

    /** Deliver an interrupt/exception: push state, switch to the handler. */
    void deliver(std::uint8_t vector, Addr return_pc);

    // --- execution helpers ---------------------------------------------------
    bool fetch(isa::Insn &insn, PAddr &inst_pa, Fault &fault);
    bool execute(const isa::Insn &insn, TraceEntry &e, Fault &fault);
    std::uint32_t ioRead(std::uint8_t port);
    void ioWrite(std::uint8_t port, std::uint32_t val);
    Device *deviceForPort(std::uint8_t port);

    void setAluFlags(std::uint32_t result, bool cf, bool of,
                     bool set_co = true);

    /** Delegation target of the public constructors: exactly one of
     *  `own` / `shared` provides the machine. */
    FuncModel(const FmConfig &cfg, std::unique_ptr<SharedMachine> own,
              SharedMachine *shared, unsigned core_id);

    // --- members ---------------------------------------------------------------
    FmConfig cfg_;
    std::unique_ptr<SharedMachine> ownMachine_; //!< null for SMP cores
    PhysMem *mem_;
    std::unique_ptr<PicDevice> pic_; //!< always per-core (LAPIC-style)
    ConsoleDevice *console_;
    TimerDevice *timer_;
    DiskDevice *disk_;
    RtcDevice *rtc_;
    std::vector<Device *> devices_;
    unsigned coreId_ = 0;

    ArchState state_;
    InstNum nextIn_ = 0;
    InstNum lastCommitted_ = 0; //!< INs <= this are committed; 0 = none
    Epoch epoch_ = 0;
    bool wrongPath_ = false;
    std::uint8_t pendingInject_ = 0; //!< interrupt line to raise (0 = none)
    bool pendingDiskComplete_ = false;

    /**
     * Boundary injections already consumed into an uncommitted undo group.
     * The normal protocol commits the (serializing) delivery before any
     * roll-back can reach it, but rollbackToBoundary() discards *all*
     * run-ahead, so it must re-arm the pending flags or the interrupt
     * would be silently lost.
     */
    InstNum consumedInjectIn_ = 0; //!< 0 = none
    std::uint8_t consumedInjectVector_ = 0;
    InstNum consumedDiskIn_ = 0;   //!< 0 = none
    std::uint64_t haltTicks_ = 0;    //!< device time advanced while halted
    Addr faultVa_ = 0;               //!< last translation-fault address

    std::deque<UndoGroup> groups_;
    UndoGroup *cur_ = nullptr; //!< group of the instruction being executed

    /**
     * Retired UndoGroups, kept so their vectors' capacity is reused: the
     * per-instruction begin/commit cycle then allocates nothing in steady
     * state.  Capped so pathological commit batches cannot pin memory.
     */
    std::vector<UndoGroup> groupPool_;
    static constexpr std::size_t GroupPoolMax = 8192;

    // Small software translation cache (functional speed only).
    struct TlbEntry
    {
        bool valid = false;
        Addr vpn = 0;
        PAddr ppn = 0;
        bool writable = false;
        bool user = false;
    };
    static constexpr unsigned TlbSize = 256;
    std::array<TlbEntry, TlbSize> tlb_;

    // Decoded-instruction cache + flattened per-opcode metadata (hoists the
    // per-step UcodeTable and OpInfo lookups into one array index).
    DecodeCache dcache_;
    std::array<OpMeta, isa::NumOpcodes> opMeta_;

    stats::Group stats_;

    // Hot-path counters, resolved once (see stats::Handle).
    stats::Handle stInstructions_;
    stats::Handle stWrongPathInsts_;
    stats::Handle stBranches_;
    stats::Handle stTakenBranches_;
    stats::Handle stTraceWords_;
    stats::Handle stHaltSteps_;
    stats::Handle stInterrupts_;
    stats::Handle stExceptions_;
    stats::Handle stWrongPathStalls_;
    stats::Handle stSyscalls_;
    stats::Handle stRollbacks_;
    stats::Handle stRolledBackInsts_;
    stats::Handle stDecodeHits_;
    stats::Handle stDecodeMisses_;
};

} // namespace fm
} // namespace fastsim

#endif // FASTSIM_FM_FUNC_MODEL_HH
