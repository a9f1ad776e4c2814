#include "fm/func_model.hh"

#include <bit>
#include <cmath>

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "ucode/compiler.hh"

namespace fastsim {
namespace fm {

using isa::CondCode;
using isa::FlagBit;
using isa::Insn;
using isa::Opcode;

SharedMachine::SharedMachine(const FmConfig &cfg)
    : mem(std::make_unique<PhysMem>(cfg.ramBytes)),
      console(std::make_unique<ConsoleDevice>()),
      timer(std::make_unique<TimerDevice>(cfg.fmDrivenDevices)),
      disk(std::make_unique<DiskDevice>(cfg.diskBlocks, cfg.diskLatency,
                                        cfg.fmDrivenDevices, cfg.diskSeed)),
      rtc(std::make_unique<RtcDevice>())
{
}

FuncModel::FuncModel(const FmConfig &cfg)
    : FuncModel(cfg, std::make_unique<SharedMachine>(cfg), nullptr, 0)
{
}

FuncModel::FuncModel(const FmConfig &cfg, SharedMachine &machine,
                     unsigned core_id)
    : FuncModel(cfg, nullptr, &machine, core_id)
{
}

FuncModel::FuncModel(const FmConfig &cfg, std::unique_ptr<SharedMachine> own,
                     SharedMachine *shared, unsigned core_id)
    : cfg_(cfg), ownMachine_(std::move(own)),
      mem_((shared ? *shared : *ownMachine_).mem.get()),
      pic_(std::make_unique<PicDevice>()),
      console_((shared ? *shared : *ownMachine_).console.get()),
      timer_((shared ? *shared : *ownMachine_).timer.get()),
      disk_((shared ? *shared : *ownMachine_).disk.get()),
      rtc_((shared ? *shared : *ownMachine_).rtc.get()),
      dcache_(cfg.decodeCacheEntries), opMeta_(buildOpMetaTable()),
      stats_("fm")
{
    coreId_ = core_id;
    devices_ = {pic_.get(), console_, timer_, disk_, rtc_};
    for (Device *d : devices_)
        d->attach(this);

    stInstructions_ = stats_.handle("instructions");
    stWrongPathInsts_ = stats_.handle("wrong_path_insts");
    stBranches_ = stats_.handle("branches");
    stTakenBranches_ = stats_.handle("taken_branches");
    stTraceWords_ = stats_.handle("trace_words");
    stHaltSteps_ = stats_.handle("halt_steps");
    stInterrupts_ = stats_.handle("interrupts");
    stExceptions_ = stats_.handle("exceptions");
    stWrongPathStalls_ = stats_.handle("wrong_path_stalls");
    stSyscalls_ = stats_.handle("syscalls");
    stRollbacks_ = stats_.handle("rollbacks");
    stRolledBackInsts_ = stats_.handle("rolled_back_insts");
    stDecodeHits_ = stats_.handle("decode_cache_hits");
    stDecodeMisses_ = stats_.handle("decode_cache_misses");
}

FuncModel::~FuncModel() = default;

void
FuncModel::loadImage(PAddr pa, const std::vector<std::uint8_t> &image)
{
    mem_->load(pa, image);
}

void
FuncModel::reset(Addr pc)
{
    state_ = ArchState();
    state_.pc = pc;
    // Kernel mode, interrupts disabled, paging off.
    nextIn_ = 1;
    lastCommitted_ = 0;
    epoch_ = 0;
    wrongPath_ = false;
    pendingInject_ = 0;
    pendingDiskComplete_ = false;
    consumedInjectIn_ = 0;
    consumedDiskIn_ = 0;
    haltTicks_ = 0;
    groups_.clear();
    cur_ = nullptr;
    flushTlb();
    dcache_.invalidateAll();
}

// --- undo log ----------------------------------------------------------------

void
FuncModel::beginGroup()
{
    // Reuse a retired group where possible: its recs vector keeps its
    // capacity, so the begin/commit cycle is allocation-free in steady state.
    if (groupPool_.empty()) {
        groups_.emplace_back();
    } else {
        groups_.push_back(std::move(groupPool_.back()));
        groupPool_.pop_back();
    }
    UndoGroup &g = groups_.back();
    g.in = nextIn_;
    g.pcBefore = state_.pc;
    g.haltedBefore = state_.halted;
    cur_ = &g;
}

void
FuncModel::recycleGroup(UndoGroup &&g)
{
    if (groupPool_.size() >= GroupPoolMax)
        return;
    g.recs.clear();
    g.devSnaps.clear();
    g.blockSnaps.clear();
    groupPool_.push_back(std::move(g));
}

void
FuncModel::rollbackGroup(UndoGroup &g)
{
    for (auto it = g.recs.rbegin(); it != g.recs.rend(); ++it) {
        const UndoRec &r = *it;
        switch (r.kind) {
          case UndoRec::Kind::Gpr:
            state_.gpr[r.idx] = static_cast<std::uint32_t>(r.old);
            break;
          case UndoRec::Kind::Fpr:
            state_.fpr[r.idx] = std::bit_cast<double>(r.old);
            break;
          case UndoRec::Kind::Flags:
            state_.flags = static_cast<std::uint32_t>(r.old);
            break;
          case UndoRec::Kind::Ctrl:
            state_.ctrl[r.idx] = static_cast<std::uint32_t>(r.old);
            break;
          case UndoRec::Kind::Mem8:
            mem_->write8(r.pa, static_cast<std::uint8_t>(r.old));
            break;
          case UndoRec::Kind::Mem32:
            mem_->write32(r.pa, static_cast<std::uint32_t>(r.old));
            break;
        }
    }
    for (auto &snap : g.devSnaps)
        snap.first->restore(snap.second);
    for (auto &bsnap : g.blockSnaps)
        bsnap.first.first->restoreBlock(bsnap.first.second, bsnap.second);
    state_.pc = g.pcBefore;
    state_.halted = g.haltedBefore;
}

std::size_t
FuncModel::undoBytes() const
{
    std::size_t total = 0;
    for (const UndoGroup &g : groups_) {
        total += sizeof(UndoGroup) + g.recs.size() * sizeof(UndoRec);
        for (const auto &s : g.devSnaps)
            total += s.second.size();
        for (const auto &b : g.blockSnaps)
            total += b.second.size();
    }
    return total;
}

// --- logged state mutation ------------------------------------------------------

void
FuncModel::setGpr(unsigned r, std::uint32_t v)
{
    fastsim_assert(cur_ && r < isa::NumGpRegs);
    cur_->recs.push_back(
        {UndoRec::Kind::Gpr, static_cast<std::uint8_t>(r), 0, state_.gpr[r]});
    state_.gpr[r] = v;
}

void
FuncModel::setFpr(unsigned r, double v)
{
    fastsim_assert(cur_ && r < isa::NumFpRegs);
    cur_->recs.push_back({UndoRec::Kind::Fpr, static_cast<std::uint8_t>(r), 0,
                          std::bit_cast<std::uint64_t>(state_.fpr[r])});
    state_.fpr[r] = v;
}

void
FuncModel::setFlags(std::uint32_t v)
{
    fastsim_assert(cur_);
    cur_->recs.push_back({UndoRec::Kind::Flags, 0, 0, state_.flags});
    state_.flags = v;
}

void
FuncModel::setCtrl(unsigned r, std::uint32_t v)
{
    fastsim_assert(cur_ && r < isa::NumCtrlRegs);
    cur_->recs.push_back({UndoRec::Kind::Ctrl, static_cast<std::uint8_t>(r),
                          0, state_.ctrl[r]});
    state_.ctrl[r] = v;
}

void
FuncModel::writePhys8(PAddr pa, std::uint8_t v)
{
    fastsim_assert(cur_);
    cur_->recs.push_back({UndoRec::Kind::Mem8, 0, pa, mem_->read8(pa)});
    mem_->write8(pa, v);
}

void
FuncModel::writePhys32(PAddr pa, std::uint32_t v)
{
    fastsim_assert(cur_);
    cur_->recs.push_back({UndoRec::Kind::Mem32, 0, pa, mem_->read32(pa)});
    mem_->write32(pa, v);
}

// --- DeviceBus --------------------------------------------------------------

void
FuncModel::snapSelf(Device *dev)
{
    if (!cur_) {
        // Mutation outside an instruction: legal only in non-speculative
        // (fm-driven) mode, e.g. device ticks while halted.
        fastsim_assert(cfg_.fmDrivenDevices);
        return;
    }
    for (const auto &s : cur_->devSnaps)
        if (s.first == dev)
            return; // already snapshotted this instruction
    cur_->devSnaps.emplace_back(dev, dev->save());
}

void
FuncModel::snapBlock(Device *dev, std::uint32_t index)
{
    if (!cur_) {
        fastsim_assert(cfg_.fmDrivenDevices);
        return;
    }
    for (const auto &b : cur_->blockSnaps)
        if (b.first.first == dev && b.first.second == index)
            return;
    cur_->blockSnaps.emplace_back(std::make_pair(dev, index),
                                  dev->saveBlock(index));
}

void
FuncModel::dmaWrite8(PAddr pa, std::uint8_t v)
{
    if (!mem_->contains(pa))
        return; // DMA to nowhere: dropped
    if (cur_) {
        writePhys8(pa, v);
    } else {
        fastsim_assert(cfg_.fmDrivenDevices);
        mem_->write8(pa, v);
    }
}

std::uint8_t
FuncModel::dmaRead8(PAddr pa)
{
    return mem_->contains(pa) ? mem_->read8(pa) : 0;
}

void
FuncModel::raiseIrq(std::uint8_t vector)
{
    pic_->raise(vector);
}

// --- translation -----------------------------------------------------------

void
FuncModel::flushTlb()
{
    for (auto &e : tlb_)
        e.valid = false;
}

bool
FuncModel::translate(Addr va, Access acc, PAddr &pa)
{
    if (!(state_.ctrl[isa::CrStatus] & isa::StatusPaging)) {
        pa = va;
        if (!mem_->contains(pa)) {
            faultVa_ = va;
            return false;
        }
        return true;
    }

    const bool user = state_.flags & FlagBit::FlagU;
    const Addr vpn = va >> 12;
    TlbEntry &te = tlb_[vpn % TlbSize];
    if (!(te.valid && te.vpn == vpn)) {
        // Two-level hardware walk.
        const PAddr dir = state_.ctrl[isa::CrPtbr];
        const PAddr pde_pa = dir + 4 * (va >> 22);
        if (!mem_->contains(pde_pa, 4)) {
            faultVa_ = va;
            return false;
        }
        const std::uint32_t pde = mem_->read32(pde_pa);
        if (!(pde & 1)) {
            faultVa_ = va;
            return false;
        }
        const PAddr pte_pa = (pde & 0xFFFFF000u) + 4 * ((va >> 12) & 0x3FF);
        if (!mem_->contains(pte_pa, 4)) {
            faultVa_ = va;
            return false;
        }
        const std::uint32_t pte = mem_->read32(pte_pa);
        if (!(pte & 1)) {
            faultVa_ = va;
            return false;
        }
        te.valid = true;
        te.vpn = vpn;
        te.ppn = pte >> 12;
        te.writable = (pde & 2) && (pte & 2);
        te.user = (pde & 4) && (pte & 4);
    }
    if (user && !te.user) {
        faultVa_ = va;
        return false;
    }
    if (acc == Access::Write && !te.writable) {
        faultVa_ = va;
        return false;
    }
    pa = (te.ppn << 12) | (va & 0xFFF);
    if (!mem_->contains(pa)) {
        faultVa_ = va;
        return false;
    }
    return true;
}

// --- interrupt / exception delivery -------------------------------------------

void
FuncModel::deliver(std::uint8_t vector, Addr return_pc)
{
    const std::uint32_t old_flags = state_.flags;
    const bool was_user = old_flags & FlagBit::FlagU;
    const std::uint32_t saved_sp = state_.gpr[isa::RegSp];

    // Switch to kernel mode with interrupts off before touching the stack.
    std::uint32_t new_flags =
        old_flags & ~(FlagBit::FlagI | FlagBit::FlagU | FlagBit::FlagPU);
    setFlags(new_flags);
    if (was_user)
        setGpr(isa::RegSp, state_.ctrl[isa::CrKsp]);

    const std::uint32_t pushed_flags =
        (old_flags & ~FlagBit::FlagPU) |
        (was_user ? FlagBit::FlagPU : 0u);

    auto push = [this](std::uint32_t v) {
        const Addr sp = state_.gpr[isa::RegSp] - 4;
        PAddr pa;
        if (!translate(sp, Access::Write, pa))
            panic("double fault: kernel stack push at 0x%x unmapped", sp);
        writePhys32(pa, v);
        setGpr(isa::RegSp, sp);
    };
    push(pushed_flags);
    push(saved_sp);
    push(return_pc);

    // Vector through the IDT (physical table).
    const PAddr idt = state_.ctrl[isa::CrIdt];
    const PAddr slot = idt + 4u * vector;
    if (!mem_->contains(slot, 4))
        panic("IDT slot for vector %u out of physical memory", vector);
    state_.pc = mem_->read32(slot);
}

void
FuncModel::injectInterrupt(std::uint8_t vector)
{
    fastsim_assert(vector >= 32 && vector < 64);
    fastsim_assert(lastCommitted_ + 1 == nextIn_);
    pendingInject_ = vector;
}

void
FuncModel::injectDiskCompletion()
{
    fastsim_assert(lastCommitted_ + 1 == nextIn_);
    pendingDiskComplete_ = true;
}

void
FuncModel::resteerForInterrupt(InstNum in, std::uint8_t vector)
{
    fastsim_assert(in > lastCommitted_);
    while (!groups_.empty() && groups_.back().in >= in) {
        rollbackGroup(groups_.back());
        recycleGroup(std::move(groups_.back()));
        groups_.pop_back();
        ++stRolledBackInsts_;
    }
    ++stRollbacks_;
    nextIn_ = in;
    fastsim_assert(lastCommitted_ + 1 == nextIn_);
    epoch_++;
    wrongPath_ = false;
    cur_ = nullptr;
    flushTlb();
    pendingInject_ = vector;
}

void
FuncModel::resteerForDiskComplete(InstNum in)
{
    fastsim_assert(in > lastCommitted_);
    while (!groups_.empty() && groups_.back().in >= in) {
        rollbackGroup(groups_.back());
        recycleGroup(std::move(groups_.back()));
        groups_.pop_back();
        ++stRolledBackInsts_;
    }
    ++stRollbacks_;
    nextIn_ = in;
    fastsim_assert(lastCommitted_ + 1 == nextIn_);
    epoch_++;
    wrongPath_ = false;
    cur_ = nullptr;
    flushTlb();
    pendingDiskComplete_ = true;
}

// --- speculation API ------------------------------------------------------------

void
FuncModel::setPc(InstNum in, Addr pc, bool wrong_path)
{
    fastsim_assert(in > lastCommitted_);
    fastsim_assert(in <= nextIn_);
    std::uint64_t undone = 0;
    while (!groups_.empty() && groups_.back().in >= in) {
        rollbackGroup(groups_.back());
        recycleGroup(std::move(groups_.back()));
        groups_.pop_back();
        ++undone;
    }
    stRolledBackInsts_ += undone;
    ++stRollbacks_;
    nextIn_ = in;
    state_.pc = pc;
    epoch_++;
    wrongPath_ = wrong_path;
    cur_ = nullptr;
    // Conservatively drop cached translations (page-table updates that were
    // rolled back would otherwise leave stale entries).
    flushTlb();
}

void
FuncModel::rollbackTo(InstNum in)
{
    fastsim_assert(in > lastCommitted_);
    fastsim_assert(in <= nextIn_);
    std::uint64_t undone = 0;
    while (!groups_.empty() && groups_.back().in >= in) {
        // rollbackGroup restores the pre-image PC, so after unwinding the
        // oldest discarded group state_.pc is the natural PC of `in`.
        rollbackGroup(groups_.back());
        recycleGroup(std::move(groups_.back()));
        groups_.pop_back();
        ++undone;
    }
    stRolledBackInsts_ += undone;
    ++stRollbacks_;
    nextIn_ = in;
    epoch_++;
    wrongPath_ = false;
    cur_ = nullptr;
    flushTlb();
}

void
FuncModel::commit(InstNum up_to)
{
    fastsim_assert(up_to < nextIn_);
    while (!groups_.empty() && groups_.front().in <= up_to) {
        recycleGroup(std::move(groups_.front()));
        groups_.pop_front();
    }
    if (up_to > lastCommitted_)
        lastCommitted_ = up_to;
    if (consumedInjectIn_ && consumedInjectIn_ <= lastCommitted_)
        consumedInjectIn_ = 0;
    if (consumedDiskIn_ && consumedDiskIn_ <= lastCommitted_)
        consumedDiskIn_ = 0;
}

// --- guardrails / checkpointing ----------------------------------------------

void
FuncModel::rollbackToBoundary()
{
    if (groups_.empty() && !wrongPath_ && nextIn_ == lastCommitted_ + 1)
        return;
    // A wrong-path stub with no speculation to roll back would leave the
    // PC unrecoverable; callers quiesce the timing model first, which
    // excludes that state.
    fastsim_assert(!wrongPath_ || !groups_.empty());
    std::uint64_t undone = 0;
    while (!groups_.empty()) {
        rollbackGroup(groups_.back());
        recycleGroup(std::move(groups_.back()));
        groups_.pop_back();
        ++undone;
    }
    stRolledBackInsts_ += undone;
    if (undone)
        ++stRollbacks_;
    nextIn_ = lastCommitted_ + 1;
    epoch_++;
    wrongPath_ = false;
    cur_ = nullptr;
    flushTlb();
    // Re-arm boundary injections whose delivery was just rolled back.
    if (consumedInjectIn_ && consumedInjectIn_ > lastCommitted_) {
        pendingInject_ = consumedInjectVector_;
        consumedInjectIn_ = 0;
    }
    if (consumedDiskIn_ && consumedDiskIn_ > lastCommitted_) {
        pendingDiskComplete_ = true;
        consumedDiskIn_ = 0;
    }
}

ArchState
FuncModel::committedArchState() const
{
    ArchState st = state_;
    for (auto git = groups_.rbegin(); git != groups_.rend(); ++git) {
        for (auto it = git->recs.rbegin(); it != git->recs.rend(); ++it) {
            const UndoRec &r = *it;
            switch (r.kind) {
              case UndoRec::Kind::Gpr:
                st.gpr[r.idx] = static_cast<std::uint32_t>(r.old);
                break;
              case UndoRec::Kind::Fpr:
                st.fpr[r.idx] = std::bit_cast<double>(r.old);
                break;
              case UndoRec::Kind::Flags:
                st.flags = static_cast<std::uint32_t>(r.old);
                break;
              case UndoRec::Kind::Ctrl:
                st.ctrl[r.idx] = static_cast<std::uint32_t>(r.old);
                break;
              case UndoRec::Kind::Mem8:
              case UndoRec::Kind::Mem32:
                break; // registers only; memory is checksummed separately
            }
        }
    }
    if (!groups_.empty()) {
        st.pc = groups_.front().pcBefore;
        st.halted = groups_.front().haltedBefore;
    }
    return st;
}

std::uint64_t
FuncModel::speculativeMemChecksum() const
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    for (const UndoGroup &g : groups_) {
        for (const UndoRec &r : g.recs) {
            if (r.kind != UndoRec::Kind::Mem8 &&
                r.kind != UndoRec::Kind::Mem32)
                continue;
            mix(static_cast<std::uint64_t>(r.kind));
            mix(r.pa);
            mix(r.old);
        }
    }
    return h;
}

void
FuncModel::saveState(serialize::Sink &s, bool include_platform) const
{
    fastsim_assert(groups_.empty() && !cur_ && !wrongPath_ &&
                   lastCommitted_ + 1 == nextIn_);
    for (std::uint32_t v : state_.gpr)
        s.put<std::uint32_t>(v);
    for (double v : state_.fpr)
        s.put<std::uint64_t>(std::bit_cast<std::uint64_t>(v));
    s.put<std::uint32_t>(state_.flags);
    s.put<Addr>(state_.pc);
    for (std::uint32_t v : state_.ctrl)
        s.put<std::uint32_t>(v);
    s.put<std::uint8_t>(state_.halted);

    s.put<InstNum>(nextIn_);
    s.put<InstNum>(lastCommitted_);
    s.put<Epoch>(epoch_);
    s.put<std::uint64_t>(haltTicks_);
    s.put<std::uint8_t>(pendingInject_);
    s.put<std::uint8_t>(pendingDiskComplete_);

    // The per-core interrupt controller travels with the core; the
    // shared machine payload below travels once (with core 0 in an SMP
    // snapshot — fm/smp.hh).
    s.putString(pic_->name());
    s.putBlob(pic_->save());

    if (include_platform) {
        mem_->savePages(s);

        // Console output must travel in full: device blobs only ever
        // truncate.
        s.putString(console_->output());
        for (const Device *d : devices_) {
            if (d == pic_.get())
                continue;
            s.putString(d->name());
            s.putBlob(const_cast<Device *>(d)->save());
        }
        s.put<std::uint32_t>(disk_->blockCount());
        for (std::uint32_t b = 0; b < disk_->blockCount(); ++b)
            s.putBlob(disk_->readBlockRaw(b));
    }

    serialize::putGroup(s, stats_);
}

void
FuncModel::restoreState(serialize::Source &s, bool include_platform)
{
    for (std::uint32_t &v : state_.gpr)
        v = s.get<std::uint32_t>();
    for (double &v : state_.fpr)
        v = std::bit_cast<double>(s.get<std::uint64_t>());
    state_.flags = s.get<std::uint32_t>();
    state_.pc = s.get<Addr>();
    for (std::uint32_t &v : state_.ctrl)
        v = s.get<std::uint32_t>();
    state_.halted = s.get<std::uint8_t>();

    nextIn_ = s.get<InstNum>();
    lastCommitted_ = s.get<InstNum>();
    epoch_ = s.get<Epoch>();
    haltTicks_ = s.get<std::uint64_t>();
    pendingInject_ = s.get<std::uint8_t>();
    pendingDiskComplete_ = s.get<std::uint8_t>();
    s.require(lastCommitted_ + 1 == nextIn_, "FM not at a commit boundary");

    s.require(s.getString() == pic_->name(), "device order mismatch");
    pic_->restore(s.getBlob());

    if (include_platform) {
        mem_->restorePages(s);

        console_->setOutput(s.getString());
        for (Device *d : devices_) {
            if (d == pic_.get())
                continue;
            s.require(s.getString() == d->name(), "device order mismatch");
            d->restore(s.getBlob());
        }
        s.require(s.get<std::uint32_t>() == disk_->blockCount(),
                  "disk geometry mismatch");
        for (std::uint32_t b = 0; b < disk_->blockCount(); ++b)
            disk_->restoreBlock(b, s.getBlob());
    }

    serialize::getGroup(s, stats_);

    wrongPath_ = false;
    groups_.clear();
    cur_ = nullptr;
    consumedInjectIn_ = 0;
    consumedDiskIn_ = 0;
    flushTlb();
    dcache_.invalidateAll();
}

// --- I/O port routing ------------------------------------------------------------

Device *
FuncModel::deviceForPort(std::uint8_t port)
{
    if (port >= 0x10 && port <= 0x1F)
        return console_;
    if (port >= 0x20 && port <= 0x2F)
        return timer_;
    if (port >= 0x30 && port <= 0x3F)
        return disk_;
    if (port >= 0x40 && port <= 0x4F)
        return pic_.get();
    if (port == PortRtc)
        return rtc_;
    return nullptr;
}

std::uint32_t
FuncModel::ioRead(std::uint8_t port)
{
    // SMP topology register: which core am I?  Constant per core, so no
    // undo logging; a single-core model reads 0.
    if (port == PortCoreId)
        return coreId_;
    Device *dev = deviceForPort(port);
    return dev ? dev->ioRead(port) : 0xFFFFFFFFu;
}

void
FuncModel::ioWrite(std::uint8_t port, std::uint32_t val)
{
    if (Device *dev = deviceForPort(port))
        dev->ioWrite(port, val);
}

// --- flags helpers ----------------------------------------------------------------

void
FuncModel::setAluFlags(std::uint32_t result, bool cf, bool of, bool set_co)
{
    std::uint32_t f = state_.flags;
    f &= ~(FlagBit::FlagZ | FlagBit::FlagS);
    if (result == 0)
        f |= FlagBit::FlagZ;
    if (result >> 31)
        f |= FlagBit::FlagS;
    if (set_co) {
        f &= ~(FlagBit::FlagC | FlagBit::FlagO);
        if (cf)
            f |= FlagBit::FlagC;
        if (of)
            f |= FlagBit::FlagO;
    } else {
        f &= ~FlagBit::FlagO;
        if (of)
            f |= FlagBit::FlagO;
    }
    setFlags(f);
}

// --- fetch ------------------------------------------------------------------------

bool
FuncModel::fetch(Insn &insn, PAddr &inst_pa, Fault &fault)
{
    // Fast path: one translation, one tag compare, no byte loop, no decode.
    // A hit is sound because entries are tagged with the page's write
    // generation and never span pages (see decode_cache.hh).
    if (cfg_.decodeCache) {
        PAddr pa0;
        if (translate(state_.pc, Access::Exec, pa0)) {
            if (const Insn *hit = dcache_.lookup(pa0, mem_->pageGen(pa0))) {
                insn = *hit;
                inst_pa = pa0;
                ++stDecodeHits_;
                return true;
            }
        }
        // Miss or fetch fault: the slow path below re-derives either.
    }

    std::uint8_t buf[isa::MaxInsnLength];
    unsigned avail = 0;
    bool fetch_fault = false;
    Addr fault_at = 0;

    Addr page_va = ~Addr(0);
    PAddr page_pa = 0;
    for (unsigned i = 0; i < isa::MaxInsnLength; ++i) {
        const Addr va = state_.pc + i;
        if ((va & ~0xFFFu) != page_va) {
            PAddr pa;
            if (!translate(va, Access::Exec, pa)) {
                fetch_fault = true;
                fault_at = va;
                break;
            }
            page_va = va & ~0xFFFu;
            page_pa = pa & ~0xFFFu;
        }
        const PAddr pa = page_pa | (va & 0xFFF);
        if (!mem_->contains(pa)) {
            fetch_fault = true;
            fault_at = va;
            break;
        }
        buf[i] = mem_->read8(pa);
        if (i == 0)
            inst_pa = pa;
        ++avail;
    }

    const isa::DecodeStatus st = isa::decode(buf, avail, insn);
    switch (st) {
      case isa::DecodeStatus::Ok:
        if (cfg_.decodeCache) {
            ++stDecodeMisses_;
            // Never cache a page-crosser: its tail bytes live on a page
            // whose generation the single tag cannot observe.
            if ((inst_pa & 0xFFFu) + insn.length <= 0x1000u)
                dcache_.fill(inst_pa, mem_->pageGen(inst_pa), insn);
        }
        return true;
      case isa::DecodeStatus::NeedMoreBytes:
        fastsim_assert(fetch_fault);
        fault.raised = true;
        fault.vector = isa::VecPageFault;
        fault.va = fault_at;
        return false;
      case isa::DecodeStatus::BadOpcode:
      case isa::DecodeStatus::TooLong:
        fault.raised = true;
        fault.vector = isa::VecInvalidOp;
        return false;
    }
    return false;
}

// --- execute ----------------------------------------------------------------------

bool
FuncModel::execute(const Insn &insn, TraceEntry &e, Fault &fault)
{
    auto &gpr = state_.gpr;
    auto &fpr = state_.fpr;
    const Addr pc = state_.pc;
    const Addr fall = pc + insn.length;
    e.fallThrough = fall;
    e.nextPc = fall; // default: sequential

    auto raise = [&](std::uint8_t vec, Addr va = 0) {
        fault.raised = true;
        fault.vector = vec;
        fault.va = va;
        return false;
    };

    // Virtual-memory access helpers.  All translations are validated before
    // any mutation (see header: exceptions leave pre-instruction state).
    auto xlate = [&](Addr va, Access acc, PAddr &pa) {
        if (!translate(va, acc, pa)) {
            raise(isa::VecPageFault, faultVa_);
            return false;
        }
        return true;
    };
    auto read_v8 = [&](Addr va, std::uint32_t &v) {
        PAddr pa;
        if (!xlate(va, Access::Read, pa))
            return false;
        v = mem_->read8(pa);
        e.isLoad = true;
        e.loadVa = va;
        e.loadPa = pa;
        e.loadValue = v;
        return true;
    };
    auto read_v32 = [&](Addr va, std::uint32_t &v) {
        PAddr pa0, pa3;
        if (!xlate(va, Access::Read, pa0) ||
            !xlate(va + 3, Access::Read, pa3))
            return false;
        if ((va & 0xFFFu) <= 0xFF8u) {
            v = mem_->read32(pa0);
        } else {
            v = 0;
            for (unsigned i = 0; i < 4; ++i) {
                PAddr pa;
                if (!xlate(va + i, Access::Read, pa))
                    return false;
                v |= std::uint32_t(mem_->read8(pa)) << (8 * i);
            }
        }
        if (!e.isLoad) {
            e.isLoad = true;
            e.loadVa = va;
            e.loadPa = pa0;
            e.loadValue = v;
        }
        return true;
    };
    auto write_v8 = [&](Addr va, std::uint8_t v) {
        PAddr pa;
        if (!xlate(va, Access::Write, pa))
            return false;
        writePhys8(pa, v);
        e.isStore = true;
        e.storeVa = va;
        e.storePa = pa;
        e.storeValue = v;
        return true;
    };
    auto write_v32 = [&](Addr va, std::uint32_t v) {
        PAddr pa0, pa3;
        if (!xlate(va, Access::Write, pa0) ||
            !xlate(va + 3, Access::Write, pa3))
            return false;
        if ((va & 0xFFFu) <= 0xFF8u) {
            writePhys32(pa0, v);
        } else {
            for (unsigned i = 0; i < 4; ++i) {
                PAddr pa;
                if (!xlate(va + i, Access::Write, pa))
                    return false;
                writePhys8(pa, static_cast<std::uint8_t>(v >> (8 * i)));
            }
        }
        if (!e.isStore) {
            e.isStore = true;
            e.storeVa = va;
            e.storePa = pa0;
            e.storeValue = v;
        }
        return true;
    };

    const Addr ea = gpr[insn.rm] + static_cast<std::uint32_t>(insn.disp);
    const std::uint32_t a = gpr[insn.reg];
    const std::uint32_t b = gpr[insn.rm];

    switch (insn.op) {
      case Opcode::Nop:
        break;

      case Opcode::Hlt:
        state_.halted = true;
        e.halt = true;
        break;

      case Opcode::Cli:
        setFlags(state_.flags & ~FlagBit::FlagI);
        break;

      case Opcode::Sti:
        setFlags(state_.flags | FlagBit::FlagI);
        break;

      case Opcode::Iret: {
        const Addr sp = gpr[isa::RegSp];
        std::uint32_t ret_pc, saved_sp, saved_flags;
        if (!read_v32(sp, ret_pc) || !read_v32(sp + 4, saved_sp) ||
            !read_v32(sp + 8, saved_flags))
            return false;
        setGpr(isa::RegSp, sp + 12);
        const bool to_user = saved_flags & FlagBit::FlagPU;
        std::uint32_t nf =
            saved_flags & ~(FlagBit::FlagU | FlagBit::FlagPU);
        if (to_user)
            nf |= FlagBit::FlagU;
        setFlags(nf);
        if (to_user)
            setGpr(isa::RegSp, saved_sp);
        e.isBranch = true;
        e.branchTaken = true;
        e.target = ret_pc;
        e.nextPc = ret_pc;
        e.dataSize = 4;
        break;
      }

      case Opcode::Ret: {
        const Addr sp = gpr[isa::RegSp];
        std::uint32_t ret_pc;
        if (!read_v32(sp, ret_pc))
            return false;
        setGpr(isa::RegSp, sp + 4);
        e.isBranch = true;
        e.branchTaken = true;
        e.target = ret_pc;
        e.nextPc = ret_pc;
        e.dataSize = 4;
        break;
      }

      case Opcode::Ud:
        return raise(isa::VecInvalidOp);

      case Opcode::MovRr:
        setGpr(insn.reg, b);
        break;

      case Opcode::MovRi:
        setGpr(insn.reg, insn.imm);
        break;

      case Opcode::Lea:
        setGpr(insn.reg, ea);
        break;

      case Opcode::AddRr:
      case Opcode::AddRi: {
        const std::uint32_t o2 = insn.op == Opcode::AddRr ? b : insn.imm;
        const std::uint64_t wide = std::uint64_t(a) + o2;
        const std::uint32_t r = static_cast<std::uint32_t>(wide);
        const bool of = (~(a ^ o2) & (a ^ r)) >> 31;
        setGpr(insn.reg, r);
        setAluFlags(r, wide >> 32, of);
        break;
      }

      case Opcode::SubRr:
      case Opcode::SubRi:
      case Opcode::CmpRr:
      case Opcode::CmpRi: {
        const std::uint32_t o2 =
            (insn.op == Opcode::SubRr || insn.op == Opcode::CmpRr) ? b
                                                                   : insn.imm;
        const std::uint32_t r = a - o2;
        const bool of = ((a ^ o2) & (a ^ r)) >> 31;
        if (insn.op == Opcode::SubRr || insn.op == Opcode::SubRi)
            setGpr(insn.reg, r);
        setAluFlags(r, a < o2, of);
        break;
      }

      case Opcode::AndRr:
      case Opcode::AndRi:
      case Opcode::TestRr: {
        const std::uint32_t o2 = insn.op == Opcode::AndRi ? insn.imm : b;
        const std::uint32_t r = a & o2;
        if (insn.op != Opcode::TestRr)
            setGpr(insn.reg, r);
        setAluFlags(r, false, false);
        break;
      }

      case Opcode::OrRr:
      case Opcode::OrRi: {
        const std::uint32_t o2 = insn.op == Opcode::OrRi ? insn.imm : b;
        const std::uint32_t r = a | o2;
        setGpr(insn.reg, r);
        setAluFlags(r, false, false);
        break;
      }

      case Opcode::XorRr:
      case Opcode::XorRi: {
        const std::uint32_t o2 = insn.op == Opcode::XorRi ? insn.imm : b;
        const std::uint32_t r = a ^ o2;
        setGpr(insn.reg, r);
        setAluFlags(r, false, false);
        break;
      }

      case Opcode::ImulRr: {
        const std::int64_t p = std::int64_t(std::int32_t(a)) *
                               std::int64_t(std::int32_t(b));
        const std::uint32_t r = static_cast<std::uint32_t>(p);
        const bool ovf = p != std::int64_t(std::int32_t(r));
        setGpr(insn.reg, r);
        setAluFlags(r, ovf, ovf);
        break;
      }

      case Opcode::IdivRr: {
        if (b == 0 || (a == 0x80000000u && b == 0xFFFFFFFFu))
            return raise(isa::VecDivide);
        const std::int32_t q = std::int32_t(a) / std::int32_t(b);
        const std::uint32_t r = static_cast<std::uint32_t>(q);
        setGpr(insn.reg, r);
        setAluFlags(r, false, false);
        break;
      }

      case Opcode::ShlRr:
      case Opcode::ShlRi:
      case Opcode::ShrRr:
      case Opcode::ShrRi:
      case Opcode::SarRr:
      case Opcode::SarRi: {
        const bool by_imm = insn.op == Opcode::ShlRi ||
                            insn.op == Opcode::ShrRi ||
                            insn.op == Opcode::SarRi;
        const unsigned amt = (by_imm ? insn.imm : b) & 31;
        if (amt == 0)
            break; // flags unchanged, value unchanged
        std::uint32_t r;
        bool cf;
        if (insn.op == Opcode::ShlRr || insn.op == Opcode::ShlRi) {
            r = a << amt;
            cf = (a >> (32 - amt)) & 1;
        } else if (insn.op == Opcode::ShrRr || insn.op == Opcode::ShrRi) {
            r = a >> amt;
            cf = (a >> (amt - 1)) & 1;
        } else {
            r = static_cast<std::uint32_t>(std::int32_t(a) >> amt);
            cf = (a >> (amt - 1)) & 1;
        }
        setGpr(insn.reg, r);
        setAluFlags(r, cf, false);
        break;
      }

      case Opcode::NotR:
        setGpr(insn.reg, ~a);
        break;

      case Opcode::NegR: {
        const std::uint32_t r = 0u - a;
        setGpr(insn.reg, r);
        setAluFlags(r, a != 0, a == 0x80000000u);
        break;
      }

      case Opcode::IncR: {
        const std::uint32_t r = a + 1;
        setGpr(insn.reg, r);
        setAluFlags(r, false, a == 0x7FFFFFFFu, /*set_co=*/false);
        break;
      }

      case Opcode::DecR: {
        const std::uint32_t r = a - 1;
        setGpr(insn.reg, r);
        setAluFlags(r, false, a == 0x80000000u, /*set_co=*/false);
        break;
      }

      case Opcode::Ld: {
        std::uint32_t v;
        if (!read_v32(ea, v))
            return false;
        setGpr(insn.reg, v);
        e.dataSize = 4;
        break;
      }

      case Opcode::Ldb: {
        std::uint32_t v;
        if (!read_v8(ea, v))
            return false;
        setGpr(insn.reg, v);
        e.dataSize = 1;
        break;
      }

      case Opcode::St:
        if (!write_v32(ea, a))
            return false;
        e.dataSize = 4;
        break;

      case Opcode::Stb:
        if (!write_v8(ea, static_cast<std::uint8_t>(a)))
            return false;
        e.dataSize = 1;
        break;

      case Opcode::PushR: {
        const Addr sp = gpr[isa::RegSp];
        if (!write_v32(sp - 4, a))
            return false;
        setGpr(isa::RegSp, sp - 4);
        e.dataSize = 4;
        break;
      }

      case Opcode::PopR: {
        const Addr sp = gpr[isa::RegSp];
        std::uint32_t v;
        if (!read_v32(sp, v))
            return false;
        setGpr(insn.reg, v);
        if (insn.reg != isa::RegSp)
            setGpr(isa::RegSp, sp + 4);
        e.dataSize = 4;
        break;
      }

      case Opcode::Jcc32:
      case Opcode::Jcc8: {
        const bool taken = isa::evalCond(insn.cond, state_.flags);
        e.isBranch = true;
        e.isCond = true;
        e.branchTaken = taken;
        e.target = insn.relTarget(pc);
        e.nextPc = taken ? e.target : fall;
        break;
      }

      case Opcode::Jmp32:
        e.isBranch = true;
        e.branchTaken = true;
        e.target = insn.relTarget(pc);
        e.nextPc = e.target;
        break;

      case Opcode::JmpR:
        e.isBranch = true;
        e.branchTaken = true;
        e.target = a;
        e.nextPc = a;
        break;

      case Opcode::Call32:
      case Opcode::CallR: {
        const Addr sp = gpr[isa::RegSp];
        if (!write_v32(sp - 4, fall))
            return false;
        setGpr(isa::RegSp, sp - 4);
        e.isBranch = true;
        e.branchTaken = true;
        e.target = insn.op == Opcode::Call32 ? insn.relTarget(pc) : a;
        e.nextPc = e.target;
        e.dataSize = 4;
        break;
      }

      case Opcode::Int: {
        deliver(static_cast<std::uint8_t>(insn.imm), fall);
        e.isBranch = true;
        e.branchTaken = true;
        e.target = state_.pc;
        e.nextPc = state_.pc;
        ++stSyscalls_;
        break;
      }

      case Opcode::In: {
        const std::uint32_t v =
            ioRead(static_cast<std::uint8_t>(insn.imm));
        setGpr(insn.reg, v);
        break;
      }

      case Opcode::Out:
        e.isIo = true;
        e.ioPort = static_cast<std::uint8_t>(insn.imm);
        e.ioValue = a;
        ioWrite(static_cast<std::uint8_t>(insn.imm), a);
        break;

      case Opcode::CrRead: {
        std::uint32_t v;
        if (insn.rm == isa::CrCycles)
            v = static_cast<std::uint32_t>(icount());
        else if (insn.rm < isa::NumCtrlRegs)
            v = state_.ctrl[insn.rm];
        else
            v = 0;
        setGpr(insn.reg, v);
        break;
      }

      case Opcode::CrWrite:
        if (insn.reg >= isa::NumCtrlRegs)
            break;
        setCtrl(insn.reg, b);
        if (insn.reg == isa::CrPtbr || insn.reg == isa::CrStatus)
            flushTlb();
        break;

      case Opcode::Movsb: {
        const std::uint32_t cx = gpr[isa::RegCx];
        if (cx != 0) {
            std::uint32_t v;
            if (!read_v8(gpr[isa::RegSi], v))
                return false;
            if (!write_v8(gpr[isa::RegDi], static_cast<std::uint8_t>(v)))
                return false;
            setGpr(isa::RegSi, gpr[isa::RegSi] + 1);
            setGpr(isa::RegDi, gpr[isa::RegDi] + 1);
            setGpr(isa::RegCx, cx - 1);
            setAluFlags(cx - 1, false, false, /*set_co=*/false);
            if (insn.rep && cx - 1 != 0)
                e.nextPc = pc; // continue the REP loop
        }
        e.dataSize = 1;
        break;
      }

      case Opcode::Stosb: {
        const std::uint32_t cx = gpr[isa::RegCx];
        if (cx != 0) {
            if (!write_v8(gpr[isa::RegDi],
                          static_cast<std::uint8_t>(gpr[isa::RegAx])))
                return false;
            setGpr(isa::RegDi, gpr[isa::RegDi] + 1);
            setGpr(isa::RegCx, cx - 1);
            setAluFlags(cx - 1, false, false, /*set_co=*/false);
            if (insn.rep && cx - 1 != 0)
                e.nextPc = pc;
        }
        e.dataSize = 1;
        break;
      }

      case Opcode::Lodsb: {
        const std::uint32_t cx = gpr[isa::RegCx];
        if (cx != 0) {
            std::uint32_t v;
            if (!read_v8(gpr[isa::RegSi], v))
                return false;
            setGpr(isa::RegAx, (gpr[isa::RegAx] & ~0xFFu) | (v & 0xFF));
            setGpr(isa::RegSi, gpr[isa::RegSi] + 1);
            setGpr(isa::RegCx, cx - 1);
            setAluFlags(cx - 1, false, false, /*set_co=*/false);
            if (insn.rep && cx - 1 != 0)
                e.nextPc = pc;
        }
        e.dataSize = 1;
        break;
      }

      // --- floating point -----------------------------------------------
      case Opcode::Fadd:
        setFpr(insn.reg, fpr[insn.reg] + fpr[insn.rm]);
        break;
      case Opcode::Fsub:
        setFpr(insn.reg, fpr[insn.reg] - fpr[insn.rm]);
        break;
      case Opcode::Fmul:
        setFpr(insn.reg, fpr[insn.reg] * fpr[insn.rm]);
        break;
      case Opcode::Fdiv:
        setFpr(insn.reg, fpr[insn.reg] / fpr[insn.rm]);
        break;

      case Opcode::Fld: {
        std::uint32_t lo, hi;
        if (!read_v32(ea, lo) || !read_v32(ea + 4, hi))
            return false;
        const std::uint64_t bits = std::uint64_t(lo) |
                                   (std::uint64_t(hi) << 32);
        setFpr(insn.reg, std::bit_cast<double>(bits));
        e.dataSize = 8;
        break;
      }

      case Opcode::Fst: {
        const std::uint64_t bits =
            std::bit_cast<std::uint64_t>(fpr[insn.reg]);
        if (!write_v32(ea, static_cast<std::uint32_t>(bits)) ||
            !write_v32(ea + 4, static_cast<std::uint32_t>(bits >> 32)))
            return false;
        e.dataSize = 8;
        break;
      }

      case Opcode::Fitof:
        setFpr(insn.reg, static_cast<double>(std::int32_t(b)));
        break;

      case Opcode::Ftoi: {
        const double v = fpr[insn.rm];
        std::uint32_t r;
        if (std::isnan(v) || v >= 2147483648.0 || v < -2147483648.0)
            r = 0x80000000u;
        else
            r = static_cast<std::uint32_t>(static_cast<std::int32_t>(v));
        setGpr(insn.reg, r);
        break;
      }

      case Opcode::Fcmp: {
        const double x = fpr[insn.reg], y = fpr[insn.rm];
        std::uint32_t f = state_.flags &
                          ~(FlagBit::FlagZ | FlagBit::FlagS | FlagBit::FlagC |
                            FlagBit::FlagO);
        if (std::isnan(x) || std::isnan(y))
            f |= FlagBit::FlagC; // unordered
        else if (x == y)
            f |= FlagBit::FlagZ;
        else if (x < y)
            f |= FlagBit::FlagS;
        setFlags(f);
        break;
      }

      case Opcode::Fmov:
        setFpr(insn.reg, fpr[insn.rm]);
        break;
      case Opcode::Fabs:
        setFpr(insn.reg, std::fabs(fpr[insn.reg]));
        break;
      case Opcode::Fneg:
        setFpr(insn.reg, -fpr[insn.reg]);
        break;
      case Opcode::Fsqrt:
        setFpr(insn.reg, std::sqrt(fpr[insn.reg]));
        break;

      default:
        panic("execute: unhandled opcode %u",
              static_cast<unsigned>(insn.op));
    }
    return true;
}

// --- step -------------------------------------------------------------------

bool
FuncModel::wakePending() const
{
    return state_.halted && (state_.flags & FlagBit::FlagI) &&
           (pic_->pendingVector() != 0 ||
            (pendingInject_ && !pic_->isMasked(pendingInject_)) ||
            (pendingDiskComplete_ && !pic_->isMasked(isa::VecDisk)));
}

StepResult
FuncModel::step()
{
    // Deliverability check while halted (wake-up).
    if (state_.halted) {
        if (!wakePending()) {
            // In standalone mode device time must keep flowing or the
            // timer could never wake us.
            if (cfg_.fmDrivenDevices) {
                ++haltTicks_;
                // Only the timer and the disk observe time (same order as
                // the devices_ list; the other ticks are no-ops).
                timer_->tick();
                disk_->tick();
            }
            ++stHaltSteps_;
            StepResult res;
            res.kind = StepResult::Kind::Halted;
            return res;
        }
    }

    beginGroup();

    if (pendingInject_ && !wrongPath_) {
        pic_->raise(pendingInject_);
        consumedInjectIn_ = nextIn_;
        consumedInjectVector_ = pendingInject_;
        pendingInject_ = 0;
    }
    if (pendingDiskComplete_ && !wrongPath_) {
        disk_->completeNow(); // DMA + VecDisk, all inside this undo group
        consumedDiskIn_ = nextIn_;
        pendingDiskComplete_ = false;
    }

    // Build the trace entry in place in the result (no copy on return).
    StepResult res;
    TraceEntry &e = res.entry;
    e.in = nextIn_;
    e.epoch = epoch_;
    e.wrongPath = wrongPath_;

    // Interrupt delivery at the instruction boundary (never on wrong paths:
    // the timing model only injects on the committed path).
    const std::uint8_t pend = pic_->pendingVector();
    if (pend && (state_.flags & FlagBit::FlagI) && !wrongPath_) {
        state_.halted = false;
        deliver(pend, state_.pc);
        e.serializing = true;
        ++stInterrupts_;
    }

    e.pc = state_.pc;
    e.userMode = state_.flags & FlagBit::FlagU;

    Fault fault;
    isa::Insn insn;
    PAddr inst_pa = 0;
    bool ok = fetch(insn, inst_pa, fault);

    if (ok) {
        e.instPa = inst_pa;
        e.size = insn.length;
        e.op = insn.op;
        e.cond = insn.cond;
        e.reg = insn.reg;
        e.rm = insn.rm;
        const OpMeta &meta = opMeta_[static_cast<unsigned>(insn.op)];
        e.opcode = isa::compressedOpcode(insn.op, insn.cond);
        e.isFp = meta.isFp;
        e.serializing = e.serializing || meta.serializing;

        if (meta.privileged && (state_.flags & FlagBit::FlagU)) {
            fault.raised = true;
            fault.vector = isa::VecProtection;
            ok = false;
        } else {
            ok = execute(insn, e, fault);
        }
    }

    if (!ok) {
        fastsim_assert(fault.raised);
        if (wrongPath_) {
            // Wrong-path fault: produce nothing, wait for a resteer.
            rollbackGroup(groups_.back());
            recycleGroup(std::move(groups_.back()));
            groups_.pop_back();
            cur_ = nullptr;
            ++stWrongPathStalls_;
            res.entry = TraceEntry();
            res.kind = StepResult::Kind::WrongPathStall;
            return res;
        }
        if (fault.vector == isa::VecPageFault)
            setCtrl(isa::CrFault, fault.va);
        deliver(fault.vector, e.pc); // faulting instruction restarts
        e.exception = true;
        e.vector = fault.vector;
        e.serializing = true;
        e.nextPc = state_.pc;
        ++stExceptions_;
    } else {
        if (wrongPath_ && e.halt) {
            // Speculative HLT: a real machine would not halt before commit;
            // stall until the timing model resteers us.
            rollbackGroup(groups_.back());
            recycleGroup(std::move(groups_.back()));
            groups_.pop_back();
            cur_ = nullptr;
            ++stWrongPathStalls_;
            res.entry = TraceEntry();
            res.kind = StepResult::Kind::WrongPathStall;
            return res;
        }
        state_.pc = e.nextPc;
    }

    // Microcode-table info for the timing model's decode stage (flattened
    // per-opcode table; no UcodeTable lookup on the per-step path).
    const OpMeta &um = opMeta_[static_cast<unsigned>(e.op)];
    e.hasUcode = um.hasUcode;
    e.uopCount = um.uopCount;

    // Trace size on the link (paper: ~4 words/instruction compressed).
    unsigned words = cfg_.traceCompression ? 3 : 10;
    if (e.isLoad || e.isStore)
        ++words;
    if (e.isBranch)
        ++words;
    if (e.exception)
        ++words;
    e.traceWords = static_cast<std::uint8_t>(words);

    cur_ = nullptr;
    ++nextIn_;

    // Statistics.
    ++stInstructions_;
    if (e.wrongPath)
        ++stWrongPathInsts_;
    if (e.isBranch) {
        ++stBranches_;
        if (e.branchTaken)
            ++stTakenBranches_;
    }
    stTraceWords_ += e.traceWords;

    // Device time (standalone mode only).  Only the timer and the disk
    // observe time; skipping the no-op ticks is behaviour-neutral.
    if (cfg_.fmDrivenDevices) {
        timer_->tick();
        disk_->tick();
    }

    res.kind = StepResult::Kind::Ok;
    return res;
}

} // namespace fm
} // namespace fastsim
