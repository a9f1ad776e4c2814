/**
 * @file
 * The SMP functional model: N speculative FuncModels sharing one machine
 * (physical memory + platform devices) through fm::SharedMachine.
 *
 * Paper §3.4 models a complete system; an SMP target adds the question of
 * *which core the devices talk to*.  The answer here mirrors small real
 * machines: the interrupt controller is per-core (LAPIC-style — each
 * FuncModel owns its pic), while memory, console, timer, disk and RTC are
 * shared.  Shared devices log their undo snapshots through whichever
 * core's DeviceBus they are attached to, so before every step the runner
 * activates the executing core (activate() re-attaches the shared devices
 * to it) — speculative wrong-path device writes then land in that core's
 * undo log and roll back with it.
 *
 * Cores are stepped in a deterministic round-robin at instruction
 * granularity by the coupled loop (fast/simulator.cc).  Cross-core
 * speculation hazards through shared state are bounded by the per-core
 * run-ahead window and by software convention (the service workload
 * communicates through single-writer mailboxes; only core 0 writes the
 * console) — see DESIGN.md §16 for the honest limits of this fiction.
 */

#ifndef FASTSIM_FM_SMP_HH
#define FASTSIM_FM_SMP_HH

#include <memory>
#include <vector>

#include "fm/func_model.hh"

namespace fastsim {
namespace fm {

class SmpFuncModel
{
  public:
    SmpFuncModel(const FmConfig &cfg, unsigned num_cores);

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    FuncModel &core(unsigned i) { return *cores_.at(i); }
    const FuncModel &core(unsigned i) const { return *cores_.at(i); }

    SharedMachine &machine() { return *machine_; }
    const SharedMachine &machine() const { return *machine_; }

    /** Re-attach the shared devices to core `i`'s bus (undo logging goes
     *  to the executing core) and return it.  Call before every step. */
    FuncModel &
    activate(unsigned i)
    {
        FuncModel &c = *cores_.at(i);
        c.attachSharedDevices(); // unconditional: four pointer stores
        return c;
    }

    /** Committed instructions across all cores. */
    std::uint64_t
    icountTotal() const
    {
        std::uint64_t n = 0;
        for (const auto &c : cores_)
            n += c->icount();
        return n;
    }

    /** Serialize all cores; the shared platform travels once, with
     *  core 0 (FuncModel::saveState's include_platform split). */
    void saveState(serialize::Sink &s) const;
    void restoreState(serialize::Source &s);

  private:
    std::unique_ptr<SharedMachine> machine_;
    std::vector<std::unique_ptr<FuncModel>> cores_;
};

} // namespace fm
} // namespace fastsim

#endif // FASTSIM_FM_SMP_HH
