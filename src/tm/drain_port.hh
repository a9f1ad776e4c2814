/**
 * @file
 * The narrow face of a timing-model core the FM<->TM protocol engine
 * drives (fast/protocol.cc): request a pipeline drain, observe drain
 * completion and the resume point, and acknowledge the resteer epoch
 * bump.  tm::CoreSlice (tm/core_slice.hh) implements it for one core of
 * either facade; the face keeps the engine's header free of the timing
 * model's.
 */

#ifndef FASTSIM_TM_DRAIN_PORT_HH
#define FASTSIM_TM_DRAIN_PORT_HH

#include "base/types.hh"

namespace fastsim {
namespace tm {

class CoreDrainPort
{
  public:
    virtual ~CoreDrainPort() = default;

    /** Stop fetching so the pipeline drains (interrupt injection). */
    virtual void requestDrain() = 0;

    /** True when nothing is in flight. */
    virtual bool drained() const = 0;

    /** IN of the next instruction the fetch stage expects. */
    virtual InstNum nextFetchIn() const = 0;

    /** Acknowledge an FM resteer: bump the epoch, clear the drain. */
    virtual void noteResteer() = 0;
};

} // namespace tm
} // namespace fastsim

#endif // FASTSIM_TM_DRAIN_PORT_HH
