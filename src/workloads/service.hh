/**
 * @file
 * Request/response service workload for the multi-core simulator
 * (DESIGN.md §16.5): one server core and N-1 closed-loop load generators,
 * standing in for the paper's MySQL/SURGE-style transactional workloads.
 *
 * Topology.  Core 0 runs a user-mode server program that polls one
 * 64-byte shared-memory mailbox per load generator.  Cores 1..N-1 run
 * machine-mode generators (the kernel's SMP secondary stub hands them
 * control after boot) that issue requests back-to-back: publish a
 * payload, bump the request sequence word, spin until the server bumps
 * the response sequence word, repeat.  All communication is plain shared
 * memory, so every hop exercises the shared-L2 coherence fabric
 * (request: generator store -> server load miss; response: server store
 * -> generator load miss).
 *
 * Mailbox layout (64-byte aligned, one per generator j, core j+1):
 *
 *   SvcMailboxBase + j*64 + 0   req_seq      generator -> server
 *                        + 4   req_payload  generator -> server
 *                        + 8   resp_seq     server -> generator
 *                        + 12  resp_payload server -> generator
 *
 * Observation.  The guest has no cycle counter, so latency is measured
 * from the host: a ServiceMonitor hooks SmpSimulator::onCommitEntry and
 * watches the *generator* core's committed mailbox accesses, using the
 * access values (fm::TraceEntry::storeValue / loadValue) as high-water
 * marks.  A committed req_seq store of value v issues every request in
 * (reqHigh, v]; a committed resp_seq *load* observing value v answers
 * every issued request with seq <= v — i.e. a request is answered when
 * the requester's own spin-loop load that saw the acknowledgement
 * commits.  Both probes ride the same core's in-order commit stream, so
 * answer never precedes issue, and the spin load that breaks the wait
 * typically pays the timed coherence round trip (the server's store
 * invalidated the generator's L1 line).  Anchoring the answer on the
 * server core's store commit instead would be meaningless: the two
 * cores' commit streams drain independent run-ahead backlogs, so their
 * relative cycle alignment carries no request/response ordering.  Value
 * accounting (rather than counting accesses ordinally) matters because
 * acknowledgements can batch — one observed resp_seq value may jump
 * over intermediate values.
 */

#ifndef FASTSIM_WORKLOADS_SERVICE_HH
#define FASTSIM_WORKLOADS_SERVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "kernel/boot.hh"

namespace fastsim {
namespace fast {
class SmpSimulator;
}
namespace workloads {

/** Physical/virtual base of the mailbox array (identity-mapped, below
 *  the user stack region so both the user-mode server and the
 *  paging-off generators address it identically). */
constexpr Addr SvcMailboxBase = 0x00500000;
constexpr unsigned SvcMailboxStride = 64;

/** Shape of one service run. */
struct ServiceConfig
{
    unsigned loadGenerators = 2;  //!< cores = loadGenerators + 1
    unsigned requestsPerGen = 8;  //!< closed-loop requests per generator
    unsigned serverWorkIters = 4; //!< per-request compute on the server
};

/** One completed request, host-observed. */
struct ServiceSample
{
    unsigned generator = 0;  //!< generator index j (core j+1)
    unsigned seq = 0;        //!< request number within the generator (1-based)
    Cycle issued = 0;        //!< commit cycle of the generator's req_seq store
    Cycle answered = 0;      //!< commit cycle of the generator's resp_seq load
                             //!< that observed the acknowledgement
    Cycle latency() const { return answered - issued; }
};

/** Aggregated results with the latency distribution the issue asks for. */
struct ServiceReport
{
    unsigned cores = 0;
    unsigned loadGenerators = 0;
    std::uint64_t totalRequests = 0; //!< configured (generators * per-gen)
    std::uint64_t completed = 0;     //!< observed request/response pairs
    Cycle firstIssue = 0;
    Cycle lastAnswer = 0;
    Cycle p50 = 0, p95 = 0, p99 = 0; //!< request latency percentiles, cycles
    double requestsPerSec = 0;       //!< at the 1 GHz target clock below
    /** Responses observed at a cycle before their request's: each is
     *  recorded with latency 0 (so the percentiles keep their meaning)
     *  and counted here, never dropped silently. */
    std::uint64_t latencyClamped = 0;
    std::vector<ServiceSample> samples;

    /** Target clock assumed when converting cycles to wall-clock rates.
     *  The FX86 target is not clocked in real time; 1 GHz makes
     *  requests/sec == requests per 1e9 cycles, the conventional
     *  normalization all the benches use. */
    static constexpr double TargetHz = 1e9;

    /** JSON object: {"cores":N,...,"latency_cycles":{"p50":...},...}. */
    std::string json() const;
};

/**
 * Build the boot options for a service run: the server user program, the
 * generator secondary program, and smpCores = loadGenerators + 1.
 */
kernel::BuildOptions serviceBootOptions(const ServiceConfig &cfg);

/**
 * Host-side observer.  Attach BEFORE SmpSimulator::run (it chains onto
 * sim.onCommitEntry, preserving any previously installed hook).
 */
class ServiceMonitor
{
  public:
    ServiceMonitor(const ServiceConfig &cfg, fast::SmpSimulator &sim);

    /** Aggregate what has been observed so far (percentiles computed
     *  over completed requests). */
    ServiceReport report() const;

  private:
    void onCommit(unsigned core, bool is_store, PAddr pa,
                  std::uint32_t value);

    struct GenState
    {
        std::vector<ServiceSample> samples; //!< indexed by seq-1
        std::uint32_t reqHigh = 0;  //!< highest committed req_seq store value
        std::uint32_t respHigh = 0; //!< highest resp_seq value a committed
                                    //!< generator load has observed
        std::size_t answered = 0;   //!< samples[0..answered) are complete
    };

    /** Answer every issued-but-unanswered sample with seq <= respHigh. */
    void settle(GenState &g, Cycle now);

    ServiceConfig cfg_;
    fast::SmpSimulator &sim_;
    std::vector<GenState> gens_;
    std::uint64_t latencyClamped_ = 0; //!< ServiceReport::latencyClamped
};

} // namespace workloads
} // namespace fastsim

#endif // FASTSIM_WORKLOADS_SERVICE_HH
