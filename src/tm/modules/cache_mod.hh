/**
 * @file
 * The memory hierarchy as first-class Modules and Connectors (paper §4).
 *
 * L1I, L1D, the shared L2 and the fixed-delay memory model used to be a
 * side-channel object threaded by reference into the fetch and issue
 * stages — invisible to the FabricGraph, to fastlint, and to the
 * registry's FPGA-cost and host-cycle roll-ups.  Here they are ordinary
 * tm::Modules joined by CoreConfig-parameterized Connectors:
 *
 *     fetch ──fetch_to_l1i──▶ l1i ──l1i_to_l2──▶ l2 ──l2_to_mem──▶ mem
 *       ◀──l1i_to_fetch──────      ◀──l2_to_l1i──    ◀──mem_to_l2──
 *     issue ──issue_to_l1d──▶ l1d ──l1d_to_l2──▶ l2 (shared)
 *       ◀──l1d_to_issue──────      ◀──l2_to_l1d──
 *
 * Miss-status handling is explicit: each cache level owns an MSHR table
 * whose depth bounds outstanding misses.  An access first *gates* on the
 * table (if every MSHR is busy past the access cycle, the access waits for
 * the earliest one to free), then — on a miss — sends a request token down
 * its miss Connector, receives the fill readiness from the level below,
 * and allocates an MSHR until the fill returns.  The L2 additionally
 * reserves its MSHR/port for the duration of *hits* (allocOnHit), modeling
 * the single shared L2 port the prototype had.
 *
 * blocking = true degenerates to MSHR depth 1 (one outstanding miss gates
 * everything behind it, hits included) — which makes the old blocking
 * hierarchy the bit-identical base case of this fabric, not a separate
 * code path: the 17 golden workload hashes are unchanged under the
 * default configuration.
 *
 * Timing is computed synchronously (the recursive fillVia() walk below),
 * exactly as the old hierarchy did; the Connector tokens are the
 * fabric-visible record of the miss/fill traffic — observable, lintable,
 * and bounded — drained by the consumer modules as their readiness
 * elapses.
 */

#ifndef FASTSIM_TM_MODULES_CACHE_MOD_HH
#define FASTSIM_TM_MODULES_CACHE_MOD_HH

#include <algorithm>
#include <vector>

#include "tm/cache.hh"
#include "tm/connector.hh"
#include "tm/core_types.hh"
#include "tm/module.hh"

namespace fastsim {
namespace tm {
namespace modules {

/** A miss request travelling down the hierarchy (padding-free so
 *  in-flight entries can ride through a snapshot).  The SMP fields
 *  default to zero so single-core traffic is unchanged. */
struct MemReq
{
    PAddr pa = 0;
    std::uint8_t core = 0; //!< requesting core (SMP shared-L2 traffic)
    std::uint8_t port = 0; //!< 0 = instruction side, 1 = data side
    std::uint8_t kind = 0; //!< 0 = read, 1 = write / write-notice
    std::uint8_t pad = 0;  //!< explicit zeroed padding (snapshot bytes)
};

/** A fill travelling back up; the fill time rides on the Connector entry's
 *  readiness, the token records the line. */
struct MemFill
{
    PAddr pa = 0;
    std::uint8_t port = 0; //!< routes an SMP fill to the right L1
    std::uint8_t pad[3] = {}; //!< explicit zeroed padding (snapshot bytes)
};

/** One request/fill Connector pair joining two adjacent levels. */
struct MemLink
{
    Connector<MemReq> *req = nullptr;
    Connector<MemFill> *fill = nullptr;
};

/** Result of servicing a request at one level of the hierarchy. */
struct FillResult
{
    Cycle readyAt = 0; //!< cycle the line is available to the requester
    bool hit = false;  //!< satisfied at this level?
};

/**
 * The stage-facing face of an L1: fetch and issue/exec access the
 * instruction/data caches through this interface so the same stage
 * modules drive either the single-core CacheModule (synchronous fillVia
 * timing walk) or the SMP SmpL1Module (asynchronous request/fill tokens
 * to the shared L2; returns pending results — see smp_mem.hh).
 */
class L1Port
{
  public:
    virtual ~L1Port() = default;

    /** Front-door access from a pipeline stage at cycle `now`. */
    virtual CacheAccessResult access(PAddr pa, Cycle now) = 0;

    /** A store retired into this line.  Single-core caches ignore it
     *  (stores complete into the write buffer and access() already
     *  charged the occupancy); the SMP data L1 turns it into a
     *  write-notice token so the shared directory can invalidate the
     *  other cores' copies (smp_mem.hh). */
    virtual void noteWrite(PAddr, Cycle) {}
};

/** Anything that can service a miss from the level above. */
class MemSink
{
  public:
    virtual ~MemSink() = default;

    /**
     * Service a request arriving at cycle `at` from the upstream level
     * bound by `up`; pushes the fill token into up.fill at the returned
     * readiness.
     */
    virtual FillResult fillVia(const MemLink &up, PAddr pa, Cycle at) = 0;
};

/**
 * A miss-status holding register table: completion cycles of the
 * outstanding misses (for the L2, of the in-service accesses).  Depth 0
 * means unlimited — no gating and no tracking, the fully non-blocking
 * ablation case.
 */
class MshrTable
{
  public:
    explicit MshrTable(unsigned depth) : depth_(depth) {}

    unsigned depth() const { return depth_; }

    /**
     * Gate an access arriving at `at`: a slot frees *at* its completion
     * cycle (matching the strict busy_until > now test of the blocking
     * hierarchy); while every slot is busy past the candidate start, the
     * access waits for the earliest completion.  Waiting must not consume
     * the entry — a later access arriving before that completion has to
     * see the same busy state — so only entries whose completion elapsed
     * by the *arrival* time are physically pruned.
     */
    Cycle
    gate(Cycle at)
    {
        if (depth_ == 0)
            return at;
        prune(at);
        Cycle start = at;
        for (;;) {
            std::size_t busy = 0;
            Cycle earliest = 0;
            for (Cycle c : busyUntil_)
                if (c > start) {
                    if (busy == 0 || c < earliest)
                        earliest = c;
                    ++busy;
                }
            if (busy < depth_)
                return start;
            start = earliest;
        }
    }

    /** Reserve a slot until `completion`.  Call after gate(). */
    void
    allocate(Cycle completion)
    {
        if (depth_ == 0)
            return; // unlimited: nothing to track
        busyUntil_.push_back(completion);
    }

    /** Outstanding entries still busy past `at`. */
    std::size_t
    outstanding(Cycle at) const
    {
        return static_cast<std::size_t>(
            std::count_if(busyUntil_.begin(), busyUntil_.end(),
                          [at](Cycle c) { return c > at; }));
    }

    void
    save(serialize::Sink &s) const
    {
        s.put<std::uint64_t>(busyUntil_.size());
        for (Cycle c : busyUntil_)
            s.put<Cycle>(c);
    }

    void
    restore(serialize::Source &s)
    {
        busyUntil_.assign(s.get<std::uint64_t>(), 0);
        for (Cycle &c : busyUntil_)
            c = s.get<Cycle>();
    }

  private:
    void
    prune(Cycle at)
    {
        busyUntil_.erase(std::remove_if(busyUntil_.begin(), busyUntil_.end(),
                                        [at](Cycle c) { return c <= at; }),
                         busyUntil_.end());
    }

    unsigned depth_; //!< 0 = unlimited
    std::vector<Cycle> busyUntil_;
};

/**
 * The ten Connectors of the memory fabric.  Owned next to the pipeline's
 * CoreState connectors by the Core facade; ticked once per target cycle.
 *
 * The fill paths are deliberately never flush()ed on a squash: an
 * outstanding miss keeps its MSHR and completes regardless of pipeline
 * flushes, exactly as the old busy-until scalars survived them.
 */
struct MemFabric
{
    /** `prefix` namespaces the Connector (and thus stat) names for SMP
     *  per-core instances ("c0." ...); the default keeps the single-core
     *  names — and therefore the golden stat streams — bit-identical. */
    explicit MemFabric(const MemTopology &t, const std::string &prefix = "")
        : fetchToL1i(prefix + "fetch_to_l1i", t.fetchToL1i),
          l1iToFetch(prefix + "l1i_to_fetch", t.l1iToFetch),
          issueToL1d(prefix + "issue_to_l1d", t.issueToL1d),
          l1dToIssue(prefix + "l1d_to_issue", t.l1dToIssue),
          l1iToL2(prefix + "l1i_to_l2", t.l1iToL2),
          l2ToL1i(prefix + "l2_to_l1i", t.l2ToL1i),
          l1dToL2(prefix + "l1d_to_l2", t.l1dToL2),
          l2ToL1d(prefix + "l2_to_l1d", t.l2ToL1d),
          l2ToMem(prefix + "l2_to_mem", t.l2ToMem),
          memToL2(prefix + "mem_to_l2", t.memToL2)
    {
    }

    Connector<MemReq> fetchToL1i;
    Connector<MemFill> l1iToFetch;
    Connector<MemReq> issueToL1d;
    Connector<MemFill> l1dToIssue;
    Connector<MemReq> l1iToL2;
    Connector<MemFill> l2ToL1i;
    Connector<MemReq> l1dToL2;
    Connector<MemFill> l2ToL1d;
    Connector<MemReq> l2ToMem;
    Connector<MemFill> memToL2;

    /** Note all ten edges into the registry, request/fill-interleaved
     *  level order.  The registry is the one tick-driving seam
     *  (ModuleRegistry::tickAll re-arms noted connectors before modules),
     *  so the fabric has no second per-cycle loop to keep in step. */
    void
    noteInto(ModuleRegistry &reg)
    {
        reg.noteConnector(fetchToL1i);
        reg.noteConnector(l1iToFetch);
        reg.noteConnector(issueToL1d);
        reg.noteConnector(l1dToIssue);
        reg.noteConnector(l1iToL2);
        reg.noteConnector(l2ToL1i);
        reg.noteConnector(l1dToL2);
        reg.noteConnector(l2ToL1d);
        reg.noteConnector(l2ToMem);
        reg.noteConnector(memToL2);
    }

    /** Save/restore the queues and statistics of all ten edges. */
    void save(serialize::Sink &s) const;
    void restore(serialize::Source &s);
};

/**
 * One cache level as a Module: owns the tag-array primitive and the MSHR
 * table, consumes request tokens from its upstream edges, produces fill
 * tokens back, and forwards misses to the MemSink below.
 */
class CacheModule : public Module, public MemSink, public L1Port
{
  public:
    /**
     * @param up        edges where this level is the fill producer /
     *                  request consumer (one for an L1, two for the L2)
     * @param down      this level's miss path (request out, fill in)
     * @param downstream the level servicing this level's misses
     * @param mshrDepth effective outstanding-miss bound (0 = unlimited)
     * @param allocOnHit reserve an MSHR/port slot for hits too (the L2's
     *                  single shared port serializes every access into it)
     */
    CacheModule(const CacheParams &p, unsigned mshrDepth, bool allocOnHit,
                std::vector<MemLink> up, MemLink down, MemSink &downstream);

    /**
     * Front-door access from a pipeline stage (L1 role; requires exactly
     * one upstream link).  The stage pushes the miss-request token; this
     * module pushes the fill token back at the fill's readiness.
     */
    CacheAccessResult access(PAddr pa, Cycle now) override;

    /** Service a miss from the level above (L2 role). */
    FillResult fillVia(const MemLink &up, PAddr pa, Cycle at) override;

    void tick(Cycle now) override;
    FpgaCost fpgaCost() const override;
    std::vector<Port> ports() const override;

    CacheLevel &level() { return level_; }
    const CacheLevel &level() const { return level_; }
    const MshrTable &mshrs() const { return mshrs_; }

    /** Misses still outstanding at `now` (in-flight fill not yet back). */
    std::size_t outstandingMisses(Cycle now) const
    {
        return mshrs_.outstanding(now);
    }

  protected:
    void saveExtra(serialize::Sink &s) const override;
    void restoreExtra(serialize::Source &s) override;

  private:
    /** Gate + probe + forward-on-miss; the shared service routine. */
    FillResult service(PAddr pa, Cycle at, bool &l2_hit);

    CacheLevel level_;
    MshrTable mshrs_;
    bool allocOnHit_;
    std::vector<MemLink> up_;
    MemLink down_;
    MemSink &downstream_;

    stats::Handle stMshrStalls_;
    stats::Handle stMshrStallCycles_;
    stats::Handle stMshrAllocs_;
    stats::Handle stFillDrops_;
};

} // namespace modules
} // namespace tm
} // namespace fastsim

#endif // FASTSIM_TM_MODULES_CACHE_MOD_HH
