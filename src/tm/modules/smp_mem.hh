/**
 * @file
 * The SMP memory fabric: per-core L1s joined to one shared L2/memory by
 * request/fill/snoop Connectors (DESIGN.md §16).
 *
 * The single-core hierarchy resolves a miss with a synchronous fillVia()
 * walk — legal because the whole chain shares one sync domain.  With N
 * cores the shared L2 lives in its own domain (so the BSP partitioner can
 * give every core its own partition), and a synchronous call from a
 * per-core L1 into it would be exactly the cross-partition shared-memory
 * access the partitioner exists to forbid.  The SMP L1s therefore speak an
 * asynchronous token protocol instead:
 *
 *     cN.l1{i,d} ──cN.l1{i,d}_to_l2──▶ smp.l2 ──l2_to_mem──▶ smp.mem
 *                ◀──cN.l2_to_l1{i,d}──        ◀──mem_to_l2──
 *                ◀──────cN.snoop───────  (coherence invalidates)
 *
 * A miss launches a MemReq token and returns a *pending* result: the
 * requesting stage retries (loads) or stalls behind a sentinel (ifetch)
 * until the fill token comes back and inserts the line.  Every coherence
 * edge carries >= 1 target cycle of latency and is unbounded — statically
 * checked by fastlint FAB013 — so the protocol is legal across any BSP
 * cut and bit-identical at any tmThreads.
 *
 * Coherence is a MESI-lite directory at the L2: it tracks, per line, a
 * sharer bitmask and an optional dirty owner.  Stores send write-notice
 * tokens (no fill); the directory snoop-invalidates the other sharers and
 * records the writer as dirty owner.  A read that finds a remote dirty
 * owner pays a fixed intervention penalty and snoop-invalidates the
 * owner.  Caches are tag-only (the paper: values never live in the timing
 * model), so invalidates drop tags and the directory is a pure timing
 * artifact; silent L1 evictions are allowed and simply leave the
 * directory conservative ("core may still hold it"), which only ever
 * *adds* intervention penalties, never loses one.
 */

#ifndef FASTSIM_TM_MODULES_SMP_MEM_HH
#define FASTSIM_TM_MODULES_SMP_MEM_HH

#include <map>
#include <set>
#include <vector>

#include "tm/modules/cache_mod.hh"
#include "tm/modules/core_state.hh"
#include "tm/modules/mem_mod.hh"

namespace fastsim {
namespace tm {
namespace modules {

/** A coherence invalidate travelling from the shared L2 to one core's
 *  L1s (trivially copyable: in-flight entries ride through snapshots). */
struct SnoopMsg
{
    PAddr pa = 0;
    std::uint8_t reason = 0; //!< 0 = remote write, 1 = dirty-read service
    std::uint8_t pad[3] = {}; //!< explicit zeroed padding (snapshot bytes)
};

/**
 * A per-core L1 (instruction or data side) of the SMP fabric.
 *
 * Implements the same stage-facing L1Port the single-core CacheModule
 * does, but resolves misses asynchronously: a miss (de-duplicated per
 * line, bounded by the MSHR depth) launches a request token to the shared
 * L2 and returns pending; the fill token inserts the line on arrival.
 * The data side additionally drains the core's snoop Connector and
 * invalidates the line in BOTH of the core's L1s (the sibling pointer —
 * same sync domain, so the cross-module call is legal).
 */
class SmpL1Module : public Module, public L1Port
{
  public:
    enum class Role : std::uint8_t
    {
        Instr,
        Data
    };

    /**
     * @param to_l2    this core's request edge into the shared L2
     * @param from_l2  this core's fill edge back
     * @param stage_req  the stage-facing miss-record edge (fetch_to_l1i /
     *                   issue_to_l1d); drained here as in the single core
     * @param stage_fill the stage-facing fill edge (l1i_to_fetch /
     *                   l1d_to_issue); fills are mirrored onto it
     * @param snoop    the core's coherence invalidate edge (Data side
     *                 only; the data side services both L1s)
     */
    SmpL1Module(const CacheParams &p, Role role, unsigned core_id,
                unsigned mshr_depth, CoreState &st,
                Connector<MemReq> &to_l2, Connector<MemFill> &from_l2,
                Connector<MemReq> &stage_req, Connector<MemFill> &stage_fill,
                Connector<SnoopMsg> *snoop, const std::string &prefix);

    CacheAccessResult access(PAddr pa, Cycle now) override;
    void noteWrite(PAddr pa, Cycle now) override;

    void tick(Cycle now) override;
    FpgaCost fpgaCost() const override;
    std::vector<Port> ports() const override;

    /** The data side invalidates the instruction side on a snoop. */
    void setSibling(SmpL1Module *s) { sibling_ = s; }

    CacheLevel &level() { return level_; }
    const CacheLevel &level() const { return level_; }

    /** Lines with an in-flight fill (guardrails diagnosis / tests). */
    std::size_t pendingMisses() const { return pendingLines_.size(); }

  protected:
    void saveExtra(serialize::Sink &s) const override;
    void restoreExtra(serialize::Source &s) override;

  private:
    PAddr lineOf(PAddr pa) const { return pa / level_.params().lineBytes; }
    bool isPending(PAddr line) const;

    CacheLevel level_;
    Role role_;
    unsigned coreId_;
    unsigned mshrDepth_; //!< 0 = unlimited outstanding misses
    CoreState &st_;
    Connector<MemReq> &toL2_;
    Connector<MemFill> &fromL2_;
    Connector<MemReq> &stageReq_;
    Connector<MemFill> &stageFill_;
    Connector<SnoopMsg> *snoop_;
    SmpL1Module *sibling_ = nullptr;

    /** Lines with an outstanding fill request, in launch order. */
    std::vector<PAddr> pendingLines_;
    /** Lines this core believes it owns dirty (write-notice filter:
     *  MESI's silent store-to-M).  Cleared by snoops; silently evicted
     *  entries stay — the directory still records us as owner, so the
     *  filter stays truthful.  Ordered for deterministic serialization. */
    std::set<PAddr> dirtyLines_;

    stats::Handle stAccesses_;
    stats::Handle stHits_;
    stats::Handle stMisses_;
    stats::Handle stReplays_;
    stats::Handle stMshrDefers_;
    stats::Handle stFills_;
    stats::Handle stSnoopInvals_;
    stats::Handle stWriteNotices_;
};

/** One core's Connector bundle as seen by the shared L2. */
struct SmpCoreLinks
{
    Connector<MemReq> *reqI = nullptr;   //!< cN.l1i_to_l2 (in)
    Connector<MemReq> *reqD = nullptr;   //!< cN.l1d_to_l2 (in)
    Connector<MemFill> *fillI = nullptr; //!< cN.l2_to_l1i (out)
    Connector<MemFill> *fillD = nullptr; //!< cN.l2_to_l1d (out)
    Connector<SnoopMsg> *snoop = nullptr; //!< cN.snoop (out)
};

/**
 * The shared L2 + MESI-lite directory of the SMP fabric.
 *
 * Each target cycle it drains every core's request edges in fixed core
 * order (instruction side before data side) — the deterministic arbiter
 * for the single shared port, modeled by an alloc-on-hit MshrTable
 * exactly like the single-core L2.  Misses forward to the memory model
 * through the same synchronous fillVia() walk (legal: L2 and mem share
 * one sync domain), and fills ride back to the requesting core on its
 * fill edge.
 */
class SharedL2Module : public Module
{
  public:
    struct DirEntry
    {
        std::uint32_t sharers = 0; //!< bitmask of cores holding the line
        std::int8_t dirtyOwner = -1; //!< core holding it dirty, -1 = none
    };

    /**
     * @param dirty_penalty extra cycles when a read finds a remote dirty
     *        owner (the owner's L1-to-L2 intervention round trip)
     * @param down  the l2_to_mem / mem_to_l2 pair of the shared fabric
     */
    SharedL2Module(const CacheParams &p, unsigned mshr_depth,
                   Cycle dirty_penalty, std::vector<SmpCoreLinks> cores,
                   MemLink down, MemSink &mem);

    void tick(Cycle now) override;
    FpgaCost fpgaCost() const override;
    std::vector<Port> ports() const override;

    CacheLevel &level() { return level_; }
    const CacheLevel &level() const { return level_; }
    const std::map<PAddr, DirEntry> &directory() const { return dir_; }

  protected:
    void saveExtra(serialize::Sink &s) const override;
    void restoreExtra(serialize::Source &s) override;

  private:
    void serveRead(const MemReq &q, Cycle now);
    void serveWriteNotice(const MemReq &q, Cycle now);
    void snoopInvalidate(unsigned core, PAddr pa, std::uint8_t reason,
                         Cycle now);

    PAddr lineOf(PAddr pa) const { return pa / level_.params().lineBytes; }

    CacheLevel level_;
    MshrTable mshrs_;
    Cycle dirtyPenalty_;
    std::vector<SmpCoreLinks> cores_;
    MemLink down_;
    MemSink &mem_;
    std::map<PAddr, DirEntry> dir_;

    stats::Handle stReads_;
    stats::Handle stWriteNotices_;
    stats::Handle stDirtyServices_;
    stats::Handle stSnoops_;
    stats::Handle stMemFills_;
};

} // namespace modules
} // namespace tm
} // namespace fastsim

#endif // FASTSIM_TM_MODULES_SMP_MEM_HH
