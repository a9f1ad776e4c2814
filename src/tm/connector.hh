/**
 * @file
 * Connectors: the parameterized FIFOs joining timing-model Modules.
 *
 * Paper §4: "Modules are connected by Connectors which are FIFOs that
 * enforce timing and throughput constraints.  Connectors can be configured
 * for input throughput, output throughput, minimum latency and maximum
 * transactions and will also provide statistics gathering and logging
 * capabilities.  By specifying parameters to a Connector, one can ...
 * reconfigure a target from a single issue machine to a multi-issue
 * machine ... change the latency or change the number of outstanding
 * transactions allowed."
 *
 * Two delivery disciplines are supported:
 *  - push(v): ordered FIFO, entry visible after minLatency cycles;
 *  - pushAt(v, ready_at): per-entry readiness for completion-style
 *    channels (e.g. execute -> writeback) where transactions carry their
 *    own latency and complete out of order; consume with drainReady().
 *
 * Cross-partition operation (BSP timing model, tm/bsp.hh): a Connector
 * whose producer and consumer modules run on different scheduler
 * partitions is switched into cross-partition mode.  Pushes then land in
 * a producer-private lane instead of the shared queue, and the lane is
 * spliced into the queue at the next cycle barrier (exchange()) — double
 * buffering that keeps the producer and consumer threads off each
 * other's data during the tick phase.  Because every legal cut edge
 * carries >= 1 target cycle of latency (fastlint FAB011), deferring the
 * splice to the barrier is invisible in target time: an entry pushed in
 * cycle N can never be popped before cycle N+1 anyway.
 */

#ifndef FASTSIM_TM_CONNECTOR_HH
#define FASTSIM_TM_CONNECTOR_HH

#include <deque>
#include <string>
#include <type_traits>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "base/statistics.hh"
#include "base/types.hh"

namespace fastsim {
namespace tm {

/** Connector configuration.  0 means unlimited for the throughputs and
 *  for maxTransactions (completion channels are bounded by the ROB). */
struct ConnectorParams
{
    unsigned inputThroughput = 1;  //!< max enqueues per target cycle
    unsigned outputThroughput = 1; //!< max dequeues per target cycle
    Cycle minLatency = 1;          //!< cycles before an entry is visible
    unsigned maxTransactions = 4;  //!< capacity (outstanding entries)
};

/**
 * Type-erased Connector identity: name, parameters and statistics.
 *
 * Static analysis (src/analysis/fabric_lint.hh) walks the fabric through
 * this interface — connectivity, latency and buffering are properties of
 * the graph, independent of the payload type a Connector carries.
 */
class ConnectorBase
{
  public:
    ConnectorBase(std::string name, const ConnectorParams &params)
        : name_(std::move(name)), p_(params), stats_(name_)
    {
    }
    virtual ~ConnectorBase() = default;

    ConnectorBase(const ConnectorBase &) = delete;
    ConnectorBase &operator=(const ConnectorBase &) = delete;

    const std::string &name() const { return name_; }
    const ConnectorParams &params() const { return p_; }
    stats::Group &stats() { return stats_; }
    const stats::Group &stats() const { return stats_; }

    /** Current number of in-flight entries. */
    virtual std::size_t size() const = 0;
    bool empty() const { return size() == 0; }

    /** Begin a new target cycle: re-arm the per-cycle throughput budgets
     *  and advance the connector's notion of time.  Driven through the
     *  type-erased interface by ModuleRegistry::tickAll — the single
     *  tick-driving seam the BSP scheduler partitions. */
    virtual void tick(Cycle now) = 0;

    /**
     * Cross-partition mode (see file comment).  Toggled by the BSP
     * scheduler for cut edges only; while enabled, only the producer
     * partition may push and only the consumer partition may pop, and
     * exchange() must be called at every cycle barrier.
     */
    void setCrossPartition(bool on) { crossPartition_ = on; }
    bool crossPartition() const { return crossPartition_; }

    /** Barrier phase: splice the producer lane into the visible queue
     *  (push order preserved) and snapshot the occupancy the producer
     *  sees until the next barrier.  Serial-phase only. */
    virtual void exchange() = 0;

  private:
    // Declared before stats_: members initialize in declaration order, and
    // the stats Group is constructed from the name.
    std::string name_;

  protected:
    ConnectorParams p_;
    stats::Group stats_;
    bool crossPartition_ = false;
};

/**
 * A latency/throughput-constrained FIFO between two Modules.
 *
 * Usage per target cycle: the owning timing model calls tick(cycle) once,
 * then producers use canPush()/push() and consumers canPop()/front()/pop().
 */
template <typename T>
class Connector : public ConnectorBase
{
  public:
    Connector(std::string name, const ConnectorParams &params)
        : ConnectorBase(std::move(name), params),
          stPushes_(stats_.handle("pushes")),
          stPops_(stats_.handle("pops")),
          stMaxOccupancy_(stats_.handle("max_occupancy")),
          stFlushed_(stats_.handle("flushed"))
    {
    }

    /** Begin a new target cycle. */
    void
    tick(Cycle now) override
    {
        now_ = now;
        pushedThisCycle_ = 0;
        poppedThisCycle_ = 0;
    }

    bool
    canPush() const
    {
        return (p_.inputThroughput == 0 ||
                pushedThisCycle_ < p_.inputThroughput) &&
               (p_.maxTransactions == 0 ||
                occupancyForPush() < p_.maxTransactions);
    }

    void
    push(T v)
    {
        pushAt(std::move(v), now_ + p_.minLatency);
    }

    /** Push with an explicit readiness cycle (completion channels whose
     *  entries carry their own latency).  Must still satisfy canPush(). */
    void
    pushAt(T v, Cycle ready_at)
    {
        fastsim_assert(canPush());
        if (crossPartition_) {
            // The latency >= 1 legality proof (FAB011) is about actual
            // transactions, not just the edge parameter: an entry made
            // ready in its push cycle would be poppable before the
            // barrier publishes it, so the cut would reorder target time.
            fastsim_assert(ready_at > now_);
            lane_.push_back(Entry{std::move(v), ready_at});
        } else {
            q_.push_back(Entry{std::move(v), ready_at});
        }
        ++pushedThisCycle_;
        ++stPushes_;
        stMaxOccupancy_.maxOf(occupancyForPush());
    }

    /** True if an entry is visible and output throughput remains. */
    bool
    canPop() const
    {
        return (p_.outputThroughput == 0 ||
                poppedThisCycle_ < p_.outputThroughput) &&
               !q_.empty() && q_.front().readyAt <= now_;
    }

    const T &
    front() const
    {
        fastsim_assert(!q_.empty() && q_.front().readyAt <= now_);
        return q_.front().value;
    }

    T
    pop()
    {
        fastsim_assert(canPop());
        T v = std::move(q_.front().value);
        q_.pop_front();
        ++poppedThisCycle_;
        ++stPops_;
        return v;
    }

    /**
     * Pop every entry whose readiness has elapsed, regardless of queue
     * position (out-of-order completion delivery), honoring output
     * throughput.  Calls fn(value) for each in push order.
     */
    template <typename Fn>
    void
    drainReady(Fn &&fn)
    {
        for (auto it = q_.begin(); it != q_.end();) {
            if (p_.outputThroughput != 0 &&
                poppedThisCycle_ >= p_.outputThroughput)
                break;
            if (it->readyAt <= now_) {
                fn(it->value);
                it = q_.erase(it);
                ++poppedThisCycle_;
                ++stPops_;
            } else {
                ++it;
            }
        }
    }

    /** Squash all in-flight entries (pipeline flush).  Also re-arms the
     *  current cycle's throughput budget: a mid-cycle flush must not
     *  leave the new instruction stream debited for squashed work.
     *  Illegal on a cross-partition edge: a flush mutates both endpoints'
     *  budgets, which no single partition owns (the partitioner keeps
     *  flushable pipeline edges intra-partition via sync domains). */
    void
    flush()
    {
        fastsim_assert(!crossPartition_);
        stFlushed_ += q_.size();
        q_.clear();
        pushedThisCycle_ = 0;
        poppedThisCycle_ = 0;
    }

    /** Barrier phase: publish the producer lane (see ConnectorBase). */
    void
    exchange() override
    {
        for (Entry &e : lane_)
            q_.push_back(std::move(e));
        lane_.clear();
        barrierSize_ = q_.size();
    }

    /** Visit every in-flight value, oldest first (inspection only;
     *  serial-phase — un-published lane entries are included last). */
    template <typename Fn>
    void
    forEachValue(Fn &&fn) const
    {
        for (const Entry &e : q_)
            fn(e.value);
        for (const Entry &e : lane_)
            fn(e.value);
    }

    /** In-flight entries, un-published lane included (serial-phase
     *  observation: quiesce checks must see lane entries as in flight). */
    std::size_t size() const override { return q_.size() + lane_.size(); }

    /**
     * Snapshot support for connectors that legally carry in-flight entries
     * across a quiesced boundary (the memory-fabric fill paths: an
     * outstanding miss survives a drain, exactly as the old blocking-cache
     * busy-until scalars did).  Only instantiable for payloads without
     * padding (every byte is a value byte, so equal tokens serialize to
     * equal bytes and snapshots are byte-reproducible; a payload type
     * names its padding as zero-initialized members); pipeline
     * connectors (DynInst etc.) are empty at a boundary, so the facade
     * serializes just their statistics groups.
     */
    void
    saveState(serialize::Sink &s) const
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "connector payload must be padding-free to "
                      "serialize the in-flight queue byte-reproducibly");
        s.put<Cycle>(now_);
        // Lane entries are serialized as if already exchanged: a restore
        // resumes at a cycle barrier, where the lane is empty by
        // definition.
        s.put<std::uint64_t>(q_.size() + lane_.size());
        for (const auto *part : {&q_, &lane_})
            for (const Entry &e : *part) {
                s.put<T>(e.value);
                s.put<Cycle>(e.readyAt);
            }
        serialize::putGroup(s, stats_);
    }

    void
    restoreState(serialize::Source &s)
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "connector payload must be padding-free to "
                      "serialize the in-flight queue byte-reproducibly");
        now_ = s.get<Cycle>();
        q_.clear();
        lane_.clear();
        const std::uint64_t n = s.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i) {
            Entry e;
            e.value = s.get<T>();
            e.readyAt = s.get<Cycle>();
            q_.push_back(e);
        }
        barrierSize_ = q_.size();
        pushedThisCycle_ = 0;
        poppedThisCycle_ = 0;
        serialize::getGroup(s, stats_);
    }

  private:
    struct Entry
    {
        T value;
        Cycle readyAt = 0;
    };

    /** Occupancy as seen by the producer's capacity check.  In
     *  cross-partition mode the producer must not read the live queue
     *  (the consumer thread is popping it): it sees the barrier snapshot
     *  plus its own un-published lane — deterministic for any thread
     *  count because both terms only change in phases the producer
     *  participates in. */
    std::size_t
    occupancyForPush() const
    {
        return crossPartition_ ? barrierSize_ + lane_.size() : q_.size();
    }

    std::deque<Entry> q_;
    std::deque<Entry> lane_;       //!< cross-partition producer lane
    std::size_t barrierSize_ = 0;  //!< q_.size() at the last exchange()
    Cycle now_ = 0;
    unsigned pushedThisCycle_ = 0;
    unsigned poppedThisCycle_ = 0;
    stats::Handle stPushes_;
    stats::Handle stPops_;
    stats::Handle stMaxOccupancy_;
    stats::Handle stFlushed_;
};

} // namespace tm
} // namespace fastsim

#endif // FASTSIM_TM_CONNECTOR_HH
