/**
 * @file
 * The trace buffer (TB) of paper Figures 1 and 2.
 *
 * The functional model streams dynamic-instruction entries into the TB; the
 * timing model "fetches" from it.  Entries are indexed by instruction
 * number (IN) and have three live pointers:
 *
 *   commit  — entries at or below the committed IN are deallocated
 *             ("Each logical TB entry ... is not deallocated until the
 *              instruction is fully committed");
 *   fetch   — the timing model's read position;
 *   write   — the functional model's append position.  Roll-back rewinds
 *             it, overwriting incorrect-path entries (Figure 2).
 *
 * Implementation: a fixed power-of-two ring addressed by three
 * monotonically increasing 64-bit indices (write, fetch, free), so every
 * pointer operation — including rewindTo and commitTo — is O(1) index
 * arithmetic.  Because the FM pushes INs contiguously and the write/free
 * indices move by exactly one per push, the difference `IN - index` is a
 * single constant fixed at the first push (rewinds subtract the same
 * amount from both sides), which makes every IN <-> index conversion a
 * subtraction.
 *
 * Concurrency (the parallel runner; the coupled runner is single-threaded
 * and pays only uncontended atomics):
 *
 *   - the FM thread is the only *writer* of writeIdx_ and freeIdx_
 *     (Commit protocol events are applied on the FM thread);
 *   - the TM thread is the only *writer* of fetchIdx_ in steady state;
 *   - push() release-stores writeIdx_ after filling the slot, and the
 *     consumer acquire-loads it before reading, so slot contents are
 *     always published;
 *   - takeFetch() release-stores fetchIdx_; commitTo() acquire-loads it
 *     for its cannot-commit-unfetched check (the Commit event's ring
 *     transfer provides the actual ordering edge);
 *   - rewindTo() is the one moment the producer also *clamps* fetchIdx_
 *     (the overwritten entries must disappear from the reader too).  It
 *     is only legal while the consumer is quiesced: trivially true in
 *     the coupled runner, and guaranteed in the parallel runner by the
 *     resteer rendezvous (the TM stops touching the buffer between
 *     issuing a resteer-class event and observing the FM's ack).
 */

#ifndef FASTSIM_TM_TRACE_BUFFER_HH
#define FASTSIM_TM_TRACE_BUFFER_HH

#include <atomic>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "fm/trace_entry.hh"

namespace fastsim {
namespace tm {

class TraceBuffer
{
  public:
    /** @param capacity  logical capacity (exact, not rounded; the
     *                   physical ring is the next power of two) */
    explicit TraceBuffer(std::size_t capacity) : capacity_(capacity)
    {
        fastsim_assert(capacity > 0);
        std::size_t phys = 1;
        while (phys < capacity)
            phys <<= 1;
        ring_.resize(phys);
        mask_ = phys - 1;
    }

    // --- write side (functional model) -----------------------------------
    bool
    full() const
    {
        return writeIdx_.load(std::memory_order_relaxed) -
                   freeIdx_.load(std::memory_order_relaxed) >=
               capacity_;
    }

    void
    push(const fm::TraceEntry &e)
    {
        fastsim_assert(!full());
        const std::uint64_t w = writeIdx_.load(std::memory_order_relaxed);
        if (!deltaSet_) {
            delta_ = e.in - w;
            deltaSet_ = true;
        }
        fastsim_assert(e.in == delta_ + w);
        ring_[w & mask_] = e;
        writeIdx_.store(w + 1, std::memory_order_release);
    }

    /**
     * Roll back the write pointer: drop all entries with IN >= in.  The
     * fetch pointer is clamped (the timing model will see the overwritten
     * entries).  Caller must guarantee the consumer is quiesced (see the
     * file comment).
     *
     * @return false iff `in` lies below the committed floor — a resteer
     * aimed at a deallocated entry, which no legal protocol sequence
     * produces (resteers always target above the last commit).  Callers
     * must treat false as corruption and raise a structured FatalError;
     * silently clamping used to wedge the pipeline with the fetch pointer
     * below free.
     */
    [[nodiscard]] bool
    rewindTo(InstNum in)
    {
        if (!deltaSet_)
            return true;
        const std::uint64_t w = writeIdx_.load(std::memory_order_relaxed);
        const std::uint64_t f = freeIdx_.load(std::memory_order_relaxed);
        std::uint64_t target = in - delta_;
        if (target >= w)
            return true; // nothing at or above `in`
        if (target < f)
            return false; // below the committed floor: corrupt resteer
        writeIdx_.store(target, std::memory_order_release);
        if (fetchIdx_.load(std::memory_order_relaxed) > target)
            fetchIdx_.store(target, std::memory_order_release);
        return true;
    }

    // --- read side (timing model) -----------------------------------------
    /** Next unfetched entry, or nullptr. */
    const fm::TraceEntry *
    peekFetch() const
    {
        const std::uint64_t f = fetchIdx_.load(std::memory_order_relaxed);
        const std::uint64_t w = writeIdx_.load(std::memory_order_acquire);
        return f < w ? &ring_[f & mask_] : nullptr;
    }

    fm::TraceEntry
    takeFetch()
    {
        const std::uint64_t f = fetchIdx_.load(std::memory_order_relaxed);
        const std::uint64_t w = writeIdx_.load(std::memory_order_acquire);
        fastsim_assert(f < w);
        fm::TraceEntry e = ring_[f & mask_];
        fetchIdx_.store(f + 1, std::memory_order_release);
        return e;
    }

    /** Re-aim the fetch pointer at IN `in` (exception re-fetch). */
    void
    rewindFetchTo(InstNum in)
    {
        const std::uint64_t w = writeIdx_.load(std::memory_order_acquire);
        if (!deltaSet_) {
            fetchIdx_.store(w, std::memory_order_release);
            return;
        }
        const std::uint64_t target = in - delta_;
        fastsim_assert(target <= w);
        fastsim_assert(target >= freeIdx_.load(std::memory_order_relaxed));
        fetchIdx_.store(target, std::memory_order_release);
    }

    // --- commit side -------------------------------------------------------
    /**
     * Release entries at or below the committed IN `in`.
     *
     * @return false iff the commit references entries that were never
     * pushed, or entries the timing model has not fetched — both indicate
     * a corrupt/reordered Commit command, never a legal protocol state.
     * Idempotent re-commits (target already released) return true.
     */
    [[nodiscard]] bool
    commitTo(InstNum in)
    {
        if (!deltaSet_)
            return false; // commit before any push: corrupt command
        const std::uint64_t f = freeIdx_.load(std::memory_order_relaxed);
        const std::uint64_t w = writeIdx_.load(std::memory_order_relaxed);
        const std::uint64_t target = in - delta_ + 1; // one past committed IN
        if (target <= f || in + 1 <= delta_ + f)
            return true; // nothing new to release (second test guards wrap)
        if (target > w)
            return false; // committing entries never pushed: corrupt command
        // Cannot commit unfetched entries.
        if (target > fetchIdx_.load(std::memory_order_acquire))
            return false;
        freeIdx_.store(target, std::memory_order_release);
        return true;
    }

    std::size_t
    size() const
    {
        return static_cast<std::size_t>(
            writeIdx_.load(std::memory_order_relaxed) -
            freeIdx_.load(std::memory_order_relaxed));
    }

    std::size_t
    unfetched() const
    {
        const std::uint64_t f = fetchIdx_.load(std::memory_order_relaxed);
        const std::uint64_t w = writeIdx_.load(std::memory_order_acquire);
        return w > f ? static_cast<std::size_t>(w - f) : 0;
    }

    std::size_t capacity() const { return capacity_; }
    bool empty() const { return size() == 0; }

    /** Forget all contents and the IN<->index mapping (snapshot resume;
     *  single-threaded context only). */
    void
    reset()
    {
        writeIdx_.store(0, std::memory_order_relaxed);
        fetchIdx_.store(0, std::memory_order_relaxed);
        freeIdx_.store(0, std::memory_order_relaxed);
        delta_ = 0;
        deltaSet_ = false;
    }

    /**
     * IN the next push() must carry (the receiver-side contiguity check
     * the trace link's duplicate filter uses).  0 until the first push.
     */
    InstNum
    expectedNextIn() const
    {
        return deltaSet_
                   ? delta_ + writeIdx_.load(std::memory_order_relaxed)
                   : 0;
    }

  private:
    const std::size_t capacity_; //!< logical capacity (exact, not rounded)
    std::uint64_t mask_;
    std::vector<fm::TraceEntry> ring_;

    std::atomic<std::uint64_t> writeIdx_{0}; //!< FM-owned
    std::atomic<std::uint64_t> fetchIdx_{0}; //!< TM-owned (FM clamps on rewind)
    std::atomic<std::uint64_t> freeIdx_{0};  //!< FM-owned (commit release)

    // IN of ring index i is delta_ + i; constant once the first entry is
    // pushed (see file comment).  Written once by the producer before the
    // first writeIdx_ release, so the consumer always sees it initialized.
    std::uint64_t delta_ = 0;
    bool deltaSet_ = false;
};

} // namespace tm
} // namespace fastsim

#endif // FASTSIM_TM_TRACE_BUFFER_HH
