/**
 * @file
 * Byte-stream serialization helpers for crash-consistent snapshots.
 *
 * A Sink accumulates a flat little-endian byte image; a Source replays
 * one.  Both follow the memcpy idiom the device save blobs already use
 * (fm/devices.cc): fixed-width scalars only, no pointers, no padding.
 * The FNV-1a checksum over the payload is the same hash family the
 * golden-event tests pin, so a corrupt snapshot is rejected before any
 * state is touched (snapshot header, DESIGN.md §10.4).
 */

#ifndef FASTSIM_BASE_SERIALIZE_HH
#define FASTSIM_BASE_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "base/logging.hh"
#include "base/statistics.hh"

namespace fastsim {
namespace serialize {

/** FNV-1a over a byte range (offset basis / prime shared with the golden
 *  event hash). */
inline std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n,
      std::uint64_t h = 1469598103934665603ull)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Accumulates the snapshot payload. */
class Sink
{
  public:
    template <typename T>
    void
    put(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::size_t off = buf_.size();
        buf_.resize(off + sizeof(T));
        std::memcpy(buf_.data() + off, &v, sizeof(T));
    }

    void
    putBytes(const void *p, std::size_t n)
    {
        if (n == 0)
            return; // an empty vector's data() may be null: no memcpy
        const std::size_t off = buf_.size();
        buf_.resize(off + n);
        std::memcpy(buf_.data() + off, p, n);
    }

    void
    putBlob(const std::vector<std::uint8_t> &b)
    {
        put<std::uint64_t>(b.size());
        putBytes(b.data(), b.size());
    }

    void
    putString(const std::string &s)
    {
        put<std::uint64_t>(s.size());
        putBytes(s.data(), s.size());
    }

    std::uint64_t checksum() const { return fnv1a(buf_.data(), buf_.size()); }
    const std::vector<std::uint8_t> &data() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Replays a snapshot payload; any structural mismatch is a FatalError
 *  (bad snapshot), never UB. */
class Source
{
  public:
    Source(const std::uint8_t *p, std::size_t n) : p_(p), n_(n) {}
    explicit Source(const std::vector<std::uint8_t> &b)
        : p_(b.data()), n_(b.size())
    {
    }

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        require(off_ + sizeof(T) <= n_, "truncated snapshot payload");
        T v;
        std::memcpy(&v, p_ + off_, sizeof(T));
        off_ += sizeof(T);
        return v;
    }

    void
    getBytes(void *dst, std::size_t n)
    {
        require(off_ + n <= n_, "truncated snapshot payload");
        std::memcpy(dst, p_ + off_, n);
        off_ += n;
    }

    std::vector<std::uint8_t>
    getBlob()
    {
        const std::uint64_t n = get<std::uint64_t>();
        require(off_ + n <= n_, "truncated snapshot blob");
        std::vector<std::uint8_t> b(p_ + off_, p_ + off_ + n);
        off_ += n;
        return b;
    }

    std::string
    getString()
    {
        const std::uint64_t n = get<std::uint64_t>();
        require(off_ + n <= n_, "truncated snapshot string");
        std::string s(reinterpret_cast<const char *>(p_ + off_), n);
        off_ += n;
        return s;
    }

    bool atEnd() const { return off_ == n_; }
    std::size_t offset() const { return off_; }

    void
    require(bool cond, const char *what) const
    {
        if (!cond)
            fatal("snapshot: %s (offset %zu of %zu)", what, off_, n_);
    }

  private:
    const std::uint8_t *p_;
    std::size_t n_;
    std::size_t off_ = 0;
};

/** Serialize a stats::Group as (count, name, value) records. */
inline void
putGroup(Sink &s, const stats::Group &g)
{
    const auto &all = g.all();
    s.put<std::uint64_t>(all.size());
    for (const auto &kv : all) {
        s.putString(kv.first);
        s.put<std::uint64_t>(kv.second);
    }
}

/** Restore counters into an existing Group.  Writing through counter()
 *  reuses existing map nodes, so live stats::Handles stay valid. */
inline void
getGroup(Source &s, stats::Group &g)
{
    const std::uint64_t n = s.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string name = s.getString();
        g.counter(name) = s.get<std::uint64_t>();
    }
}

} // namespace serialize
} // namespace fastsim

#endif // FASTSIM_BASE_SERIALIZE_HH
