/**
 * @file
 * Atomic snapshot file I/O, shared by the coupled loop's periodic
 * checkpoints and the fastd worker loop (DESIGN.md §10.4, §15).
 *
 * The durability contract:
 *
 *  - writeFileAtomic() publishes a complete byte image or nothing: the
 *    image goes to a *process-unique* temp name (path + ".tmp.<pid>.<n>")
 *    and is fsync'd before an atomic rename.  A fixed ".tmp" suffix
 *    would let two writers targeting the same --checkpoint-file
 *    interleave into a torn temp file and then publish it; the unique
 *    suffix makes concurrent writers last-writer-wins with both images
 *    intact.
 *  - Any short write (ENOSPC included) is a FatalError naming the path,
 *    and the temp file is unlinked — a failed checkpoint never leaves a
 *    half-written FSNP behind, and never touches the previous good one.
 *  - writeStream() is the fd-oriented half the worker loop uses to
 *    checkpoint into an already-open stream; it performs the same
 *    short-write checks without the rename step.
 */

#ifndef FASTSIM_FAST_SNAPSHOT_IO_HH
#define FASTSIM_FAST_SNAPSHOT_IO_HH

#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

namespace fastsim {
namespace fast {
namespace snapshot_io {

/** "FSNP" as a little-endian u32 (shared by every runner's snapshots). */
constexpr std::uint32_t SnapshotMagic = 0x504e5346u;

/** Current on-disk format version; fast/simulator.cc documents the
 *  format and its version history (v6: no parallel-runner tuning in
 *  the fingerprint, no trace-ring sizer state in the payload). */
constexpr std::uint32_t SnapshotVersion = 6;

/** Write `bytes` to an open stream; FatalError on short write/flush
 *  failure (the caller still owns and closes the stream). */
void writeStream(std::FILE *f, const std::vector<std::uint8_t> &bytes,
                 const std::string &what);

/** Atomically publish `bytes` at `path` (unique temp + fsync + rename).
 *  FatalError on any failure; the previous file at `path`, if any,
 *  survives every failure mode. */
void writeFileAtomic(const std::string &path,
                     const std::vector<std::uint8_t> &bytes);

/** Read a whole file; FatalError if it cannot be opened or read. */
std::vector<std::uint8_t> readFile(const std::string &path);

} // namespace snapshot_io
} // namespace fast
} // namespace fastsim

#endif // FASTSIM_FAST_SNAPSHOT_IO_HH
