// Dirty-chunk tracking for incremental snapshot refresh.
//
// PR 3's SnapshotCache made store copies O(flushes) instead of
// O(queries), but each refresh still memcpys the *entire* shard store
// under a worker quiesce. At production store sizes that stall grows
// linearly with the store even when an op batch dirtied a handful of
// slots. The tracker records which fixed-size chunks of each registered
// store region were written since the last snapshot consume, so a
// refresh can copy only the dirtied bytes — the quiesce window then
// scales with mutation, not store size.
//
// Granularity: regions are divided into chunks of `chunk_bytes`
// (rounded up to a power of two, min 64 B). One bit per chunk; the
// shard's delivery loop marks the byte range of every executed RDMA op
// (WRITE payload extents, 8 B per FETCH_ADD — the only two verbs that
// touch registered store memory). An op landing outside every tracked
// region saturates the tracker (mark_all), so unknown writes degrade to
// a full copy instead of a missed patch.
//
// Thread safety: none — by design. Marks happen on the shard's ingest
// thread (worker or inline caller); reads and clear() happen only
// inside a quiesce window (worker parked behind the pipeline's hold
// barrier), whose handshake orders them against the marks. The tracker
// must never be read while the shard is ingesting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "rdma/memory_region.h"

namespace dta::collector {

struct DirtyTrackerStats {
  std::uint64_t marks = 0;         // mark() calls since construction
  std::uint64_t bytes_marked = 0;  // sum of marked extents (pre-dedup)
  std::uint64_t saturations = 0;   // mark_all / out-of-range fallbacks
};

class DirtyTracker {
 public:
  // Byte range within one region: {offset, length}.
  using Range = std::pair<std::uint64_t, std::uint64_t>;

  // 64 B default: one cache line, the granularity ingest writes at (an
  // 8 B slot, a 32 B postcard chunk, a 64 B append batch), so a refresh
  // copies what was written rather than the 4 KiB page around it.
  explicit DirtyTracker(std::uint32_t chunk_bytes = 64);

  // Registers a region for tracking. Null regions are ignored. Call
  // before any mark (the shard tracks its store regions at setup).
  void track(const rdma::MemoryRegion* region);

  // Marks the chunks covering [va, va + len) dirty. A range outside
  // every tracked region saturates the tracker instead (safety: the
  // next refresh falls back to a full copy).
  void mark(std::uint64_t va, std::size_t len);

  // Everything dirty; the next refresh must full-copy.
  void mark_all();

  // Resets all chunks to clean. The snapshot refresher calls this once
  // its copy has consumed the dirty set (inside the quiesce window).
  void clear();

  std::uint32_t chunk_bytes() const { return chunk_bytes_; }
  std::uint64_t tracked_bytes() const { return tracked_bytes_; }
  bool saturated() const { return saturated_; }

  // Upper bound on the bytes a refresh must copy (chunk-rounded; equals
  // tracked_bytes() when saturated).
  std::uint64_t dirty_bytes() const;
  // dirty_bytes / tracked_bytes (0 when nothing is tracked).
  double dirty_ratio() const;

  // Calls fn(offset, length) for each coalesced dirty byte range of
  // `region`, in ascending order, clamped to its length. A saturated
  // tracker — or an untracked region — reports one range covering the
  // whole region, so consumers degrade to a full copy rather than ever
  // missing a write. Allocation-free: the snapshot refresher patches
  // from it inside the quiesce window.
  template <typename Fn>
  void for_each_dirty_range(const rdma::MemoryRegion* region, Fn&& fn) const;

  // The same ranges, collected.
  std::vector<Range> dirty_ranges(const rdma::MemoryRegion* region) const;

  const DirtyTrackerStats& stats() const { return stats_; }

 private:
  struct Tracked {
    const rdma::MemoryRegion* region = nullptr;
    std::vector<std::uint64_t> bits;  // one bit per chunk
    std::uint64_t num_chunks = 0;
    std::uint64_t dirty_chunks = 0;
  };

  Tracked* find(std::uint64_t va, std::size_t len);
  const Tracked* find_region(const rdma::MemoryRegion* region) const;

  std::uint32_t chunk_bytes_;
  std::uint32_t chunk_shift_;
  std::uint64_t tracked_bytes_ = 0;
  bool saturated_ = false;
  std::vector<Tracked> tracked_;
  DirtyTrackerStats stats_;
};

template <typename Fn>
void DirtyTracker::for_each_dirty_range(const rdma::MemoryRegion* region,
                                        Fn&& fn) const {
  if (!region || region->length() == 0) return;
  const std::uint64_t length = region->length();
  const Tracked* tracked = find_region(region);
  if (saturated_ || !tracked) {
    fn(std::uint64_t{0}, length);
    return;
  }
  if (tracked->dirty_chunks == 0) return;

  // Run walk, one 64-bit word at a time: clean words are skipped, full
  // words extend the open run, and inside a mixed word each run edge is
  // one count-trailing-zeros on the word (or its complement, while a
  // run is open). Bits past num_chunks are never set, so a run open at
  // the last word ends there and is clamped to the region length.
  bool in_run = false;
  std::uint64_t run_start = 0;
  const auto close_run = [&](std::uint64_t end_chunk) {
    const std::uint64_t begin = run_start << chunk_shift_;
    fn(begin, std::min(end_chunk << chunk_shift_, length) - begin);
    in_run = false;
  };
  for (std::uint64_t w = 0; w < tracked->bits.size(); ++w) {
    const std::uint64_t word = tracked->bits[w];
    const std::uint64_t base = w << 6;
    if (word == 0) {
      if (in_run) close_run(base);
      continue;
    }
    if (word == ~std::uint64_t{0}) {
      if (!in_run) {
        run_start = base;
        in_run = true;
      }
      continue;
    }
    std::uint64_t unseen = ~std::uint64_t{0};  // bit positions still ahead
    for (;;) {
      // An open run ends at the next clear bit; a closed one starts at
      // the next set bit.
      const std::uint64_t edges = (in_run ? ~word : word) & unseen;
      if (edges == 0) break;
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(edges));
      if (in_run) {
        close_run(base + bit);
      } else {
        run_start = base + bit;
        in_run = true;
      }
      unseen = ~std::uint64_t{0} << bit;
    }
  }
  if (in_run) close_run(tracked->num_chunks);
}

}  // namespace dta::collector
