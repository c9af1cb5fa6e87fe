// Dirty-chunk tracking for incremental snapshot refresh.
//
// PR 3's SnapshotCache made store copies O(flushes) instead of
// O(queries), but each refresh still memcpys the *entire* shard store
// under a worker quiesce. At production store sizes that stall grows
// linearly with the store even when an op batch dirtied a handful of
// slots. The tracker records which fixed-size chunks of each registered
// store region were written since the last snapshot consume, so a
// refresh can copy only the dirtied bytes — the refresh then scales
// with mutation, not store size.
//
// Granularity: regions are divided into chunks of `chunk_bytes`
// (rounded up to a power of two, min 64 B). One bit per chunk; the
// shard's delivery loop marks the byte range of every executed RDMA op
// (WRITE payload extents, 8 B per FETCH_ADD — the only two verbs that
// touch registered store memory). An op landing outside every tracked
// region saturates the tracker (mark_all), so unknown writes degrade to
// a full copy instead of a missed patch.
//
// Dirty list: each chunk's clean→dirty transition also appends its
// index to a per-region list, reserved up front, so a refresh walks and
// clear() resets only the chunks that changed, never every bitmap word
// of a large region. The lists hold at most `full_copy_ratio` of the
// tracked chunks; one more dirty chunk saturates the tracker, because
// past that share one full memcpy beats the chunk loop. A ratio of 1 or
// more never saturates through the cap.
//
// Thread safety: none — by design. Marks, reads and clear() all happen
// on the shard's ingest thread (worker or inline caller): the snapshot
// refresh reads and clears the tracker inside a writer job the ingest
// pipeline runs between drain passes. Other threads read it only behind
// a flush barrier, with the shard idle.
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
  std::uint64_t saturations = 0;   // mark_all / out-of-range / cap fallbacks
};

class DirtyTracker {
 public:
  // Byte range within one region: {offset, length}.
  using Range = std::pair<std::uint64_t, std::uint64_t>;

  // 64 B default: one cache line, the granularity ingest writes at (an
  // 8 B slot, a 32 B postcard chunk, a 64 B append batch), so a refresh
  // copies what was written rather than the 4 KiB page around it.
  // `full_copy_ratio` caps the dirty list (see the header comment).
  explicit DirtyTracker(std::uint32_t chunk_bytes = 64,
                        double full_copy_ratio = 1.0);

  // Registers a region for tracking and reserves its dirty list. Null
  // regions are ignored. Call before any mark (the shard tracks its
  // store regions at setup).
  void track(const rdma::MemoryRegion* region);

  // Marks the chunks covering [va, va + len) dirty. A range outside
  // every tracked region, or a chunk past the list cap, saturates the
  // tracker instead (the next refresh falls back to a full copy).
  void mark(std::uint64_t va, std::size_t len);

  // Everything dirty; the next refresh must full-copy.
  void mark_all();

  // Resets every listed chunk to clean and empties the lists. The
  // snapshot refresh calls this once its copy has consumed the dirty
  // set.
  void clear();

  std::uint32_t chunk_bytes() const { return chunk_bytes_; }
  std::uint64_t tracked_bytes() const { return tracked_bytes_; }
  bool saturated() const { return saturated_; }

  // Upper bound on the bytes a refresh must copy (chunk-rounded; equals
  // tracked_bytes() when saturated).
  std::uint64_t dirty_bytes() const;
  // dirty_bytes / tracked_bytes (0 when nothing is tracked).
  double dirty_ratio() const;

  // Calls fn(offset, length) for each dirty byte range of `region`,
  // clamped to its length: chunks in the order they turned dirty, with
  // chunks that follow each other in that order coalesced. A saturated
  // tracker — or an untracked region — reports one range covering the
  // whole region, so consumers degrade to a full copy rather than ever
  // missing a write. Allocation-free: the snapshot refresh patches from
  // it inside a writer job.
  template <typename Fn>
  void for_each_dirty_range(const rdma::MemoryRegion* region, Fn&& fn) const;

  // The same ranges, sorted by offset and fully coalesced.
  std::vector<Range> dirty_ranges(const rdma::MemoryRegion* region) const;

  const DirtyTrackerStats& stats() const { return stats_; }

 private:
  struct Tracked {
    const rdma::MemoryRegion* region = nullptr;
    std::vector<std::uint64_t> bits;  // one bit per chunk
    std::vector<std::uint32_t> list;  // chunks in the order they turned dirty
    std::uint64_t num_chunks = 0;
  };

  Tracked* find(std::uint64_t va, std::size_t len);
  const Tracked* find_region(const rdma::MemoryRegion* region) const;

  std::uint32_t chunk_bytes_;
  std::uint32_t chunk_shift_;
  double full_copy_ratio_;
  std::uint64_t tracked_bytes_ = 0;
  std::uint64_t tracked_chunks_ = 0;
  std::uint64_t listed_ = 0;  // entries across every list
  std::uint64_t cap_ = 0;     // listed_ past this saturates
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
  // [run_begin, run_end) in chunks; empty while no run is open. The
  // last chunk may overhang the region, so every run is clamped.
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;
  const auto emit = [&] {
    const std::uint64_t begin = run_begin << chunk_shift_;
    fn(begin, std::min(run_end << chunk_shift_, length) - begin);
  };
  for (const std::uint32_t chunk : tracked->list) {
    if (chunk == run_end && run_end != run_begin) {
      ++run_end;
      continue;
    }
    if (run_end != run_begin) emit();
    run_begin = chunk;
    run_end = std::uint64_t{chunk} + 1;
  }
  if (run_end != run_begin) emit();
}

}  // namespace dta::collector
