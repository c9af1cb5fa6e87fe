// Generation-stamped snapshot cache for the query tier.
//
// Every point/range/event query resolves against an immutable
// StoreSnapshot, and before this cache each query paid one memcpy of
// its shard's store footprint. But store memory only changes when the
// shard commits an op batch — so between flushes every query can share
// one immutable copy, the same epoch/generation trick copy-on-write
// time-series stores (BTrDB, src/baseline/btrdb.*) use for reads. The
// cache turns O(queries) copies per flush interval into O(flushes),
// and incremental refresh turns each remaining copy from O(store size)
// into O(dirtied bytes).
//
// Protocol, per shard:
//   * CollectorShard::generation() counts delivered op batches; equal
//     stamps mean bit-identical store memory.
//   * The cache keeps the latest snapshot stamped with `covers_seq`
//     (the count of reports submitted to the shard when the snapshot
//     was taken) and a monotonic-clock timestamp. All stamps travel
//     with the snapshot in one atomically published record, so a torn
//     read can never pair one publication's snapshot with another's
//     stamps.
//   * acquire() first tries the published record without the refresh
//     mutex: one atomic shared_ptr load, then two checks. Under an
//     enabled SnapshotStalenessBudget it is served when its generation
//     lag and age fit the budget (a stale hit) — unless the caller
//     passes a covers_seq floor the record does not reach
//     (read-your-submits overrides any budget). This check reads the
//     shard's generation only when the budget bounds it, and never the
//     submitted count, so an age-only budget reads neither counter
//     ingest keeps writing. Otherwise it is served when it is current:
//     its generation matches the shard's and it covers every submitted
//     report (a hit).
//   * refresh() is the slow path, serialized per shard by a mutex. It
//     re-runs both checks with the caller's budget and floor first, so
//     a caller that waited behind another refresh takes what that one
//     published. On the calling thread it then picks the target — the
//     published snapshot, patched in place once no handle can reach it,
//     or else a copy-on-write clone of it — and does every allocation,
//     including a first build's regions. It then posts a writer job
//     through the ingest pipeline: the shard's worker, between two drain
//     passes, copies only the chunks its DirtyTracker listed since the
//     last refresh (everything on a first build or a saturated tracker),
//     captures the Append engine's emitted counts as the event-cursor
//     heads (the flush before the job delivered every emitted op) and
//     clears the dirty set. The copy reads the source lines on the core
//     that wrote them, and the worker stalls for the dirtied bytes, not
//     the store size. The caller then publishes.
//
// Pin protocol: a handle is the published record itself — an aliasing
// shared_ptr that shares the record's reference count and points at its
// snapshot — so taking one allocates nothing. refresh() patches in
// place only after it unpublishes the record (an atomic exchange, after
// which no reader can reach it) and finds it holds the last reference;
// dropping that reference is an acq_rel decrement that orders every
// reader's release of its handle before the first patch write. A record
// some handle still holds is republished and cloned instead, and one
// whose count already shows a live handle is cloned without being
// unpublished, so budgeted readers keep finding it during the clone.
//
// Thread safety: acquire/copy_fresh may be called from any thread when
// the pipeline is threaded; with an inline pipeline the writer job runs
// on the caller, so callers must serialize with ingest (the
// single-control-thread contract that mode already has).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "collector/snapshot.h"
#include "common/thread_annotations.h"

namespace dta::collector {

class CollectorShard;
class IngestPipeline;

// How stale a cached snapshot may be and still be served without any
// refresh or writer job. A zero field leaves that dimension
// unconstrained; a budget with both fields zero is disabled (exact
// freshness only).
// `generations` bounds the shard-generation lag (how many delivered op
// batches the snapshot may be behind); `age_us` bounds the wall age
// (monotonic clock, stamped when the snapshot was published).
struct SnapshotStalenessBudget {
  std::uint64_t generations = 0;
  std::uint64_t age_us = 0;
  bool enabled() const { return generations > 0 || age_us > 0; }
};

struct SnapshotCacheStats {
  // Acquisitions served from the published record without a refresh:
  // `hits` when it was current (its generation the shard's, every
  // submitted report covered), `stale_hits` when an enabled budget
  // served it — current or not, since a budgeted read checks the budget
  // first and never reads the submitted count.
  std::uint64_t hits = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t misses = 0;  // refreshes (one per stale generation)
  std::uint64_t invalidations = 0;
  // Refresh breakdown: chunk-patched vs full-copy refreshes, and how
  // many patches had to clone first because a reader held the previous
  // snapshot (the copy-on-write path; the clone itself runs on the
  // reader, outside the writer job).
  std::uint64_t incremental_refreshes = 0;
  std::uint64_t full_refreshes = 0;
  std::uint64_t cow_clones = 0;
  // Bytes memcpy'd inside writer jobs by refreshes — the number
  // incremental refresh exists to shrink.
  std::uint64_t quiesce_bytes_copied = 0;
};

class SnapshotCache {
 public:
  using SnapshotPtr = std::shared_ptr<const StoreSnapshot>;

  explicit SnapshotCache(std::size_t num_shards);

  // Shard `shard_index`'s snapshot: the published record when it fits
  // `budget` (disabled = exact freshness) or is current, else a
  // refresh through a writer job. A non-zero `min_covers_seq` is the
  // read-your-submits floor: a record that does not cover it is never
  // served under the budget.
  SnapshotPtr acquire(std::uint32_t shard_index, IngestPipeline& pipeline,
                      CollectorShard& shard,
                      const SnapshotStalenessBudget& budget,
                      std::uint64_t min_covers_seq);

  // Uncached full copy, by a writer job behind the same per-shard
  // serialization (the bench baseline; also keeps a fresh copy safe
  // next to concurrent cached queries). Does not publish into the cache
  // and does not consume the dirty set.
  SnapshotPtr copy_fresh(std::uint32_t shard_index, IngestPipeline& pipeline,
                         CollectorShard& shard);

  // Drops shard `shard`'s cached snapshot (or all of them). Used by the
  // cluster tier when a host dies: its frozen stores must not keep
  // answering through stale cache entries.
  void invalidate(std::uint32_t shard);
  void invalidate_all();

  // The cached entry for `shard` (nullptr if none) — stats-free peek
  // for tests and introspection. The handle holds the record like any
  // other: holding it forces the next refresh onto the copy-on-write
  // path.
  SnapshotPtr peek(std::uint32_t shard) const;
  // Number of shards with a live cached snapshot.
  std::size_t cached_count() const;
  // Age of shard `shard`'s cached snapshot in microseconds (monotonic
  // clock), or 0 when none is cached.
  std::uint64_t age_us(std::uint32_t shard) const;

  SnapshotCacheStats stats() const;

 private:
  // One publication: the snapshot and its stamps, immutable once
  // published, so every stamp is read consistently through a single
  // atomic shared_ptr load. Its reference count is the pin count.
  struct Stamped {
    SnapshotPtr snap;
    std::uint64_t covers_seq = 0;
    std::uint64_t taken_at_us = 0;
  };
  using StampedPtr = std::shared_ptr<const Stamped>;

  struct Entry {
    Mutex refresh_mu;
    // Read with std::atomic_load / written with std::atomic_store and
    // std::atomic_exchange; the fast path never takes refresh_mu (not
    // GUARDED_BY for that reason — the atomic access is its own
    // protocol). Null between a refresh's unpublish and its publish.
    StampedPtr record;
    // The same object record->snap points at, mutable view — the
    // in-place / clone base for incremental refresh. Null exactly when
    // no snapshot was built since the last invalidation.
    std::shared_ptr<StoreSnapshot> writable DTA_GUARDED_BY(refresh_mu);
  };

  static std::uint64_t now_us();
  // A handle to `record`'s snapshot that shares the record's count.
  static SnapshotPtr handle(const StampedPtr& record) {
    return SnapshotPtr(record, record->snap.get());
  }

  // The path without the refresh mutex: the published record under
  // `budget`, else the current one; nullptr when neither fits.
  SnapshotPtr lookup(std::uint32_t shard_index, IngestPipeline& pipeline,
                     CollectorShard& shard,
                     const SnapshotStalenessBudget& budget,
                     std::uint64_t min_covers_seq);

  // The slow path: double-checks with the caller's budget and floor
  // under the per-shard mutex (concurrent misses coalesce into one
  // refresh), then brings the copy current through a writer job
  // (incrementally where possible), publishes and returns it.
  SnapshotPtr refresh(std::uint32_t shard_index, IngestPipeline& pipeline,
                      CollectorShard& shard,
                      const SnapshotStalenessBudget& budget,
                      std::uint64_t min_covers_seq);

  // Publishes `snap` as shard `entry`'s current record and returns a
  // handle to it.
  SnapshotPtr publish(Entry& entry, std::shared_ptr<StoreSnapshot> snap,
                      std::uint64_t covers_seq)
      DTA_REQUIRES(entry.refresh_mu);

  std::vector<std::unique_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> stale_hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> incremental_refreshes_{0};
  std::atomic<std::uint64_t> full_refreshes_{0};
  std::atomic<std::uint64_t> cow_clones_{0};
  std::atomic<std::uint64_t> quiesce_bytes_copied_{0};
};

}  // namespace dta::collector
