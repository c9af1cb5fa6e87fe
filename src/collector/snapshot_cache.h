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
//   * lookup() is the lock-free fast path: an atomic shared_ptr load,
//     a pin (see below) and a generation compare (plus a covers_seq
//     compare, so a reader never misses reports that were submitted but
//     not yet committed to an op batch — read-your-submits).
//   * lookup_bounded() is the bounded-staleness fast path: a snapshot
//     whose generation lag and age fit a SnapshotStalenessBudget is
//     served as-is — no refresh, no writer job — unless the caller
//     passes a covers_seq floor the record does not reach
//     (read-your-submits overrides any budget).
//   * refresh() is the slow path, serialized per shard by a mutex. On
//     the calling thread it picks the target — the published snapshot,
//     claimed for in-place patching when no reader pins it, or else a
//     copy-on-write clone of it — and does every allocation, including
//     a first build's regions. It then posts a writer job through the
//     ingest pipeline: the shard's worker, between two drain passes,
//     copies only the chunks its DirtyTracker listed since the last
//     refresh (everything on a first build or a saturated tracker),
//     captures the Append engine's emitted counts as the event-cursor
//     heads (the flush before the job delivered every emitted op) and
//     clears the dirty set. The copy reads the source lines on the core
//     that wrote them, and the worker stalls for the dirtied bytes, not
//     the store size. The caller then publishes.
//
// Pin protocol: every snapshot handed out is a handle whose deleter
// releases a per-record pin count. refresh() claims a record for
// in-place patching with a single CAS(pins: 0 -> poison): success
// proves no handle is live and blocks new pins (a pinner observing a
// negative count backs off to the miss path), so a published snapshot
// is only ever mutated when provably unreachable — readers never
// observe a patch in progress, and the acq_rel CAS orders their last
// reads before the first patch write.
//
// Thread safety: lookup/lookup_bounded/refresh/copy_fresh may be called
// from any thread when the pipeline is threaded; with an inline
// pipeline the writer job runs on the caller, so callers must serialize
// with ingest (the single-control-thread contract that mode already
// has).
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
  std::uint64_t hits = 0;        // queries served from the current copy
  std::uint64_t stale_hits = 0;  // served stale within a staleness budget
  std::uint64_t misses = 0;      // refreshes (one per stale generation)
  std::uint64_t invalidations = 0;
  // Refresh breakdown: chunk-patched vs full-copy refreshes, and how
  // many patches had to clone first because a reader pinned the
  // previous snapshot (the copy-on-write path; the clone itself runs on
  // the reader, outside the writer job).
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

  // Lock-free fast path: returns the cached snapshot when it is still
  // current — its generation matches `generation` and no reports were
  // submitted past `submitted_seq` since it was taken. nullptr = stale
  // or empty; take the lookup_bounded/refresh path.
  SnapshotPtr lookup(std::uint32_t shard, std::uint64_t generation,
                     std::uint64_t submitted_seq);

  // Bounded-staleness fast path: returns the cached snapshot when its
  // generation lag (against `generation`, the live shard generation)
  // and its age fit `budget` — even though it is stale — without
  // triggering any refresh or writer job. A non-zero `min_covers_seq`
  // is the read-your-submits override: a record that does not cover it
  // is never served, budget or not. nullptr = outside budget or empty.
  SnapshotPtr lookup_bounded(std::uint32_t shard, std::uint64_t generation,
                             const SnapshotStalenessBudget& budget,
                             std::uint64_t min_covers_seq = 0);

  // Slow path: bring the cached copy current through a writer job on
  // shard `shard` (incrementally where possible), publish and return
  // it. Double-checks under the per-shard mutex, so concurrent misses
  // coalesce into one refresh.
  SnapshotPtr refresh(std::uint32_t shard_index, IngestPipeline& pipeline,
                      CollectorShard& shard);

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
  // for tests and introspection. The handle pins the snapshot like any
  // other: holding it forces the next refresh onto the
  // copy-on-write path.
  SnapshotPtr peek(std::uint32_t shard) const;
  // Number of shards with a live cached snapshot.
  std::size_t cached_count() const;
  // Age of shard `shard`'s cached snapshot in microseconds (monotonic
  // clock), or 0 when none is cached.
  std::uint64_t age_us(std::uint32_t shard) const;

  SnapshotCacheStats stats() const;

 private:
  // A pinned record can be patched in place only after this CAS
  // sentinel lands in its pin count; pinners seeing a negative count
  // back off to the miss path.
  static constexpr std::int64_t kPoisonedPins = -(std::int64_t{1} << 62);

  // One publication: the snapshot and its stamps, immutable once built
  // (except the pin count) so every stamp is read consistently through
  // a single atomic shared_ptr load.
  struct Stamped {
    SnapshotPtr snap;
    std::uint64_t covers_seq = 0;
    std::uint64_t taken_at_us = 0;
    mutable std::atomic<std::int64_t> pins{0};
  };
  using StampedPtr = std::shared_ptr<const Stamped>;

  struct Entry {
    Mutex refresh_mu;
    // Read with std::atomic_load / written with std::atomic_store; the
    // fast path never takes refresh_mu (not GUARDED_BY for that
    // reason — the atomic access is its own protocol).
    StampedPtr record;
    // The same object record->snap points at, mutable view — the
    // in-place / clone base for incremental refresh. Always null
    // exactly when record is null.
    std::shared_ptr<StoreSnapshot> writable DTA_GUARDED_BY(refresh_mu);
  };

  static std::uint64_t now_us();
  // Takes one pin on `record` (false when the record is poisoned).
  static bool try_pin(const Stamped& record);
  // Wraps the pinned record in a handle whose deleter drops the pin.
  static SnapshotPtr make_handle(StampedPtr record);

  // Publishes `snap` as shard `entry`'s current record and returns a
  // pinned handle to it.
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
