// Defer-publish side of the secondary index: one flat key window per
// shard in front of a ShardIndexBuilder, with an atomically published
// immutable ShardIndexVersion per shard.
//
// Writer side: CollectorShard::deliver_batch appends each delivered op
// batch's keys to its shard's window, with the generation the delivery
// produced — a lock, one copy of the keys into a buffer that keeps its
// capacity across folds, an unlock. The builder does NOT run per batch;
// batches accumulate until kPublishBatch of them are in the window (the
// defer-publish window), and then the shard worker that filled the
// window folds it at once and publishes one version. That fold is
// ingest work: it probes every window key against the leaves, 16 keys
// in lockstep so their cache misses overlap, and beyond that costs what
// the window changed (the keys it sorts plus the leaves it adds a key
// or a mask bit to). A window that rewrites keys the index already
// holds sorts nothing, copies no leaf and republishes the same leaf
// vector; its publish is one allocation, the new ShardIndexVersion.
//
// Reader side: version_at_least(shard, G) is the query-path entry
// point, with G the generation of the snapshot the query pinned. Fast
// path: the published version already covers G — one atomic load, no
// lock. Slow path: fold the window, publish once, return. The shard
// appends each batch's keys before bumping its generation counter, so a
// generation observed from a snapshot is always covered by the window;
// the catch-up can never come up short.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "collector/shard_index.h"
#include "common/thread_annotations.h"

namespace dta::collector {

struct IndexPublisherStats {
  // Delivered batches appended to the windows, and folded from them.
  std::uint64_t batches_appended = 0;
  std::uint64_t batches_folded = 0;
  std::uint64_t publishes = 0;
  // Publishes forced by a reader that needed a newer generation than
  // the deferred window had published.
  std::uint64_t reader_catchups = 0;
  // Existing leaves the shard builders rewrote (ShardIndexBuilder::
  // leaf_copies summed over shards): a window that only rewrites keys
  // the index already holds adds none.
  std::uint64_t leaf_copies = 0;
};

class IndexPublisher {
 public:
  // Batches in a window that trigger a fold + publish from the writer
  // side (the defer-publish window), and the leaf size the builders aim
  // for.
  static constexpr std::size_t kPublishBatch = 64;
  static constexpr std::uint32_t kTargetLeafEntries = 128;

  explicit IndexPublisher(std::size_t num_shards);

  // Called by the shard worker at every delivered batch (one writer per
  // shard): appends the batch's keys (duplicates allowed, masks are
  // OR-merged) to the shard's window, at the store-memory generation
  // the delivery produces.
  void append(std::uint32_t shard, std::uint64_t generation,
              common::Span<const IndexEntry> keys);

  // The currently published version (never null: shards start with an
  // empty version at generation 0). Lock-free.
  std::shared_ptr<const ShardIndexVersion> published(std::uint32_t shard) const;

  // A version whose generation is >= min_generation, catching the
  // builder up over the window if the published one is behind.
  // `min_generation` must come from a snapshot of the same shard (or be
  // 0); generations read that way are always covered by the window.
  std::shared_ptr<const ShardIndexVersion> version_at_least(
      std::uint32_t shard, std::uint64_t min_generation);

  std::size_t num_shards() const { return shards_.size(); }
  IndexPublisherStats stats() const;

 private:
  struct Shard {
    mutable Mutex mu;
    // The keys of the batches appended since the last fold, flat; the
    // last batch's generation; the batch count toward kPublishBatch.
    std::vector<IndexEntry> window DTA_GUARDED_BY(mu);
    std::uint64_t window_generation DTA_GUARDED_BY(mu) = 0;
    std::size_t window_batches DTA_GUARDED_BY(mu) = 0;
    // This shard's share of IndexPublisherStats, kept under the lock
    // its writers already hold: counters shared by the shards would put
    // every shard's appends on one cache line.
    std::uint64_t batches_appended DTA_GUARDED_BY(mu) = 0;
    std::uint64_t batches_folded DTA_GUARDED_BY(mu) = 0;
    std::uint64_t publishes DTA_GUARDED_BY(mu) = 0;
    std::uint64_t reader_catchups DTA_GUARDED_BY(mu) = 0;
    ShardIndexBuilder builder DTA_GUARDED_BY(mu);
    // Written under mu, but read lock-free on the fast path with
    // std::atomic_load — the atomic shared_ptr protocol, not the lock,
    // is what makes the read safe (so not GUARDED_BY).
    std::shared_ptr<const ShardIndexVersion> published;

    Shard() : builder(kTargetLeafEntries), published(builder.publish()) {}
  };

  // Folds the window into the builder in one apply and publishes.
  void fold_window_locked(Shard& shard) DTA_REQUIRES(shard.mu);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dta::collector
