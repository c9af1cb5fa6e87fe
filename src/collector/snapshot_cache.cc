#include "collector/snapshot_cache.h"

#include <chrono>

#include "collector/ingest_pipeline.h"
#include "collector/shard.h"

namespace dta::collector {

SnapshotCache::SnapshotCache(std::size_t num_shards) {
  entries_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    entries_.push_back(std::make_unique<Entry>());
  }
}

std::uint64_t SnapshotCache::now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SnapshotCache::SnapshotPtr SnapshotCache::acquire(
    std::uint32_t shard_index, IngestPipeline& pipeline, CollectorShard& shard,
    const SnapshotStalenessBudget& budget, std::uint64_t min_covers_seq) {
  if (auto hit = lookup(shard_index, pipeline, shard, budget, min_covers_seq)) {
    return hit;
  }
  return refresh(shard_index, pipeline, shard, budget, min_covers_seq);
}

SnapshotCache::SnapshotPtr SnapshotCache::lookup(
    std::uint32_t shard_index, IngestPipeline& pipeline, CollectorShard& shard,
    const SnapshotStalenessBudget& budget, std::uint64_t min_covers_seq) {
  const StampedPtr record = std::atomic_load_explicit(
      &entries_[shard_index]->record, std::memory_order_acquire);
  if (!record) return nullptr;
  // The budget first: it reads the shard's generation only when it
  // bounds the lag, and never the submitted count, the two lines ingest
  // keeps writing. Read-your-submits overrides any budget: a caller
  // that names a submit floor never gets a snapshot from before it.
  if (budget.enabled()) {
    bool serve = min_covers_seq == 0 || record->covers_seq >= min_covers_seq;
    if (serve && budget.generations > 0) {
      serve = shard.generation() - record->snap->generation() <=
              budget.generations;
    }
    if (serve && budget.age_us > 0) {
      serve = now_us() - record->taken_at_us <= budget.age_us;
    }
    if (serve) {
      stale_hits_.fetch_add(1, std::memory_order_relaxed);
      return handle(record);
    }
  }
  if (record->snap->generation() == shard.generation() &&
      record->covers_seq == pipeline.submitted(shard_index)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return handle(record);
  }
  return nullptr;
}

SnapshotCache::SnapshotPtr SnapshotCache::publish(
    Entry& entry, std::shared_ptr<StoreSnapshot> snap,
    std::uint64_t covers_seq) {
  auto record = std::make_shared<Stamped>();
  record->snap = snap;
  record->covers_seq = covers_seq;
  record->taken_at_us = now_us();
  entry.writable = std::move(snap);
  StampedPtr published(std::move(record));
  std::atomic_store_explicit(&entry.record, published,
                             std::memory_order_release);
  return handle(published);
}

SnapshotCache::SnapshotPtr SnapshotCache::refresh(
    std::uint32_t shard_index, IngestPipeline& pipeline, CollectorShard& shard,
    const SnapshotStalenessBudget& budget, std::uint64_t min_covers_seq) {
  Entry& entry = *entries_[shard_index];
  MutexLock lock(entry.refresh_mu);

  // Double-check: a concurrent miss may have published, while we
  // waited, a record that is current or fits this caller's budget.
  if (auto hit = lookup(shard_index, pipeline, shard, budget, min_covers_seq)) {
    return hit;
  }

  // Stamp the submitted count *before* the writer job: every report
  // counted here is drained and committed before the job runs, so
  // `covers` is a sound lower bound (reports racing in meanwhile are
  // simply not covered and will miss the cache later).
  const std::uint64_t covers_seq = pipeline.submitted(shard_index);

  // The choice of target and every allocation stay on this thread: the
  // writer job below only copies.
  std::shared_ptr<StoreSnapshot> target;
  const bool first = entry.writable == nullptr;
  if (first) {
    target = StoreSnapshot::allocate(shard.service());
  } else {
    // Beyond the entry's reference and the one this load takes, any
    // count is a live handle: clone without unpublishing.
    if (std::atomic_load_explicit(&entry.record, std::memory_order_acquire)
            .use_count() <= 2) {
      // Unpublished, the record gains no reference. Holding the last
      // one proves no handle is live; dropping it (an acq_rel
      // decrement) orders every reader's release before the patch.
      StampedPtr old = std::atomic_exchange_explicit(
          &entry.record, StampedPtr(), std::memory_order_acq_rel);
      if (old.use_count() == 1) {
        old.reset();
        target = entry.writable;
      } else {
        std::atomic_store_explicit(&entry.record, std::move(old),
                                   std::memory_order_release);
      }
    }
    if (!target) {
      // A reader still holds the previous snapshot: copy-on-write. The
      // clone reads only the immutable previous snapshot, so the worker
      // keeps ingesting while this thread pays the full-size copy; only
      // the chunk patch runs on the writer.
      target = entry.writable->clone(shard.service());
      cow_clones_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // On the writer, between drain passes: patch the dirty chunks (or
  // copy everything), capture the event-cursor heads for the generation
  // the snapshot reflects, and consume the dirty set.
  bool full = false;
  std::uint64_t copied = 0;
  auto job = [&]() noexcept {
    DirtyTracker& dirty = shard.dirty_tracker();
    full = first || dirty.saturated();
    copied = target->refresh_from(shard.service(), shard.generation(),
                                  full ? nullptr : &dirty);
    target->set_append_heads(shard.engines().append_heads());
    dirty.clear();
  };
  pipeline.run_writer_job(shard_index, job);

  (full ? full_refreshes_ : incremental_refreshes_)
      .fetch_add(1, std::memory_order_relaxed);
  quiesce_bytes_copied_.fetch_add(copied, std::memory_order_relaxed);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return publish(entry, std::move(target), covers_seq);
}

SnapshotCache::SnapshotPtr SnapshotCache::copy_fresh(std::uint32_t shard_index,
                                                     IngestPipeline& pipeline,
                                                     CollectorShard& shard) {
  Entry& entry = *entries_[shard_index];
  MutexLock lock(entry.refresh_mu);
  std::shared_ptr<StoreSnapshot> snap =
      StoreSnapshot::allocate(shard.service());
  auto job = [&]() noexcept {
    snap->refresh_from(shard.service(), shard.generation(), nullptr);
    snap->set_append_heads(shard.engines().append_heads());
  };
  pipeline.run_writer_job(shard_index, job);
  return snap;
}

void SnapshotCache::invalidate(std::uint32_t shard) {
  Entry& entry = *entries_[shard];
  MutexLock lock(entry.refresh_mu);
  if (std::atomic_load_explicit(&entry.record, std::memory_order_acquire)) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic_store_explicit(&entry.record, StampedPtr(),
                             std::memory_order_release);
  entry.writable.reset();
}

void SnapshotCache::invalidate_all() {
  for (std::uint32_t i = 0; i < entries_.size(); ++i) invalidate(i);
}

SnapshotCache::SnapshotPtr SnapshotCache::peek(std::uint32_t shard) const {
  const StampedPtr record = std::atomic_load_explicit(
      &entries_[shard]->record, std::memory_order_acquire);
  return record ? handle(record) : nullptr;
}

std::size_t SnapshotCache::cached_count() const {
  std::size_t live = 0;
  for (const auto& entry : entries_) {
    if (std::atomic_load_explicit(&entry->record,
                                  std::memory_order_acquire)) {
      ++live;
    }
  }
  return live;
}

std::uint64_t SnapshotCache::age_us(std::uint32_t shard) const {
  const StampedPtr record = std::atomic_load_explicit(
      &entries_[shard]->record, std::memory_order_acquire);
  return record ? now_us() - record->taken_at_us : 0;
}

SnapshotCacheStats SnapshotCache::stats() const {
  SnapshotCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.stale_hits = stale_hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.incremental_refreshes =
      incremental_refreshes_.load(std::memory_order_relaxed);
  out.full_refreshes = full_refreshes_.load(std::memory_order_relaxed);
  out.cow_clones = cow_clones_.load(std::memory_order_relaxed);
  out.quiesce_bytes_copied =
      quiesce_bytes_copied_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace dta::collector
