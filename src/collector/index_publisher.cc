#include "collector/index_publisher.h"

namespace dta::collector {

IndexPublisher::IndexPublisher(std::size_t num_shards) {
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void IndexPublisher::fold_window_locked(Shard& shard) {
  if (shard.window_batches == 0) return;
  shard.builder.apply(shard.window_generation, shard.window);
  batches_folded_.fetch_add(shard.window_batches, std::memory_order_relaxed);
  shard.window.clear();
  shard.window_batches = 0;
  std::atomic_store_explicit(&shard.published, shard.builder.publish(),
                             std::memory_order_release);
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

void IndexPublisher::append(std::uint32_t shard_index,
                            std::uint64_t generation,
                            common::Span<const IndexEntry> keys) {
  Shard& shard = *shards_[shard_index];
  MutexLock lock(shard.mu);
  shard.window.insert(shard.window.end(), keys.begin(), keys.end());
  shard.window_generation = generation;
  batches_appended_.fetch_add(1, std::memory_order_relaxed);
  // Defer-publish: fold the window in only when it fills. An op batch
  // is ~op_batch_size verbs, so the builder runs once per
  // kPublishBatch * op_batch_size delivered verbs.
  if (++shard.window_batches >= kPublishBatch) fold_window_locked(shard);
}

std::shared_ptr<const ShardIndexVersion> IndexPublisher::published(
    std::uint32_t shard) const {
  return std::atomic_load_explicit(&shards_[shard]->published,
                                   std::memory_order_acquire);
}

std::shared_ptr<const ShardIndexVersion> IndexPublisher::version_at_least(
    std::uint32_t shard_index, std::uint64_t min_generation) {
  Shard& shard = *shards_[shard_index];
  auto version = std::atomic_load_explicit(&shard.published,
                                           std::memory_order_acquire);
  if (version->generation() >= min_generation) return version;
  MutexLock lock(shard.mu);
  version = std::atomic_load_explicit(&shard.published,
                                      std::memory_order_acquire);
  if (version->generation() >= min_generation) return version;
  reader_catchups_.fetch_add(1, std::memory_order_relaxed);
  fold_window_locked(shard);
  return std::atomic_load_explicit(&shard.published,
                                   std::memory_order_acquire);
}

IndexPublisherStats IndexPublisher::stats() const {
  IndexPublisherStats out;
  out.batches_appended = batches_appended_.load(std::memory_order_relaxed);
  out.batches_folded = batches_folded_.load(std::memory_order_relaxed);
  out.publishes = publishes_.load(std::memory_order_relaxed);
  out.reader_catchups = reader_catchups_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    out.leaf_copies += shard->builder.leaf_copies();
  }
  return out;
}

}  // namespace dta::collector
