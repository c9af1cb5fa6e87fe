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
  shard.batches_folded += shard.window_batches;
  shard.window.clear();
  shard.window_batches = 0;
  std::atomic_store_explicit(&shard.published, shard.builder.publish(),
                             std::memory_order_release);
  ++shard.publishes;
}

void IndexPublisher::append(std::uint32_t shard_index,
                            std::uint64_t generation,
                            common::Span<const IndexEntry> keys) {
  Shard& shard = *shards_[shard_index];
  MutexLock lock(shard.mu);
  shard.window.insert(shard.window.end(), keys.begin(), keys.end());
  shard.window_generation = generation;
  ++shard.batches_appended;
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
  ++shard.reader_catchups;
  fold_window_locked(shard);
  return std::atomic_load_explicit(&shard.published,
                                   std::memory_order_acquire);
}

IndexPublisherStats IndexPublisher::stats() const {
  IndexPublisherStats out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    out.batches_appended += shard->batches_appended;
    out.batches_folded += shard->batches_folded;
    out.publishes += shard->publishes;
    out.reader_catchups += shard->reader_catchups;
    out.leaf_copies += shard->builder.leaf_copies();
  }
  return out;
}

}  // namespace dta::collector
