// CollectorRuntime — the sharded, batched collector.
//
// The paper removes the collector CPU from the report path; what is left
// to scale is memory bandwidth and NIC message rate, and both scale by
// partitioning. The runtime slices every enabled store N-way by CRC of
// the telemetry key (Append lists round-robin by list id), gives each
// slice an independent RDMA service + NIC + queue pair, and feeds each
// shard one report at a time through a bounded SPSC queue. The shard
// translates the report, batches the resulting verbs and executes each
// batch directly on its queue pair. Queries resolve against immutable
// per-shard snapshots acquired through the generation-stamped
// SnapshotCache (the dta::Client merge path).
//
// This is the seam later scaling work plugs into: multi-collector
// placement picks a runtime per collector host, pinning binds shard
// workers to cores, and an async query frontend snapshots per-shard
// stores.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "collector/index_publisher.h"
#include "collector/ingest_pipeline.h"
#include "collector/shard.h"
#include "collector/snapshot.h"
#include "collector/snapshot_cache.h"

namespace dta::collector {

struct CollectorRuntimeConfig {
  std::uint32_t num_shards = 1;

  // Global store geometry; the runtime divides capacity across shards so
  // the total memory footprint is shard-count invariant.
  std::optional<KeyWriteSetup> keywrite;
  std::optional<PostcardingSetup> postcarding;
  std::optional<AppendSetup> append;
  std::optional<KeyIncrementSetup> keyincrement;

  rdma::NicParams nic;
  std::uint32_t op_batch_size = 16;
  std::uint32_t append_batch_size = 16;
  std::uint32_t postcard_cache_slots = 32768;

  std::uint32_t queue_capacity = 4096;
  ThreadMode thread_mode = ThreadMode::kAuto;

  // CPU affinity for shard workers (no-op when unset): worker i is
  // pinned to worker_cores[i], or to core i when the list is shorter.
  // Pinning is also all there is to NUMA placement: the pinned worker is
  // the first writer of its shard's store memory, so the kernel's
  // default local allocation puts each page on that worker's node.
  bool pin_workers = false;
  std::vector<int> worker_cores;

  // Snapshot tier. Refresh patches only the chunks ingest dirtied since
  // the last refresh (snapshot_chunk_bytes granularity, rounded up to a
  // power of two) instead of recopying whole stores; past
  // snapshot_full_copy_ratio of the chunks dirty it falls back to one
  // full memcpy (at 1 or more, never). The staleness budget lets
  // snapshot_shard_bounded serve a cached snapshot within the budget
  // without any refresh (disabled by default: zero budget means exact
  // freshness).
  std::uint32_t snapshot_chunk_bytes = 64;
  double snapshot_full_copy_ratio = 0.5;
  SnapshotStalenessBudget staleness_budget;
};

// The runtime's ingest counters: every shard's ShardStats, summed.
using CollectorRuntimeStats = ShardStats;

class CollectorRuntime {
 public:
  explicit CollectorRuntime(CollectorRuntimeConfig config);
  ~CollectorRuntime();

  CollectorRuntime(const CollectorRuntime&) = delete;
  CollectorRuntime& operator=(const CollectorRuntime&) = delete;

  // Routes one report to its owning shard. Single-producer: call from
  // one thread. Pass an rvalue to hand the report over without a copy.
  void submit(proto::ParsedDta parsed);

  // Barrier: all submitted reports processed, all aggregation state
  // (postcard cache rows, append batches, staged op batches) delivered.
  // Required before querying.
  void flush();

  // Per-shard barrier: shard `i`'s queue drained and its aggregation
  // state delivered; other shards keep running.
  void flush_shard(std::uint32_t i);

  // Flushes and joins the shard workers. Idempotent.
  void stop();

  // Consistent point-in-time copy of shard `i`'s stores, served from
  // the generation-stamped SnapshotCache: the copy is only re-taken
  // when the shard's store memory has changed (generation advanced or
  // new reports were submitted); all intervening calls share one
  // immutable snapshot via a lock-free generation compare. The returned
  // snapshot is safe to query from any thread while ingest continues —
  // the seam the async cluster query tier resolves its futures from.
  // With a threaded pipeline this may be called from any thread (misses
  // have the shard's worker patch the copy in a writer job); with an
  // inline pipeline, call it from the control thread only.
  std::shared_ptr<const StoreSnapshot> snapshot_shard(std::uint32_t i);

  // Bounded-staleness variant: like snapshot_shard, but a cached
  // snapshot whose generation lag and age fit the configured
  // staleness_budget is served as-is — stale, but within budget — with
  // no refresh and no writer job at all. The budget is checked before
  // currency and reads the shard's generation only when it bounds the
  // lag, so an age-only budget reads neither counter ingest keeps
  // writing (the generation, the submitted count). A non-zero
  // `min_covers_seq` (typically pipeline().submitted(i)) is the
  // read-your-submits override: a cached snapshot that does not cover
  // it is never served stale, budget or not. With the budget disabled
  // (the default) this is exactly snapshot_shard.
  std::shared_ptr<const StoreSnapshot> snapshot_shard_bounded(
      std::uint32_t i, std::uint64_t min_covers_seq = 0);

  // Per-call budget variant: like snapshot_shard_bounded but consults
  // `budget` instead of the runtime-wide staleness_budget(). This is
  // the single acquisition path dta::QueryOptions threads through — a
  // per-query budget never mutates runtime state.
  std::shared_ptr<const StoreSnapshot> snapshot_shard_bounded(
      std::uint32_t i, std::uint64_t min_covers_seq,
      const SnapshotStalenessBudget& budget);

  // Uncached variant: always pays the copy (the bench baseline and the
  // cache's correctness oracle). Same threading rules as snapshot_shard;
  // does not publish into the cache.
  std::shared_ptr<const StoreSnapshot> snapshot_shard_fresh(std::uint32_t i);

  // Replaces the staleness budget consulted by snapshot_shard_bounded.
  // Call from the control thread (not concurrently with queries).
  void set_staleness_budget(const SnapshotStalenessBudget& budget) {
    staleness_budget_ = budget;
  }
  const SnapshotStalenessBudget& staleness_budget() const {
    return staleness_budget_;
  }

  // Secondary-index version for shard `i` with generation >=
  // `min_generation` — pass the generation of the snapshot the query
  // pinned (snapshot->generation()), and the returned index is
  // guaranteed to contain every key whose data that snapshot holds
  // (index generations are supersets; extra keys resolve as snapshot
  // misses). Lock-free when the published version already covers the
  // generation; otherwise drains the shard's delta queue once. Safe
  // from any thread.
  std::shared_ptr<const ShardIndexVersion> index_shard(
      std::uint32_t i, std::uint64_t min_generation = 0) {
    return index_publisher_->version_at_least(i, min_generation);
  }

  const IndexPublisher& index_publisher() const { return *index_publisher_; }

  // Drops every cached snapshot (the cluster tier calls this when this
  // host is declared dead, so its frozen stores stop answering).
  void invalidate_snapshots();

  const SnapshotCache& snapshot_cache() const { return *snapshot_cache_; }

  // Which shard a report routes to (exposed for tests and benches).
  std::uint32_t shard_index_for(const proto::ParsedDta& parsed) const;

  // The (normalized) configuration this runtime was built from.
  const CollectorRuntimeConfig& config() const { return config_; }

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  CollectorShard& shard(std::uint32_t i) { return *shards_[i]; }
  const IngestPipeline& pipeline() const { return *pipeline_; }

  CollectorRuntimeStats stats() const;

  // Per-tenant slice of reports_in, summed across shards (the
  // DtaHeader.tenant annotation stamped by the serving plane at
  // submit). Read behind a flush barrier, like stats().
  std::unordered_map<TenantId, std::uint64_t> tenant_ingest() const;

  // Aggregate of every shard's translator-engine counters (the
  // per-primitive translation layer). Read behind a flush barrier.
  TranslationStats translation_stats() const;

  // Aggregate modeled ingest rate: the sum of the per-shard NIC rates
  // (each shard owns an independent NIC message unit, so capacity adds).
  double modeled_aggregate_verbs_per_sec() const;

 private:
  CollectorRuntimeConfig config_;
  SnapshotStalenessBudget staleness_budget_;
  std::vector<std::unique_ptr<CollectorShard>> shards_;
  std::unique_ptr<IndexPublisher> index_publisher_;
  std::unique_ptr<IngestPipeline> pipeline_;
  std::unique_ptr<SnapshotCache> snapshot_cache_;
};

}  // namespace dta::collector
