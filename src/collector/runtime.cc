#include "collector/runtime.h"

#include <algorithm>

namespace dta::collector {

namespace {

// Divides `total` across `shards`, keeping at least `floor` per shard.
std::uint64_t slice(std::uint64_t total, std::uint32_t shards,
                    std::uint64_t floor_per_shard) {
  return std::max<std::uint64_t>(total / shards, floor_per_shard);
}

}  // namespace

CollectorRuntime::CollectorRuntime(CollectorRuntimeConfig config)
    : config_(std::move(config)),
      staleness_budget_(config_.staleness_budget) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  const std::uint32_t n = config_.num_shards;

  for (std::uint32_t i = 0; i < n; ++i) {
    ShardConfig sc;
    sc.nic = config_.nic;
    sc.op_batch_size = config_.op_batch_size;
    sc.append_batch_size = config_.append_batch_size;
    sc.postcard_cache_slots = config_.postcard_cache_slots;
    sc.snapshot_chunk_bytes = config_.snapshot_chunk_bytes;
    sc.snapshot_full_copy_ratio = config_.snapshot_full_copy_ratio;
    if (config_.keywrite) {
      KeyWriteSetup kw = *config_.keywrite;
      kw.num_slots = slice(kw.num_slots, n, 1024);
      sc.keywrite = kw;
    }
    if (config_.postcarding) {
      PostcardingSetup pc = *config_.postcarding;
      pc.num_chunks = slice(pc.num_chunks, n, 1024);
      sc.postcarding = pc;
    }
    if (config_.append) {
      AppendSetup ap = *config_.append;
      // Shard i owns global lists {l : l % n == i}; its local id space
      // must cover ceil(num_lists / n) lists.
      ap.num_lists = std::max<std::uint32_t>((ap.num_lists + n - 1) / n, 1);
      sc.append = ap;
    }
    if (config_.keyincrement) {
      KeyIncrementSetup ki = *config_.keyincrement;
      ki.num_slots = slice(ki.num_slots, n, 1024);
      sc.keyincrement = ki;
    }
    shards_.push_back(std::make_unique<CollectorShard>(i, sc));
  }

  index_publisher_ = std::make_unique<IndexPublisher>(shards_.size());
  std::vector<CollectorShard*> shard_ptrs;
  for (auto& shard : shards_) {
    shard->set_index_publisher(index_publisher_.get());
    shard_ptrs.push_back(shard.get());
  }
  IngestPipelineConfig pc;
  pc.queue_capacity = config_.queue_capacity;
  pc.thread_mode = config_.thread_mode;
  pc.pin_workers = config_.pin_workers;
  pc.worker_cores = config_.worker_cores;
  pipeline_ = std::make_unique<IngestPipeline>(std::move(shard_ptrs), pc);
  snapshot_cache_ = std::make_unique<SnapshotCache>(shards_.size());
}

CollectorRuntime::~CollectorRuntime() { stop(); }

std::uint32_t CollectorRuntime::shard_index_for(
    const proto::ParsedDta& parsed) const {
  const std::uint32_t n = static_cast<std::uint32_t>(shards_.size());
  if (const auto* kw = std::get_if<proto::KeyWriteReport>(&parsed.report)) {
    return shard_for_key(kw->key, n);
  }
  if (const auto* ki =
          std::get_if<proto::KeyIncrementReport>(&parsed.report)) {
    return shard_for_key(ki->key, n);
  }
  if (const auto* pc = std::get_if<proto::PostcardReport>(&parsed.report)) {
    return shard_for_key(pc->key, n);
  }
  if (const auto* ap = std::get_if<proto::AppendReport>(&parsed.report)) {
    return shard_for_list(ap->list_id, n);
  }
  return 0;  // NACKs and unknowns: shard 0 (they carry no key)
}

void CollectorRuntime::submit(proto::ParsedDta parsed) {
  const std::uint32_t shard = shard_index_for(parsed);
  if (auto* ap = std::get_if<proto::AppendReport>(&parsed.report)) {
    // Rewrite the global list id to the shard-local one; the shard's
    // engine and store only know their slice of the list space.
    ap->list_id = local_list_id(ap->list_id, num_shards());
  }
  pipeline_->submit(shard, std::move(parsed));
}

void CollectorRuntime::flush() { pipeline_->flush(); }

void CollectorRuntime::flush_shard(std::uint32_t i) {
  pipeline_->flush_shard(i);
}

void CollectorRuntime::stop() { pipeline_->stop(); }

std::shared_ptr<const StoreSnapshot> CollectorRuntime::snapshot_shard(
    std::uint32_t i) {
  return snapshot_shard_bounded(i, 0, SnapshotStalenessBudget{});
}

std::shared_ptr<const StoreSnapshot> CollectorRuntime::snapshot_shard_bounded(
    std::uint32_t i, std::uint64_t min_covers_seq) {
  return snapshot_shard_bounded(i, min_covers_seq, staleness_budget_);
}

std::shared_ptr<const StoreSnapshot> CollectorRuntime::snapshot_shard_bounded(
    std::uint32_t i, std::uint64_t min_covers_seq,
    const SnapshotStalenessBudget& budget) {
  return snapshot_cache_->acquire(i, *pipeline_, *shards_[i], budget,
                                  min_covers_seq);
}

std::shared_ptr<const StoreSnapshot> CollectorRuntime::snapshot_shard_fresh(
    std::uint32_t i) {
  return snapshot_cache_->copy_fresh(i, *pipeline_, *shards_[i]);
}

void CollectorRuntime::invalidate_snapshots() {
  snapshot_cache_->invalidate_all();
}

CollectorRuntimeStats CollectorRuntime::stats() const {
  CollectorRuntimeStats total;
  for (const auto& shard : shards_) total += shard->stats();
  return total;
}

std::unordered_map<TenantId, std::uint64_t> CollectorRuntime::tenant_ingest()
    const {
  std::unordered_map<TenantId, std::uint64_t> total;
  for (const auto& shard : shards_) {
    for (const auto& [tenant, count] : shard->tenant_reports_in()) {
      total[tenant] += count;
    }
  }
  return total;
}

TranslationStats CollectorRuntime::translation_stats() const {
  TranslationStats total;
  for (const auto& shard : shards_) total += shard->engines().stats();
  return total;
}

double CollectorRuntime::modeled_aggregate_verbs_per_sec() const {
  double total = 0.0;
  for (const auto& shard : shards_) total += shard->modeled_verbs_per_sec();
  return total;
}

}  // namespace dta::collector
