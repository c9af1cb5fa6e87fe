#include "collector/shard.h"

#include "collector/index_publisher.h"
#include "common/shard_math.h"

namespace dta::collector {

namespace {

// The index membership bit of a keyed primitive's report.
std::uint8_t index_primitive(proto::PrimitiveOp op) {
  if (op == proto::PrimitiveOp::kKeyWrite) return kIndexKeyWrite;
  if (op == proto::PrimitiveOp::kKeyIncrement) return kIndexKeyIncrement;
  return kIndexPostcarding;
}

}  // namespace

CollectorShard::CollectorShard(std::uint32_t index, const ShardConfig& config)
    : index_(index),
      op_batch_size_(config.op_batch_size == 0 ? 1 : config.op_batch_size),
      service_(config.nic),
      dirty_(config.snapshot_chunk_bytes, config.snapshot_full_copy_ratio) {
  // Store regions ask for transparent huge pages (MADV_HUGEPAGE on the
  // 2 MiB-aligned interior; the paper puts all RDMA-registered memory
  // on huge pages). Best-effort, no-op off-Linux.
  service_.nic().pd().set_hugepage_hint(true);
  // Nothing below writes the regions, so their pages land on the node
  // of the shard's first writer, its pinned worker.
  if (config.keywrite) service_.enable_keywrite(*config.keywrite);
  if (config.postcarding) service_.enable_postcarding(*config.postcarding);
  if (config.append) service_.enable_append(*config.append);
  if (config.keyincrement) service_.enable_keyincrement(*config.keyincrement);

  // The same CM handshake the translator performs against a standalone
  // collector, one per shard: the accept's region adverts configure this
  // shard's engines.
  rdma::ConnectRequest request;
  request.requester_qpn = 0x70 + index;
  request.start_psn = 0x1000;
  const rdma::ConnectAccept accept = service_.accept(request);
  engines_ = translator::EngineSet(accept, config.postcard_cache_slots,
                                   config.append_batch_size);

  // Every registered store region is chunk-tracked so snapshot refresh
  // can copy only what the delivered batches actually dirtied. The
  // tracker starts saturated: the first refresh is a full copy anyway,
  // so the writes that fill the stores before it list no chunk.
  dirty_.track(service_.keywrite_region());
  dirty_.track(service_.postcarding_region());
  dirty_.track(service_.append_region());
  dirty_.track(service_.keyincrement_region());
  dirty_.mark_all();
}

void CollectorShard::ingest(const proto::ParsedDta& parsed) {
  ++stats_.reports_in;
  ++tenant_reports_in_[parsed.header.tenant];
  const std::size_t before = pending_.size();
  const translator::EngineSet::Translated translated =
      engines_.translate(parsed, pending_);
  if (translated.key != nullptr && index_publisher_ != nullptr) {
    staged_keys_.push_back({*translated.key, index_primitive(translated.op)});
  }
  stats_.ops_batched += pending_.size() - before;
  if (pending_.size() >= op_batch_size_) deliver_batch();
}

void CollectorShard::flush() {
  const std::size_t before = pending_.size();
  engines_.flush_postcards(pending_);
  engines_.flush_appends(pending_);
  stats_.ops_batched += pending_.size() - before;
  deliver_batch();
}

void CollectorShard::deliver_batch() {
  if (pending_.empty()) return;
  // One doorbell for the whole batch: the staged ops execute back to
  // back on the shard's queue pair (validation + DMA + message-rate
  // charge; no frame craft, no parse, no PSN) without returning to the
  // ingest loop.
  ++stats_.batch_flushes;
  rdma::Nic& nic = service_.nic();
  rdma::QueuePair& qp = *service_.qp();
  // Prefetch pass: every op's target store line is requested before the
  // first verb runs, so the batch's cache misses overlap instead of each
  // verb stalling on its own.
  const rdma::ProtectionDomain& pd = nic.pd();
  for (const auto& op : pending_) {
    if (op.kind == translator::RdmaOp::Kind::kSend) continue;
    if (const rdma::MemoryRegion* region = pd.find(op.rkey)) {
      region->prefetch_for_write(
          op.remote_va, op.kind == translator::RdmaOp::Kind::kWrite
                            ? op.payload.size()
                            : 8);
    }
  }
  for (const auto& op : pending_) {
    // Each op's byte extent is marked dirty before it executes (over-
    // approximate on failure — a spurious chunk copy is harmless, a
    // missed one is a stale snapshot).
    rdma::Nic::Outcome outcome;
    switch (op.kind) {
      case translator::RdmaOp::Kind::kWrite:
        dirty_.mark(op.remote_va, op.payload.size());
        outcome = nic.execute_write(qp, op.remote_va, op.rkey, op.payload,
                                    op.immediate);
        break;
      case translator::RdmaOp::Kind::kFetchAdd:
        dirty_.mark(op.remote_va, 8);
        outcome =
            nic.execute_fetch_add(qp, op.remote_va, op.rkey, op.add_value);
        break;
      case translator::RdmaOp::Kind::kSend:
        // No shard engine emits a SEND, and a SEND never writes store
        // memory: it counts as failed.
        break;
    }
    if (outcome.responder.executed) {
      ++stats_.verbs_executed;
    } else {
      ++stats_.verbs_failed;
    }
  }
  pending_.clear();
  // Hand the index the batch's keys before the generation bump, so an
  // observer of the new generation always finds them in the window.
  // Both buffers keep their capacity, so this allocates nothing.
  if (index_publisher_ != nullptr) {
    index_publisher_->append(
        index_, generation_.load(std::memory_order_relaxed) + 1, staged_keys_);
    staged_keys_.clear();
  }
  // The batch is in store memory; stamp a new generation. Release pairs
  // with the acquire in generation() so a reader that observes the new
  // stamp also observes the batch's writes (the ingest pipeline's
  // request ack is what actually publishes them to snapshot takers).
  generation_.fetch_add(1, std::memory_order_release);
}

double CollectorShard::modeled_verbs_per_sec() const {
  return service_.nic().modeled_verbs_per_sec(stats_.verbs_executed);
}

std::uint32_t shard_for_key(const proto::TelemetryKey& key,
                            std::uint32_t num_shards) {
  return common::shard_of_key(key.span(), num_shards);
}

std::uint32_t shard_for_list(std::uint32_t list_id, std::uint32_t num_shards) {
  return common::list_partition(list_id, num_shards);
}

std::uint32_t local_list_id(std::uint32_t list_id, std::uint32_t num_shards) {
  return common::list_local_id(list_id, num_shards);
}

}  // namespace dta::collector
