#include "collector/shard.h"

#include "common/shard_math.h"

namespace dta::collector {

TranslationStats& TranslationStats::operator+=(const TranslationStats& o) {
  keywrite_reports += o.keywrite_reports;
  keywrite_writes += o.keywrite_writes;
  truncated_values += o.truncated_values;
  keyincrement_reports += o.keyincrement_reports;
  fetch_adds += o.fetch_adds;
  postcards_in += o.postcards_in;
  postcard_writes += o.postcard_writes;
  append_entries_in += o.append_entries_in;
  append_writes += o.append_writes;
  append_bytes_written += o.append_bytes_written;
  append_dropped_bad_list += o.append_dropped_bad_list;
  return *this;
}

TranslationStats CollectorShard::translation_stats() const {
  TranslationStats out;
  if (keywrite_) {
    const auto& s = keywrite_->stats();
    out.keywrite_reports = s.reports;
    out.keywrite_writes = s.writes_emitted;
    out.truncated_values = s.truncated_values;
  }
  if (keyincrement_) {
    const auto& s = keyincrement_->stats();
    out.keyincrement_reports = s.reports;
    out.fetch_adds = s.fetch_adds_emitted;
  }
  if (postcarding_) {
    const auto& s = postcarding_->stats();
    out.postcards_in = s.postcards_in;
    out.postcard_writes = s.writes_emitted;
  }
  if (append_) {
    const auto& s = append_->stats();
    out.append_entries_in = s.entries_in;
    out.append_writes = s.writes_emitted;
    out.append_bytes_written = s.bytes_written;
    out.append_dropped_bad_list = s.dropped_bad_list;
  }
  return out;
}

CollectorShard::CollectorShard(std::uint32_t index, const ShardConfig& config)
    : index_(index),
      op_batch_size_(config.op_batch_size == 0 ? 1 : config.op_batch_size),
      service_(config.nic),
      dirty_(config.snapshot_chunk_bytes, config.snapshot_full_copy_ratio) {
  // Store regions ask for transparent huge pages (MADV_HUGEPAGE on the
  // 2 MiB-aligned interior; the paper puts all RDMA-registered memory
  // on huge pages). Best-effort, no-op off-Linux.
  service_.nic().pd().set_hugepage_hint(true);
  // Placement hint before any store memory is allocated: regions the
  // enable_* calls register below are asked onto the worker's node.
  if (config.numa_node >= 0) {
    service_.nic().pd().set_node_hint(config.numa_node);
  }
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

  for (const auto& region : accept.regions) {
    switch (region.kind) {
      case rdma::RegionKind::kKeyWrite:
        keywrite_ = std::make_unique<translator::KeyWriteEngine>(
            translator::KeyWriteGeometry::from_advert(region));
        break;
      case rdma::RegionKind::kPostcarding:
        postcarding_ = std::make_unique<translator::PostcardCache>(
            translator::PostcardingGeometry::from_advert(region),
            config.postcard_cache_slots);
        break;
      case rdma::RegionKind::kAppend:
        append_ = std::make_unique<translator::AppendEngine>(
            translator::AppendGeometry::from_advert(region),
            config.append_batch_size);
        break;
      case rdma::RegionKind::kKeyIncrement:
        keyincrement_ = std::make_unique<translator::KeyIncrementEngine>(
            translator::KeyIncrementGeometry::from_advert(region));
        break;
    }
  }

  // Every registered store region is chunk-tracked so snapshot refresh
  // can copy only what the delivered batches actually dirtied.
  dirty_.track(service_.keywrite_region());
  dirty_.track(service_.postcarding_region());
  dirty_.track(service_.append_region());
  dirty_.track(service_.keyincrement_region());

  // Append geometry for the event-cursor heads: the delivery loop
  // reverse-maps each append-region WRITE to its list by offset.
  if (service_.append() != nullptr) {
    const AppendStore& store = *service_.append();
    append_base_va_ = service_.append_region()->base_va();
    append_region_len_ = service_.append_region()->length();
    append_entry_bytes_ = store.entry_bytes();
    append_list_stride_ =
        store.entries_per_list() * static_cast<std::uint64_t>(
                                       append_entry_bytes_);
    append_batch_counts_.assign(store.num_lists(), 0);
    append_delivered_.assign(store.num_lists(), 0);
  }
}

void CollectorShard::ingest(const proto::ParsedDta& parsed) {
  ++stats_.reports_in;
  ++tenant_reports_in_[parsed.header.tenant];
  const bool immediate = parsed.header.immediate;
  const std::size_t before = pending_.size();

  if (const auto* kw = std::get_if<proto::KeyWriteReport>(&parsed.report)) {
    if (keywrite_) {
      stage_key(kw->key, kIndexKeyWrite);
      keywrite_->translate(*kw, immediate, pending_);
    }
  } else if (const auto* ki =
                 std::get_if<proto::KeyIncrementReport>(&parsed.report)) {
    if (keyincrement_) {
      stage_key(ki->key, kIndexKeyIncrement);
      keyincrement_->translate(*ki, pending_);
    }
  } else if (const auto* pc =
                 std::get_if<proto::PostcardReport>(&parsed.report)) {
    if (postcarding_) {
      stage_key(pc->key, kIndexPostcarding);
      postcarding_->ingest(*pc, pending_);
    }
  } else if (const auto* ap =
                 std::get_if<proto::AppendReport>(&parsed.report)) {
    if (append_) append_->ingest(*ap, immediate, pending_);
  }

  stats_.ops_batched += pending_.size() - before;
  if (pending_.size() >= op_batch_size_) deliver_batch();
}

void CollectorShard::flush() {
  const std::size_t before = pending_.size();
  if (postcarding_) postcarding_->flush_all(pending_);
  if (append_) append_->flush_all(pending_);
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
        // Reverse-map append-region writes to their list: the engine
        // emits per-list batch writes, so payload / entry_bytes is an
        // exact delivered-entry count (the event-cursor head advance).
        if (append_entry_bytes_ != 0 && op.remote_va >= append_base_va_ &&
            op.remote_va < append_base_va_ + append_region_len_) {
          const std::uint64_t list =
              (op.remote_va - append_base_va_) / append_list_stride_;
          if (list < append_batch_counts_.size()) {
            append_batch_counts_[list] +=
                op.payload.size() / append_entry_bytes_;
          }
        }
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
  // Fold this batch's append counts into the cumulative heads and hand
  // the index its delta — before the generation bump, so an observer of
  // the new generation always finds the matching delta enqueued.
  IndexDelta delta;
  for (std::size_t list = 0; list < append_batch_counts_.size(); ++list) {
    if (append_batch_counts_[list] == 0) continue;
    append_delivered_[list] += append_batch_counts_[list];
    delta.append_deltas.emplace_back(static_cast<std::uint32_t>(list),
                                     append_batch_counts_[list]);
    append_batch_counts_[list] = 0;
  }
  if (index_sink_ != nullptr) {
    delta.generation = generation_.load(std::memory_order_relaxed) + 1;
    // Copied out at the batch's size: staged_keys_ keeps its capacity,
    // so the next batch stages without regrowing it from empty.
    delta.keys.assign(staged_keys_.begin(), staged_keys_.end());
    staged_keys_.clear();
    index_sink_->enqueue(index_, std::move(delta));
  }
  // The batch is in store memory; stamp a new generation. Release pairs
  // with the acquire in generation() so a reader that observes the new
  // stamp also observes the batch's writes (the flush and writer-job
  // handshakes are what actually publish them to snapshot takers).
  generation_.fetch_add(1, std::memory_order_release);
}

std::uint32_t CollectorShard::first_touch_regions() {
  rdma::MemoryRegion* regions[] = {
      service_.keywrite_region(), service_.postcarding_region(),
      service_.append_region(), service_.keyincrement_region()};
  std::uint32_t touched = 0;
  for (auto* region : regions) {
    if (!region) continue;
    // The allocation-time mbind already placed this region; re-touching
    // would only re-copy the whole store for nothing.
    if (region->node_bound()) continue;
    region->first_touch_rebind();
    ++touched;
  }
  return touched;
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
