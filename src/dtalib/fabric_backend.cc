#include "dtalib/fabric_backend.h"

#include <algorithm>
#include <utility>

#include "dtalib/query_core.h"

namespace dta {

namespace {

// The geometry the wire runs and host_config() reports: one shard,
// inline, with the store setups, NIC and translator batching of
// `config`; the rest of a runtime config has no meaning on the wire and
// stays at its default.
collector::CollectorRuntimeConfig wire_host_config(
    const collector::CollectorRuntimeConfig& config) {
  collector::CollectorRuntimeConfig out;
  out.num_shards = 1;
  out.keywrite = config.keywrite;
  out.postcarding = config.postcarding;
  out.append = config.append;
  out.keyincrement = config.keyincrement;
  out.nic = config.nic;
  out.append_batch_size = config.append_batch_size;
  out.postcard_cache_slots = config.postcard_cache_slots;
  out.thread_mode = collector::ThreadMode::kInline;
  return out;
}

}  // namespace

FabricBackend::FabricBackend(const collector::CollectorRuntimeConfig& config)
    : host_config_(wire_host_config(config)) {
  FabricConfig fabric;
  fabric.keywrite = host_config_.keywrite;
  fabric.postcarding = host_config_.postcarding;
  fabric.append = host_config_.append;
  fabric.keyincrement = host_config_.keyincrement;
  fabric.nic = host_config_.nic;
  fabric.translator.append_batch_size = host_config_.append_batch_size;
  fabric.translator.postcard_cache_slots = host_config_.postcard_cache_slots;
  fabric_ = std::make_unique<Fabric>(std::move(fabric));
  index_ = index_builder_.publish();  // empty version at generation 0
}

Status FabricBackend::submit(proto::ParsedDta parsed,
                             const ReportOptions& opts) {
  if (auto status = validate_report(parsed, host_config_, num_lists());
      !status.ok()) {
    return status;
  }
  // Admission after validation (a malformed report never consumes
  // quota), identical to the other backends.
  if (auto status = tenants_.admit_submit(opts.tenant, submit_ops(parsed));
      !status.ok()) {
    return status;
  }
  const bool immediate = opts.immediate || parsed.header.immediate;
  MutexLock lock(mu_);
  if (stopped_) {
    return {StatusCode::kUnavailable, "backend is stopped"};
  }
  // The wire does not carry the tenant annotation (DtaHeader.tenant is
  // in-process only), so ingest attribution is tracked here at the
  // submit seam rather than read back from the collector tier.
  fabric_->report(parsed.report, 0, immediate);
  ++submitted_;
  ++tenant_ingest_[opts.tenant];
  // Stage the key for the secondary index while it is still a full key
  // (the wire reduces it to a checksum); folds in at the next snapshot
  // rebuild.
  if (const auto* kw = std::get_if<proto::KeyWriteReport>(&parsed.report)) {
    staged_keys_.push_back({kw->key, collector::kIndexKeyWrite});
  } else if (const auto* ki =
                 std::get_if<proto::KeyIncrementReport>(&parsed.report)) {
    staged_keys_.push_back({ki->key, collector::kIndexKeyIncrement});
  } else if (const auto* pc =
                 std::get_if<proto::PostcardReport>(&parsed.report)) {
    staged_keys_.push_back({pc->key, collector::kIndexPostcarding});
  }
  return Status::Ok();
}

Status FabricBackend::flush() {
  MutexLock lock(mu_);
  fabric_->flush();
  return Status::Ok();
}

void FabricBackend::stop() {
  MutexLock lock(mu_);
  fabric_->flush();
  stopped_ = true;
}

Expected<Backend::SnapshotPtr> FabricBackend::acquire_locked(
    const QueryOptions& opts) {
  std::uint64_t floor = opts.covers_seq;
  if (opts.read_your_submits) floor = std::max(floor, submitted_);
  if (floor > submitted_) {
    return Status(StatusCode::kStalenessViolation,
                  "covers_seq floor ahead of everything submitted");
  }
  // The fabric path is synchronous, so a snapshot built now covers
  // every accepted submit — rebuild only when one landed since the
  // last build (the flush is the barrier: postcard cache rows and
  // append batches are delivered before the copy, exactly like the
  // flush a shard worker runs before a snapshot's writer job under
  // ClusterBackend).
  if (!snapshot_ || snapshot_covers_ != submitted_) {
    fabric_->flush();
    // Fold the staged keys first, so the published index generation
    // equals the snapshot generation it is about to stamp.
    index_builder_.apply(generation_ + 1, staged_keys_);
    staged_keys_.clear();
    index_ = index_builder_.publish();
    auto snap = std::make_shared<collector::StoreSnapshot>(fabric_->service(),
                                                           ++generation_);
    // The flush delivered every WRITE the translator's Append engine
    // emitted, so its emitted counts are the event-cursor heads (one
    // shard: local list = global).
    snap->set_append_heads(fabric_->translator().engines().append_heads());
    snapshot_ = std::move(snap);
    snapshot_covers_ = submitted_;
  }
  return snapshot_;
}

Expected<RangeResult> FabricBackend::range_query(const RangeSpec& spec,
                                                 const QueryOptions& opts) {
  if (auto status = internal::range_precheck(*this, spec, opts);
      !status.ok()) {
    return status;
  }
  if (auto status = tenants_.admit_query(opts.tenant); !status.ok()) {
    return status;
  }
  MutexLock lock(mu_);
  auto snap = acquire_locked(opts);
  if (!snap.ok()) return snap.status();
  // acquire_locked just folded everything staged, so index_ covers the
  // snapshot's generation exactly. One shard: every key resolves
  // against the same one-snapshot set.
  return internal::resolve_range({index_}, {{std::move(snap).value()}},
                                 spec, opts);
}

std::shared_ptr<const collector::ShardIndexVersion> FabricBackend::index() {
  MutexLock lock(mu_);
  (void)acquire_locked(QueryOptions{});
  return index_;
}

Expected<std::vector<Backend::SnapshotPtr>> FabricBackend::key_snapshots(
    const proto::TelemetryKey& key, const QueryOptions& opts) {
  (void)key;  // one shard: every key resolves against the same snapshot
  if (auto status = tenants_.admit_query(opts.tenant); !status.ok()) {
    return status;
  }
  MutexLock lock(mu_);
  auto snap = acquire_locked(opts);
  if (!snap.ok()) return snap.status();
  return std::vector<SnapshotPtr>{std::move(snap).value()};
}

Expected<std::vector<std::vector<Backend::SnapshotPtr>>>
FabricBackend::key_snapshots_batch(const std::vector<proto::TelemetryKey>& keys,
                                   const QueryOptions& opts) {
  if (auto status = tenants_.admit_query(
          opts.tenant, static_cast<std::uint32_t>(keys.size()));
      !status.ok()) {
    return status;
  }
  MutexLock lock(mu_);
  auto snap = acquire_locked(opts);
  if (!snap.ok()) return snap.status();
  // One shard -> one pin shared by the whole batch.
  std::vector<std::vector<SnapshotPtr>> out;
  out.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out.push_back({snap.value()});
  }
  return out;
}

Expected<Backend::ListSlice> FabricBackend::list_snapshot(
    std::uint32_t list, const QueryOptions& opts) {
  if (auto status = tenants_.admit_query(opts.tenant); !status.ok()) {
    return status;
  }
  if (!host_config_.append) {
    return Status(StatusCode::kNotConfigured, "Append store not enabled");
  }
  if (list >= num_lists()) {
    return Status(StatusCode::kUnknownList, "Append list id out of range");
  }
  MutexLock lock(mu_);
  auto snap = acquire_locked(opts);
  if (!snap.ok()) return snap.status();
  ListSlice slice;
  slice.snap = std::move(snap).value();
  slice.shard_list = list;  // one shard: global ids are shard-local ids
  return slice;
}

const collector::CollectorRuntimeConfig& FabricBackend::host_config() const {
  return host_config_;
}

std::uint32_t FabricBackend::num_lists() const {
  return host_config_.append ? host_config_.append->num_lists : 0;
}

ClientStats FabricBackend::stats() const {
  MutexLock lock(mu_);
  ClientStats out;
  out.ingest.reports_in = submitted_;
  out.ingest.verbs_executed = fabric_->verbs_executed();
  out.translation = fabric_->translator().engines().stats();

  ClusterHostStats host;  // one host, live: the ClientStats defaults
  host.ingest = out.ingest;
  host.translation = out.translation;
  out.per_host.push_back(std::move(host));
  out.per_tenant = join_tenant_ingest(tenants_.stats(), tenant_ingest_);
  return out;
}

double FabricBackend::modeled_verbs_per_sec() const {
  MutexLock lock(mu_);
  return fabric_->modeled_verbs_per_sec();
}

Status FabricBackend::fail_host(std::uint32_t host) {
  (void)host;
  return {StatusCode::kUnsupported,
          "a Fabric is one collector; there is no host to fail"};
}

}  // namespace dta
