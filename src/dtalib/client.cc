#include "dtalib/client.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/shard_math.h"
#include "dta/report_builders.h"
#include "dtalib/query_core.h"

namespace dta {

// Validates a report against the (per-host) store geometry before it
// touches any router: the pre-v2 seams silently dropped or UB'd on
// these, the v2 contract is a distinct Status per failure class.
// Exported so every Backend (including out-of-file ones like
// FabricBackend) rejects the same inputs with the same codes.
namespace {

// A report or query key: non-empty and canonical.
Status check_key(const char* what, const proto::TelemetryKey& key) {
  if (key.length == 0) {
    return {StatusCode::kInvalidArgument,
            std::string(what) + ": empty telemetry key (key.length == 0)"};
  }
  return internal::check_canonical_key(what, key);
}

// Shared key/redundancy checks, with the report/query context threaded
// into the message so callers can tell *which* field of *which*
// primitive failed without a debugger (the bare "kInvalidArgument"
// messages these replace named neither).
Status check_key_and_redundancy(const char* what,
                                const proto::TelemetryKey& key,
                                std::uint8_t redundancy) {
  if (auto status = check_key(what, key); !status.ok()) return status;
  if (redundancy == 0) {
    return {StatusCode::kInvalidArgument,
            std::string(what) + ": redundancy 0, must be >= 1"};
  }
  if (redundancy > 8) {
    return {StatusCode::kOutOfRange,
            std::string(what) + ": redundancy " + std::to_string(redundancy) +
                " exceeds the 8 slot-hash engines"};
  }
  return Status::Ok();
}

}  // namespace

Status validate_report(const proto::ParsedDta& parsed,
                       const collector::CollectorRuntimeConfig& config,
                       std::uint32_t num_lists) {
  if (const auto* kw = std::get_if<proto::KeyWriteReport>(&parsed.report)) {
    if (!config.keywrite) {
      return {StatusCode::kNotConfigured, "Key-Write store not enabled"};
    }
    if (auto status =
            check_key_and_redundancy("Key-Write report", kw->key,
                                     kw->redundancy);
        !status.ok()) {
      return status;
    }
    // The wire carries the value's length in one byte: a longer value
    // would encode a wrapped length and lose its tail.
    if (kw->data.size() > proto::kKeyWriteMaxValueBytes) {
      return {StatusCode::kOutOfRange,
              "Key-Write report: " + std::to_string(kw->data.size()) +
                  "B value exceeds the wire's 8-bit value length (255)"};
    }
    if (kw->data.size() > config.keywrite->value_bytes) {
      return {StatusCode::kOutOfRange,
              "Key-Write report: " + std::to_string(kw->data.size()) +
                  "B value wider than the store's value_bytes " +
                  std::to_string(config.keywrite->value_bytes)};
    }
    return Status::Ok();
  }
  if (const auto* ki =
          std::get_if<proto::KeyIncrementReport>(&parsed.report)) {
    if (!config.keyincrement) {
      return {StatusCode::kNotConfigured, "Key-Increment store not enabled"};
    }
    return check_key_and_redundancy("Key-Increment report", ki->key,
                                    ki->redundancy);
  }
  if (const auto* pc = std::get_if<proto::PostcardReport>(&parsed.report)) {
    if (!config.postcarding) {
      return {StatusCode::kNotConfigured, "Postcarding store not enabled"};
    }
    if (auto status = check_key("Postcard report", pc->key); !status.ok()) {
      return status;
    }
    if (pc->hop >= config.postcarding->hops ||
        pc->path_len > config.postcarding->hops) {
      return {StatusCode::kOutOfRange,
              "Postcard report: hop " + std::to_string(pc->hop) +
                  " / path_len " + std::to_string(pc->path_len) +
                  " beyond the store's " +
                  std::to_string(config.postcarding->hops) + " hops"};
    }
    return Status::Ok();
  }
  if (const auto* ap = std::get_if<proto::AppendReport>(&parsed.report)) {
    if (!config.append) {
      return {StatusCode::kNotConfigured, "Append store not enabled"};
    }
    if (ap->list_id >= num_lists) {
      return {StatusCode::kUnknownList,
              "Append report: list id " + std::to_string(ap->list_id) +
                  " outside [0, " + std::to_string(num_lists) + ")"};
    }
    if (ap->entries.empty()) {
      return {StatusCode::kInvalidArgument,
              "Append report: entries empty (nothing to append)"};
    }
    // The wire carries the entry count in one byte: a larger report
    // would encode a wrapped count and silently lose entries.
    if (ap->entries.size() > 255) {
      return {StatusCode::kOutOfRange,
              "Append report: " + std::to_string(ap->entries.size()) +
                  " entries exceed the wire's 8-bit entry count (255)"};
    }
    if (ap->entry_size != config.append->entry_bytes) {
      return {StatusCode::kOutOfRange,
              "Append report: entry_size " + std::to_string(ap->entry_size) +
                  " differs from the store's entry_bytes " +
                  std::to_string(config.append->entry_bytes)};
    }
    // Check the actual payload sizes too: the wire field is 8-bit, so a
    // >255B entry would alias a small entry_size and silently truncate
    // in the engine — exactly the failure class Status exists to name.
    for (std::size_t i = 0; i < ap->entries.size(); ++i) {
      if (ap->entries[i].size() != config.append->entry_bytes) {
        return {StatusCode::kOutOfRange,
                "Append report: entry " + std::to_string(i) + " payload of " +
                    std::to_string(ap->entries[i].size()) +
                    "B differs from the store's entry_bytes " +
                    std::to_string(config.append->entry_bytes)};
      }
    }
    return Status::Ok();
  }
  return {StatusCode::kUnsupported,
          "NACKs flow translator->reporter, not into a collector"};
}

std::uint32_t submit_ops(const proto::ParsedDta& parsed) {
  if (const auto* ap = std::get_if<proto::AppendReport>(&parsed.report)) {
    return static_cast<std::uint32_t>(ap->entries.size());
  }
  return 1;
}

namespace {

using SnapshotPtr = Backend::SnapshotPtr;

// The single snapshot-acquisition path: resolve the read-your-submits
// floor, reject unsatisfiable floors, pick the per-call or runtime
// staleness budget, acquire bounded. The submitted count, a line ingest
// writes at every report, is read only when the caller names a floor.
Expected<SnapshotPtr> acquire_snapshot(collector::CollectorRuntime& runtime,
                                       std::uint32_t shard,
                                       const QueryOptions& opts) {
  std::uint64_t floor = opts.covers_seq;
  if (floor > 0 || opts.read_your_submits) {
    const std::uint64_t submitted = runtime.pipeline().submitted(shard);
    if (opts.read_your_submits) floor = std::max(floor, submitted);
    if (floor > submitted) {
      return Status(StatusCode::kStalenessViolation,
                    "covers_seq floor ahead of everything submitted");
    }
  }
  const collector::SnapshotStalenessBudget& budget =
      opts.staleness ? *opts.staleness : runtime.staleness_budget();
  return runtime.snapshot_shard_bounded(shard, floor, budget);
}

Status query_precheck(const proto::TelemetryKey& key,
                      const QueryOptions& opts) {
  return check_key_and_redundancy("query", key, opts.redundancy);
}

// Per-primitive query prechecks, shared by the sync/async/batch
// variants of each handle so the rules cannot drift between them.
Status keywrite_precheck(const Backend& backend,
                         const proto::TelemetryKey& key,
                         const QueryOptions& opts) {
  if (!backend.host_config().keywrite) {
    return {StatusCode::kNotConfigured, "Key-Write store not enabled"};
  }
  return query_precheck(key, opts);
}

Status keywrite_batch_precheck(const Backend& backend,
                               const std::vector<proto::TelemetryKey>& keys,
                               const QueryOptions& opts) {
  if (!backend.host_config().keywrite) {
    return {StatusCode::kNotConfigured, "Key-Write store not enabled"};
  }
  for (const auto& key : keys) {
    if (auto status = query_precheck(key, opts); !status.ok()) return status;
  }
  return Status::Ok();
}

Status counter_precheck(const Backend& backend,
                        const proto::TelemetryKey& key,
                        const QueryOptions& opts) {
  if (!backend.host_config().keyincrement) {
    return {StatusCode::kNotConfigured, "Key-Increment store not enabled"};
  }
  return query_precheck(key, opts);
}

Status postcard_precheck(const Backend& backend,
                         const proto::TelemetryKey& key,
                         const QueryOptions& opts) {
  if (!backend.host_config().postcarding) {
    return {StatusCode::kNotConfigured, "Postcarding store not enabled"};
  }
  return query_precheck(key, opts);
}

// The merge and range-resolution core lives in dtalib/query_core.h so
// FabricBackend resolves through the exact same path (the conformance
// kit's byte-equality depends on there being only one).
using internal::merge_counter;
using internal::merge_keywrite;
using internal::merge_keywrite_many;
using internal::merge_keywrite_view;
using internal::merge_path;
using internal::range_precheck;
using internal::resolve_range;

}  // namespace

proto::TelemetryKey flow_key(const net::FiveTuple& flow) {
  const auto bytes = flow.to_bytes();
  return proto::TelemetryKey::from(
      common::ByteSpan(bytes.data(), bytes.size()));
}

// --- Backend (shared event-query path) ---------------------------------------

// Implemented once over list_snapshot(): the snapshot carries the
// delivered-entry head of every local list, so cursor arithmetic is
// identical on every backend (and the ReplayBackend gets it for free
// through its delegated list_snapshot).
Expected<EventBatch> Backend::events_query(std::uint32_t list,
                                           std::uint64_t cursor,
                                           std::uint64_t max_entries,
                                           const QueryOptions& opts) {
  auto slice = list_snapshot(list, opts);
  if (!slice.ok()) return slice.status();
  const collector::StoreSnapshot& snap = *slice->snap;
  const std::uint64_t head = snap.append_head(slice->shard_list);
  if (cursor > head) {
    return Status(StatusCode::kOutOfRange,
                  "event cursor " + std::to_string(cursor) +
                      " is ahead of list " + std::to_string(list) +
                      "'s delivered head " + std::to_string(head));
  }
  // The ring only holds the last `capacity` entries; anything the
  // cursor asked for below that line was overwritten -> `dropped`.
  const std::uint64_t capacity = snap.append_entries_per_list();
  const std::uint64_t oldest = head > capacity ? head - capacity : 0;
  const std::uint64_t start = std::max(cursor, oldest);
  const std::uint64_t n = std::min(max_entries, head - start);
  EventBatch out;
  out.dropped = start - cursor;
  out.entries = snap.append_read_range(slice->shard_list, start, n);
  out.next.position = start + n;
  out.remaining = head - out.next.position;
  return out;
}

// --- ClusterBackend ----------------------------------------------------------

ClusterBackend::ClusterBackend(ClusterRuntimeConfig config)
    : cluster_(std::move(config)) {}

Status ClusterBackend::submit(proto::ParsedDta parsed,
                              const ReportOptions& opts) {
  if (auto status = validate_report(parsed, host_config(), num_lists());
      !status.ok()) {
    return status;
  }
  // Admission after validation: a malformed report never consumes
  // quota. Over-quota tenants get kResourceExhausted with the bucket's
  // refill horizon — never a silent drop.
  if (auto status =
          cluster_.tenants().admit_submit(opts.tenant, submit_ops(parsed));
      !status.ok()) {
    return status;
  }
  parsed.header.tenant = opts.tenant;
  if (opts.immediate) parsed.header.immediate = true;
  MutexLock lock(submit_mu_);
  cluster_.submit(std::move(parsed), opts.dst_ip);
  return Status::Ok();
}

Status ClusterBackend::flush() {
  MutexLock lock(submit_mu_);
  cluster_.flush();
  return Status::Ok();
}

void ClusterBackend::stop() {
  MutexLock lock(submit_mu_);
  cluster_.stop();
}

translator::HostRange ClusterBackend::candidate_hosts(
    const proto::TelemetryKey& key) const {
  // kByKeyHash: the owner alone (a dead owner means the partition is
  // lost); otherwise any host may hold the key.
  if (const auto owner = cluster_.selector().owner_host(key)) {
    return {*owner, 1};
  }
  return {0, cluster_.num_hosts()};
}

Expected<SnapshotPtr> ClusterBackend::acquire(std::uint32_t host,
                                              std::uint32_t shard,
                                              const QueryOptions& opts) {
  return acquire_snapshot(cluster_.host(host), shard, opts);
}

Expected<std::vector<SnapshotPtr>> ClusterBackend::key_snapshots(
    const proto::TelemetryKey& key, const QueryOptions& opts) {
  if (auto status = cluster_.tenants().admit_query(opts.tenant);
      !status.ok()) {
    return status;
  }
  const translator::HostRange hosts = candidate_hosts(key);
  const std::uint32_t shard = cluster_.selector().shard_within_host(key);
  std::vector<SnapshotPtr> snaps;
  snaps.reserve(hosts.count);
  for (std::uint32_t h = hosts.first; h < hosts.first + hosts.count; ++h) {
    if (cluster_.is_failed(h)) continue;
    auto snap = acquire(h, shard, opts);
    if (!snap.ok()) return snap.status();
    snaps.push_back(std::move(snap).value());
  }
  if (snaps.empty()) {
    return Status(StatusCode::kUnavailable,
                  "every candidate replica host is failed");
  }
  return snaps;
}

Expected<std::vector<std::vector<SnapshotPtr>>>
ClusterBackend::key_snapshots_batch(
    const std::vector<proto::TelemetryKey>& keys, const QueryOptions& opts) {
  if (auto status = cluster_.tenants().admit_query(
          opts.tenant, static_cast<std::uint32_t>(keys.size()));
      !status.ok()) {
    return status;
  }
  // One pin per (host, shard) for the whole batch.
  std::vector<std::vector<SnapshotPtr>> pinned(
      cluster_.num_hosts(),
      std::vector<SnapshotPtr>(cluster_.shards_per_host()));
  std::vector<std::vector<SnapshotPtr>> out;
  out.reserve(keys.size());
  for (const auto& key : keys) {
    const translator::HostRange hosts = candidate_hosts(key);
    const std::uint32_t shard = cluster_.selector().shard_within_host(key);
    std::vector<SnapshotPtr> snaps;
    snaps.reserve(hosts.count);
    for (std::uint32_t h = hosts.first; h < hosts.first + hosts.count; ++h) {
      if (cluster_.is_failed(h)) continue;
      if (!pinned[h][shard]) {
        auto snap = acquire(h, shard, opts);
        if (!snap.ok()) return snap.status();
        pinned[h][shard] = std::move(snap).value();
      }
      snaps.push_back(pinned[h][shard]);
    }
    if (snaps.empty()) {
      return Status(StatusCode::kUnavailable,
                    "every candidate replica host is failed");
    }
    out.push_back(std::move(snaps));
  }
  return out;
}

Expected<Backend::ListSlice> ClusterBackend::list_snapshot(
    std::uint32_t list, const QueryOptions& opts) {
  if (auto status = cluster_.tenants().admit_query(opts.tenant);
      !status.ok()) {
    return status;
  }
  if (!host_config().append) {
    return Status(StatusCode::kNotConfigured, "Append store not enabled");
  }
  if (list >= num_lists()) {
    return Status(StatusCode::kUnknownList, "Append list id out of range");
  }
  const auto& selector = cluster_.selector();
  std::optional<std::uint32_t> host;
  switch (selector.policy()) {
    case translator::PartitionPolicy::kByKeyHash:
      // The partition owner — or nobody, if it died with the list.
      host = selector.owner_host_of_list(list);
      if (host && cluster_.is_failed(*host)) host.reset();
      break;
    case translator::PartitionPolicy::kReplicate:
      // Replicas hold identical copies: first live one answers.
      for (std::uint32_t h = 0; h < cluster_.num_hosts(); ++h) {
        if (!cluster_.is_failed(h)) {
          host = h;
          break;
        }
      }
      break;
    case translator::PartitionPolicy::kByDestinationIp: {
      // Only the host the reporter addressed holds the list.
      const std::uint32_t h = cluster_.host_of_ip(opts.dst_ip);
      if (!cluster_.is_failed(h)) host = h;
      break;
    }
  }
  if (!host) {
    return Status(StatusCode::kUnavailable,
                  "the list's owning host is failed");
  }
  const std::uint32_t host_list = selector.host_local_list(list);
  const std::uint32_t shard = selector.shard_within_host_of_list(host_list);
  auto snap = acquire(*host, shard, opts);
  if (!snap.ok()) return snap.status();
  ListSlice slice;
  slice.snap = std::move(snap).value();
  slice.shard_list =
      common::list_local_id(host_list, cluster_.shards_per_host());
  return slice;
}

Expected<RangeResult> ClusterBackend::range_query(const RangeSpec& spec,
                                                  const QueryOptions& opts) {
  if (auto status = range_precheck(*this, spec, opts); !status.ok()) {
    return status;
  }
  if (auto status = cluster_.tenants().admit_query(opts.tenant);
      !status.ok()) {
    return status;
  }
  std::vector<std::uint32_t> live;
  for (std::uint32_t h = 0; h < cluster_.num_hosts(); ++h) {
    if (!cluster_.is_failed(h)) live.push_back(h);
  }
  if (live.empty()) {
    return Status(StatusCode::kUnavailable, "every collector host is failed");
  }
  // Pin one snapshot per live (host, shard), then catch that shard's
  // index up to the pinned generation: the returned version is then a
  // superset of the keys the snapshot holds, so no key the scan path
  // would return can be missing from the candidates.
  // Candidates are the union across hosts; each candidate then resolves
  // over exactly its candidate_hosts' pinned snapshots — the same
  // replica set, same merge, as a point get of that key. A key in host
  // h's shard-s index sits on shard s wherever it landed: under
  // kByKeyHash on h alone, its owner (a dead owner's index is not read,
  // so its lost partition yields no candidates, as point gets fail);
  // otherwise on every live host.
  const std::uint32_t shards = cluster_.shards_per_host();
  std::vector<std::vector<SnapshotPtr>> replicas(shards);
  internal::IndexVersions indexes;
  indexes.reserve(live.size() * shards);
  for (const std::uint32_t h : live) {
    for (std::uint32_t s = 0; s < shards; ++s) {
      auto snap = acquire(h, s, opts);
      if (!snap.ok()) return snap.status();
      indexes.push_back(
          cluster_.host(h).index_shard(s, snap.value()->generation()));
      replicas[s].push_back(std::move(snap).value());
    }
  }
  const bool owned = cluster_.selector().policy() ==
                     translator::PartitionPolicy::kByKeyHash;
  std::vector<std::vector<SnapshotPtr>> sets;
  sets.reserve(indexes.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::uint32_t s = 0; s < shards; ++s) {
      sets.push_back(owned ? std::vector<SnapshotPtr>{replicas[s][i]}
                           : replicas[s]);
    }
  }
  return resolve_range(indexes, sets, spec, opts);
}

const collector::CollectorRuntimeConfig& ClusterBackend::host_config() const {
  return cluster_.config().host;
}

std::uint32_t ClusterBackend::num_lists() const {
  if (!host_config().append) return 0;
  const std::uint32_t per_host = host_config().append->num_lists;
  // Only kByKeyHash partitions the list space across hosts (the global
  // id folds by the host count); the other policies give every host the
  // full space.
  if (cluster_.selector().policy() == translator::PartitionPolicy::kByKeyHash) {
    return per_host * cluster_.num_hosts();
  }
  return per_host;
}

double ClusterBackend::modeled_verbs_per_sec() const {
  return cluster_.modeled_aggregate_verbs_per_sec();
}

Status ClusterBackend::fail_host(std::uint32_t host) {
  if (host >= cluster_.num_hosts()) {
    return {StatusCode::kInvalidArgument,
            "host index " + std::to_string(host) + " outside [0, " +
                std::to_string(cluster_.num_hosts()) + ")"};
  }
  cluster_.fail_host(host);
  return Status::Ok();
}

// --- KeyWriteTable -----------------------------------------------------------

Status KeyWriteTable::put(const proto::TelemetryKey& key,
                          common::ByteSpan value, std::uint8_t redundancy,
                          const ReportOptions& opts) {
  return backend_->submit(reports::keywrite(key, value, redundancy), opts);
}

Status KeyWriteTable::put_u32(const proto::TelemetryKey& key,
                              std::uint32_t value, std::uint8_t redundancy,
                              const ReportOptions& opts) {
  return backend_->submit(reports::keywrite_u32(key, value, redundancy),
                          opts);
}

Expected<common::Bytes> KeyWriteTable::get(const proto::TelemetryKey& key,
                                           const QueryOptions& opts) const {
  if (auto status = keywrite_precheck(*backend_, key, opts); !status.ok()) {
    return status;
  }
  auto snaps = backend_->key_snapshots(key, opts);
  if (!snaps.ok()) return snaps.status();
  return merge_keywrite(*snaps, key, opts);
}

Expected<ByteView> KeyWriteTable::get_view(const proto::TelemetryKey& key,
                                           const QueryOptions& opts) const {
  if (auto status = keywrite_precheck(*backend_, key, opts); !status.ok()) {
    return status;
  }
  auto snaps = backend_->key_snapshots(key, opts);
  if (!snaps.ok()) return snaps.status();
  return merge_keywrite_view(*snaps, key, opts);
}

Expected<std::uint32_t> KeyWriteTable::get_u32(const proto::TelemetryKey& key,
                                               const QueryOptions& opts) const {
  auto value = get(key, opts);
  if (!value.ok()) return value.status();
  if (value->size() < 4) {
    return Status(StatusCode::kOutOfRange, "stored value narrower than 4B");
  }
  return common::load_u32(value->data());
}

Expected<std::vector<std::optional<common::Bytes>>> KeyWriteTable::get_many(
    const std::vector<proto::TelemetryKey>& keys,
    const QueryOptions& opts) const {
  auto views = get_many_views(keys, opts);
  if (!views.ok()) return views.status();
  std::vector<std::optional<common::Bytes>> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if ((*views)[i]) out[i] = (*views)[i]->to_bytes();
  }
  return out;
}

Expected<std::vector<std::optional<ByteView>>> KeyWriteTable::get_many_views(
    const std::vector<proto::TelemetryKey>& keys,
    const QueryOptions& opts) const {
  if (auto status = keywrite_batch_precheck(*backend_, keys, opts);
      !status.ok()) {
    return status;
  }
  auto batch = backend_->key_snapshots_batch(keys, opts);
  if (!batch.ok()) return batch.status();
  return merge_keywrite_many(*batch, keys, opts);
}

// --- CounterTable ------------------------------------------------------------

Status CounterTable::add(const proto::TelemetryKey& key, std::uint64_t delta,
                         std::uint8_t redundancy, const ReportOptions& opts) {
  return backend_->submit(reports::keyincrement(key, delta, redundancy),
                          opts);
}

Expected<std::uint64_t> CounterTable::get(const proto::TelemetryKey& key,
                                          const QueryOptions& opts) const {
  if (auto status = counter_precheck(*backend_, key, opts); !status.ok()) {
    return status;
  }
  auto snaps = backend_->key_snapshots(key, opts);
  if (!snaps.ok()) return snaps.status();
  return merge_counter(*snaps, key, opts);
}

// --- AppendList --------------------------------------------------------------

Status AppendList::append(common::ByteSpan entry, const ReportOptions& opts) {
  return backend_->submit(reports::append(list_, entry), opts);
}

Status AppendList::append_u32(std::uint32_t value, const ReportOptions& opts) {
  return backend_->submit(reports::append_u32(list_, value), opts);
}

// --- PostcardStream ----------------------------------------------------------

Status PostcardStream::report(const proto::TelemetryKey& key,
                              std::uint8_t hop, std::uint8_t path_len,
                              std::uint32_t value, std::uint8_t redundancy,
                              const ReportOptions& opts) {
  return backend_->submit(
      reports::postcard(key, hop, path_len, value, redundancy), opts);
}

Expected<std::vector<std::uint32_t>> PostcardStream::path_of(
    const proto::TelemetryKey& key, const QueryOptions& opts) const {
  if (auto status = postcard_precheck(*backend_, key, opts); !status.ok()) {
    return status;
  }
  auto snaps = backend_->key_snapshots(key, opts);
  if (!snaps.ok()) return snaps.status();
  return merge_path(*snaps, key, opts);
}

// --- query builders ----------------------------------------------------------

Expected<RangeResult> RangeQuery::run() const {
  return backend_->range_query(spec_, opts_);
}

Expected<CounterRangeResult> CounterRangeQuery::run() const {
  auto raw = backend_->range_query(spec_, opts_);
  if (!raw.ok()) return raw.status();
  CounterRangeResult out;
  out.truncated = raw->truncated;
  out.next = raw->next;
  out.entries.reserve(raw->entries.size());
  for (const auto& entry : raw->entries) {
    CounterRangeEntry decoded;
    decoded.key = entry.key;
    // The backend carries counter estimates big-endian in 8 bytes.
    decoded.count =
        (static_cast<std::uint64_t>(common::load_u32(entry.value.data()))
         << 32) |
        common::load_u32(entry.value.data() + 4);
    out.entries.push_back(decoded);
  }
  return out;
}

Expected<EventBatch> EventQuery::run() const {
  return backend_->events_query(list_, cursor_, max_entries_, opts_);
}

// --- Client ------------------------------------------------------------------

Client Client::local(collector::CollectorRuntimeConfig config) {
  return Client(std::make_unique<ClusterBackend>(ClusterRuntimeConfig{
      std::move(config), 1, translator::PartitionPolicy::kByKeyHash}));
}

Client Client::cluster(ClusterRuntimeConfig config) {
  return Client(std::make_unique<ClusterBackend>(std::move(config)));
}

Client::Client(std::unique_ptr<Backend> backend)
    : backend_(std::move(backend)) {}

Client::~Client() {
  if (backend_) backend_->stop();
}

Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;

Status Client::report(proto::Report report, const ReportOptions& opts) {
  return backend_->submit(reports::wrap(std::move(report), opts.immediate),
                          opts);
}

Status Client::flush() { return backend_->flush(); }

void Client::stop() { backend_->stop(); }

ClientStats Client::stats() const { return backend_->stats(); }

double Client::modeled_verbs_per_sec() const {
  return backend_->modeled_verbs_per_sec();
}

Status Client::fail_host(std::uint32_t host) {
  return backend_->fail_host(host);
}

collector::CollectorRuntime* Client::local_runtime() {
  ClusterRuntime* cluster = cluster_runtime();
  return cluster && cluster->num_hosts() == 1 ? &cluster->host(0) : nullptr;
}

ClusterRuntime* Client::cluster_runtime() {
  auto* cluster = dynamic_cast<ClusterBackend*>(backend_.get());
  return cluster ? &cluster->cluster() : nullptr;
}

}  // namespace dta
