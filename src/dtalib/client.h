// dtalib v2 — dta::Client, the typed, backend-agnostic client API.
//
// The paper's collector-side library ("dtalib") is the surface
// applications program against. Client exposes the four DTA primitives
// as typed handles:
//
//   KeyWriteTable   — redundancy-aware per-key values (put/get)
//   CounterTable    — Key-Increment CMS counters (add/get)
//   AppendList      — event-stream ring lists (append/read)
//   PostcardStream  — per-flow path aggregation (report/path_of)
//
// over a Backend interface, so callers never see host/shard topology.
// The in-process implementation is ClusterBackend: it wraps
// ClusterRuntime (one host or N, each a sharded CollectorRuntime with
// its per-shard translator engines), routes each report to its host by
// partition policy and fails over between replicas. Client::local() is
// its one-host form. FabricBackend (fabric_backend.h) runs the wire
// path and ReplayBackend (replay_backend.h) records any backend.
//
// Every query resolves against immutable StoreSnapshots acquired
// through one path (the generation-stamped SnapshotCache), and every
// per-call freshness knob — redundancy, consensus threshold,
// read-your-submits floor, staleness budget — travels in one
// QueryOptions struct. Failures come back as dta::Status /
// dta::Expected<T> (see status.h) instead of the pre-v2 bool/optional
// mix: distinct codes for "not reported", "replicas disagree", "replica
// set dead", "list does not exist", "freshness floor unsatisfiable".
//
// Multi-tenancy: every submit and query bills a TenantId (options
// structs, default tenant 0). The backend's TenantRegistry enforces
// per-tenant token-bucket quotas at the submit/query seams — over
// quota means kResourceExhausted with a retry-after hint, never a
// silent drop — keeps per-tenant admitted/shed counters, and serves
// per-tenant QueryOptions defaults (Client::tenant_options()).
//
// Threading contract: report()/flush()/stop() are serialized behind a
// backend mutex, so multiple tenants may submit from concurrent
// threads. Queries may run from any thread and resolve on it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "collector/runtime.h"
#include "common/lifetime_annotations.h"
#include "common/thread_annotations.h"
#include "dtalib/byte_view.h"
#include "dtalib/cluster_runtime.h"
#include "dtalib/options.h"
#include "dtalib/query.h"
#include "dtalib/status.h"
#include "dtalib/tenant_registry.h"
#include "net/flow.h"

namespace dta {

// The canonical telemetry key of a flow (13B wire 5-tuple).
proto::TelemetryKey flow_key(const net::FiveTuple& flow);

// The one validation gate every Backend runs before a report touches
// its router: a distinct Status per failure class (geometry mismatch,
// empty key, redundancy out of range, unknown list, ...). Exported so
// out-of-file backends (FabricBackend, wrappers) reject the same
// inputs with the same codes as ClusterBackend.
Status validate_report(const proto::ParsedDta& parsed,
                       const collector::CollectorRuntimeConfig& config,
                       std::uint32_t num_lists);

// Quota weight of one report, billed at admission by every Backend:
// packed Append entries at their true count, everything else one op.
std::uint32_t submit_ops(const proto::ParsedDta& parsed);

// The deployment seam under Client. Every implementation submits
// through its runtime's router and serves queries from immutable
// per-shard snapshots acquired through one bounded-staleness path.
class Backend {
 public:
  using SnapshotPtr = std::shared_ptr<const collector::StoreSnapshot>;

  // One Append list slice: the snapshot holding the list and the
  // shard-local id to read it under.
  struct ListSlice {
    SnapshotPtr snap;
    std::uint32_t shard_list = 0;
  };

  virtual ~Backend() = default;

  // Validates the report against the configured store geometry, admits
  // it against the submitting tenant's quota (kResourceExhausted with
  // a retry-after hint when exhausted), then routes and submits it.
  // Thread-safe: concurrent submitters are serialized internally.
  virtual Status submit(proto::ParsedDta parsed,
                        const ReportOptions& opts) = 0;
  virtual Status flush() = 0;
  virtual void stop() = 0;

  // One snapshot of `key`'s owning shard on every live candidate host
  // (the owner under kByKeyHash, so exactly one on a one-host client;
  // the replica set otherwise). kUnavailable when no candidate
  // survives.
  virtual Expected<std::vector<SnapshotPtr>> key_snapshots(
      const proto::TelemetryKey& key, const QueryOptions& opts) = 0;

  // Batch variant holding one generation pin: every (host, shard)
  // snapshot is acquired at most once, so a multi-shard batch can never
  // straddle a flush.
  virtual Expected<std::vector<std::vector<SnapshotPtr>>> key_snapshots_batch(
      const std::vector<proto::TelemetryKey>& keys,
      const QueryOptions& opts) = 0;

  // The snapshot holding global Append list `list` (host chosen by
  // policy; replica failover under kReplicate) and its shard-local id.
  virtual Expected<ListSlice> list_snapshot(std::uint32_t list,
                                            const QueryOptions& opts) = 0;

  // Indexed range query (dtalib/query.h): candidate keys come from the
  // per-shard secondary indexes, every candidate resolves through the
  // same snapshot point lookups the get() path uses — results are
  // byte-identical to scanning a key catalog, in O(log n + results).
  virtual Expected<RangeResult> range_query(const RangeSpec& spec,
                                            const QueryOptions& opts) = 0;

  // Cursor-based event read over Append list `list`: entries from
  // absolute position `cursor` up to the snapshot's delivered head
  // (at most `max_entries`), with ring-overwrite loss reported as
  // EventBatch::dropped. Implemented once over list_snapshot(); the
  // snapshot carries the delivered-entry heads.
  virtual Expected<EventBatch> events_query(std::uint32_t list,
                                            std::uint64_t cursor,
                                            std::uint64_t max_entries,
                                            const QueryOptions& opts);

  // The per-host store/runtime geometry (identical across hosts).
  virtual const collector::CollectorRuntimeConfig& host_config() const = 0;
  // Size of the backend-global Append list id space.
  virtual std::uint32_t num_lists() const = 0;

  virtual ClientStats stats() const = 0;
  virtual double modeled_verbs_per_sec() const = 0;

  // The backend's tenant plane: quota registration, admission
  // counters, per-tenant query defaults. Thread-safe.
  virtual TenantRegistry& tenants() = 0;

  // Simulates a collector host death (resiliency tests/drills); safe
  // to call while other threads submit and query. A host outside the
  // backend -> kInvalidArgument; a backend with no host to lose
  // (FabricBackend) -> kUnsupported. Failing a one-host client's host 0
  // leaves every query kUnavailable.
  virtual Status fail_host(std::uint32_t host) = 0;
};

// --- typed primitive handles -------------------------------------------------
// Lightweight views over the Client's backend; valid while the Client
// lives. Copyable — hand them to the subsystem that owns the workload.

class KeyWriteTable {
 public:
  explicit KeyWriteTable(Backend* backend) : backend_(backend) {}

  Status put(const proto::TelemetryKey& key, common::ByteSpan value,
             std::uint8_t redundancy = 2, const ReportOptions& opts = {});
  Status put_u32(const proto::TelemetryKey& key, std::uint32_t value,
                 std::uint8_t redundancy = 2, const ReportOptions& opts = {});

  // Redundancy-aware get: Algorithm 2 vote within each snapshot,
  // best-vote merge across replica hosts. get() copies the winning
  // value out (the bytes outlive everything); get_view() is the
  // zero-copy core it wraps — the returned ByteView points into the
  // winning snapshot's memory and keeps that snapshot pinned alive, so
  // cached-snapshot queries pay no per-result memcpy. Use to_bytes()
  // on the view to detach.
  Expected<common::Bytes> get(const proto::TelemetryKey& key,
                              const QueryOptions& opts = {}) const;
  Expected<ByteView> get_view(const proto::TelemetryKey& key,
                              const QueryOptions& opts = {}) const;
  Expected<std::uint32_t> get_u32(const proto::TelemetryKey& key,
                                  const QueryOptions& opts = {}) const;

  // Batch get under one generation pin; per-key misses are nullopt
  // (structural failures surface on the outer Expected). Keys resolve
  // in groups, each key's slot lines prefetched in every snapshot of
  // its set before the group votes; entry i equals get(keys[i]) where
  // that is ok.
  Expected<std::vector<std::optional<common::Bytes>>> get_many(
      const std::vector<proto::TelemetryKey>& keys,
      const QueryOptions& opts = {}) const;
  // Zero-copy batch: the whole batch shares the per-shard snapshot
  // pins, so N hits against one cached shard cost zero copies total.
  Expected<std::vector<std::optional<ByteView>>> get_many_views(
      const std::vector<proto::TelemetryKey>& keys,
      const QueryOptions& opts = {}) const;

 private:
  Backend* backend_;
};

class CounterTable {
 public:
  explicit CounterTable(Backend* backend) : backend_(backend) {}

  Status add(const proto::TelemetryKey& key, std::uint64_t delta,
             std::uint8_t redundancy = 2, const ReportOptions& opts = {});

  // CMS estimate: min over the N counters within a snapshot, max across
  // replica hosts (each replica is a one-sided overestimate of the same
  // reports, so the max never undercounts a survivor).
  Expected<std::uint64_t> get(const proto::TelemetryKey& key,
                              const QueryOptions& opts = {}) const;

 private:
  Backend* backend_;
};

class AppendList {
 public:
  AppendList(Backend* backend, std::uint32_t list)
      : backend_(backend), list_(list) {}

  std::uint32_t id() const { return list_; }

  Status append(common::ByteSpan entry, const ReportOptions& opts = {});
  Status append_u32(std::uint32_t value, const ReportOptions& opts = {});

  // Reads go through the cursor-based event query —
  // client.events(list).since(cursor).max(n).run() — which can resume
  // and detect ring overwrite. (The positionless read()/read_views()/
  // read_async() family was deprecated for one release and is removed;
  // see the README migration table.)

 private:
  Backend* backend_;
  std::uint32_t list_;
};

class PostcardStream {
 public:
  explicit PostcardStream(Backend* backend) : backend_(backend) {}

  Status report(const proto::TelemetryKey& key, std::uint8_t hop,
                std::uint8_t path_len, std::uint32_t value,
                std::uint8_t redundancy = 1, const ReportOptions& opts = {});

  // Chunk-vote path decode; replica hosts must agree (-> kConflict).
  // Postcarding defaults to N=1, hence the dedicated default options.
  Expected<std::vector<std::uint32_t>> path_of(
      const proto::TelemetryKey& key,
      const QueryOptions& opts = path_defaults()) const;

  static QueryOptions path_defaults() {
    QueryOptions opts;
    opts.redundancy = 1;
    return opts;
  }

 private:
  Backend* backend_;
};

// --- the facade --------------------------------------------------------------

class Client {
 public:
  // One collector host: a one-host ClusterBackend (kByKeyHash), its
  // sharded CollectorRuntime reachable through local_runtime().
  static Client local(collector::CollectorRuntimeConfig config);
  // N hosts x M shards, each report routed to its host by policy.
  static Client cluster(ClusterRuntimeConfig config);
  // Bring-your-own Backend (tests, future remote/replay backends).
  explicit Client(std::unique_ptr<Backend> backend);

  ~Client();
  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Generic typed-report ingest (the handles call this under the hood;
  // integrations with their own report generators use it directly).
  Status report(proto::Report report, const ReportOptions& opts = {});

  // Barrier: everything reported is queryable afterwards.
  Status flush();
  // Flushes and joins the backend's pipelines. Idempotent.
  void stop();

  // Handles and builders borrow the Client's backend: one that outlives
  // the Client dereferences a destroyed Backend (lifetimebound flags
  // handles built from a temporary Client under clang).
  KeyWriteTable keywrite() DTA_LIFETIMEBOUND {
    return KeyWriteTable(backend_.get());
  }
  CounterTable counters() DTA_LIFETIMEBOUND {
    return CounterTable(backend_.get());
  }
  AppendList list(std::uint32_t id) DTA_LIFETIMEBOUND {
    return AppendList(backend_.get(), id);
  }
  PostcardStream postcards() DTA_LIFETIMEBOUND {
    return PostcardStream(backend_.get());
  }

  // Typed query builders (dtalib/query.h). The handle argument selects
  // the primitive; the builder starts from default QueryOptions (or a
  // tenant's defaults via .options(tenant_options(t))):
  //   client.range(client.keywrite()).from(k1).to(k2).limit(n).run()
  //   client.range(client.counters()).from(k1).to(k2).run()
  //   client.events(client.list(3)).since(cursor).max(64).run()
  RangeQuery range(const KeyWriteTable&) DTA_LIFETIMEBOUND {
    return RangeQuery(backend_.get(), QueryOptions{});
  }
  CounterRangeQuery range(const CounterTable&) DTA_LIFETIMEBOUND {
    return CounterRangeQuery(backend_.get(), QueryOptions{});
  }
  EventQuery events(const AppendList& list) DTA_LIFETIMEBOUND {
    return EventQuery(backend_.get(), list.id(), QueryOptions{});
  }
  EventQuery events(std::uint32_t list) DTA_LIFETIMEBOUND {
    return EventQuery(backend_.get(), list, QueryOptions{});
  }

  ClientStats stats() const;
  double modeled_verbs_per_sec() const;
  Status fail_host(std::uint32_t host);

  // The tenant plane: register quotas and per-tenant query defaults,
  // read per-tenant admission counters.
  TenantRegistry& tenants() DTA_LIFETIMEBOUND { return backend_->tenants(); }
  // The registered QueryOptions defaults of `tenant` (tenant field
  // stamped) — the starting point for that tenant's per-call options.
  QueryOptions tenant_options(TenantId tenant) {
    return backend_->tenants().query_defaults(tenant);
  }

  Backend& backend() DTA_LIFETIMEBOUND { return *backend_; }
  const Backend& backend() const DTA_LIFETIMEBOUND { return *backend_; }

  // Escape hatches to the wrapped runtime (benches asserting on cache
  // internals, tests poking shard state): the ClusterRuntime of a
  // ClusterBackend, and the CollectorRuntime of a one-host one.
  // nullptr when the backend is not of that kind.
  collector::CollectorRuntime* local_runtime();
  ClusterRuntime* cluster_runtime();

 private:
  std::unique_ptr<Backend> backend_;
};

// --- backend implementations -------------------------------------------------

// The in-process backend: one collector host (Client::local) or N.
class ClusterBackend final : public Backend {
 public:
  explicit ClusterBackend(ClusterRuntimeConfig config);

  ClusterRuntime& cluster() { return cluster_; }

  Status submit(proto::ParsedDta parsed, const ReportOptions& opts) override;
  Status flush() override;
  void stop() override;
  Expected<std::vector<SnapshotPtr>> key_snapshots(
      const proto::TelemetryKey& key, const QueryOptions& opts) override;
  Expected<std::vector<std::vector<SnapshotPtr>>> key_snapshots_batch(
      const std::vector<proto::TelemetryKey>& keys,
      const QueryOptions& opts) override;
  Expected<ListSlice> list_snapshot(std::uint32_t list,
                                    const QueryOptions& opts) override;
  Expected<RangeResult> range_query(const RangeSpec& spec,
                                    const QueryOptions& opts) override;
  const collector::CollectorRuntimeConfig& host_config() const override;
  std::uint32_t num_lists() const override;
  ClientStats stats() const override { return cluster_.stats(); }
  double modeled_verbs_per_sec() const override;
  TenantRegistry& tenants() override { return cluster_.tenants(); }
  Status fail_host(std::uint32_t host) override;

 private:
  // The hosts that may hold `key`: the owner under kByKeyHash, every
  // host otherwise. Callers skip the failed ones.
  translator::HostRange candidate_hosts(const proto::TelemetryKey& key) const;
  Expected<SnapshotPtr> acquire(std::uint32_t host, std::uint32_t shard,
                                const QueryOptions& opts);

  ClusterRuntime cluster_;
  // Serializes submit/flush/stop onto the cluster's single-producer
  // ingest contract, so tenants may submit from concurrent threads.
  // (cluster_ is not GUARDED_BY: the query tier reads it lock-free
  // through immutable snapshots by design.)
  Mutex submit_mu_;
};

}  // namespace dta
