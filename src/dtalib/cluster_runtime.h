// ClusterRuntime — the in-process collector deployment: one host or N
// (paper §7).
//
// The collection ceiling is the collector NIC message rate; DTA raises
// it by partitioning reports, and this class composes the two partition
// dimensions: N collector *hosts* (each its own NIC/QP set) x M
// *shards* per host (the intra-host CollectorRuntime tier; each shard
// executes its verbs directly on its own queue pair, so no path holds a
// translator-side RDMA connection). The translator-side selector
// (translator::CollectorSelector) picks the host by partition policy —
// kByKeyHash, kByDestinationIp or kReplicate — and the host's
// CollectorRuntime::submit picks the shard by key CRC, so every policy
// composes with intra-host sharding and aggregate capacity scales as
// N x M. One host (dta::Client::local) is the one-partition case.
//
// Resiliency: under kReplicate every host holds a full copy;
// fail_host() simulates a collector death (it stops receiving, its
// stores stay readable) and the serving plane (dta::Client's replica
// merge) answers from the surviving replicas.
//
// Threading contract: submit()/flush()/stop() from one control thread
// (the backends serialize concurrent submitters behind a mutex);
// queries resolve on any thread against immutable snapshots.
// fail_host() may run on any thread, concurrently with both: the
// per-host failed flags are atomics, read once per host by submit and
// by every query.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "collector/runtime.h"
#include "dtalib/tenant_registry.h"
#include "translator/collector_selector.h"

namespace dta {

// Per-host stats row of ClientStats: ingest counters + the host's
// aggregated translator-engine counters, plus liveness — the whole
// observable state of one collector host, so callers stop poking
// host(h) internals one by one.
struct ClusterHostStats {
  collector::CollectorRuntimeStats ingest;
  collector::TranslationStats translation;
  collector::SnapshotCacheStats snapshots;
  bool failed = false;
};

// Uniform stats over every backend (dta::Client::stats()): totals over
// *live* hosts (the scale-out headline excludes dead capacity) plus the
// per-host breakdown over every host, dead ones included (their
// pre-failure counters stay readable; one row for a one-host client).
struct ClientStats {
  collector::CollectorRuntimeStats ingest;
  collector::TranslationStats translation;
  std::uint32_t num_hosts = 1;
  std::uint32_t live_hosts = 1;
  std::vector<ClusterHostStats> per_host;
  // One row per tenant ever seen: serving-plane admission counters
  // (submits/queries admitted and shed) from the tenant registry, plus
  // the collector-tier ingest attributed to the tenant across every
  // host (dead ones included).
  std::vector<TenantStatsRow> per_tenant;
};

struct ClusterRuntimeConfig {
  // Per-host geometry: shard count, store setups, NIC params, batching.
  // Every host is configured identically (the paper's partitioning
  // assumes interchangeable collectors).
  collector::CollectorRuntimeConfig host;
  std::uint32_t num_hosts = 2;
  translator::PartitionPolicy policy =
      translator::PartitionPolicy::kByKeyHash;
};

class ClusterRuntime {
 public:
  explicit ClusterRuntime(ClusterRuntimeConfig config);
  ~ClusterRuntime();

  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  // Routes one report to its host(s) and submits it to each live one;
  // the host runtime places it on a shard. `dst_ip` is the report's IP
  // destination (kByDestinationIp routes on it, see host_of_ip). Append
  // list ids are folded to the host-local id space under kByKeyHash,
  // mirroring the intra-host fold. The last host takes the report
  // itself; under kReplicate every other host gets a copy.
  void submit(proto::ParsedDta&& parsed, std::uint32_t dst_ip = 0);

  // Barrier across every host (dead ones included: reports accepted
  // before the failure must still become queryable).
  void flush();

  // Flushes and joins all host pipelines. Idempotent.
  void stop();

  // Simulates a collector host failure: the host stops receiving new
  // reports, but its stores stay readable (the dead host's disks don't
  // vanish; the query tier just stops asking it). Also drops the dead
  // host's cached snapshots — cluster-tier cache coherence: a frozen
  // host must not keep answering through pre-failure cache entries.
  void fail_host(std::uint32_t host);
  bool is_failed(std::uint32_t host) const { return failed_[host].load(); }

  collector::CollectorRuntime& host(std::uint32_t h) { return *hosts_[h]; }
  std::uint32_t num_hosts() const {
    return static_cast<std::uint32_t>(hosts_.size());
  }
  std::uint32_t shards_per_host() const {
    return hosts_.front()->num_shards();
  }
  // The reporter-visible address of host `h` (the kByDestinationIp
  // partitioning handle).
  std::uint32_t host_ip(std::uint32_t h) const { return 0x0A0000C0 + h; }
  // The host a report addressed to `dst_ip` reaches under
  // kByDestinationIp, for submits and event reads alike: 0 means
  // host_ip(0), and any other address maps by its offset from
  // host_ip(0) modulo the host count, so host_ip(h) addresses host h
  // exactly, for any host count.
  std::uint32_t host_of_ip(std::uint32_t dst_ip) const {
    if (dst_ip == 0) return 0;
    return (dst_ip - host_ip(0)) % num_hosts();
  }

  // The configuration this cluster was built from.
  const ClusterRuntimeConfig& config() const { return config_; }

  // The cluster's tenant plane: quotas, admission counters, per-tenant
  // query defaults. ClusterBackend enforces against this instance so
  // stats() can report genuine per-tenant rows.
  TenantRegistry& tenants() { return tenants_; }
  const TenantRegistry& tenants() const { return tenants_; }

  const translator::CollectorSelector& selector() const { return selector_; }

  // Aggregate stats and modeled capacity over *live* hosts: the
  // scale-out headline is the sum of every live shard's NIC rate, so a
  // kByKeyHash cluster of N x M shards models ~N*M times a 1x1
  // deployment. stats() is what dta::Client::stats() returns.
  ClientStats stats() const;
  double modeled_aggregate_verbs_per_sec() const;

 private:
  ClusterRuntimeConfig config_;
  const translator::CollectorSelector selector_;
  std::vector<std::unique_ptr<collector::CollectorRuntime>> hosts_;
  std::vector<std::atomic<bool>> failed_;
  TenantRegistry tenants_;
};

}  // namespace dta
