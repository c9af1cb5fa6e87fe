// FabricBackend — the wire-fidelity dta::Backend.
//
// ClusterBackend routes submits through the sharded CollectorRuntime
// with direct verb execution; FabricBackend routes every submit through
// the real dta::Fabric loop instead: reporter UDP/DTA encapsulation, the
// reporter->translator link, the translator's per-primitive engines,
// RoCEv2 frame crafting, the rdma link, and the collector NIC executing
// verbs into registered memory. Every report a client submits is
// encoded and decoded exactly as it would be on the wire — this is the
// backend the conformance kit uses to prove the client API observes
// identical results over the modeled network as over direct execution.
// The translator's engines are the translator::EngineSet a shard runs,
// so stats() reads the same counters, and the event-cursor heads are
// its Append engine's emitted counts, as on a shard.
//
// Geometry: one collector host, one shard (the Fabric is the paper's
// single-collector topology). Queries serve from StoreSnapshots copied
// off the collector's RDMA service; since the fabric path is fully
// synchronous, a snapshot taken after a submit always covers it —
// read-your-submits holds trivially, and the only staleness failure is
// an unsatisfiable covers_seq floor.
//
// Threading: the Fabric object is single-threaded by construction, so
// submit/flush/snapshot-building serialize behind one mutex. Queries on
// an already-built snapshot are lock-free (immutable snapshot sharing,
// same as the other backends).
#pragma once

#include <memory>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "dtalib/client.h"
#include "dtalib/fabric.h"

namespace dta {

class FabricBackend : public Backend {
 public:
  // A Fabric with the stores, NIC and translator batching of `config`,
  // so it holds the same stores as a one-host ClusterBackend built from
  // the same config (the wire path has no sharding or worker threads).
  explicit FabricBackend(const collector::CollectorRuntimeConfig& config);

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
  ClientStats stats() const override;
  double modeled_verbs_per_sec() const override;
  TenantRegistry& tenants() override { return tenants_; }

  // A Fabric is one collector; there is no host to fail over to.
  Status fail_host(std::uint32_t host) override;

  Fabric& fabric() { return *fabric_; }

  // The index version range_query reads: the one built with the current
  // snapshot (building both if a submit landed since).
  std::shared_ptr<const collector::ShardIndexVersion> index();

 private:
  // The current snapshot, building it if any submit landed since the
  // last one.
  Expected<SnapshotPtr> acquire_locked(const QueryOptions& opts)
      DTA_REQUIRES(mu_);

  // The Fabric object is single-threaded; every use runs under mu_
  // except the fabric() escape hatch (single-threaded test poking, by
  // contract), which is why the pointer is not PT_GUARDED_BY.
  std::unique_ptr<Fabric> fabric_;
  // The fabric's store geometry restated as the per-host runtime config
  // every Backend exposes (num_shards = 1, wire execution). Immutable
  // after construction, read lock-free.
  collector::CollectorRuntimeConfig host_config_;
  TenantRegistry tenants_;

  mutable Mutex mu_;
  // reports accepted into the fabric
  std::uint64_t submitted_ DTA_GUARDED_BY(mu_) = 0;
  // submitted_ at snapshot build time
  std::uint64_t snapshot_covers_ DTA_GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ DTA_GUARDED_BY(mu_) = 0;
  SnapshotPtr snapshot_ DTA_GUARDED_BY(mu_);
  std::unordered_map<TenantId, std::uint64_t> tenant_ingest_
      DTA_GUARDED_BY(mu_);
  bool stopped_ DTA_GUARDED_BY(mu_) = false;

  // Secondary-index maintenance for the wire path. The fabric has no
  // deliver_batch seam to stage keys at, so the submit seam stages them
  // instead (full keys are in hand here, before the wire reduces them
  // to checksums); the staged keys fold in at the next snapshot
  // rebuild, so the published index generation always equals the
  // snapshot generation (the consistency contract the range path needs).
  std::vector<collector::IndexEntry> staged_keys_ DTA_GUARDED_BY(mu_);
  collector::ShardIndexBuilder index_builder_ DTA_GUARDED_BY(mu_);
  std::shared_ptr<const collector::ShardIndexVersion> index_
      DTA_GUARDED_BY(mu_);
};

}  // namespace dta
