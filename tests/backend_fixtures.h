// Shared factory for the backend-conformance kit: one place that knows
// how to build every dta::Backend kind from one store geometry, plus
// the store-image and query-result collectors the differential tests
// compare across backends.
//
// Four kinds:
//   kLocal   — Client::local's backend: a one-host ClusterBackend
//              (sharded CollectorRuntime, direct verb execution)
//   kCluster — 2 hosts x M shards, each report routed by policy
//   kFabric  — the wire-fidelity path (reporter UDP -> translator ->
//              RoCE -> collector NIC), one host, one shard
//   kReplay  — ReplayBackend recording over a one-host ClusterBackend
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "dtalib/client.h"
#include "dtalib/fabric_backend.h"
#include "dtalib/replay_backend.h"
#include "telemetry/trace.h"

namespace dta::testing {

enum class BackendKind { kLocal, kCluster, kFabric, kReplay };

inline const char* kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kLocal: return "Local";
    case BackendKind::kCluster: return "Cluster";
    case BackendKind::kFabric: return "Fabric";
    case BackendKind::kReplay: return "Replay";
  }
  return "?";
}

inline std::vector<BackendKind> all_backend_kinds() {
  return {BackendKind::kLocal, BackendKind::kCluster, BackendKind::kFabric,
          BackendKind::kReplay};
}

// The conformance store geometry (the client_api_test config, with the
// shard count as a knob: the cross-backend differential tests use
// num_shards = 1 so every backend — the Fabric is single-shard by
// construction — has byte-identical store geometry).
inline collector::CollectorRuntimeConfig conformance_host_config(
    collector::ThreadMode mode = collector::ThreadMode::kInline,
    std::uint32_t num_shards = 2) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = num_shards;
  config.thread_mode = mode;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  config.keywrite = kw;
  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;
  collector::AppendSetup ap;
  ap.num_lists = 8;
  ap.entries_per_list = 256;
  ap.entry_bytes = 4;
  config.append = ap;
  config.append_batch_size = 1;
  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 14;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 4096; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  return config;
}

// The backend Client::local builds: one host, key-hash placement.
inline std::unique_ptr<Backend> make_local_backend(
    const collector::CollectorRuntimeConfig& config) {
  return std::make_unique<ClusterBackend>(ClusterRuntimeConfig{
      config, 1, translator::PartitionPolicy::kByKeyHash});
}

inline std::unique_ptr<Backend> make_backend(
    BackendKind kind, const collector::CollectorRuntimeConfig& config,
    translator::PartitionPolicy policy =
        translator::PartitionPolicy::kReplicate) {
  switch (kind) {
    case BackendKind::kLocal:
      return make_local_backend(config);
    case BackendKind::kCluster: {
      ClusterRuntimeConfig cluster;
      cluster.num_hosts = 2;
      cluster.policy = policy;
      cluster.host = config;
      return std::make_unique<ClusterBackend>(cluster);
    }
    case BackendKind::kFabric:
      // The Fabric is inherently synchronous and single-shard; the
      // thread mode and shard count of `config` do not apply to it.
      return std::make_unique<FabricBackend>(config);
    case BackendKind::kReplay:
      return std::make_unique<ReplayBackend>(make_local_backend(config));
  }
  return nullptr;
}

inline Client make_client(BackendKind kind,
                          collector::ThreadMode mode =
                              collector::ThreadMode::kInline,
                          translator::PartitionPolicy policy =
                              translator::PartitionPolicy::kReplicate) {
  return Client(make_backend(kind, conformance_host_config(mode), policy));
}

// How many copies of each report the backend ingests (kReplicate
// clusters ingest one per host).
inline std::uint64_t ingest_copies(BackendKind kind) {
  return kind == BackendKind::kCluster ? 2u : 1u;
}

// --- store images -----------------------------------------------------------
// Every registered store region of every shard/host of the backend,
// deep-copied, in a deterministic order — the byte-level oracle of the
// determinism tests: two replays of the same trace must produce equal
// images, memcmp'd region by region.

inline void append_snapshot_images(const collector::StoreSnapshot& snap,
                                   std::vector<common::Bytes>& out) {
  const rdma::MemoryRegion* regions[] = {
      snap.keywrite_mem(), snap.keyincrement_mem(), snap.append_mem(),
      snap.postcarding_mem()};
  for (const rdma::MemoryRegion* region : regions) {
    if (!region) {
      out.emplace_back();
      continue;
    }
    const std::uint8_t* data = region->data();
    out.emplace_back(data, data + region->length());
  }
}

inline std::vector<common::Bytes> store_images(Backend& backend) {
  std::vector<common::Bytes> out;
  if (auto* replay = dynamic_cast<ReplayBackend*>(&backend)) {
    return store_images(replay->inner());
  }
  if (auto* cluster = dynamic_cast<ClusterBackend*>(&backend)) {
    auto& runtime = cluster->cluster();
    for (std::uint32_t h = 0; h < runtime.num_hosts(); ++h) {
      for (std::uint32_t s = 0; s < runtime.host(h).num_shards(); ++s) {
        append_snapshot_images(*runtime.host(h).snapshot_shard_fresh(s), out);
      }
    }
    return out;
  }
  if (auto* fabric = dynamic_cast<FabricBackend*>(&backend)) {
    (void)fabric->flush();
    const collector::StoreSnapshot snap(fabric->fabric().service());
    append_snapshot_images(snap, out);
    return out;
  }
  return out;
}

inline bool images_equal(const std::vector<common::Bytes>& a,
                         const std::vector<common::Bytes>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(), a[i].size()) != 0) {
      return false;
    }
  }
  return true;
}

// --- deterministic workloads ------------------------------------------------

// The standard conformance workload: a deterministic mix of all four
// primitives synthesized from the traffic model, matched to
// conformance_host_config's geometry.
inline std::vector<proto::ParsedDta> conformance_workload(
    std::uint32_t count, std::uint64_t seed = 42) {
  telemetry::TraceConfig trace;
  trace.seed = seed;
  trace.num_flows = 512;
  telemetry::TraceGenerator gen(trace);
  telemetry::ReportMix mix;
  mix.num_lists = 8;
  mix.postcard_hops = 5;
  mix.postcard_value_space = 4096;
  return telemetry::synthesize_reports(gen, count, mix);
}

// --- query-result collection ------------------------------------------------
// Everything the client API can observe about the stores, collected
// through the public facade only: point gets over the probe keys, CMS
// estimates, full event-list reads, recovered paths. Two backends that
// ingested the same trace must collect equal results.

struct ObservedResults {
  std::vector<std::optional<common::Bytes>> keywrite;
  std::vector<std::optional<std::uint64_t>> counters;
  std::vector<std::vector<common::Bytes>> lists;
  std::vector<std::optional<std::vector<std::uint32_t>>> paths;

  bool operator==(const ObservedResults& o) const {
    return keywrite == o.keywrite && counters == o.counters &&
           lists == o.lists && paths == o.paths;
  }
};

inline ObservedResults observe(Client& client,
                               const std::vector<proto::TelemetryKey>& probes,
                               std::uint32_t num_lists,
                               std::uint64_t list_read_count) {
  ObservedResults out;
  auto table = client.keywrite();
  auto counters = client.counters();
  auto postcards = client.postcards();
  for (const auto& key : probes) {
    const auto value = table.get(key);
    out.keywrite.push_back(value.ok()
                               ? std::optional<common::Bytes>(*value)
                               : std::nullopt);
    const auto estimate = counters.get(key);
    out.counters.push_back(estimate.ok()
                               ? std::optional<std::uint64_t>(*estimate)
                               : std::nullopt);
    const auto path = postcards.path_of(key);
    out.paths.push_back(
        path.ok() ? std::optional<std::vector<std::uint32_t>>(*path)
                  : std::nullopt);
  }
  for (std::uint32_t list = 0; list < num_lists; ++list) {
    const auto events = client.events(list).max(list_read_count).run();
    out.lists.push_back(events.ok() ? events->entries
                                    : std::vector<common::Bytes>{});
  }
  return out;
}

// The probe keys of the conformance workload: every distinct flow key
// the generator can emit under `num_flows`.
inline std::vector<proto::TelemetryKey> conformance_probes(
    std::uint32_t num_flows = 512, std::uint64_t seed = 42) {
  telemetry::TraceConfig trace;
  trace.seed = seed;
  trace.num_flows = num_flows;
  const telemetry::TraceGenerator gen(trace);
  std::vector<proto::TelemetryKey> probes;
  probes.reserve(num_flows);
  for (std::uint32_t i = 0; i < num_flows; ++i) {
    probes.push_back(flow_key(gen.flow_at(i)));
  }
  return probes;
}

}  // namespace dta::testing
