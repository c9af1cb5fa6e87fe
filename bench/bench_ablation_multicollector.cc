// Ablation: multi-collector scale-out and resiliency (paper §7
// "Supporting Multiple Collectors", "The next telemetry bottleneck").
//
// The collection bottleneck is the collector NIC's message rate; DTA
// "already supports multi-NIC collectors" and partitioning across
// collectors. This bench sweeps both partition dimensions on the
// ClusterRuntime — hosts x shards, each shard an independent NIC
// message unit — under key-hash routing, then replays the paper's
// resiliency story (a collector dies mid-run under replication and the
// async query tier answers from the survivor).
//
// Output: the printed table plus machine-readable
// BENCH_multicollector.json in the working directory.
#include <vector>

#include "bench_util.h"
#include "dta/report_builders.h"
#include "dtalib/cluster_runtime.h"

using namespace dta;

namespace {

struct SweepPoint {
  std::uint32_t hosts = 0;
  std::uint32_t shards = 0;
  double aggregate_rate = 0.0;
  double speedup = 0.0;
  double worst_best = 0.0;
};

ClusterRuntimeConfig make_config(std::uint32_t hosts, std::uint32_t shards,
                                 translator::PartitionPolicy policy) {
  ClusterRuntimeConfig config;
  config.num_hosts = hosts;
  config.policy = policy;
  config.host.num_shards = shards;
  // Inline pipelines: the modeled NIC rates, not host scheduling, are
  // the measurement.
  config.host.thread_mode = collector::ThreadMode::kInline;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 14;
  config.host.keywrite = kw;
  return config;
}

SweepPoint run_point(std::uint32_t hosts, std::uint32_t shards,
                     double base_rate) {
  ClusterRuntime cluster(
      make_config(hosts, shards, translator::PartitionPolicy::kByKeyHash));
  for (std::uint64_t k = 0; k < 20000; ++k) {
    proto::KeyWriteReport r;
    r.key = benchutil::mixed_key(k);
    r.redundancy = 1;
    common::put_u32(r.data, 1);
    cluster.submit(reports::wrap(std::move(r)));
  }
  cluster.flush();

  std::uint64_t worst = ~0ull, best = 0;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    for (std::uint32_t s = 0; s < shards; ++s) {
      const std::uint64_t verbs =
          cluster.host(h).shard(s).stats().verbs_executed;
      worst = std::min(worst, verbs);
      best = std::max(best, verbs);
    }
  }
  SweepPoint point;
  point.hosts = hosts;
  point.shards = shards;
  point.aggregate_rate = cluster.modeled_aggregate_verbs_per_sec();
  point.speedup = base_rate > 0 ? point.aggregate_rate / base_rate : 1.0;
  point.worst_best =
      best > 0 ? static_cast<double>(worst) / static_cast<double>(best) : 0.0;
  return point;
}

}  // namespace

int main() {
  benchutil::print_header(
      "Ablation — multi-collector scale-out & resiliency (§7)",
      "NIC message rate is the bottleneck; partitioning across collector "
      "hosts and intra-host shards raises the ceiling as hosts x shards");

  // --- scale-out sweep: hosts x shards ---------------------------------------
  std::printf("key-hash two-level sharding (Key-Write N=1, modeled):\n");
  std::printf("%8s %8s %18s %12s %18s\n", "hosts", "shards", "aggregate rate",
              "speedup", "worst/best shard");
  std::vector<SweepPoint> sweep;
  double base_rate = 0.0;
  for (std::uint32_t hosts : {1u, 2u, 4u}) {
    for (std::uint32_t shards : {1u, 2u, 4u}) {
      SweepPoint point = run_point(hosts, shards, base_rate);
      if (hosts == 1 && shards == 1) {
        base_rate = point.aggregate_rate;
        point.speedup = 1.0;
      }
      std::printf("%8u %8u %18s %11.1fx %18.2f\n", point.hosts, point.shards,
                  benchutil::eng(point.aggregate_rate).c_str(), point.speedup,
                  point.worst_best);
      sweep.push_back(point);
    }
  }

  // --- resiliency under replication ------------------------------------------
  std::printf("\nreplication resiliency (2 hosts x 2 shards, one host dies "
              "mid-run):\n");
  ClusterRuntime cluster(
      make_config(2, 2, translator::PartitionPolicy::kReplicate));
  constexpr std::uint64_t kKeys = 2000;
  constexpr std::uint64_t kFailAt = kKeys / 2;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (k == kFailAt) cluster.fail_host(0);
    proto::KeyWriteReport r;
    r.key = benchutil::mixed_key(k);
    r.redundancy = 2;
    common::put_u32(r.data, static_cast<std::uint32_t>(k));
    cluster.submit(reports::wrap(std::move(r)));
  }
  cluster.flush();

  // The surviving replica (host 1) answers every key directly.
  int survivor_hits = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint32_t shard =
        cluster.selector().shard_within_host(benchutil::mixed_key(k));
    auto result = cluster.host(1).shard(shard).service().keywrite()->query(
        benchutil::mixed_key(k), 2);
    if (result.status == collector::QueryStatus::kHit) ++survivor_hits;
  }
  // The dead host only ever saw the pre-failure half.
  int dead_hits = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint32_t shard = cluster.selector().shard_within_host(
        benchutil::mixed_key(k));
    auto result = cluster.host(0).shard(shard).service().keywrite()->query(
        benchutil::mixed_key(k), 2);
    if (result.status == collector::QueryStatus::kHit) ++dead_hits;
  }
  // Replication cost: the copies the hosts actually received beyond one
  // per key. The copies addressed to the dead host after it failed were
  // dropped, so they never crossed a link.
  std::uint64_t delivered = 0;
  for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
    delivered += cluster.host(h).stats().reports_in;
  }
  const std::uint64_t extra = delivered - kKeys;
  std::printf("  surviving host answers %d/%llu keys; failed one holds only "
              "the pre-failure %d\n",
              survivor_hits, static_cast<unsigned long long>(kKeys),
              dead_hits);
  std::printf("  replication cost: %llu extra copies on the RDMA links\n",
              static_cast<unsigned long long>(extra));

  // --- machine-readable output ------------------------------------------------
  FILE* json = std::fopen("BENCH_multicollector.json", "w");
  if (json) {
    std::fprintf(json, "{\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      std::fprintf(json,
                   "    {\"hosts\": %u, \"shards\": %u, "
                   "\"aggregate_verbs_per_sec\": %.1f, \"speedup\": %.3f, "
                   "\"worst_best_shard\": %.4f}%s\n",
                   p.hosts, p.shards, p.aggregate_rate, p.speedup,
                   p.worst_best, i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"replication\": {\"keys\": %llu, "
                 "\"failed_at_key\": %llu, "
                 "\"survivor_hits\": %d, \"dead_host_hits\": %d, "
                 "\"delivered_copies\": %llu, \"extra_copies\": %llu}\n}\n",
                 static_cast<unsigned long long>(kKeys),
                 static_cast<unsigned long long>(kFailAt), survivor_hits,
                 dead_hits, static_cast<unsigned long long>(delivered),
                 static_cast<unsigned long long>(extra));
    std::fclose(json);
    std::printf("\nwrote BENCH_multicollector.json\n");
  }
  return 0;
}
