// Cluster-scale collection walkthrough on the v2 client API.
//
// Spins up a 2-host x 2-shard cluster under replication behind
// dta::Client (ClusterBackend), pushes per-flow metrics, loss counters
// and an event stream through the two-level router (host by policy,
// shard by key CRC), answers point/batch/event queries through
// the same typed handles a single-host deployment uses, then kills one
// collector host and repeats a point query to show replica failover —
// the scaled-out, resilient version of sharded_collector.cpp, with not
// one call site aware of the topology.
#include <cstdio>
#include <cstdlib>

#include "dtalib/client.h"

using namespace dta;

namespace {

net::FiveTuple flow_of(std::uint32_t id) {
  net::FiveTuple tuple;
  tuple.src_ip = 0x0A000000 + id;
  tuple.dst_ip = 0x0B000000 + (id % 16);
  tuple.src_port = static_cast<std::uint16_t>(10000 + id);
  tuple.dst_port = 443;
  tuple.protocol = 6;
  return tuple;
}

// Every dta::Status is [[nodiscard]]; a walkthrough bails on the first
// failure (dta::must aborts loudly) instead of silently dropping it.

}  // namespace

int main() {
  ClusterRuntimeConfig config;
  config.num_hosts = 2;
  config.policy = translator::PartitionPolicy::kReplicate;
  config.host.num_shards = 2;

  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 18;
  kw.value_bytes = 4;
  config.host.keywrite = kw;

  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 14;
  config.host.keyincrement = ki;

  collector::AppendSetup ap;
  ap.num_lists = 4;
  ap.entries_per_list = 1 << 10;
  ap.entry_bytes = 4;
  config.host.append = ap;

  Client client = Client::cluster(config);
  std::printf("cluster: %u hosts x %u shards, %s partitioning\n",
              client.cluster_runtime()->num_hosts(),
              client.cluster_runtime()->shards_per_host(), "replicate");

  // Report path: 1000 flows, each with a latency metric, a drop counter
  // and one loss event on list (flow % 4). Every report is routed once
  // by the two-level router and lands on both replica hosts.
  for (std::uint32_t flow = 0; flow < 1000; ++flow) {
    const auto key = flow_key(flow_of(flow));
    must(client.keywrite().put_u32(key, 100 + flow % 50));  // usec latency
    must(client.counters().add(key, flow % 3));
    must(client.list(flow % 4).append_u32(flow));
  }
  must(client.flush());

  const auto stats = client.stats();
  std::printf("ingested %llu reports (both replicas) -> %llu verbs\n",
              static_cast<unsigned long long>(stats.ingest.reports_in),
              static_cast<unsigned long long>(stats.ingest.verbs_executed));

  // Query path: each read resolves on the calling thread from per-shard
  // snapshots, so ingest could keep running meanwhile.
  const auto probe = flow_key(flow_of(44));
  if (const auto value = client.keywrite().get(probe); value.ok()) {
    std::printf("flow 44 latency: %u usec\n",
                common::load_u32(value->data()));
  }
  const auto drops = client.counters().get(probe);
  std::printf("flow 44 drops: %llu\n",
              static_cast<unsigned long long>(drops.value_or(0)));
  const auto head = client.events(0).max(16).run();
  std::printf("list 0 head: %zu events (first flows:",
              head.ok() ? head->entries.size() : 0);
  if (head.ok()) {
    for (std::size_t i = 0; i < 4 && i < head->entries.size(); ++i) {
      std::printf(" %u", common::load_u32(head->entries[i].data()));
    }
  }
  std::printf(")\n");

  // Batch query: one generation pin for a whole batch of keys.
  std::vector<proto::TelemetryKey> batch;
  for (std::uint32_t flow = 100; flow < 110; ++flow) {
    batch.push_back(flow_key(flow_of(flow)));
  }
  const auto range = client.keywrite().get_many(batch);
  int range_hits = 0;
  if (range.ok()) {
    for (const auto& value : *range) range_hits += value.has_value();
  }
  std::printf("batch query: %d/%zu flows answered\n", range_hits,
              batch.size());

  // Replica failover: host 0 dies; the same point query still answers
  // from host 1's copy — and a typed kUnavailable replaces silence if
  // the whole replica set is gone.
  must(client.fail_host(0));
  std::printf("host 0 failed (%u live host)\n", client.stats().live_hosts);
  if (const auto value = client.keywrite().get_u32(probe); value.ok()) {
    std::printf("flow 44 latency after failover: %u usec\n", *value);
  } else {
    std::printf("flow 44: %s\n", value.status().to_string().c_str());
  }
  std::printf("aggregate modeled ingest after failover: %.1fM verbs/s\n",
              client.modeled_verbs_per_sec() / 1e6);
  return 0;
}
