// Sharded collector walkthrough on the v2 client API.
//
// Spins up a 4-shard collector behind dta::Client (Client::local),
// pushes per-flow Key-Write metrics, per-flow loss counters and an
// Append event stream through the sharded ingest pipeline, then
// answers queries through the typed handles — the scaled-out version
// of quickstart.cpp. The shard topology never leaks into the calls.
#include <cstdio>
#include <cstdlib>

#include "dtalib/client.h"

using namespace dta;

namespace {

// Every dta::Status is [[nodiscard]]; a walkthrough bails on the first
// failure (dta::must aborts loudly) instead of silently dropping it.

}  // namespace

int main() {
  collector::CollectorRuntimeConfig config;
  config.num_shards = 4;
  config.op_batch_size = 16;

  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 18;
  kw.value_bytes = 4;
  config.keywrite = kw;

  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 14;
  config.keyincrement = ki;

  collector::AppendSetup ap;
  ap.num_lists = 4;
  ap.entries_per_list = 1 << 10;
  ap.entry_bytes = 4;
  config.append = ap;

  Client client = Client::local(config);
  collector::CollectorRuntime& runtime = *client.local_runtime();
  std::printf("collector runtime: %u shards, op batch %u, %s pipeline\n",
              runtime.num_shards(), config.op_batch_size,
              runtime.pipeline().threaded() ? "threaded" : "inline");

  // Report path: 1000 flows, each with a latency metric, a drop counter
  // and one loss event on list (flow % 4).
  auto flow_of = [](std::uint32_t id) {
    net::FiveTuple tuple;
    tuple.src_ip = 0x0A000000 + id;
    tuple.dst_ip = 0x0B000000 + (id % 16);
    tuple.src_port = static_cast<std::uint16_t>(10000 + id);
    tuple.dst_port = 443;
    tuple.protocol = 6;
    return tuple;
  };
  for (std::uint32_t flow = 0; flow < 1000; ++flow) {
    const auto key = flow_key(flow_of(flow));
    must(client.keywrite().put_u32(key, 100 + flow % 50));  // usec latency
    must(client.counters().add(key, flow % 3));             // drops
    must(client.list(flow % 4).append_u32(flow));           // loss event
  }
  must(client.flush());

  const auto stats = client.stats();
  std::printf("ingested %llu reports -> %llu verbs in %llu doorbells "
              "(%.1f ops/doorbell)\n",
              static_cast<unsigned long long>(stats.ingest.reports_in),
              static_cast<unsigned long long>(stats.ingest.verbs_executed),
              static_cast<unsigned long long>(stats.ingest.batch_flushes),
              static_cast<double>(stats.ingest.ops_batched) /
                  static_cast<double>(stats.ingest.batch_flushes));

  // Query path: point lookups fan out across shards and merge votes.
  const auto probe = flow_key(flow_of(44));
  if (const auto latency = client.keywrite().get_u32(probe); latency.ok()) {
    std::printf("flow 44 latency: %u usec\n", *latency);
  }
  std::printf("flow 44 drops: %llu\n",
              static_cast<unsigned long long>(
                  client.counters().get(probe).value_or(0)));

  std::size_t events = 0;
  for (std::uint32_t list = 0; list < 4; ++list) {
    if (const auto batch = client.events(list).max(250).run(); batch.ok()) {
      events += batch->entries.size();
    }
  }
  std::printf("read %zu loss events across 4 striped lists\n", events);

  // Per-shard view: the aggregate modeled rate is the scaling headline.
  for (std::uint32_t i = 0; i < runtime.num_shards(); ++i) {
    const auto& s = runtime.shard(i).stats();
    std::printf("  shard %u: %llu reports, %llu verbs\n", i,
                static_cast<unsigned long long>(s.reports_in),
                static_cast<unsigned long long>(s.verbs_executed));
  }
  std::printf("aggregate modeled ingest: %.1fM verbs/s\n",
              client.modeled_verbs_per_sec() / 1e6);
  return 0;
}
