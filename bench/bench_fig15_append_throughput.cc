// Figure 15: Append collection rate vs batch size (1..16) and list size
// (64 MiB vs 2 GiB) — linear growth in batch size until the 100G line
// rate binds (~batch 4 for 4B reports), peaking above 1.6B reports/s,
// with list size having no effect.
//
// The real engine runs each configuration (verbs/entry measured through
// the NIC), and the link/NIC model prices the ingress and message-rate
// bounds. List sizes are scaled 1/64 in memory (ring behaviour is
// size-independent, which the run verifies by wrapping both rings).
// The sharded sweep at the bottom drives the dta::Client facade over
// one host (a sharded CollectorRuntime): shard counts 1/2/4/8 x
// append batch sizes, lists striped over shards, with the aggregate
// modeled entries/s (per-shard NIC rate x batch) next to the software
// rate.
#include "analysis/hw_model.h"
#include "bench_util.h"
#include "dtalib/client.h"
#include "dtalib/fabric.h"

using namespace dta;

namespace {

struct RunResult {
  double entries_per_write;
  double software_rate;
};

RunResult run(std::uint32_t batch, std::uint64_t entries_per_list) {
  FabricConfig config;
  collector::AppendSetup ap;
  ap.num_lists = 1;
  ap.entries_per_list = entries_per_list;
  ap.entry_bytes = 4;
  config.append = ap;
  config.translator.append_batch_size = batch;
  Fabric fabric(config);

  const std::uint64_t total = entries_per_list * 2;  // wrap the ring twice
  std::vector<proto::ParsedDta> parsed;
  parsed.reserve(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    parsed.push_back(reports::append_u32(0, i));
  }

  benchutil::WallTimer timer;
  for (std::uint64_t i = 0; i < total; ++i) {
    fabric.report_direct(parsed[i % parsed.size()]);
  }
  const double seconds = timer.seconds();

  RunResult result;
  const auto& st = fabric.translator().engines().append()->stats();
  result.entries_per_write = static_cast<double>(st.entries_in) /
                             static_cast<double>(st.writes_emitted);
  result.software_rate = static_cast<double>(total) / seconds;
  return result;
}

struct ShardedResult {
  double aggregate_modeled_entries;  // per-shard NIC verb rate x batch
  double software_rate;
  double entries_per_write;
};

ShardedResult run_sharded(std::uint32_t shards, std::uint32_t batch,
                          std::uint64_t total_entries) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = shards;
  config.append_batch_size = batch;
  config.op_batch_size = 16;
  config.thread_mode = collector::ThreadMode::kAuto;
  collector::AppendSetup ap;
  ap.num_lists = 8;  // striped round-robin over the shards
  ap.entries_per_list = 1 << 14;
  ap.entry_bytes = 4;
  config.append = ap;
  Client client = Client::local(config);

  std::vector<proto::ParsedDta> parsed;
  parsed.reserve(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    parsed.push_back(reports::append_u32(i % 8, i));
  }

  benchutil::WallTimer timer;
  for (std::uint64_t i = 0; i < total_entries; ++i) {
    (void)client.backend().submit(parsed[i % parsed.size()], {});
  }
  (void)client.flush();
  const double seconds = timer.seconds();
  client.stop();

  const auto stats = client.stats();
  ShardedResult result;
  result.aggregate_modeled_entries = client.modeled_verbs_per_sec() * batch;
  result.software_rate = static_cast<double>(total_entries) / seconds;
  result.entries_per_write =
      stats.ingest.verbs_executed == 0
          ? 0.0
          : static_cast<double>(total_entries) /
                static_cast<double>(stats.ingest.verbs_executed);
  return result;
}

}  // namespace

int main() {
  benchutil::print_header(
      "Figure 15 — Append collection rate vs batch size",
      "linear in batch until line rate at 4x4B; 1.6B reports/s at batch "
      "16; list size (64MiB vs 2GiB) has no impact");

  analysis::HwParams hw;
  // 64MiB and 2GiB lists at 1/64 scale: 256K and 8M 4B entries.
  const std::uint64_t list_small = (64ull << 20) / 4 / 64;
  const std::uint64_t list_large = (2ull << 30) / 4 / 64;

  std::printf("%8s %16s %18s %18s %16s\n", "batch", "modeled-hw",
              "sw (64MiB list)", "sw (2GiB list)", "entries/write");
  for (std::uint32_t batch : {1u, 2u, 4u, 8u, 16u}) {
    const auto small = run(batch, list_small);
    const auto large = run(batch, list_large);
    const double modeled = analysis::append_collection_rate(hw, batch, 4);
    std::printf("%8u %16s %18s %18s %16.1f\n", batch,
                benchutil::eng(modeled).c_str(),
                benchutil::eng(small.software_rate).c_str(),
                benchutil::eng(large.software_rate).c_str(),
                small.entries_per_write);
  }

  std::printf("\nmodeled-hw = min(NIC message rate x batch, 100G ingress); "
              "batch 16 exceeds 1B reports/s as in the paper; the two "
              "software columns match, confirming list-size independence.\n");

  std::printf("\nSharded collector runtime (8 lists striped) — aggregate "
              "entries/s vs shard count and batch size:\n");
  std::printf("%8s %8s %20s %16s %16s\n", "shards", "batch",
              "aggregate-entries/s", "software", "entries/write");
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (std::uint32_t batch : {1u, 4u, 16u}) {
      const auto r = run_sharded(shards, batch, 100000);
      std::printf("%8u %8u %20s %16s %16.1f\n", shards, batch,
                  benchutil::eng(r.aggregate_modeled_entries).c_str(),
                  benchutil::eng(r.software_rate).c_str(),
                  r.entries_per_write);
    }
  }
  std::printf("\naggregate-entries/s: per-shard NIC message units add across "
              "shards and each RDMA WRITE carries `batch` entries, so the "
              "two knobs compound — the scaling seam the multi-collector "
              "follow-up builds on.\n");
  return 0;
}
