// Figure 10: Key-Write collection rates vs redundancy level, for 4B
// INT-XD/MX postcards and 20B INT-MD 5-hop path traces.
//
// For each (N, payload) configuration the bench (1) drives the real
// translator -> RoCE -> NIC path to verify verbs/report == N and to
// measure the software rate this machine sustains, and (2) prints the
// modeled-hardware rate, where the BlueField-2-class message rate is the
// binding resource (the paper's bottleneck).
// The sharded sweep at the bottom drives the dta::Client facade over
// one host (a sharded CollectorRuntime): shard counts 1/2/4/8 x
// op-batch sizes, reporting the aggregate modeled ops/s (per-shard NIC
// message units add) next to the software rate.
//
// Flags:
//   --smoke           scaled-down report counts for CI smoke runs
//   --replay <path>   first replay a committed .dtatrace through the
//                     fig10 store geometry and fail on any rejection
#include <cstring>

#include "analysis/hw_model.h"
#include "bench_util.h"
#include "dtalib/client.h"
#include "dtalib/fabric.h"
#include "dtalib/replay_backend.h"
#include "telemetry/report_trace.h"

using namespace dta;

namespace {

struct Measurement {
  double software_rate;
  double verbs_per_report;
};

Measurement run(unsigned redundancy, unsigned value_bytes,
                std::uint32_t reports) {
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 20;
  kw.value_bytes = value_bytes;
  config.keywrite = kw;
  Fabric fabric(config);

  // Pre-build the parsed reports so the measured loop is translation +
  // RoCE crafting + NIC execution only.
  std::vector<proto::ParsedDta> parsed;
  parsed.reserve(reports);
  for (std::uint32_t i = 0; i < reports; ++i) {
    common::Bytes data(value_bytes);
    common::store_u32(data.data(), i);
    parsed.push_back(reports::keywrite(
        benchutil::mixed_key(i), common::ByteSpan(data),
        static_cast<std::uint8_t>(redundancy)));
  }

  benchutil::WallTimer timer;
  for (const auto& p : parsed) fabric.report_direct(p);
  const double seconds = timer.seconds();

  Measurement m;
  m.software_rate = reports / seconds;
  m.verbs_per_report = static_cast<double>(fabric.verbs_executed()) / reports;
  return m;
}

struct ShardedMeasurement {
  double aggregate_modeled;  // sum of per-shard NIC modeled rates
  double software_rate;
  double ops_per_doorbell;
};

ShardedMeasurement run_sharded(std::uint32_t shards, std::uint32_t batch,
                               std::uint32_t report_count) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = shards;
  config.op_batch_size = batch;
  config.thread_mode = collector::ThreadMode::kAuto;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 20;  // total across shards
  kw.value_bytes = 4;
  config.keywrite = kw;
  Client client = Client::local(config);

  std::vector<proto::ParsedDta> prebuilt;
  prebuilt.reserve(report_count);
  for (std::uint32_t i = 0; i < report_count; ++i) {
    prebuilt.push_back(reports::keywrite_u32(benchutil::mixed_key(i), i));
  }

  benchutil::WallTimer timer;
  for (const auto& p : prebuilt) (void)client.backend().submit(p, {});
  (void)client.flush();
  const double seconds = timer.seconds();
  client.stop();

  const auto stats = client.stats();
  ShardedMeasurement m;
  m.aggregate_modeled = client.modeled_verbs_per_sec();
  m.software_rate = report_count / seconds;
  m.ops_per_doorbell =
      stats.ingest.batch_flushes == 0
          ? 0.0
          : static_cast<double>(stats.ingest.ops_batched) /
                static_cast<double>(stats.ingest.batch_flushes);
  return m;
}

// Replays a committed .dtatrace (see gen_golden_trace) through the
// fig10 single-shard Key-Write store: the CI replay-smoke proof that a
// trace recorded by the ReplayBackend drives the real ingest path
// end to end. Returns nonzero on any decode error or rejected record.
int run_replay(const std::string& path) {
  benchutil::print_header("Replay smoke — committed trace vs fig10 store",
                          "trace-driven ingest; every record must be "
                          "accepted");
  const auto records = telemetry::read_trace_file(path);
  if (!records.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 records.status().to_string().c_str());
    return 1;
  }

  collector::CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = collector::ThreadMode::kInline;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 20;
  kw.value_bytes = 4;
  config.keywrite = kw;
  Client client = Client::local(config);

  benchutil::WallTimer timer;
  const Status status = ReplayBackend::replay(records.value(), client.backend());
  const double seconds = timer.seconds();
  if (!status.ok()) {
    std::fprintf(stderr, "replay rejected: %s\n", status.to_string().c_str());
    return 1;
  }

  const auto stats = client.stats();
  std::printf("%s: %zu records replayed in %.3fs (%s reports/s), "
              "%llu ingested\n",
              path.c_str(), records.value().size(), seconds,
              benchutil::eng(records.value().size() / seconds).c_str(),
              static_cast<unsigned long long>(stats.ingest.reports_in));
  if (stats.ingest.reports_in != records.value().size()) {
    std::fprintf(stderr, "ingest count mismatch: %llu != %zu\n",
                 static_cast<unsigned long long>(stats.ingest.reports_in),
                 records.value().size());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string replay_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--replay <trace>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!replay_path.empty()) {
    if (int rc = run_replay(replay_path)) return rc;
  }
  const std::uint32_t scale = smoke ? 10 : 1;

  benchutil::print_header(
      "Figure 10 — Key-Write collection rate vs redundancy",
      "N=1 ~105M reports/s, halving per redundancy step; rate unaffected "
      "by payload size until line rate (16B+)");

  analysis::HwParams hw;
  for (unsigned value_bytes : {4u, 20u}) {
    std::printf("\n%uB payloads (%s):\n", value_bytes,
                value_bytes == 4 ? "INT postcards" : "5-hop path tracing");
    std::printf("%4s %16s %16s %14s\n", "N", "modeled-hw", "software",
                "verbs/report");
    for (unsigned n = 1; n <= 4; ++n) {
      const auto m = run(n, value_bytes, 200000 / n / scale);
      const double modeled = analysis::kw_collection_rate(hw, n, value_bytes);
      std::printf("%4u %16s %16s %14.2f\n", n,
                  benchutil::eng(modeled).c_str(),
                  benchutil::eng(m.software_rate).c_str(),
                  m.verbs_per_report);
    }
  }
  std::printf("\nmodeled-hw: min(100G ingress, NIC message rate / N); the "
              "linear 1/N relationship and size-insensitivity are the "
              "reproduced shape.\n");

  std::printf("\nSharded collector runtime (N=2, 4B payloads) — aggregate "
              "ops/s vs shard count and op-batch size:\n");
  std::printf("%8s %8s %18s %16s %14s\n", "shards", "batch", "aggregate-ops/s",
              "software", "ops/doorbell");
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (std::uint32_t batch : {1u, 16u}) {
      const auto m = run_sharded(shards, batch, 100000 / scale);
      std::printf("%8u %8u %18s %16s %14.2f\n", shards, batch,
                  benchutil::eng(m.aggregate_modeled).c_str(),
                  benchutil::eng(m.software_rate).c_str(),
                  m.ops_per_doorbell);
    }
  }
  std::printf("\naggregate-ops/s: sum of per-shard NIC message units — each "
              "shard owns an independent NIC + QP, so modeled collection "
              "capacity scales linearly with shards (the paper's "
              "collector-scaling claim); ops/doorbell shows the per-op "
              "delivery overhead amortized by batching.\n");
  return 0;
}
