// Figure 8: average number of memory instructions per report for INT
// postcard ingestion — MultiLog vs the DTA primitives (N=2 redundancy,
// 5-hop paths, batch 16).
//
// MultiLog's count comes from the instrumented ingest pipeline. The DTA
// primitives' counts are *measured at the collector NIC*: RDMA verbs
// executed per telemetry report through the real translator data path
// (each WRITE/FETCH_ADD is one memory transaction on the collector; no
// I/O or parsing instructions exist by construction).
#include "baseline/ingest.h"
#include "baseline/multilog.h"
#include "bench_util.h"
#include "dta/report_builders.h"
#include "dtalib/fabric.h"

using namespace dta;

namespace {

// Runs `reports` KW reports with N=2, returns collector memory ops/report.
double keywrite_mem_ops() {
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 18;
  config.keywrite = kw;
  Fabric fabric(config);
  constexpr std::uint32_t kReports = 20000;
  for (std::uint32_t i = 0; i < kReports; ++i) {
    proto::KeyWriteReport r;
    r.key = benchutil::mixed_key(i);
    r.redundancy = 2;
    common::put_u32(r.data, i);
    fabric.report_direct(reports::wrap(r));
  }
  return static_cast<double>(fabric.verbs_executed()) / kReports;
}

// Postcarding, N=2, 5 hops: memory ops per *postcard* report.
double postcarding_mem_ops() {
  FabricConfig config;
  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 16;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 1024; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  Fabric fabric(config);
  constexpr std::uint32_t kFlows = 10000;
  for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
    for (std::uint8_t hop = 0; hop < 5; ++hop) {
      proto::PostcardReport r;
      r.key = benchutil::mixed_key(flow);
      r.hop = hop;
      r.path_len = 5;
      r.redundancy = 2;
      r.value = flow % 1024;
      fabric.report_direct(reports::wrap(r));
    }
  }
  return static_cast<double>(fabric.verbs_executed()) / (kFlows * 5.0);
}

// Append, batch 16: memory ops per entry.
double append_mem_ops() {
  FabricConfig config;
  collector::AppendSetup ap;
  ap.num_lists = 1;
  ap.entries_per_list = 1 << 16;
  ap.entry_bytes = 4;
  config.append = ap;
  config.translator.append_batch_size = 16;
  Fabric fabric(config);
  constexpr std::uint32_t kEntries = 64000;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    proto::AppendReport r;
    r.list_id = 0;
    r.entry_size = 4;
    common::Bytes e;
    common::put_u32(e, i);
    r.entries.push_back(std::move(e));
    fabric.report_direct(reports::wrap(r));
  }
  return static_cast<double>(fabric.verbs_executed()) / kEntries;
}

}  // namespace

int main() {
  benchutil::print_header(
      "Figure 8 — memory instructions per report (INT postcards)",
      "MultiLog 343 | Key-Write 2.00 | Postcarding 0.40 | Append 0.06 "
      "(N=2, 5 hops, batch 16)");

  baseline::MultiLogCollector multilog;
  const auto packets = baseline::make_packets(50000, 100000);
  const auto ml = baseline::run_ingest(multilog, packets);
  const double ml_ops =
      static_cast<double>(ml.counters.total()) / ml.reports;
  const double ml_io =
      static_cast<double>(ml.counters.phase(perfmodel::Phase::kIo).total()) /
      ml.reports;
  const double ml_parse =
      static_cast<double>(
          ml.counters.phase(perfmodel::Phase::kParse).total()) /
      ml.reports;
  const double ml_insert =
      static_cast<double>(
          ml.counters.phase(perfmodel::Phase::kInsert).total()) /
      ml.reports;

  const double kw = keywrite_mem_ops();
  const double pc = postcarding_mem_ops();
  const double ap = append_mem_ops();

  std::printf("%-14s %10s %10s  (paper)\n", "collector", "mem-ops", "");
  std::printf("%-14s %10.2f %10s  (343)   I/O %.0f + parse %.0f + insert %.0f\n",
              "MultiLog", ml_ops, "", ml_io, ml_parse, ml_insert);
  std::printf("%-14s %10.2f %10s  (2.00)  pure RDMA writes, no I/O/parse\n",
              "Key-Write", kw, "");
  std::printf("%-14s %10.2f %10s  (0.40)  2 writes per 5-postcard path\n",
              "Postcarding", pc, "");
  std::printf("%-14s %10.2f %10s  (0.06)  1 write per 16-report batch\n",
              "Append", ap, "");
  std::printf("\nKey-Write needs %.2f%% of MultiLog's accesses "
              "(paper: 0.58%%)\n",
              100.0 * kw / ml_ops);
  return 0;
}
