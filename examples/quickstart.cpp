// Quickstart: the smallest complete DTA deployment on the v2 client
// API.
//
// Builds a one-host collector behind the typed dta::Client facade,
// reports a handful of per-flow Key-Write metrics, and queries them
// back from collector memory — every failure surfaced as a typed
// dta::Status instead of a bool or an optional.
//
//   $ ./example_quickstart

#include <cstdio>

#include "dtalib/client.h"

int main() {
  // 1. Configure the collector: a 1M-slot Key-Write store, 4B values.
  dta::collector::CollectorRuntimeConfig config;
  dta::collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 20;
  kw.value_bytes = 4;
  config.keywrite = kw;

  dta::Client client = dta::Client::local(config);
  auto metrics = client.keywrite();
  std::printf("client up: one collector host, %u-slot Key-Write store\n",
              static_cast<unsigned>(kw.num_slots));

  // 2. A switch reports per-flow telemetry: flow 5-tuple -> 4B metric.
  for (std::uint32_t i = 0; i < 10; ++i) {
    dta::net::FiveTuple flow{0x0A000001 + i, 0x0A0000C8, 443,
                             static_cast<std::uint16_t>(50000 + i), 6};
    const dta::Status status = metrics.put_u32(
        dta::flow_key(flow), 1000 + i,  // e.g. per-flow latency
        /*redundancy=*/2);              // N=2: the paper's compromise
    if (!status.ok()) {
      std::printf("report failed: %s\n", status.to_string().c_str());
      return 1;
    }
  }
  if (const auto status = client.flush(); !status.ok()) {
    std::printf("flush failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("sent 10 Key-Write reports (N=2) -> %llu RDMA writes, "
              "0 collector CPU cycles\n",
              static_cast<unsigned long long>(
                  client.stats().ingest.verbs_executed));

  // 3. The operator queries any flow directly from collector memory.
  for (std::uint32_t i = 0; i < 10; ++i) {
    dta::net::FiveTuple flow{0x0A000001 + i, 0x0A0000C8, 443,
                             static_cast<std::uint16_t>(50000 + i), 6};
    const auto result = metrics.get_u32(dta::flow_key(flow));
    if (result.ok()) {
      std::printf("  %s -> %u\n", flow.to_string().c_str(), *result);
    } else {
      std::printf("  %s -> <%s>\n", flow.to_string().c_str(),
                  result.status().to_string().c_str());
    }
  }

  // 4. The error model is typed: a never-reported flow is kNotFound,
  // not a silent empty answer.
  dta::net::FiveTuple ghost{0x0A0000FF, 0x0A0000C8, 443, 65000, 6};
  const auto miss = metrics.get(dta::flow_key(ghost));
  std::printf("unreported flow -> %s\n",
              dta::status_code_name(miss.code()));

  const auto stats = client.stats();
  std::printf("translation: %llu Key-Write reports in, %llu RDMA writes "
              "out\n",
              static_cast<unsigned long long>(
                  stats.translation.keywrite_reports),
              static_cast<unsigned long long>(
                  stats.translation.keywrite_writes));
  return 0;
}
