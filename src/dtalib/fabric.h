// dta::Fabric — the paper's wire topology in one object:
//
//     Reporters --(UDP/DTA, 100G link)--> Translator
//         --(RoCEv2, 100G link)--> Collector NIC --> registered memory
//
// including the CM handshake, ACK/NAK feedback (PSN resync), and the
// virtual clock that underlies all modeled rates. Applications feed
// telemetry reports in and run queries against the collector stores;
// benches read the modeled throughput from the component counters.
//
// num_reporters switches share the translator's one ingress link in
// front of one collector. FabricBackend serves a Fabric through
// dta::Client; ClusterRuntime is the multi-collector topology (N hosts
// x M shards, direct verb execution).
#pragma once

#include <memory>
#include <vector>

#include "collector/rdma_service.h"
#include "common/time_model.h"
#include "net/link.h"
#include "reporter/reporter.h"
#include "translator/translator.h"

namespace dta {

struct FabricConfig {
  // Which primitives to enable, with their store geometry.
  std::optional<collector::KeyWriteSetup> keywrite;
  std::optional<collector::PostcardingSetup> postcarding;
  std::optional<collector::AppendSetup> append;
  std::optional<collector::KeyIncrementSetup> keyincrement;

  translator::TranslatorConfig translator;
  rdma::NicParams nic;
  net::LinkParams reporter_link;  // reporter -> translator
  net::LinkParams rdma_link;      // translator -> collector
  std::uint32_t num_reporters = 1;
};

class Fabric {
 public:
  explicit Fabric(FabricConfig config);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Sends one report from reporter `reporter_idx` through the fabric at
  // the current virtual time. The full path (encapsulation, link,
  // translation, RoCE link, NIC verb execution) runs synchronously.
  void report(const proto::Report& report, std::uint32_t reporter_idx = 0,
              bool immediate = false);

  // Bypass the reporter-side UDP encoding (benches that measure the
  // translator/collector path only).
  void report_direct(const proto::ParsedDta& parsed);

  // Drains translator-side aggregation state (postcard cache, append
  // batches).
  void flush();

  // Component access. The collector host is its RDMA service: NIC,
  // queue pair, registered regions and the query stores over them.
  collector::RdmaService& service() { return service_; }
  translator::Translator& translator() { return *translator_; }
  reporter::Reporter& reporter(std::uint32_t idx) { return *reporters_[idx]; }

  // Immediate-data completions ("push notifications", §7): the next
  // pending immediate event on the collector's queue pair, if any.
  std::optional<rdma::Completion> poll_event();

  // Verbs the collector's queue pair executed: WRITEs, FETCH_ADDs and
  // SENDs (duplicates it only re-ACKed and verbs it NAKed not counted).
  std::uint64_t verbs_executed() const;

  // Modeled ingest rate: verbs executed per virtual second so far.
  double modeled_verbs_per_sec() const;

 private:
  FabricConfig config_;
  common::VirtualClock clock_;
  collector::RdmaService service_;
  std::unique_ptr<translator::Translator> translator_;
  std::vector<std::unique_ptr<reporter::Reporter>> reporters_;
  std::unique_ptr<net::Link> reporter_link_;
  std::unique_ptr<net::Link> rdma_link_;
};

}  // namespace dta
