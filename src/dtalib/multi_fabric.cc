#include "dtalib/multi_fabric.h"

namespace dta {

MultiFabric::MultiFabric(MultiFabricConfig config)
    : config_(config),
      // Single-service hosts: one shard per host, so the host is the
      // whole routing decision.
      selector_(config.policy, config.num_collectors, /*shards_per_host=*/1),
      failed_(config.num_collectors, false) {
  for (std::uint32_t c = 0; c < config_.num_collectors; ++c) {
    FabricConfig fc = config_.base;
    // Distinct collector addresses (the reporter-visible partitioning
    // handle under kByDestinationIp).
    fc.translator.endpoints.collector_ip = 0x0A0000C0 + c;
    fabrics_.push_back(std::make_unique<Fabric>(fc));
  }
}

std::uint32_t MultiFabric::shard_of(const proto::Report& report) const {
  return selector_
      .route(report, config_.base.translator.endpoints.collector_ip)
      .first;
}

void MultiFabric::report(const proto::Report& report) {
  const translator::HostRange hosts =
      selector_.route(report, config_.base.translator.endpoints.collector_ip);
  for (std::uint32_t c = hosts.first; c < hosts.first + hosts.count; ++c) {
    if (failed_[c]) continue;  // a dead collector just loses its copy
    fabrics_[c]->report(report);
  }
}

double MultiFabric::aggregate_message_rate() const {
  double total = 0;
  for (std::uint32_t c = 0; c < fabrics_.size(); ++c) {
    if (failed_[c]) continue;
    total += config_.base.nic.base_message_rate;
  }
  return total;
}

}  // namespace dta
