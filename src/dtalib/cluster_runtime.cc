#include "dtalib/cluster_runtime.h"

#include <unordered_map>

namespace dta {

ClusterRuntime::ClusterRuntime(ClusterRuntimeConfig config)
    : config_(std::move(config)),
      selector_(config_.policy, config_.num_hosts, config_.host.num_shards),
      failed_(selector_.num_collectors()) {  // value-initialized: all live
  // config() and host_config() report the geometry that runs: the
  // selector maps 0 hosts or 0 shards to 1, as CollectorRuntime does.
  config_.num_hosts = selector_.num_collectors();
  config_.host.num_shards = selector_.shards_per_host();
  hosts_.reserve(config_.num_hosts);
  for (std::uint32_t h = 0; h < config_.num_hosts; ++h) {
    hosts_.push_back(
        std::make_unique<collector::CollectorRuntime>(config_.host));
  }
}

ClusterRuntime::~ClusterRuntime() { stop(); }

void ClusterRuntime::submit(proto::ParsedDta&& parsed, std::uint32_t dst_ip) {
  const translator::HostRange hosts =
      selector_.route(parsed.report, host_of_ip(dst_ip));

  if (auto* ap = std::get_if<proto::AppendReport>(&parsed.report)) {
    // Fold the global list id to the host-local space (kByKeyHash only;
    // the selector knows). The host runtime applies the same fold again
    // for its shard tier, so ids stay dense at every level.
    ap->list_id = selector_.host_local_list(ap->list_id);
  }

  // A dead collector just loses its copy.
  const std::uint32_t last = hosts.first + hosts.count - 1;
  for (std::uint32_t h = hosts.first; h < last; ++h) {
    if (!is_failed(h)) hosts_[h]->submit(parsed);  // kReplicate: a copy
  }
  if (!is_failed(last)) hosts_[last]->submit(std::move(parsed));
}

void ClusterRuntime::flush() {
  for (auto& host : hosts_) host->flush();
}

void ClusterRuntime::stop() {
  for (auto& host : hosts_) host->stop();
}

void ClusterRuntime::fail_host(std::uint32_t host) {
  failed_[host].store(true);
  // The router already excludes dead hosts from every candidate set;
  // invalidating makes the coherence story airtight (and frees the
  // dead host's snapshot memory): no future query can be served from a
  // snapshot the dead host cached before it died.
  hosts_[host]->invalidate_snapshots();
}

ClientStats ClusterRuntime::stats() const {
  ClientStats out;
  out.num_hosts = num_hosts();
  out.live_hosts = 0;  // counted below
  out.per_host.reserve(hosts_.size());
  for (std::uint32_t h = 0; h < hosts_.size(); ++h) {
    ClusterHostStats host;
    host.ingest = hosts_[h]->stats();
    host.translation = hosts_[h]->translation_stats();
    host.snapshots = hosts_[h]->snapshot_cache().stats();
    host.failed = is_failed(h);
    if (!host.failed) {
      ++out.live_hosts;
      out.ingest += host.ingest;
      out.translation += host.translation;
    }
    out.per_host.push_back(std::move(host));
  }
  // Per-tenant rows: the registry's admission counters joined with the
  // collector-tier ingest attribution (every host, dead ones included).
  std::unordered_map<TenantId, std::uint64_t> ingest_by_tenant;
  for (const auto& host : hosts_) {
    for (const auto& [tenant, count] : host->tenant_ingest()) {
      ingest_by_tenant[tenant] += count;
    }
  }
  out.per_tenant =
      join_tenant_ingest(tenants_.stats(), std::move(ingest_by_tenant));
  return out;
}

double ClusterRuntime::modeled_aggregate_verbs_per_sec() const {
  double total = 0.0;
  for (std::uint32_t h = 0; h < hosts_.size(); ++h) {
    if (is_failed(h)) continue;
    total += hosts_[h]->modeled_aggregate_verbs_per_sec();
  }
  return total;
}

}  // namespace dta
