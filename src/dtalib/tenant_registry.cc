#include "dtalib/tenant_registry.h"

#include <algorithm>
#include <string>

namespace dta {

namespace {

translator::RateLimiterParams bucket_params(double rate, std::uint32_t burst) {
  translator::RateLimiterParams p;
  p.ops_per_second = rate;
  p.burst = static_cast<double>(burst);
  p.nack_on_drop = false;  // serving plane sheds via Status, not wire NACK
  return p;
}

}  // namespace

std::vector<TenantStatsRow> join_tenant_ingest(
    std::vector<TenantStatsRow> rows,
    std::unordered_map<TenantId, std::uint64_t> ingest) {
  for (auto& row : rows) {
    if (auto it = ingest.find(row.tenant); it != ingest.end()) {
      row.ingest_reports = it->second;
      ingest.erase(it);
    }
  }
  // Tenants seen only at the collector tier (e.g. stamped reports
  // submitted around the registry) still get a row.
  for (const auto& [tenant, count] : ingest) {
    TenantStatsRow row;
    row.tenant = tenant;
    row.ingest_reports = count;
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const TenantStatsRow& a, const TenantStatsRow& b) {
              return a.tenant < b.tenant;
            });
  return rows;
}

TenantRegistry::TenantRegistry()
    : epoch_(std::chrono::steady_clock::now()),
      submit_limiter_(translator::RateLimiterParams{}),
      query_limiter_(translator::RateLimiterParams{}) {}

common::VirtualNs TenantRegistry::now_ns() const {
  return static_cast<common::VirtualNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TenantRegistry::register_tenant(TenantId tenant, TenantConfig config) {
  MutexLock lock(mu_);
  config.query_defaults.tenant = tenant;
  configs_[tenant] = config;
  counters_.try_emplace(tenant);
  // A zero rate means unlimited: drop any bucket an earlier
  // registration installed, or the old quota would keep shedding.
  if (config.quota.submits_per_second > 0.0) {
    submit_limiter_.set_tenant_params(
        tenant, bucket_params(config.quota.submits_per_second,
                              config.quota.submit_burst));
  } else {
    submit_limiter_.clear_tenant_params(tenant);
  }
  if (config.quota.queries_per_second > 0.0) {
    query_limiter_.set_tenant_params(
        tenant, bucket_params(config.quota.queries_per_second,
                              config.quota.query_burst));
  } else {
    query_limiter_.clear_tenant_params(tenant);
  }
}

bool TenantRegistry::is_registered(TenantId tenant) const {
  MutexLock lock(mu_);
  return configs_.count(tenant) != 0;
}

std::optional<TenantConfig> TenantRegistry::config(TenantId tenant) const {
  MutexLock lock(mu_);
  auto it = configs_.find(tenant);
  if (it == configs_.end()) return std::nullopt;
  return it->second;
}

Status TenantRegistry::admit_locked(translator::RateLimiter& limiter,
                                    TenantId tenant, common::VirtualNs now,
                                    std::uint32_t ops,
                                    std::uint64_t TenantCounters::*admitted,
                                    std::uint64_t TenantCounters::*shed,
                                    const char* verb) {
  TenantCounters& c = counters_[tenant];
  // Unregistered tenants and unlimited quotas (no bucket installed)
  // always pass: the registry counts them but never sheds them.
  if (limiter.has_tenant_bucket(tenant) && !limiter.admit(tenant, now, ops)) {
    c.*shed += ops;
    return Status::ResourceExhausted(
        "tenant " + std::to_string(tenant) + " " + verb + " quota exhausted",
        limiter.retry_after_ns(tenant, now, ops));
  }
  c.*admitted += ops;
  return Status::Ok();
}

Status TenantRegistry::admit_submit_at(TenantId tenant, common::VirtualNs now,
                                       std::uint32_t ops) {
  MutexLock lock(mu_);
  return admit_locked(submit_limiter_, tenant, now, ops,
                      &TenantCounters::submits_admitted,
                      &TenantCounters::submits_shed, "submit");
}

Status TenantRegistry::admit_query_at(TenantId tenant, common::VirtualNs now,
                                      std::uint32_t ops) {
  MutexLock lock(mu_);
  return admit_locked(query_limiter_, tenant, now, ops,
                      &TenantCounters::queries_admitted,
                      &TenantCounters::queries_shed, "query");
}

Status TenantRegistry::admit_submit(TenantId tenant, std::uint32_t ops) {
  return admit_submit_at(tenant, now_ns(), ops);
}

Status TenantRegistry::admit_query(TenantId tenant, std::uint32_t ops) {
  return admit_query_at(tenant, now_ns(), ops);
}

QueryOptions TenantRegistry::query_defaults(TenantId tenant) const {
  MutexLock lock(mu_);
  auto it = configs_.find(tenant);
  if (it != configs_.end()) return it->second.query_defaults;
  QueryOptions opts;
  opts.tenant = tenant;
  return opts;
}

std::vector<TenantStatsRow> TenantRegistry::stats() const {
  MutexLock lock(mu_);
  std::vector<TenantStatsRow> rows;
  rows.reserve(counters_.size());
  for (const auto& [tenant, counters] : counters_) {
    rows.push_back(TenantStatsRow{tenant, counters});
  }
  std::sort(rows.begin(), rows.end(),
            [](const TenantStatsRow& a, const TenantStatsRow& b) {
              return a.tenant < b.tenant;
            });
  return rows;
}

TenantCounters TenantRegistry::counters(TenantId tenant) const {
  MutexLock lock(mu_);
  auto it = counters_.find(tenant);
  return it == counters_.end() ? TenantCounters{} : it->second;
}

}  // namespace dta
