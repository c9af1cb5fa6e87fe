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
      submit_("submit"),
      query_("query") {}

common::VirtualNs TenantRegistry::now_ns() const {
  return static_cast<common::VirtualNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TenantRegistry::set_quota(Direction& direction, TenantId tenant,
                               double rate, std::uint32_t burst) {
  Account& account = direction.accounts[tenant];
  // A zero rate means unlimited: drop any bucket an earlier
  // registration installed, or the old quota would keep shedding.
  if (rate > 0.0) {
    account.bucket.emplace(bucket_params(rate, burst));
  } else {
    account.bucket.reset();
  }
  if (tenant == kDefaultTenant) {
    direction.default_has_bucket.store(account.bucket.has_value(),
                                       std::memory_order_relaxed);
  }
}

void TenantRegistry::register_tenant(TenantId tenant, TenantConfig config) {
  MutexLock submit_lock(submit_.mu);
  MutexLock query_lock(query_.mu);
  config.query_defaults.tenant = tenant;
  query_defaults_[tenant] = config.query_defaults;
  set_quota(submit_, tenant, config.quota.submits_per_second,
            config.quota.submit_burst);
  set_quota(query_, tenant, config.quota.queries_per_second,
            config.quota.query_burst);
}

Status TenantRegistry::admit(Direction& direction, TenantId tenant,
                             std::optional<common::VirtualNs> at,
                             std::uint32_t ops) {
  // The default tenant with no bucket is counted without the lock. A
  // zero-op admission takes the lock: the account it makes is the
  // tenant's row.
  if (tenant == kDefaultTenant && ops != 0 &&
      !direction.default_has_bucket.load(std::memory_order_relaxed)) {
    direction.default_admitted.fetch_add(ops, std::memory_order_relaxed);
    return Status::Ok();
  }
  MutexLock lock(direction.mu);
  Account& account = direction.accounts[tenant];
  // No bucket (an unregistered tenant or an unlimited quota): counted,
  // never shed.
  if (account.bucket) {
    const common::VirtualNs now = at ? *at : now_ns();
    if (!account.bucket->admit(now, ops)) {
      account.shed += ops;
      return Status::ResourceExhausted(
          "tenant " + std::to_string(tenant) + " " + direction.verb +
              " quota exhausted",
          account.bucket->retry_after_ns(now, ops));
    }
  }
  account.admitted += ops;
  return Status::Ok();
}

Status TenantRegistry::admit_submit_at(TenantId tenant, common::VirtualNs now,
                                       std::uint32_t ops) {
  return admit(submit_, tenant, now, ops);
}

Status TenantRegistry::admit_query_at(TenantId tenant, common::VirtualNs now,
                                      std::uint32_t ops) {
  return admit(query_, tenant, now, ops);
}

Status TenantRegistry::admit_submit(TenantId tenant, std::uint32_t ops) {
  return admit(submit_, tenant, std::nullopt, ops);
}

Status TenantRegistry::admit_query(TenantId tenant, std::uint32_t ops) {
  return admit(query_, tenant, std::nullopt, ops);
}

QueryOptions TenantRegistry::query_defaults(TenantId tenant) const {
  MutexLock lock(query_.mu);
  auto it = query_defaults_.find(tenant);
  if (it != query_defaults_.end()) return it->second;
  QueryOptions opts;
  opts.tenant = tenant;
  return opts;
}

TenantCounters TenantRegistry::merge(TenantId tenant, const Direction& submit,
                                     const Direction& query) {
  TenantCounters out;
  if (tenant == kDefaultTenant) {
    out.submits_admitted =
        submit.default_admitted.load(std::memory_order_relaxed);
    out.queries_admitted =
        query.default_admitted.load(std::memory_order_relaxed);
  }
  if (auto it = submit.accounts.find(tenant); it != submit.accounts.end()) {
    out.submits_admitted += it->second.admitted;
    out.submits_shed = it->second.shed;
  }
  if (auto it = query.accounts.find(tenant); it != query.accounts.end()) {
    out.queries_admitted += it->second.admitted;
    out.queries_shed = it->second.shed;
  }
  return out;
}

std::vector<TenantStatsRow> TenantRegistry::stats() const {
  MutexLock submit_lock(submit_.mu);
  MutexLock query_lock(query_.mu);
  std::vector<TenantId> tenants;
  tenants.reserve(submit_.accounts.size() + query_.accounts.size() + 1);
  for (const auto& entry : submit_.accounts) tenants.push_back(entry.first);
  for (const auto& entry : query_.accounts) tenants.push_back(entry.first);
  // The default tenant has a row once it was admitted an op, with an
  // account or without.
  if (submit_.default_admitted.load(std::memory_order_relaxed) != 0 ||
      query_.default_admitted.load(std::memory_order_relaxed) != 0) {
    tenants.push_back(kDefaultTenant);
  }
  std::sort(tenants.begin(), tenants.end());
  tenants.erase(std::unique(tenants.begin(), tenants.end()), tenants.end());
  std::vector<TenantStatsRow> rows;
  rows.reserve(tenants.size());
  for (TenantId tenant : tenants) {
    rows.push_back(TenantStatsRow{tenant, merge(tenant, submit_, query_)});
  }
  return rows;
}

TenantCounters TenantRegistry::counters(TenantId tenant) const {
  MutexLock submit_lock(submit_.mu);
  MutexLock query_lock(query_.mu);
  return merge(tenant, submit_, query_);
}

}  // namespace dta
