// The serving-plane tenant registry: per-tenant quotas, admission
// control, and accounting for dta::Client.
//
// DTA's translator tier already sheds load with a token bucket + NACKs
// (§5.2); the serving plane gives each tenant quota that same bucket
// (translator::RateLimiter) at the Backend::submit/query seam, so a
// tenant over its quota gets the same shape of answer an overloaded
// wire would give a reporter: kResourceExhausted with a retry-after
// hint equal to the bucket's refill horizon. Admission is never
// silent — every shed is counted and typed.
//
// A tenant with no bucket is never shed: an unregistered tenant
// (tenant 0, kDefaultTenant, included) and a quota rate of 0
// (unlimited) are only counted, each in its own row.
//
// Thread-safe: each admission direction (submit, query) has its own
// mutex on its own cache line, so a submitting thread and a querying
// thread never wait on each other; registration and stats take both.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "common/time_model.h"
#include "dta/tenant.h"
#include "dtalib/options.h"
#include "dtalib/status.h"
#include "translator/rate_limiter.h"

namespace dta {

// Per-tenant rate quota. Rates are ops/second against a token bucket
// of the given burst; 0 ops/second = unlimited (that dimension is
// counted but never shed).
struct TenantQuota {
  double submits_per_second = 0.0;
  std::uint32_t submit_burst = 64;
  double queries_per_second = 0.0;
  std::uint32_t query_burst = 64;
};

// Everything the serving plane knows about one tenant: its quota and
// the QueryOptions defaults applied when the tenant queries without
// explicit per-call options.
struct TenantConfig {
  TenantQuota quota;
  QueryOptions query_defaults;
};

struct TenantCounters {
  std::uint64_t submits_admitted = 0;
  std::uint64_t submits_shed = 0;
  std::uint64_t queries_admitted = 0;
  std::uint64_t queries_shed = 0;
};

struct TenantStatsRow {
  TenantId tenant = kDefaultTenant;
  TenantCounters counters;
  // Collector-tier ingest attributed to this tenant (per-shard
  // reports_in slices summed across shards and hosts). Zero in the
  // registry's own stats(); the backends' stats() fill it from
  // CollectorRuntime::tenant_ingest().
  std::uint64_t ingest_reports = 0;
};

// Joins registry rows with a collector-tier per-tenant ingest map:
// fills ingest_reports on matching rows and appends rows for tenants
// seen only at the collector tier. Result sorted by tenant id.
std::vector<TenantStatsRow> join_tenant_ingest(
    std::vector<TenantStatsRow> rows,
    std::unordered_map<TenantId, std::uint64_t> ingest);

class TenantRegistry {
 public:
  TenantRegistry();

  // Installs (or replaces) a tenant's quota + query defaults. Buckets
  // restart full at the configured burst; a zero rate removes that
  // dimension's bucket, so the tenant is no longer shed there.
  void register_tenant(TenantId tenant, TenantConfig config);

  // Admission at the submit seam: ok and counted, or
  // kResourceExhausted carrying the token-refill horizon (ns) as the
  // retry-after hint. `ops` bills multi-op reports (e.g. packed
  // Append entries) against the bucket at their true weight.
  Status admit_submit(TenantId tenant, std::uint32_t ops = 1);
  // Admission at the query seam (one op per snapshot acquisition).
  Status admit_query(TenantId tenant, std::uint32_t ops = 1);

  // Deterministic variants for tests: admission at an explicit virtual
  // time instead of the wall clock.
  Status admit_submit_at(TenantId tenant, common::VirtualNs now,
                         std::uint32_t ops = 1);
  Status admit_query_at(TenantId tenant, common::VirtualNs now,
                        std::uint32_t ops = 1);

  // The tenant's registered QueryOptions defaults (tenant field
  // stamped), or plain defaults for unregistered tenants.
  QueryOptions query_defaults(TenantId tenant) const;

  // One row per tenant ever seen (registered or merely counted),
  // sorted by tenant id.
  std::vector<TenantStatsRow> stats() const;
  TenantCounters counters(TenantId tenant) const;

 private:
  // One tenant in one admission direction: its token bucket (only a
  // registered nonzero rate installs one) beside its tallies.
  struct Account {
    std::optional<translator::RateLimiter> bucket;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
  };

  // One admission direction: its tenants' accounts, behind a lock of
  // its own on a cache line of its own.
  struct alignas(64) Direction {
    explicit Direction(const char* verb_name) : verb(verb_name) {}

    mutable Mutex mu;
    std::unordered_map<TenantId, Account> accounts DTA_GUARDED_BY(mu);
    const char* verb;  // for shed messages; set once
  };

  common::VirtualNs now_ns() const;
  Status admit(Direction& direction, TenantId tenant, common::VirtualNs now,
               std::uint32_t ops) DTA_EXCLUDES(direction.mu);
  // Installs (full) or drops `tenant`'s bucket on one direction (rate
  // 0 = unlimited), keeping the account's tallies.
  static void set_quota(Direction& direction, TenantId tenant, double rate,
                        std::uint32_t burst) DTA_REQUIRES(direction.mu);
  static TenantCounters merge(TenantId tenant, const Direction& submit,
                              const Direction& query)
      DTA_REQUIRES(submit.mu, query.mu);

  // Set once in the constructor, read-only afterwards (not guarded).
  std::chrono::steady_clock::time_point epoch_;
  // Lock order where both are held: submit_.mu, then query_.mu.
  Direction submit_;
  Direction query_;
  // Read on the query side (query_defaults), so it shares that lock.
  std::unordered_map<TenantId, QueryOptions> query_defaults_
      DTA_GUARDED_BY(query_.mu);
};

}  // namespace dta
