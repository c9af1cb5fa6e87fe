// RDMA rate limiter with NACK generation (paper §5.2) — tenant-aware.
//
// "RDMA queue-pair resynchronization and rate limiting to ensure stable
// RDMA connections in case of congestion events at the collectors' NICs.
// Rate limiting can be configured to generate a NACK sent back to the
// reporter in case of a dropped report during these congestion events."
//
// Token bucket over RDMA operations: each verb consumes one token;
// tokens refill at the configured rate. When the bucket is empty the
// report is dropped and (optionally) a DTA NACK is produced, carrying a
// retry-after hint derived from the bucket's refill horizon.
//
// Multi-tenancy: the limiter keeps one token bucket per *configured*
// tenant plus one shared default bucket. Tenants with explicit params
// (set_tenant_params) are isolated — one tenant saturating its bucket
// cannot consume another's tokens — while unconfigured tenants fall
// back to the shared default bucket (the pre-tenant behavior, and the
// right degradation for a deployment that never registers tenants).
// Admission and drop counts are kept per bucket.
//
// Not thread-safe: callers (the translator pipeline, or the serving
// plane's TenantRegistry) serialize access.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/time_model.h"
#include "dta/tenant.h"
#include "dta/wire.h"

namespace dta::translator {

struct RateLimiterParams {
  double ops_per_second = 105e6;  // collector NIC message rate
  double burst = 4096;            // bucket depth
  bool nack_on_drop = true;
};

class RateLimiter {
 public:
  explicit RateLimiter(RateLimiterParams params);

  // Gives `tenant` its own isolated token bucket (replacing an earlier
  // one: the bucket restarts full). Unconfigured tenants share the
  // default bucket.
  void set_tenant_params(TenantId tenant, RateLimiterParams params);
  // Drops `tenant`'s own bucket (no-op without one): the tenant falls
  // back to the shared default bucket.
  void clear_tenant_params(TenantId tenant) { tenants_.erase(tenant); }
  bool has_tenant_bucket(TenantId tenant) const {
    return tenants_.count(tenant) != 0;
  }

  // Requests `ops` tokens from `tenant`'s bucket (the shared default
  // bucket when the tenant has none) at virtual time `now`. Returns
  // true if admitted; on false the caller must shed the report — and
  // must surface the shed, via NACK or dta::Status, never silently.
  bool admit(TenantId tenant, common::VirtualNs now, std::uint32_t ops);
  // Tenant-blind convenience: the shared default bucket.
  bool admit(common::VirtualNs now, std::uint32_t ops) {
    return admit(kDefaultTenant, now, ops);
  }

  // Refill horizon: how long after `now` the bucket could admit `ops`
  // tokens (0 when it already can). An `ops` burst beyond the bucket
  // depth can never be admitted; the horizon saturates to the full
  // bucket's refill time so callers still get a finite backoff.
  common::VirtualNs retry_after_ns(TenantId tenant, common::VirtualNs now,
                                   std::uint32_t ops) const;

  // Builds the NACK to send back to the reporter for a dropped report,
  // if NACK generation is enabled for the tenant's bucket.
  // `retry_after_ns` is clamped into the NACK's 32-bit microsecond
  // hint field.
  std::optional<proto::NackReport> make_nack(TenantId tenant,
                                             proto::PrimitiveOp op,
                                             std::uint32_t dropped,
                                             common::VirtualNs retry_after_ns);
  std::optional<proto::NackReport> make_nack(proto::PrimitiveOp op,
                                             std::uint32_t dropped) {
    return make_nack(kDefaultTenant, op, dropped, 0);
  }

  // Totals across every bucket.
  std::uint64_t admitted() const;
  std::uint64_t dropped() const;
  // Per-bucket counters (the shared default bucket for unconfigured
  // tenants — so a tenant without its own bucket reads shared totals).
  std::uint64_t admitted(TenantId tenant) const;
  std::uint64_t dropped(TenantId tenant) const;

 private:
  struct Bucket {
    explicit Bucket(RateLimiterParams p) : params(p), tokens(p.burst) {}
    RateLimiterParams params;
    double tokens;
    common::VirtualNs last_refill = 0;
    std::uint64_t admitted = 0;
    std::uint64_t dropped = 0;

    void refill(common::VirtualNs now);
  };

  Bucket& bucket_of(TenantId tenant);
  const Bucket& bucket_of(TenantId tenant) const;

  Bucket default_bucket_;
  std::unordered_map<TenantId, Bucket> tenants_;
};

}  // namespace dta::translator
