// RDMA rate limiter with NACK generation (paper §5.2).
//
// "RDMA queue-pair resynchronization and rate limiting to ensure stable
// RDMA connections in case of congestion events at the collectors' NICs.
// Rate limiting can be configured to generate a NACK sent back to the
// reporter in case of a dropped report during these congestion events."
//
// One token bucket over RDMA operations: each verb consumes one token;
// tokens refill at the configured rate. When the bucket is empty the
// report is dropped and (optionally) a DTA NACK is produced, carrying a
// retry-after hint derived from the bucket's refill horizon. The
// serving plane's TenantRegistry keeps one of these per tenant quota.
//
// Not thread-safe: callers (the translator pipeline, or the serving
// plane's TenantRegistry) serialize access.
#pragma once

#include <cstdint>
#include <optional>

#include "common/time_model.h"
#include "dta/wire.h"

namespace dta::translator {

struct RateLimiterParams {
  double ops_per_second = 105e6;  // collector NIC message rate
  double burst = 4096;            // bucket depth
  bool nack_on_drop = true;
};

class RateLimiter {
 public:
  // The bucket starts full.
  explicit RateLimiter(RateLimiterParams params)
      : params_(params), tokens_(params.burst) {}

  // Requests `ops` tokens at virtual time `now`. Returns true if
  // admitted; on false the caller must shed the report — and must
  // surface the shed, via NACK or dta::Status, never silently.
  bool admit(common::VirtualNs now, std::uint32_t ops);

  // Refill horizon: how long after `now` the bucket could admit `ops`
  // tokens (0 when it already can). An `ops` burst beyond the bucket
  // depth can never be admitted; the horizon saturates to the full
  // bucket's refill time so callers still get a finite backoff.
  common::VirtualNs retry_after_ns(common::VirtualNs now,
                                   std::uint32_t ops) const;

  // Builds the NACK to send back to the reporter for a dropped report,
  // if NACK generation is enabled. `retry_after_ns` is clamped into the
  // NACK's 32-bit microsecond hint field.
  std::optional<proto::NackReport> make_nack(
      proto::PrimitiveOp op, std::uint32_t dropped,
      common::VirtualNs retry_after_ns) const;

 private:
  // The bucket's tokens projected to `now` (never past the burst).
  double tokens_at(common::VirtualNs now) const;

  RateLimiterParams params_;
  double tokens_;
  common::VirtualNs last_refill_ = 0;
};

}  // namespace dta::translator
