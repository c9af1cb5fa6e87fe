#include "translator/rate_limiter.h"

#include <algorithm>
#include <cmath>

namespace dta::translator {

double RateLimiter::tokens_at(common::VirtualNs now) const {
  if (now <= last_refill_) return tokens_;
  const double elapsed_s = static_cast<double>(now - last_refill_) * 1e-9;
  return std::min(params_.burst,
                  tokens_ + elapsed_s * params_.ops_per_second);
}

bool RateLimiter::admit(common::VirtualNs now, std::uint32_t ops) {
  tokens_ = tokens_at(now);
  last_refill_ = std::max(last_refill_, now);
  const double need = static_cast<double>(ops);
  if (tokens_ < need) return false;
  tokens_ -= need;
  return true;
}

common::VirtualNs RateLimiter::retry_after_ns(common::VirtualNs now,
                                              std::uint32_t ops) const {
  // A request wider than the bucket is never admissible; saturate the
  // hint to the full-bucket refill so the caller still backs off a
  // finite, maximal interval.
  const double need =
      std::min(static_cast<double>(ops), params_.burst) - tokens_at(now);
  if (need <= 0.0) return 0;
  if (params_.ops_per_second <= 0.0) return ~0ull >> 1;
  const double ns = need / params_.ops_per_second * 1e9;
  return static_cast<common::VirtualNs>(std::ceil(ns));
}

std::optional<proto::NackReport> RateLimiter::make_nack(
    proto::PrimitiveOp op, std::uint32_t dropped,
    common::VirtualNs retry_after_ns) const {
  if (!params_.nack_on_drop) return std::nullopt;
  proto::NackReport nack;
  nack.dropped_op = op;
  nack.dropped_count = dropped;
  nack.retry_after_us = static_cast<std::uint32_t>(
      std::min<common::VirtualNs>(retry_after_ns / 1000, 0xFFFFFFFFull));
  return nack;
}

}  // namespace dta::translator
