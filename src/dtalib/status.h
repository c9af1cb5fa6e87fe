// dtalib v2 error model: dta::Status and dta::Expected<T>.
//
// Before v2 the library's seams reported failure as a mix of bools,
// optionals, empty vectors and asserts; callers could not tell "key not
// reported" from "replica set dead" from "you asked for a list that
// does not exist". Status gives every failure a distinct, comparable
// code, and Expected<T> carries either a value or the Status that
// explains its absence — uniformly across every Backend, so
// application code is backend-agnostic.
//
// The error-code contract (every submit/query entry point of the
// client surface obeys it):
//   * kNotFound / kConflict are *data* outcomes (the store answered,
//     the answer is empty or ambiguous) — expected in normal operation.
//     Retrying without new reports will not change them.
//   * kUnavailable / kStalenessViolation / kResourceExhausted are
//     *serving* outcomes (no live replica, the freshness floor cannot
//     be met, or admission control shed the call). kResourceExhausted
//     is the client-visible backpressure signal — the serving-plane
//     form of the translator's congestion NACK (paper §5.2) — and
//     carries a retry-after hint (retry_after_ns): back off at least
//     that long, then retry. Never a silent drop.
//   * kInvalidArgument / kOutOfRange / kUnknownList / kNotConfigured /
//     kUnsupported are *caller* errors, reported instead of UB.
//     Retrying the identical call is a bug.
//
// Status is [[nodiscard]]: every submit/report/flush entry point
// returns one, and dropping it on the floor is how backpressure
// becomes a silent drop — the exact failure mode this model exists to
// eliminate.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "common/lifetime_annotations.h"

namespace dta {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  // Data outcomes.
  kNotFound,   // no slot carried the key's checksum / no path recovered
  kConflict,   // replicas or slots disagree / vote below threshold
  // Serving outcomes.
  kUnavailable,         // every candidate replica host is failed
  kStalenessViolation,  // covers_seq floor ahead of everything submitted
  kResourceExhausted,   // tenant quota / rate limit shed the call (NACK)
  // Caller errors.
  kInvalidArgument,  // empty key, zero-length entry, ...
  kOutOfRange,       // value/entry/count exceeds the store geometry
  kUnknownList,      // Append list id outside the configured list space
  kNotConfigured,    // primitive not enabled on this backend
  kUnsupported,      // operation not meaningful for this backend
};

const char* status_code_name(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  // Backpressure constructor: kResourceExhausted with the structured
  // retry-after hint. `retry_after_ns` is the admission controller's
  // estimate of when the shed call would next be admitted (token-bucket
  // refill horizon); 0 means "no estimate, back off exponentially".
  static Status ResourceExhausted(std::string message,
                                  std::uint64_t retry_after_ns) {
    Status status(StatusCode::kResourceExhausted, std::move(message));
    status.retry_after_ns_ = retry_after_ns;
    return status;
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  // Borrows the Status: `const auto& m = f().message();` would dangle
  // once the temporary Status dies — lifetimebound flags it.
  const std::string& message() const DTA_LIFETIMEBOUND { return message_; }

  // The structured retry-after payload. Only ever non-zero on
  // kResourceExhausted; the typed accessor keeps callers from parsing
  // the hint out of the message string.
  std::uint64_t retry_after_ns() const { return retry_after_ns_; }

  std::string to_string() const {
    std::string out = status_code_name(code_);
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    if (retry_after_ns_ > 0) {
      out += " (retry after ";
      out += std::to_string(retry_after_ns_ / 1000);
      out += "us)";
    }
    return out;
  }

  // Statuses compare by code: callers branch on the failure class, not
  // on message text or the (load-dependent) retry hint.
  bool operator==(const Status& o) const { return code_ == o.code_; }
  bool operator!=(const Status& o) const { return !(*this == o); }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  std::uint64_t retry_after_ns_ = 0;
};

inline const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kConflict: return "CONFLICT";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kStalenessViolation: return "STALENESS_VIOLATION";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kUnknownList: return "UNKNOWN_LIST";
    case StatusCode::kNotConfigured: return "NOT_CONFIGURED";
    case StatusCode::kUnsupported: return "UNSUPPORTED";
  }
  return "UNKNOWN";
}

// A value or the Status explaining its absence. Constructing from a
// value yields ok(); constructing from a non-OK Status yields an empty
// Expected carrying that Status. (An OK Status without a value is a
// programming error and asserts.) [[nodiscard]]: dropping a query
// result on the floor is always a bug.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value)  // NOLINT: implicit, like absl::StatusOr
      : value_(std::move(value)) {}
  Expected(Status status)  // NOLINT: implicit
      : status_(std::move(status)) {
    assert(!status_.ok() && "Expected built from OK status without a value");
  }
  Expected(StatusCode code, std::string message)
      : status_(code, std::move(message)) {}

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Status& status() const DTA_LIFETIMEBOUND { return status_; }
  StatusCode code() const { return status_.code(); }

  // value()/operator* borrow the Expected: binding a reference to the
  // value of a *temporary* Expected (`auto& v = query().value();`)
  // leaves the reference dangling at the end of the statement.
  // lifetimebound turns that into a clang compile error; move out of
  // the rvalue overload (`auto v = query().value();`) instead.
  T& value() & DTA_LIFETIMEBOUND {
    assert(ok());
    return *value_;
  }
  const T& value() const& DTA_LIFETIMEBOUND {
    assert(ok());
    return *value_;
  }
  T&& value() && DTA_LIFETIMEBOUND {
    assert(ok());
    return *std::move(value_);
  }
  T value_or(T fallback) const& { return ok() ? *value_ : fallback; }

  T& operator*() & DTA_LIFETIMEBOUND { return value(); }
  const T& operator*() const& DTA_LIFETIMEBOUND { return value(); }
  T* operator->() DTA_LIFETIMEBOUND { return &value(); }
  const T* operator->() const DTA_LIFETIMEBOUND { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

// The sanctioned way to consume a Status (or unwrap an Expected) when
// failure is a programming error rather than a condition to handle:
// aborts loudly instead of discarding. `(void)submit(...)`-style
// discards are rejected by tools/lint/dta_lint.py (rule
// status-discard); write `must(submit(...))` to assert success.
inline void must(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "dta::must failed: %s\n", status.to_string().c_str());
    std::abort();
  }
}

template <typename T>
T must(Expected<T> expected) {
  must(expected.ok() ? Status::Ok() : expected.status());
  return std::move(expected).value();
}

}  // namespace dta
