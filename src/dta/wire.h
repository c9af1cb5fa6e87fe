// The DTA wire protocol (paper Figure 4).
//
// A DTA report is a UDP packet whose payload is:
//     [ DTA header | primitive sub-header | telemetry payload ]
// The DTA header selects the primitive; the sub-header carries the
// primitive parameters (key, redundancy, list id, hop index, ...). The
// translator parses these and substitutes RoCEv2 headers in place.
//
// The protocol is deliberately lightweight: reporters only build these
// headers — no RDMA state, no per-connection metadata — which is what
// makes the reporter footprint as small as plain UDP (paper Figure 9).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/small_bytes.h"
#include "dta/tenant.h"

namespace dta::proto {

inline constexpr std::uint8_t kDtaVersion = 2;  // second iteration, per §4

enum class PrimitiveOp : std::uint8_t {
  kKeyWrite = 1,
  kAppend = 2,
  kKeyIncrement = 3,
  kPostcard = 4,
  kNack = 0xFE,  // translator -> reporter congestion notification (§5.2)
};

const char* primitive_name(PrimitiveOp op);

// Base DTA header: 4 bytes.
struct DtaHeader {
  std::uint8_t version = kDtaVersion;
  PrimitiveOp opcode = PrimitiveOp::kKeyWrite;
  bool immediate = false;  // request a CPU interrupt at the collector (§7)
  std::uint8_t reserved = 0;

  // In-process annotation only — NOT encoded to the wire. The serving
  // plane (dta::Client) stamps the submitting tenant here so the
  // collector tiers can account ingest per tenant; wire reporters are
  // infrastructure switches and carry no tenancy.
  TenantId tenant = kDefaultTenant;

  static constexpr std::size_t kSize = 4;
  void encode(common::Bytes& out) const;
  static std::optional<DtaHeader> decode(common::Cursor& cur);
};

// Telemetry keys are arbitrary byte strings up to 16 bytes (flow
// 5-tuples are 13; query IDs / source IPs are 4). Invariant: a key is
// canonical, i.e. length <= 16 and every byte of `bytes` past `length`
// is zero. from() and the wire decoders build only canonical keys,
// dta::Client rejects any other with a typed Status, and both equality
// and the index order (collector::index_key_less) assume it.
struct TelemetryKey {
  std::array<std::uint8_t, 16> bytes{};
  std::uint8_t length = 0;

  common::ByteSpan span() const { return {bytes.data(), length}; }
  static TelemetryKey from(common::ByteSpan b);
  bool operator==(const TelemetryKey& o) const {
    return length == o.length && bytes == o.bytes;
  }
  bool operator!=(const TelemetryKey& o) const { return !(*this == o); }
};

// --- Key-Write: (key, data, redundancy) -------------------------------------
// The wire carries the value's length in one byte, so a value is at most
// kKeyWriteMaxValueBytes long. Up to kKeyWriteInPlaceBytes of it ride
// inside the report (the paper's 20-byte INT values do), so such a
// report reaches store memory without a heap block; a longer value
// takes one. kKeyWriteInPlaceBytes is the most that keeps ParsedDta at
// 64 bytes (asserted below).
inline constexpr std::size_t kKeyWriteInPlaceBytes = 24;
inline constexpr std::size_t kKeyWriteMaxValueBytes = 255;

struct KeyWriteReport {
  TelemetryKey key;
  std::uint8_t redundancy = 2;  // N — per-key importance knob (§4)
  // The telemetry value.
  common::SmallBytes<kKeyWriteInPlaceBytes> data;

  void encode(common::Bytes& out) const;
  static std::optional<KeyWriteReport> decode(common::Cursor& cur);
};

// --- Key-Increment: (key, counter, redundancy) ------------------------------
struct KeyIncrementReport {
  TelemetryKey key;
  std::uint8_t redundancy = 2;
  std::uint64_t counter = 0;

  void encode(common::Bytes& out) const;
  static std::optional<KeyIncrementReport> decode(common::Cursor& cur);
};

// --- Postcard: (key, hop, path_len, value) ----------------------------------
struct PostcardReport {
  TelemetryKey key;       // flow / packet ID x
  std::uint8_t hop = 0;   // i — this postcard's position on the path
  std::uint8_t path_len = 0;  // egress-provided path length (§4), 0 = unknown
  std::uint8_t redundancy = 1;
  std::uint32_t value = 0;  // 4B INT metadata (switch ID, latency, ...)

  void encode(common::Bytes& out) const;
  static std::optional<PostcardReport> decode(common::Cursor& cur);
};

// --- Append: (list, entries...) ----------------------------------------------
// A single Append packet may carry several fixed-size entries (report
// packing; the traffic generator in §6.7 relies on this to exceed
// ingress pps limits).
struct AppendReport {
  std::uint32_t list_id = 0;
  std::uint8_t entry_size = 4;
  std::vector<common::Bytes> entries;

  void encode(common::Bytes& out) const;
  static std::optional<AppendReport> decode(common::Cursor& cur);
};

// --- NACK: dropped-report notification --------------------------------------
// The translator's congestion backpressure signal (§5.2). v2 adds a
// retry-after hint — the rate limiter's token-refill horizon, in
// microseconds (0 = no estimate) — so the reporter endpoint can back
// off for a bounded, load-derived interval instead of guessing.
struct NackReport {
  PrimitiveOp dropped_op = PrimitiveOp::kKeyWrite;
  std::uint32_t dropped_count = 0;
  std::uint32_t retry_after_us = 0;

  void encode(common::Bytes& out) const;
  static std::optional<NackReport> decode(common::Cursor& cur);
};

using Report = std::variant<KeyWriteReport, KeyIncrementReport, PostcardReport,
                            AppendReport, NackReport>;

struct ParsedDta {
  DtaHeader header;
  Report report;
};
// Every ingest queue slot and bench ring entry is one ParsedDta: a
// larger in-place Key-Write value would grow them all.
static_assert(sizeof(ParsedDta) == 64, "ParsedDta must stay 64 bytes");

// Full-packet helpers: build/parse the DTA UDP payload.
common::Bytes encode_dta_payload(const DtaHeader& hdr, const Report& report);
std::optional<ParsedDta> decode_dta_payload(common::ByteSpan payload);

}  // namespace dta::proto
