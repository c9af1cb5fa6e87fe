#include "dta/wire.h"

#include <algorithm>

namespace dta::proto {

using common::Bytes;
using common::ByteSpan;
using common::Cursor;

const char* primitive_name(PrimitiveOp op) {
  switch (op) {
    case PrimitiveOp::kKeyWrite: return "Key-Write";
    case PrimitiveOp::kAppend: return "Append";
    case PrimitiveOp::kKeyIncrement: return "Key-Increment";
    case PrimitiveOp::kPostcard: return "Postcarding";
    case PrimitiveOp::kNack: return "NACK";
  }
  return "?";
}

// ------------------------------------------------------------------ header

void DtaHeader::encode(Bytes& out) const {
  common::put_u8(out, version);
  common::put_u8(out, static_cast<std::uint8_t>(opcode));
  common::put_u8(out, immediate ? 1 : 0);
  common::put_u8(out, reserved);
}

std::optional<DtaHeader> DtaHeader::decode(Cursor& cur) {
  DtaHeader h;
  h.version = cur.u8();
  h.opcode = static_cast<PrimitiveOp>(cur.u8());
  h.immediate = cur.u8() != 0;
  h.reserved = cur.u8();
  if (!cur.ok() || h.version != kDtaVersion) return std::nullopt;
  return h;
}

TelemetryKey TelemetryKey::from(ByteSpan b) {
  TelemetryKey k;
  k.length = static_cast<std::uint8_t>(std::min<std::size_t>(b.size(), 16));
  std::copy_n(b.begin(), k.length, k.bytes.begin());
  return k;
}

namespace {

void encode_key(Bytes& out, const TelemetryKey& key) {
  common::put_u8(out, key.length);
  common::put_bytes(out, key.span());
}

std::optional<TelemetryKey> decode_key(Cursor& cur) {
  const std::uint8_t len = cur.u8();
  if (len > 16) return std::nullopt;
  ByteSpan kb = cur.bytes(len);
  if (!cur.ok()) return std::nullopt;
  return TelemetryKey::from(kb);
}

}  // namespace

// --------------------------------------------------------------- Key-Write

void KeyWriteReport::encode(Bytes& out) const {
  common::put_u8(out, redundancy);
  encode_key(out, key);
  common::put_u8(out, static_cast<std::uint8_t>(data.size()));
  common::put_bytes(out, ByteSpan(data));
}

std::optional<KeyWriteReport> KeyWriteReport::decode(Cursor& cur) {
  KeyWriteReport r;
  r.redundancy = cur.u8();
  auto key = decode_key(cur);
  if (!key) return std::nullopt;
  r.key = *key;
  const std::uint8_t dlen = cur.u8();
  ByteSpan data = cur.bytes(dlen);
  if (!cur.ok() || r.redundancy == 0 || r.redundancy > 8) return std::nullopt;
  r.data.assign(data.begin(), data.end());
  return r;
}

// ----------------------------------------------------------- Key-Increment

void KeyIncrementReport::encode(Bytes& out) const {
  common::put_u8(out, redundancy);
  encode_key(out, key);
  common::put_u64(out, counter);
}

std::optional<KeyIncrementReport> KeyIncrementReport::decode(Cursor& cur) {
  KeyIncrementReport r;
  r.redundancy = cur.u8();
  auto key = decode_key(cur);
  if (!key) return std::nullopt;
  r.key = *key;
  r.counter = cur.u64();
  if (!cur.ok() || r.redundancy == 0 || r.redundancy > 8) return std::nullopt;
  return r;
}

// ----------------------------------------------------------------- Postcard

void PostcardReport::encode(Bytes& out) const {
  encode_key(out, key);
  common::put_u8(out, hop);
  common::put_u8(out, path_len);
  common::put_u8(out, redundancy);
  common::put_u32(out, value);
}

std::optional<PostcardReport> PostcardReport::decode(Cursor& cur) {
  PostcardReport r;
  auto key = decode_key(cur);
  if (!key) return std::nullopt;
  r.key = *key;
  r.hop = cur.u8();
  r.path_len = cur.u8();
  r.redundancy = cur.u8();
  r.value = cur.u32();
  if (!cur.ok() || r.redundancy == 0 || r.redundancy > 8) return std::nullopt;
  return r;
}

// ------------------------------------------------------------------- Append

void AppendReport::encode(Bytes& out) const {
  common::put_u32(out, list_id);
  common::put_u8(out, entry_size);
  common::put_u8(out, static_cast<std::uint8_t>(entries.size()));
  for (const auto& e : entries) {
    // Entries are fixed-size: a short entry is zero-padded on the wire,
    // a long one cut.
    const std::size_t kept = std::min<std::size_t>(e.size(), entry_size);
    common::put_bytes(out, ByteSpan(e.data(), kept));
    out.resize(out.size() + (entry_size - kept), 0);
  }
}

std::optional<AppendReport> AppendReport::decode(Cursor& cur) {
  AppendReport r;
  r.list_id = cur.u32();
  r.entry_size = cur.u8();
  const std::uint8_t count = cur.u8();
  if (!cur.ok() || r.entry_size == 0 || count == 0) return std::nullopt;
  r.entries.reserve(count);
  for (std::uint8_t i = 0; i < count; ++i) {
    ByteSpan e = cur.bytes(r.entry_size);
    if (!cur.ok()) return std::nullopt;
    r.entries.emplace_back().assign(e.begin(), e.end());
  }
  return r;
}

// --------------------------------------------------------------------- NACK

void NackReport::encode(Bytes& out) const {
  common::put_u8(out, static_cast<std::uint8_t>(dropped_op));
  common::put_u32(out, dropped_count);
  common::put_u32(out, retry_after_us);
}

std::optional<NackReport> NackReport::decode(Cursor& cur) {
  NackReport r;
  r.dropped_op = static_cast<PrimitiveOp>(cur.u8());
  r.dropped_count = cur.u32();
  r.retry_after_us = cur.u32();
  if (!cur.ok()) return std::nullopt;
  return r;
}

// ------------------------------------------------------------ full payload

Bytes encode_dta_payload(const DtaHeader& hdr, const Report& report) {
  Bytes out;
  DtaHeader h = hdr;
  // Keep the header opcode consistent with the variant alternative.
  std::visit(
      [&h](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, KeyWriteReport>) {
          h.opcode = PrimitiveOp::kKeyWrite;
        } else if constexpr (std::is_same_v<T, KeyIncrementReport>) {
          h.opcode = PrimitiveOp::kKeyIncrement;
        } else if constexpr (std::is_same_v<T, PostcardReport>) {
          h.opcode = PrimitiveOp::kPostcard;
        } else if constexpr (std::is_same_v<T, AppendReport>) {
          h.opcode = PrimitiveOp::kAppend;
        } else if constexpr (std::is_same_v<T, NackReport>) {
          h.opcode = PrimitiveOp::kNack;
        }
      },
      report);
  h.encode(out);
  std::visit([&out](const auto& r) { r.encode(out); }, report);
  return out;
}

std::optional<ParsedDta> decode_dta_payload(ByteSpan payload) {
  Cursor cur(payload);
  auto hdr = DtaHeader::decode(cur);
  if (!hdr) return std::nullopt;

  ParsedDta parsed;
  parsed.header = *hdr;
  switch (hdr->opcode) {
    case PrimitiveOp::kKeyWrite: {
      auto r = KeyWriteReport::decode(cur);
      if (!r) return std::nullopt;
      parsed.report = std::move(*r);
      break;
    }
    case PrimitiveOp::kKeyIncrement: {
      auto r = KeyIncrementReport::decode(cur);
      if (!r) return std::nullopt;
      parsed.report = std::move(*r);
      break;
    }
    case PrimitiveOp::kPostcard: {
      auto r = PostcardReport::decode(cur);
      if (!r) return std::nullopt;
      parsed.report = std::move(*r);
      break;
    }
    case PrimitiveOp::kAppend: {
      auto r = AppendReport::decode(cur);
      if (!r) return std::nullopt;
      parsed.report = std::move(*r);
      break;
    }
    case PrimitiveOp::kNack: {
      auto r = NackReport::decode(cur);
      if (!r) return std::nullopt;
      parsed.report = std::move(*r);
      break;
    }
    default:
      return std::nullopt;
  }
  return parsed;
}

}  // namespace dta::proto
