#include "dta/report_builders.h"

namespace dta::reports {

proto::TelemetryKey u32_key(std::uint32_t id) {
  common::Bytes b;
  common::put_u32(b, id);
  return proto::TelemetryKey::from(common::ByteSpan(b));
}

proto::TelemetryKey u64_key(std::uint64_t id) {
  common::Bytes b;
  common::put_u64(b, id);
  return proto::TelemetryKey::from(common::ByteSpan(b));
}

proto::TelemetryKey mixed_key(std::uint64_t id) {
  // splitmix64 finalizer: every output bit depends on every input bit.
  std::uint64_t z = id + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return u64_key(z);
}

proto::ParsedDta wrap(proto::Report report, bool immediate) {
  proto::DtaHeader header;
  header.immediate = immediate;
  return {header, std::move(report)};
}

proto::ParsedDta keywrite(const proto::TelemetryKey& key,
                          common::ByteSpan value, std::uint8_t redundancy) {
  proto::KeyWriteReport r;
  r.key = key;
  r.redundancy = redundancy;
  r.data.assign(value.begin(), value.end());
  return wrap(std::move(r));
}

proto::ParsedDta keywrite_u32(const proto::TelemetryKey& key,
                              std::uint32_t value, std::uint8_t redundancy) {
  proto::KeyWriteReport r;
  r.key = key;
  r.redundancy = redundancy;
  common::put_u32(r.data, value);
  return wrap(std::move(r));
}

proto::ParsedDta keyincrement(const proto::TelemetryKey& key,
                              std::uint64_t delta, std::uint8_t redundancy) {
  proto::KeyIncrementReport r;
  r.key = key;
  r.redundancy = redundancy;
  r.counter = delta;
  return wrap(std::move(r));
}

proto::ParsedDta append(std::uint32_t list, common::ByteSpan entry) {
  proto::AppendReport r;
  r.list_id = list;
  r.entry_size = static_cast<std::uint8_t>(entry.size());
  r.entries.emplace_back().assign(entry.begin(), entry.end());
  return wrap(std::move(r));
}

proto::ParsedDta append_u32(std::uint32_t list, std::uint32_t value) {
  std::uint8_t entry[4];
  common::store_u32(entry, value);
  return append(list, common::ByteSpan(entry, sizeof entry));
}

proto::ParsedDta postcard(const proto::TelemetryKey& key, std::uint8_t hop,
                          std::uint8_t path_len, std::uint32_t value,
                          std::uint8_t redundancy) {
  proto::PostcardReport r;
  r.key = key;
  r.hop = hop;
  r.path_len = path_len;
  r.redundancy = redundancy;
  r.value = value;
  return wrap(std::move(r));
}

}  // namespace dta::reports
