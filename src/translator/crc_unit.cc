#include "translator/crc_unit.h"

namespace dta::translator {

std::uint64_t slot_index(unsigned replica, const proto::TelemetryKey& key,
                         std::uint64_t num_slots) {
  if (num_slots == 0) return 0;
  const std::uint32_t h = common::slot_crc(replica).compute(key.span());
  return h % num_slots;
}

std::uint32_t key_checksum(const proto::TelemetryKey& key) {
  return common::checksum_crc().compute(key.span());
}

std::uint64_t chunk_index(unsigned replica, const proto::TelemetryKey& key,
                          std::uint64_t num_chunks) {
  if (num_chunks == 0) return 0;
  const std::uint32_t h = common::slot_crc(replica).compute(key.span());
  return h % num_chunks;
}

std::uint32_t hop_checksum(const proto::TelemetryKey& key, unsigned hop) {
  return common::hop_crc(hop).compute(key.span());
}

std::uint32_t value_code(std::uint32_t value) {
  std::uint8_t buf[4];
  common::store_u32(buf, value);
  return common::value_crc().compute(common::ByteSpan(buf, 4));
}

KeyHashes key_hashes(const proto::TelemetryKey& key, unsigned replicas,
                     bool with_checksum) {
  const common::Crc32* engines[9] = {};
  std::uint32_t hashes[9] = {};
  std::size_t count = 0;
  if (with_checksum) engines[count++] = &common::checksum_crc();
  for (unsigned i = 0; i < replicas; ++i) {
    engines[count++] = &common::slot_crc(i);  // enforces replicas <= 8
  }
  common::Crc32::compute_multi(engines, count, key.span(), hashes);
  KeyHashes out;
  out.replicas = replicas;
  std::size_t at = 0;
  if (with_checksum) out.checksum = hashes[at++];
  for (unsigned i = 0; i < replicas; ++i) out.slot[i] = hashes[at++];
  return out;
}

}  // namespace dta::translator
