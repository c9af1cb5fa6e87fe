// The translator's hash unit.
//
// Wraps the shared CRC engines (common/crc.h) into the specific hash
// functions the DTA design uses (paper §4, §5.2, Appendix A):
//   * slot_index(n, key, M)   — h0(n, K) mod M, the n'th redundancy slot;
//   * key_checksum(key)       — h1(K), the 4B concatenated checksum
//                               stored alongside Key-Write values;
//   * chunk_index(n, key, C)  — h_n(x), Postcarding chunk selector;
//   * hop_checksum(key, i)    — checksum(x, i), the per-hop b-bit value;
//   * value_code(v)           — g(v), the b-bit value encoding.
// All are pure functions of the key bytes, so reporters, translators and
// collectors compute identical indexes with no coordination — the
// "stateless indexing through global hash functions" of §4.
#pragma once

#include <cstdint>

#include "common/crc.h"
#include "dta/wire.h"

namespace dta::translator {

std::uint64_t slot_index(unsigned replica, const proto::TelemetryKey& key,
                         std::uint64_t num_slots);

std::uint32_t key_checksum(const proto::TelemetryKey& key);

std::uint64_t chunk_index(unsigned replica, const proto::TelemetryKey& key,
                          std::uint64_t num_chunks);

std::uint32_t hop_checksum(const proto::TelemetryKey& key, unsigned hop);

std::uint32_t value_code(std::uint32_t value);

// A key's hashes, computed once and reused for every store the key is
// written to or looked up in: h1(K) and the raw h0(i, K) before the
// modulo, so one computation serves stores of any size.
struct KeyHashes {
  std::uint32_t checksum = 0;  // h1(K); 0 when not computed
  std::uint32_t slot[8] = {};  // h0(i, K) for i < replicas
  unsigned replicas = 0;

  // slot_index(i, key, num_slots), without rereading the key.
  std::uint64_t slot_index(unsigned i, std::uint64_t num_slots) const {
    return num_slots == 0 ? 0 : slot[i] % num_slots;
  }
};

// Amortized form of key_checksum + slot_index(0..replicas-1): the key
// bytes are read once and folded through all replicas+1 hash engines in
// one interleaved pass (common::Crc32::compute_multi) instead of
// replicas+1 separate passes. with_checksum = false skips h1 (the
// Key-Increment shape). replicas <= 8, like slot_index.
KeyHashes key_hashes(const proto::TelemetryKey& key, unsigned replicas,
                     bool with_checksum = true);

// The "blank" value ⊔ written for hops beyond a short path (§4). Any
// sentinel outside the value space works; we use the all-ones pattern.
inline constexpr std::uint32_t kBlankValue = 0xFFFFFFFFu;

}  // namespace dta::translator
