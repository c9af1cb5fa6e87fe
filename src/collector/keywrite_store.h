// Collector-side Key-Write store (paper §4, Appendix A.1/A.5).
//
// The memory itself is written exclusively by the NIC (RDMA); the CPU
// only ever *reads* it to answer queries — Algorithm 2: recompute the N
// slot indexes, fetch each slot, keep candidates whose stored checksum
// matches h1(K), and return the plurality-vote winner. Ties between
// distinct candidate values or zero matches yield an empty return.
//
// The store can also be queried with a consensus threshold T ≥ 2
// ("requiring consensus of two values can be decided on a per query
// basis", Appendix A.5), trading empty returns for fewer wrong outputs.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dta/wire.h"
#include "rdma/memory_region.h"
#include "translator/crc_unit.h"

namespace dta::collector {

enum class QueryStatus : std::uint8_t {
  kHit,       // a value won the vote
  kNotFound,  // no slot carried the key's checksum
  kConflict,  // matching checksums but conflicting values / below threshold
};

struct KeyWriteQueryResult {
  QueryStatus status = QueryStatus::kNotFound;
  common::Bytes value;       // valid when status == kHit
  std::uint8_t votes = 0;    // how many replicas agreed
};

// Zero-copy variant: `value` points directly into the store's region
// memory, valid only while that memory is stable (for snapshot-backed
// stores: while the snapshot stays pinned). dtalib wraps it into a
// ByteView that owns the snapshot pin; callers that need the bytes past
// the pin copy explicitly.
struct KeyWriteViewResult {
  QueryStatus status = QueryStatus::kNotFound;
  common::ByteSpan value{};  // valid when status == kHit
  std::uint8_t votes = 0;
};

class KeyWriteStore {
 public:
  // `region` must hold num_slots * (4 + value_bytes) bytes.
  KeyWriteStore(const rdma::MemoryRegion* region, std::uint64_t num_slots,
                std::uint32_t value_bytes, std::uint32_t checksum_bits = 32);

  // Algorithm 2 with plurality vote and optional consensus threshold.
  // query() copies the winning value out; query_view() is the zero-copy
  // core both share — one interleaved CRC pass for h1 + all N slot
  // indexes, candidate pointers into region memory, no allocation.
  KeyWriteQueryResult query(const proto::TelemetryKey& key,
                            std::uint8_t redundancy,
                            std::uint8_t consensus_threshold = 1) const;
  KeyWriteViewResult query_view(const proto::TelemetryKey& key,
                                std::uint8_t redundancy,
                                std::uint8_t consensus_threshold = 1) const;

  // query_view() in its two steps, for callers that look one key up in
  // several snapshots, or many keys at once: hash the key once
  // (translator::key_hashes with min(redundancy, 8) replicas), prefetch
  // its slot lines in every store it will be read from, then read().
  // read() is the vote itself; prefetch() changes nothing.
  void prefetch(const translator::KeyHashes& hashes) const;
  KeyWriteViewResult read(const translator::KeyHashes& hashes,
                          std::uint8_t consensus_threshold = 1) const;

  // Split-phase helpers used by the Figure 11b breakdown bench: the
  // checksum computation and the slot fetch are the two measured parts.
  std::uint32_t compute_checksum(const proto::TelemetryKey& key) const;
  common::ByteSpan fetch_slot(const proto::TelemetryKey& key,
                              std::uint8_t replica) const;

  std::uint64_t num_slots() const { return num_slots_; }
  std::uint32_t value_bytes() const { return value_bytes_; }
  std::uint32_t slot_bytes() const { return 4 + value_bytes_; }
  std::uint32_t checksum_bits() const { return checksum_bits_; }

  // Byte extent of slot `slot` within the store's region ({offset,
  // length}). Production dirty tracking marks the translator-crafted op
  // extents (remote_va + payload) directly; this is the store-side
  // statement of the same slot→bytes layout, the oracle the dirty-
  // tracker tests cross-check marked ranges against.
  std::pair<std::uint64_t, std::uint64_t> slot_byte_range(
      std::uint64_t slot) const {
    return {slot * slot_bytes(), slot_bytes()};
  }

 private:
  std::uint32_t checksum_mask() const {
    return checksum_bits_ >= 32 ? 0xFFFFFFFFu
                                : ((1u << checksum_bits_) - 1);
  }

  const rdma::MemoryRegion* region_;
  std::uint64_t num_slots_;
  std::uint32_t value_bytes_;
  std::uint32_t checksum_bits_;
};

}  // namespace dta::collector
