// Collector-side Key-Increment store (paper §4 "Key-Increment",
// Appendix A.4 Algorithm 6).
//
// "Our KI memory acts as a Count-Min Sketch": the translator issues
// FETCH_ADDs on N hashed counters; a query reads the N counters and
// returns the minimum. Collisions only ever inflate counters, so the
// estimate is a one-sided overestimate with classic CMS guarantees.
// Counters may be periodically reset depending on the application.
#pragma once

#include <cstdint>
#include <utility>

#include "dta/wire.h"
#include "rdma/memory_region.h"
#include "translator/crc_unit.h"

namespace dta::collector {

class KeyIncrementStore {
 public:
  KeyIncrementStore(rdma::MemoryRegion* region, std::uint64_t num_slots);

  // Algorithm 6: min over the N hashed counters.
  std::uint64_t query(const proto::TelemetryKey& key,
                      std::uint8_t redundancy) const;

  // query() in its two steps (see KeyWriteStore::prefetch): `hashes` is
  // translator::key_hashes(key, redundancy, /*with_checksum=*/false).
  void prefetch(const translator::KeyHashes& hashes) const;
  std::uint64_t read(const translator::KeyHashes& hashes) const;

  // Reads one replica's counter (for tests).
  std::uint64_t slot_value(const proto::TelemetryKey& key,
                           std::uint8_t replica) const;

  // Periodic reset (§4: "The counters' memory may be reset periodically").
  void reset();

  std::uint64_t num_slots() const { return num_slots_; }
  static constexpr std::uint32_t slot_bytes() { return 8; }

  // Byte extent of counter `slot` within the store's region ({offset,
  // length}). Production dirty tracking marks the op extents directly
  // (8 B per FETCH_ADD); this is the store-side statement of the same
  // layout, the oracle the dirty-tracker tests cross-check against.
  std::pair<std::uint64_t, std::uint64_t> slot_byte_range(
      std::uint64_t slot) const {
    return {slot * slot_bytes(), slot_bytes()};
  }

 private:
  rdma::MemoryRegion* region_;
  std::uint64_t num_slots_;
};

}  // namespace dta::collector
