#include "collector/keyincrement_store.h"

#include <algorithm>

namespace dta::collector {

KeyIncrementStore::KeyIncrementStore(rdma::MemoryRegion* region,
                                     std::uint64_t num_slots)
    : region_(region), num_slots_(num_slots) {}

std::uint64_t KeyIncrementStore::slot_value(const proto::TelemetryKey& key,
                                            std::uint8_t replica) const {
  const std::uint64_t slot = translator::slot_index(replica, key, num_slots_);
  return common::load_u64(region_->data() + slot * 8);
}

std::uint64_t KeyIncrementStore::query(const proto::TelemetryKey& key,
                                       std::uint8_t redundancy) const {
  return read(translator::key_hashes(key, redundancy, /*with_checksum=*/false));
}

void KeyIncrementStore::prefetch(const translator::KeyHashes& hashes) const {
  for (unsigned n = 0; n < hashes.replicas; ++n) {
    __builtin_prefetch(region_->data() +
                       hashes.slot_index(n, num_slots_) * slot_bytes());
  }
}

std::uint64_t KeyIncrementStore::read(
    const translator::KeyHashes& hashes) const {
  std::uint64_t best = ~0ull;
  for (unsigned n = 0; n < hashes.replicas; ++n) {
    best = std::min(best, common::load_u64(region_->data() +
                                           hashes.slot_index(n, num_slots_) *
                                               slot_bytes()));
  }
  return hashes.replicas == 0 ? 0 : best;
}

void KeyIncrementStore::reset() { region_->zero(); }

}  // namespace dta::collector
