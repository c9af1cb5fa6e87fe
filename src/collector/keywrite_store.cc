#include "collector/keywrite_store.h"

#include <algorithm>
#include <cstring>

namespace dta::collector {

KeyWriteStore::KeyWriteStore(const rdma::MemoryRegion* region,
                             std::uint64_t num_slots,
                             std::uint32_t value_bytes,
                             std::uint32_t checksum_bits)
    : region_(region),
      num_slots_(num_slots),
      value_bytes_(value_bytes),
      checksum_bits_(checksum_bits) {}

std::uint32_t KeyWriteStore::compute_checksum(
    const proto::TelemetryKey& key) const {
  return translator::key_checksum(key);
}

common::ByteSpan KeyWriteStore::fetch_slot(const proto::TelemetryKey& key,
                                           std::uint8_t replica) const {
  const std::uint64_t slot =
      translator::slot_index(replica, key, num_slots_);
  const std::uint8_t* p = region_->data() + slot * slot_bytes();
  return {p, slot_bytes()};
}

KeyWriteQueryResult KeyWriteStore::query(const proto::TelemetryKey& key,
                                         std::uint8_t redundancy,
                                         std::uint8_t threshold) const {
  const KeyWriteViewResult view = query_view(key, redundancy, threshold);
  KeyWriteQueryResult result;
  result.status = view.status;
  result.votes = view.votes;
  if (view.status == QueryStatus::kHit) {
    result.value.assign(view.value.begin(), view.value.end());
  }
  return result;
}

KeyWriteViewResult KeyWriteStore::query_view(const proto::TelemetryKey& key,
                                             std::uint8_t redundancy,
                                             std::uint8_t threshold) const {
  // h1 plus all N slot indexes in one interleaved pass over the key.
  return read(translator::key_hashes(key, std::min<unsigned>(redundancy, 8)),
              threshold);
}

void KeyWriteStore::prefetch(const translator::KeyHashes& hashes) const {
  for (unsigned n = 0; n < hashes.replicas; ++n) {
    const std::uint8_t* slot =
        region_->data() + hashes.slot_index(n, num_slots_) * slot_bytes();
    __builtin_prefetch(slot);
    __builtin_prefetch(slot + slot_bytes() - 1);
  }
}

KeyWriteViewResult KeyWriteStore::read(const translator::KeyHashes& hashes,
                                       std::uint8_t threshold) const {
  KeyWriteViewResult result;
  const unsigned n_replicas = hashes.replicas;
  const std::uint32_t expect = hashes.checksum & checksum_mask();

  // Candidate values and their vote counts. N <= 8, so flat arrays beat
  // any map; comparisons are memcmp over the fixed-width value.
  std::array<const std::uint8_t*, 8> candidates{};
  std::array<std::uint8_t, 8> votes{};
  std::size_t distinct = 0;

  // Distinct hash functions can occasionally map a key to the same
  // physical slot; a slot must contribute at most one vote.
  std::array<std::uint64_t, 8> seen_slots{};
  std::size_t seen = 0;

  for (unsigned n = 0; n < n_replicas; ++n) {
    const std::uint64_t slot_idx = hashes.slot_index(n, num_slots_);
    bool duplicate = false;
    for (std::size_t s = 0; s < seen; ++s) {
      if (seen_slots[s] == slot_idx) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    seen_slots[seen++] = slot_idx;

    const std::uint8_t* slot = region_->data() + slot_idx * slot_bytes();
    const std::uint32_t stored = common::load_u32(slot) & checksum_mask();
    if (stored != expect) continue;
    const std::uint8_t* value = slot + 4;

    bool merged = false;
    for (std::size_t c = 0; c < distinct; ++c) {
      if (std::memcmp(candidates[c], value, value_bytes_) == 0) {
        ++votes[c];
        merged = true;
        break;
      }
    }
    if (!merged) {
      candidates[distinct] = value;
      votes[distinct] = 1;
      ++distinct;
    }
  }

  if (distinct == 0) {
    result.status = QueryStatus::kNotFound;
    return result;
  }

  // Plurality vote; a tie between distinct values is a conflict.
  std::size_t best = 0;
  bool tie = false;
  for (std::size_t c = 1; c < distinct; ++c) {
    if (votes[c] > votes[best]) {
      best = c;
      tie = false;
    } else if (votes[c] == votes[best]) {
      tie = true;
    }
  }

  if (tie || votes[best] < threshold) {
    result.status = QueryStatus::kConflict;
    return result;
  }

  result.status = QueryStatus::kHit;
  result.votes = votes[best];
  result.value = common::ByteSpan(candidates[best], value_bytes_);
  return result;
}

}  // namespace dta::collector
