#include "translator/keywrite_engine.h"

#include <algorithm>

namespace dta::translator {

KeyWriteGeometry KeyWriteGeometry::from_advert(
    const rdma::RegionAdvert& advert) {
  KeyWriteGeometry g;
  g.base_va = advert.base_va;
  g.rkey = advert.rkey;
  g.value_bytes = (advert.param1 & 0xFFFF) - 4;  // low half: slot bytes
  g.checksum_bits = advert.param1 >> 16;
  if (g.checksum_bits == 0 || g.checksum_bits > 32) g.checksum_bits = 32;
  g.num_slots = advert.param2;
  return g;
}

KeyWriteEngine::KeyWriteEngine(KeyWriteGeometry geometry)
    : geometry_(geometry) {}

void KeyWriteEngine::translate(const proto::KeyWriteReport& report,
                               bool immediate, std::vector<RdmaOp>& out) {
  ++stats_.reports;

  // One interleaved pass over the key computes h1 plus all N slot
  // indexes (instead of N+1, or N+2 with an immediate, separate CRCs).
  const unsigned n = report.redundancy;
  const KeyHashes hashes = key_hashes(report.key, std::min(n, 8u));

  // Slot payload: [4B key checksum][value, zero-padded to value_bytes].
  common::Bytes payload;
  payload.reserve(geometry_.slot_bytes());
  common::put_u32(payload, hashes.checksum & geometry_.checksum_mask());
  const std::size_t copy_len =
      std::min<std::size_t>(report.data.size(), geometry_.value_bytes);
  if (copy_len < report.data.size()) ++stats_.truncated_values;
  payload.insert(payload.end(), report.data.begin(),
                 report.data.begin() + copy_len);
  payload.resize(geometry_.slot_bytes(), 0);

  for (unsigned replica = 0; replica < n; ++replica) {
    const std::uint64_t slot =
        replica < 8 ? hashes.slot_index(replica, geometry_.num_slots)
                    : slot_index(replica, report.key, geometry_.num_slots);
    RdmaOp op;
    op.kind = RdmaOp::Kind::kWrite;
    op.remote_va = geometry_.base_va + slot * geometry_.slot_bytes();
    op.rkey = geometry_.rkey;
    // The last replica takes the payload itself: N allocations, not N+1.
    if (replica + 1 == n) {
      op.payload = std::move(payload);
    } else {
      op.payload = payload;
    }
    if (immediate && replica == 0) op.immediate = hashes.checksum;
    out.push_back(std::move(op));
    ++stats_.writes_emitted;
  }
}

}  // namespace dta::translator
