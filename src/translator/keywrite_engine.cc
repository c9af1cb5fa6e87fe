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

  // Slot payload: [4B key checksum][value, zero-padded to value_bytes],
  // built once in the op (in place up to a 60-byte value) and copied to
  // each replica.
  RdmaOp op;
  op.kind = RdmaOp::Kind::kWrite;
  op.rkey = geometry_.rkey;
  op.payload.resize(geometry_.slot_bytes());
  common::store_u32(op.payload.data(),
                    hashes.checksum & geometry_.checksum_mask());
  const std::size_t copy_len =
      std::min<std::size_t>(report.data.size(), geometry_.value_bytes);
  if (copy_len < report.data.size()) ++stats_.truncated_values;
  std::copy_n(report.data.begin(), copy_len, op.payload.begin() + 4);

  for (unsigned replica = 0; replica < n; ++replica) {
    const std::uint64_t slot =
        replica < 8 ? hashes.slot_index(replica, geometry_.num_slots)
                    : slot_index(replica, report.key, geometry_.num_slots);
    op.remote_va = geometry_.base_va + slot * geometry_.slot_bytes();
    if (immediate && replica == 0) op.immediate = hashes.checksum;
    out.push_back(op);
    op.immediate.reset();
    ++stats_.writes_emitted;
  }
}

}  // namespace dta::translator
