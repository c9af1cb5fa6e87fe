#include "translator/keyincrement_engine.h"

#include <algorithm>

namespace dta::translator {

KeyIncrementGeometry KeyIncrementGeometry::from_advert(
    const rdma::RegionAdvert& advert) {
  KeyIncrementGeometry g;
  g.base_va = advert.base_va;
  g.rkey = advert.rkey;
  g.num_slots = advert.param2;
  return g;
}

KeyIncrementEngine::KeyIncrementEngine(KeyIncrementGeometry geometry)
    : geometry_(geometry) {}

void KeyIncrementEngine::translate(const proto::KeyIncrementReport& report,
                                   std::vector<RdmaOp>& out) {
  ++stats_.reports;
  const KeyHashes hashes =
      key_hashes(report.key, std::min<unsigned>(report.redundancy, 8),
                 /*with_checksum=*/false);
  for (unsigned replica = 0; replica < report.redundancy; ++replica) {
    const std::uint64_t slot =
        replica < 8 ? hashes.slot_index(replica, geometry_.num_slots)
                    : slot_index(replica, report.key, geometry_.num_slots);
    RdmaOp op;
    op.kind = RdmaOp::Kind::kFetchAdd;
    op.remote_va =
        geometry_.base_va + slot * KeyIncrementGeometry::kSlotBytes;
    op.rkey = geometry_.rkey;
    op.add_value = report.counter;
    out.push_back(std::move(op));
    ++stats_.fetch_adds_emitted;
  }
}

}  // namespace dta::translator
