#include "translator/postcard_cache.h"

namespace dta::translator {

PostcardingGeometry PostcardingGeometry::from_advert(
    const rdma::RegionAdvert& advert) {
  PostcardingGeometry g;
  g.base_va = advert.base_va;
  g.rkey = advert.rkey;
  g.hops = static_cast<std::uint8_t>(advert.param1 >> 16);
  g.num_chunks = advert.param2;
  return g;
}

PostcardCache::PostcardCache(PostcardingGeometry geometry,
                             std::uint32_t cache_slots)
    : geometry_(geometry),
      rows_(cache_slots),
      occupied_((static_cast<std::size_t>(cache_slots) + 63) / 64, 0) {}

std::uint32_t PostcardCache::row_index(const proto::TelemetryKey& key) const {
  // The cache index hash must differ from the chunk-index hashes so that
  // cache collisions and store collisions stay independent; we reuse the
  // checksum engine for it.
  const std::uint32_t h = common::checksum_crc().compute(key.span());
  return h % static_cast<std::uint32_t>(rows_.size());
}

void PostcardCache::emit(std::uint32_t index, bool full,
                         std::vector<RdmaOp>& out) {
  Row& row = rows_[index];
  // Build the chunk payload: present hops carry checksum(x,i) XOR g(v);
  // hops beyond path_len carry the encoded blank so every complete report
  // writes all B hops (§4); hops that never arrived (early emission) stay
  // zero, which queries will almost surely reject.
  const std::uint8_t hops = geometry_.hops;
  // The chunk is built once in the op (in place up to 16 hops) and
  // copied to each replica.
  RdmaOp op;
  op.kind = RdmaOp::Kind::kWrite;
  op.rkey = geometry_.rkey;
  op.payload.resize(geometry_.chunk_bytes());

  const std::uint8_t effective_path = row.path_len == 0 ? hops : row.path_len;
  for (std::uint8_t i = 0; i < hops; ++i) {
    std::uint32_t enc = 0;
    if (row.present_mask & (1u << i)) {
      enc = row.encoded[i];
    } else if (full && i >= effective_path) {
      enc = hop_checksum(row.key, i) ^ value_code(kBlankValue);
    } else {
      continue;  // missing hop: leave zero
    }
    common::store_u32(
        op.payload.data() + i * PostcardingGeometry::kSlotBytes, enc);
  }

  for (unsigned replica = 0; replica < row.redundancy; ++replica) {
    const std::uint64_t chunk =
        chunk_index(replica, row.key, geometry_.num_chunks);
    op.remote_va = geometry_.base_va + chunk * geometry_.chunk_bytes();
    out.push_back(op);
    ++stats_.writes_emitted;
  }

  if (full) {
    ++stats_.full_emissions;
  } else {
    ++stats_.early_emissions;
  }
  row = Row{};
  occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
}

void PostcardCache::ingest(const proto::PostcardReport& report,
                           std::vector<RdmaOp>& out) {
  ++stats_.postcards_in;
  if (report.hop >= geometry_.hops) return;  // out of range: drop

  const std::uint32_t index = row_index(report.key);
  Row& row = rows_[index];
  std::uint64_t& occupied = occupied_[index >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (index & 63);

  // Collision: a different flow occupies the row — evict it first.
  if ((occupied & bit) && !(row.key == report.key)) {
    emit(index, /*full=*/false, out);
  }

  if (!(occupied & bit)) {
    occupied |= bit;
    row.key = report.key;
    row.redundancy = report.redundancy;
  }
  if (report.path_len != 0) row.path_len = report.path_len;

  if (!(row.present_mask & (1u << report.hop))) {
    row.present_mask |= static_cast<std::uint8_t>(1u << report.hop);
    ++row.count;
  }
  row.encoded[report.hop] =
      hop_checksum(report.key, report.hop) ^ value_code(report.value);

  // Full when the row counter reaches the (egress-provided) path length.
  const std::uint8_t target = row.path_len == 0 ? geometry_.hops : row.path_len;
  if (row.count >= target) {
    emit(index, /*full=*/true, out);
  }
}

void PostcardCache::flush_all(std::vector<RdmaOp>& out) {
  // Ascending row order, exactly like a scan of every row: two resident
  // rows can map to the same store chunk, so the emit order decides
  // which write lands last.
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const auto index = static_cast<std::uint32_t>(
          (w << 6) + static_cast<unsigned>(__builtin_ctzll(bits)));
      const Row& row = rows_[index];
      const std::uint8_t target =
          row.path_len == 0 ? geometry_.hops : row.path_len;
      emit(index, row.count >= target, out);
      ++stats_.final_flushes;
    }
  }
}

}  // namespace dta::translator
