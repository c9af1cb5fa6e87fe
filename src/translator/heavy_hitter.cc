#include "translator/heavy_hitter.h"

#include <algorithm>

namespace dta::translator {

HeavyHitterEngine::HeavyHitterEngine(HeavyHitterConfig config)
    : config_(config),
      counters_(static_cast<std::size_t>(config.sketch_rows) *
                    config.sketch_cols,
                0),
      exported_((static_cast<std::size_t>(config.sketch_cols) + 7) / 8, 0) {}

std::uint64_t& HeavyHitterEngine::cell(std::uint32_t row,
                                       const proto::TelemetryKey& key) {
  const std::uint64_t col = slot_index(row, key, config_.sketch_cols);
  return counters_[static_cast<std::size_t>(row) * config_.sketch_cols + col];
}

const std::uint64_t& HeavyHitterEngine::cell(
    std::uint32_t row, const proto::TelemetryKey& key) const {
  const std::uint64_t col = slot_index(row, key, config_.sketch_cols);
  return counters_[static_cast<std::size_t>(row) * config_.sketch_cols + col];
}

std::uint64_t HeavyHitterEngine::estimate(
    const proto::TelemetryKey& key) const {
  std::uint64_t best = ~0ull;
  for (std::uint32_t row = 0; row < config_.sketch_rows; ++row) {
    best = std::min(best, cell(row, key));
  }
  return best;
}

std::optional<proto::AppendReport> HeavyHitterEngine::update(
    const proto::KeyIncrementReport& report) {
  ++stats_.updates_in;
  const std::uint64_t before = estimate(report.key);
  for (std::uint32_t row = 0; row < config_.sketch_rows; ++row) {
    cell(row, report.key) += report.counter;
  }
  const std::uint64_t after = estimate(report.key);

  if (before <= config_.threshold && after > config_.threshold) {
    // Export latch keyed on the first row's column (one bit per column
    // suffices: a latched false positive merely suppresses a duplicate).
    const std::uint64_t col = slot_index(0, report.key, config_.sketch_cols);
    std::uint8_t& byte = exported_[col / 8];
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (col % 8));
    if (!(byte & bit)) {
      byte |= bit;
      ++stats_.hitters_exported;
      proto::AppendReport out;
      out.list_id = config_.export_list;
      proto::AppendEntry& entry = out.entries.emplace_back();
      common::put_bytes(entry, report.key.span());
      entry.resize(16, 0);
      common::put_u64(entry, after);
      out.entry_size = static_cast<std::uint8_t>(entry.size());
      return out;
    }
  }
  return std::nullopt;
}

std::vector<RdmaOp> HeavyHitterEngine::flush_epoch() {
  std::vector<RdmaOp> writes;
  writes.reserve(config_.sketch_rows);
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(config_.sketch_cols) * 8;
  for (std::uint32_t row = 0; row < config_.sketch_rows; ++row) {
    RdmaOp op;
    op.kind = RdmaOp::Kind::kWrite;
    op.remote_va = config_.mirror_base_va + row * row_bytes;
    op.rkey = config_.mirror_rkey;
    op.payload.resize(row_bytes);
    for (std::uint32_t col = 0; col < config_.sketch_cols; ++col) {
      common::store_u64(
          op.payload.data() + static_cast<std::size_t>(col) * 8,
          counters_[static_cast<std::size_t>(row) * config_.sketch_cols +
                    col]);
    }
    writes.push_back(std::move(op));
  }
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(exported_.begin(), exported_.end(), 0);
  ++stats_.epoch_flushes;
  stats_.rdma_writes_per_flush = config_.sketch_rows;
  return writes;
}

}  // namespace dta::translator
