#include "translator/query_engine.h"

namespace dta::translator {

proto::AppendReport QueryMatch::to_append(const ThresholdQuery& query) const {
  proto::AppendReport r;
  r.list_id = query.export_list;
  proto::AppendEntry& entry = r.entries.emplace_back();
  // Fixed-width 16B key field (zero padded) + 8B sum.
  common::put_bytes(entry, flow.span());
  entry.resize(16, 0);
  common::put_u64(entry, sum);
  if (query.include_path) {
    for (std::uint32_t v : per_hop) common::put_u32(entry, v);
  }
  r.entry_size = static_cast<std::uint8_t>(entry.size());
  return r;
}

QueryEngine::QueryEngine(ThresholdQuery query, std::uint32_t cache_slots)
    : query_(query), rows_(cache_slots) {}

std::uint32_t QueryEngine::row_index(const proto::TelemetryKey& key) const {
  const std::uint32_t h = common::checksum_crc().compute(key.span());
  return h % static_cast<std::uint32_t>(rows_.size());
}

std::optional<QueryMatch> QueryEngine::complete(Row& row) {
  ++stats_.flows_completed;
  std::optional<QueryMatch> match;
  if (row.sum > query_.threshold_sum) {
    ++stats_.flows_matched;
    QueryMatch m;
    m.flow = row.key;
    m.sum = row.sum;
    for (std::uint8_t i = 0; i < 8; ++i) {
      if (row.present_mask & (1u << i)) m.per_hop.push_back(row.values[i]);
    }
    match = std::move(m);
  } else {
    ++stats_.flows_suppressed;
  }
  row = Row{};
  return match;
}

std::optional<QueryMatch> QueryEngine::ingest(
    const proto::PostcardReport& report) {
  ++stats_.postcards_in;
  if (report.hop >= 8) return std::nullopt;

  Row& row = rows_[row_index(report.key)];

  // Collision: evaluate the resident flow on what it has (best effort)
  // before the new flow takes the row — matching Postcarding's early
  // emission semantics.
  std::optional<QueryMatch> evicted;
  if (row.valid && !(row.key == report.key)) {
    ++stats_.early_evictions;
    evicted = complete(row);
  }

  if (!row.valid) {
    row.valid = true;
    row.key = report.key;
  }
  if (report.path_len != 0) row.path_len = report.path_len;

  if (!(row.present_mask & (1u << report.hop))) {
    row.present_mask |= static_cast<std::uint8_t>(1u << report.hop);
    ++row.count;
    row.sum += report.value;
    row.values[report.hop] = report.value;
  } else {
    // Retransmitted postcard: replace the hop's contribution.
    row.sum -= row.values[report.hop];
    row.sum += report.value;
    row.values[report.hop] = report.value;
  }

  const std::uint8_t target = row.path_len == 0 ? 8 : row.path_len;
  if (row.count >= target) {
    auto match = complete(row);
    // Prefer returning the fresh completion; if an eviction also matched
    // it was already accounted in stats (extremely rare double event —
    // the evicted match wins only when the new flow did not complete).
    return match ? match : evicted;
  }
  return evicted;
}

std::vector<QueryMatch> QueryEngine::flush() {
  std::vector<QueryMatch> matches;
  for (Row& row : rows_) {
    if (!row.valid) continue;
    auto match = complete(row);
    if (match) matches.push_back(std::move(*match));
  }
  return matches;
}

}  // namespace dta::translator
