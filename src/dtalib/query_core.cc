#include "dtalib/query_core.h"

#include <algorithm>
#include <string>
#include <utility>

namespace dta::internal {

Expected<ByteView> merge_keywrite_view(const std::vector<SnapshotPtr>& snaps,
                                       const proto::TelemetryKey& key,
                                       const QueryOptions& opts) {
  collector::KeyWriteViewResult best;
  const SnapshotPtr* best_snap = nullptr;
  bool conflict = false;
  for (const auto& snap : snaps) {
    if (!snap->has_keywrite()) continue;
    const auto result = snap->keywrite_query_view(key, opts.redundancy,
                                                  opts.consensus_threshold);
    if (result.status == collector::QueryStatus::kHit) {
      if (best.status != collector::QueryStatus::kHit ||
          result.votes > best.votes) {
        best = result;
        best_snap = &snap;
      }
    } else if (result.status == collector::QueryStatus::kConflict) {
      conflict = true;
    }
  }
  if (best.status == collector::QueryStatus::kHit) {
    return ByteView(*best_snap, best.value);
  }
  if (conflict) {
    return Status(StatusCode::kConflict,
                  "replica slots disagree or vote below threshold");
  }
  return Status(StatusCode::kNotFound, "no slot carried the key's checksum");
}

Expected<common::Bytes> merge_keywrite(const std::vector<SnapshotPtr>& snaps,
                                       const proto::TelemetryKey& key,
                                       const QueryOptions& opts) {
  auto view = merge_keywrite_view(snaps, key, opts);
  if (!view.ok()) return view.status();
  return view->to_bytes();
}

Expected<std::uint64_t> merge_counter(const std::vector<SnapshotPtr>& snaps,
                                      const proto::TelemetryKey& key,
                                      const QueryOptions& opts) {
  std::optional<std::uint64_t> best;
  for (const auto& snap : snaps) {
    if (const auto est = snap->keyincrement_query(key, opts.redundancy)) {
      best = std::max(best.value_or(0), *est);
    }
  }
  if (!best) {
    return Status(StatusCode::kNotFound,
                  "no candidate snapshot held a Key-Increment store");
  }
  return *best;
}

Expected<std::vector<std::uint32_t>> merge_path(
    const std::vector<SnapshotPtr>& snaps, const proto::TelemetryKey& key,
    const QueryOptions& opts) {
  std::optional<std::vector<std::uint32_t>> merged;
  for (const auto& snap : snaps) {
    if (!snap->has_postcarding()) continue;
    auto result = snap->postcarding_query(key, opts.redundancy);
    if (!result.found) continue;
    if (merged && *merged != result.hop_values) {
      return Status(StatusCode::kConflict,
                    "replica hosts decoded different paths");
    }
    merged = std::move(result.hop_values);
  }
  if (!merged) {
    return Status(StatusCode::kNotFound, "no path recovered for the key");
  }
  return *std::move(merged);
}

Status check_canonical_key(const char* what, const proto::TelemetryKey& key) {
  if (key.length > key.bytes.size()) {
    return {StatusCode::kOutOfRange,
            std::string(what) + ": telemetry key length " +
                std::to_string(key.length) + " exceeds 16 bytes"};
  }
  for (std::size_t i = key.length; i < key.bytes.size(); ++i) {
    if (key.bytes[i] != 0) {
      return {StatusCode::kInvalidArgument,
              std::string(what) + ": telemetry key byte " + std::to_string(i) +
                  " is nonzero past its length " +
                  std::to_string(key.length)};
    }
  }
  return Status::Ok();
}

Status range_precheck(const Backend& backend, const RangeSpec& spec,
                      const QueryOptions& opts) {
  if (spec.primitive == RangePrimitive::kKeyWrite &&
      !backend.host_config().keywrite) {
    return {StatusCode::kNotConfigured, "Key-Write store not enabled"};
  }
  if (spec.primitive == RangePrimitive::kCounter &&
      !backend.host_config().keyincrement) {
    return {StatusCode::kNotConfigured, "Key-Increment store not enabled"};
  }
  if (opts.redundancy == 0) {
    return {StatusCode::kInvalidArgument,
            "range query: redundancy 0, must be >= 1"};
  }
  if (opts.redundancy > 8) {
    return {StatusCode::kOutOfRange,
            "range query: redundancy " + std::to_string(opts.redundancy) +
                " exceeds the 8 slot-hash engines"};
  }
  const std::pair<const char*, const std::optional<proto::TelemetryKey>*>
      bounds[] = {{"range query .from()", &spec.from},
                  {"range query .to()", &spec.to},
                  {"range query .after()", &spec.after}};
  for (const auto& [what, bound] : bounds) {
    if (!*bound) continue;
    if (auto status = check_canonical_key(what, **bound); !status.ok()) {
      return status;
    }
  }
  if (spec.from && spec.to && collector::index_key_less(*spec.to, *spec.from)) {
    return {StatusCode::kInvalidArgument,
            "range query: bounds inverted, .to() key sorts below .from()"};
  }
  return Status::Ok();
}

std::vector<proto::TelemetryKey> collect_range_candidates(
    const std::vector<std::shared_ptr<const collector::ShardIndexVersion>>&
        indexes,
    const RangeSpec& spec) {
  const std::uint8_t want = spec.primitive == RangePrimitive::kCounter
                                ? collector::kIndexKeyIncrement
                                : collector::kIndexKeyWrite;
  // .after() resumes strictly past the cursor key; when it also sits
  // below .from() (a cursor from some other range), .from() wins.
  const proto::TelemetryKey* from = nullptr;
  bool exclusive_from = false;
  if (spec.after &&
      !(spec.from && collector::index_key_less(*spec.after, *spec.from))) {
    from = &*spec.after;
    exclusive_from = true;
  } else if (spec.from) {
    from = &*spec.from;
  }
  const proto::TelemetryKey* to = spec.to ? &*spec.to : nullptr;
  std::vector<proto::TelemetryKey> out;
  for (const auto& index : indexes) {
    index->visit_range(from, to, [&](const collector::IndexEntry& entry) {
      if ((entry.primitives & want) != 0 &&
          !(exclusive_from && entry.key == *from)) {
        out.push_back(entry.key);
      }
      return true;
    });
  }
  std::sort(out.begin(), out.end(), collector::index_key_less);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<RangeEntry> resolve_range_entry(
    const std::vector<SnapshotPtr>& snaps, const proto::TelemetryKey& key,
    const RangeSpec& spec, const QueryOptions& opts) {
  RangeEntry entry;
  entry.key = key;
  if (spec.primitive == RangePrimitive::kCounter) {
    auto est = merge_counter(snaps, key, opts);
    if (!est.ok()) return std::nullopt;
    common::put_u64(entry.value, *est);
    return entry;
  }
  auto value = merge_keywrite(snaps, key, opts);
  if (!value.ok()) return std::nullopt;
  entry.value = std::move(value).value();
  return entry;
}

RangeResult scan_range_candidates(
    const std::vector<proto::TelemetryKey>& candidates, std::uint64_t limit,
    const std::function<std::optional<RangeEntry>(const proto::TelemetryKey&)>&
        resolve) {
  RangeResult out;
  for (const auto& key : candidates) {
    if (limit != 0 && out.entries.size() == limit) {
      out.truncated = true;
      out.next = RangeCursor{out.entries.back().key};
      break;
    }
    if (auto entry = resolve(key)) out.entries.push_back(std::move(*entry));
  }
  return out;
}

}  // namespace dta::internal
