#include "dtalib/query_core.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "translator/crc_unit.h"

namespace dta::internal {

namespace {

// Resolution takes the redundancy the point-get precheck allows (1..8);
// anything above reads the 8 slot-hash engines there are.
translator::KeyHashes lookup_hashes(const proto::TelemetryKey& key,
                                    const QueryOptions& opts, bool counter) {
  return translator::key_hashes(key, std::min<unsigned>(opts.redundancy, 8),
                                /*with_checksum=*/!counter);
}

// The read step every Key-Write lookup ends in, point or range.
Expected<ByteView> vote_keywrite(const std::vector<SnapshotPtr>& snaps,
                                 const translator::KeyHashes& hashes,
                                 const QueryOptions& opts) {
  collector::KeyWriteViewResult best;
  const SnapshotPtr* best_snap = nullptr;
  bool conflict = false;
  for (const auto& snap : snaps) {
    const collector::KeyWriteStore* store = snap->keywrite();
    if (store == nullptr) continue;
    const auto result = store->read(hashes, opts.consensus_threshold);
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

// The read step every counter lookup ends in, point or range.
Expected<std::uint64_t> vote_counter(const std::vector<SnapshotPtr>& snaps,
                                     const translator::KeyHashes& hashes) {
  std::optional<std::uint64_t> best;
  for (const auto& snap : snaps) {
    if (const collector::KeyIncrementStore* store = snap->keyincrement()) {
      best = std::max(best.value_or(0), store->read(hashes));
    }
  }
  if (!best) {
    return Status(StatusCode::kNotFound,
                  "no candidate snapshot held a Key-Increment store");
  }
  return *best;
}

// Keys resolved together: their slot lines are all requested before
// the first vote reads one, so the group's misses overlap (the lane
// count the index fold's lockstep probes use too).
constexpr std::size_t kResolveGroup = 16;

// The resolution step of every multi-key read, range or batch get.
// add() hashes a key once and prefetches its slot lines in every
// snapshot of its set; vote() then runs the point-get vote over each
// key added, in order, and empties the group for the next
// kResolveGroup keys.
class ResolveGroup {
 public:
  // One key, the snapshots it resolves over and its hashes.
  struct Key {
    const proto::TelemetryKey* key = nullptr;
    const std::vector<SnapshotPtr>* snaps = nullptr;
    translator::KeyHashes hashes;
  };

  ResolveGroup(bool counter, const QueryOptions& opts)
      : counter_(counter), opts_(opts) {}

  std::size_t size() const { return size_; }

  void add(const proto::TelemetryKey& key,
           const std::vector<SnapshotPtr>& snaps) {
    Key& k = keys_[size_++];
    k.key = &key;
    k.snaps = &snaps;
    k.hashes = lookup_hashes(key, opts_, counter_);
    for (const auto& snap : snaps) {
      if (counter_) {
        if (const auto* store = snap->keyincrement()) {
          store->prefetch(k.hashes);
        }
      } else if (const auto* store = snap->keywrite()) {
        store->prefetch(k.hashes);
      }
    }
  }

  // Calls vote(i, key) on the i-th key added, in order — the caller's
  // vote over key.snaps with key.hashes — then empties the group.
  template <typename Vote>
  void vote(const Vote& vote) {
    for (std::size_t i = 0; i < size_; ++i) vote(i, keys_[i]);
    size_ = 0;
  }

 private:
  bool counter_;
  const QueryOptions& opts_;
  std::array<Key, kResolveGroup> keys_;
  std::size_t size_ = 0;
};

}  // namespace

Expected<ByteView> merge_keywrite_view(const std::vector<SnapshotPtr>& snaps,
                                       const proto::TelemetryKey& key,
                                       const QueryOptions& opts) {
  return vote_keywrite(snaps, lookup_hashes(key, opts, /*counter=*/false),
                       opts);
}

Expected<common::Bytes> merge_keywrite(const std::vector<SnapshotPtr>& snaps,
                                       const proto::TelemetryKey& key,
                                       const QueryOptions& opts) {
  auto view = merge_keywrite_view(snaps, key, opts);
  if (!view.ok()) return view.status();
  return view->to_bytes();
}

std::vector<std::optional<ByteView>> merge_keywrite_many(
    const std::vector<std::vector<SnapshotPtr>>& sets,
    const std::vector<proto::TelemetryKey>& keys, const QueryOptions& opts) {
  std::vector<std::optional<ByteView>> out(keys.size());
  ResolveGroup group(/*counter=*/false, opts);
  std::size_t first = 0;
  const auto vote = [&](std::size_t i, const ResolveGroup::Key& k) {
    auto view = vote_keywrite(*k.snaps, k.hashes, opts);
    if (view.ok()) out[first + i] = std::move(view).value();
  };
  for (std::size_t i = 0; i < keys.size(); ++i) {
    group.add(keys[i], sets[i]);
    if (group.size() == kResolveGroup || i + 1 == keys.size()) {
      group.vote(vote);
      first = i + 1;
    }
  }
  return out;
}

Expected<std::uint64_t> merge_counter(const std::vector<SnapshotPtr>& snaps,
                                      const proto::TelemetryKey& key,
                                      const QueryOptions& opts) {
  return vote_counter(snaps, lookup_hashes(key, opts, /*counter=*/true));
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

namespace {

// The shards' index cursors merged in key order. next() yields each
// distinct key within the spec's bounds that some index holds with the
// wanted primitive, once however many indexes hold it (replica hosts),
// with the position of the first index that does.
class CandidateMerge {
 public:
  // key is null once the merge is exhausted; otherwise it lives in an
  // index leaf, valid while the indexes are.
  struct Candidate {
    const proto::TelemetryKey* key = nullptr;
    std::size_t source = 0;
  };

  CandidateMerge(const IndexVersions& indexes, const RangeSpec& spec)
      : want_(spec.primitive == RangePrimitive::kCounter
                  ? collector::kIndexKeyIncrement
                  : collector::kIndexKeyWrite) {
    // .after() resumes strictly past the cursor key; when it also sits
    // below .from() (a cursor from some other range), .from() wins.
    const proto::TelemetryKey* from = nullptr;
    if (spec.after &&
        !(spec.from && collector::index_key_less(*spec.after, *spec.from))) {
      from = &*spec.after;
      exclude_ = from;
    } else if (spec.from) {
      from = &*spec.from;
    }
    if (spec.to) to_ = collector::index_sort_key(*spec.to);
    heads_.reserve(indexes.size());
    for (const auto& index : indexes) {
      heads_.push_back({collector::IndexCursor(*index, from), {}});
      heads_.back().load();
    }
  }

  Candidate next() {
    while (true) {
      std::size_t least = heads_.size();
      for (std::size_t i = 0; i < heads_.size(); ++i) {
        if (heads_[i].cursor.done()) continue;
        if (least == heads_.size() || heads_[i].key < heads_[least].key) {
          least = i;
        }
      }
      if (least == heads_.size() || (to_ && *to_ < heads_[least].key)) {
        return {};
      }
      const collector::IndexSortKey key = heads_[least].key;
      const collector::IndexEntry& entry = heads_[least].cursor.entry();
      // Every index holding the key steps past it; its masks OR-merge.
      std::uint8_t primitives = 0;
      for (Head& head : heads_) {
        if (!head.cursor.done() && head.key == key) {
          primitives |= head.cursor.entry().primitives;
          head.cursor.next();
          head.load();
        }
      }
      if ((primitives & want_) == 0) continue;
      if (exclude_ != nullptr && entry.key == *exclude_) continue;
      return {&entry.key, least};
    }
  }

 private:
  // A cursor and its entry's key, decoded once per step.
  struct Head {
    collector::IndexCursor cursor;
    collector::IndexSortKey key;

    void load() {
      if (!cursor.done()) key = collector::index_sort_key(cursor.entry().key);
    }
  };

  std::uint8_t want_;
  const proto::TelemetryKey* exclude_ = nullptr;
  std::optional<collector::IndexSortKey> to_;
  std::vector<Head> heads_;
};

}  // namespace

std::vector<proto::TelemetryKey> collect_range_candidates(
    const IndexVersions& indexes, const RangeSpec& spec) {
  CandidateMerge merge(indexes, spec);
  std::vector<proto::TelemetryKey> out;
  for (auto candidate = merge.next(); candidate.key != nullptr;
       candidate = merge.next()) {
    out.push_back(*candidate.key);
  }
  return out;
}

RangeResult resolve_range(const IndexVersions& indexes,
                          const std::vector<std::vector<SnapshotPtr>>& sets,
                          const RangeSpec& spec, const QueryOptions& opts) {
  const bool counter = spec.primitive == RangePrimitive::kCounter;
  CandidateMerge merge(indexes, spec);
  ResolveGroup group(counter, opts);
  RangeResult out;
  const auto vote = [&](std::size_t, const ResolveGroup::Key& k) {
    RangeEntry entry;
    entry.key = *k.key;
    if (counter) {
      const auto est = vote_counter(*k.snaps, k.hashes);
      if (!est.ok()) return;
      common::put_u64(entry.value, *est);
    } else {
      const auto view = vote_keywrite(*k.snaps, k.hashes, opts);
      if (!view.ok()) return;
      entry.value = view->to_bytes();
    }
    out.entries.push_back(std::move(entry));
  };
  auto candidate = merge.next();
  while (candidate.key != nullptr) {
    if (spec.limit != 0 && out.entries.size() == spec.limit) {
      // `candidate` is the lookahead: one is left past the limit.
      out.truncated = true;
      out.next = RangeCursor{out.entries.back().key};
      break;
    }
    // A group never takes more candidates than the limit still has
    // room for.
    std::size_t room = kResolveGroup;
    if (spec.limit != 0) {
      room = static_cast<std::size_t>(std::min<std::uint64_t>(
          room, spec.limit - out.entries.size()));
    }
    for (; candidate.key != nullptr && group.size() < room;
         candidate = merge.next()) {
      group.add(*candidate.key, sets[candidate.source]);
    }
    group.vote(vote);
  }
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
