#include "collector/shard_index.h"

namespace dta::collector {

namespace {

bool entry_below_key(const IndexEntry& e, const proto::TelemetryKey& k) {
  return index_key_less(e.key, k);
}

bool key_below_leaf(const proto::TelemetryKey& k,
                    const std::shared_ptr<const IndexLeaf>& leaf) {
  return index_key_less(k, leaf->entries.front().key);
}

// Whether folding the sorted, duplicate-free keys [first, last) into
// `entries` would add a key or a mask bit.
bool changes_leaf(const std::vector<IndexEntry>& entries,
                  const IndexEntry* first, const IndexEntry* last) {
  auto pos = entries.begin();
  for (; first != last; ++first) {
    pos = std::lower_bound(pos, entries.end(), first->key, entry_below_key);
    if (pos == entries.end() || index_key_less(first->key, pos->key) ||
        (first->primitives & ~pos->primitives) != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::size_t ShardIndexVersion::first_leaf_not_below(
    const proto::TelemetryKey& key) const {
  // Leaves partition the key space in order; find the first leaf whose
  // last entry is >= key.
  const IndexLeafVector& leaves = *leaves_;
  std::size_t lo = 0, hi = leaves.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto& entries = leaves[mid]->entries;
    if (!entries.empty() && index_key_less(entries.back().key, key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint8_t ShardIndexVersion::lookup(const proto::TelemetryKey& key) const {
  const std::size_t leaf = first_leaf_not_below(key);
  if (leaf >= leaves_->size()) return 0;
  const auto& entries = (*leaves_)[leaf]->entries;
  const auto it =
      std::lower_bound(entries.begin(), entries.end(), key, entry_below_key);
  if (it == entries.end() || it->key != key) return 0;
  return it->primitives;
}

ShardIndexBuilder::ShardIndexBuilder(std::uint32_t target_leaf_entries)
    : target_leaf_entries_(std::max<std::uint32_t>(target_leaf_entries, 2)),
      leaves_(std::make_shared<const IndexLeafVector>()) {}

void ShardIndexBuilder::emit_leaves(std::vector<IndexEntry> run,
                                    IndexLeafVector& out) const {
  const std::size_t n = run.size();
  const std::size_t target = target_leaf_entries_;
  if (n <= 2 * target) {
    out.push_back(std::make_shared<const IndexLeaf>(IndexLeaf{std::move(run)}));
    return;
  }
  // n / target pieces whose sizes differ by at most one: each holds at
  // least target entries and, because n > 2 x target, at most 2 x target.
  // A single large window therefore cannot leave an oversized leaf.
  const std::size_t pieces = n / target;
  std::size_t begin = 0;
  for (std::size_t p = 1; p <= pieces; ++p) {
    const std::size_t end = n * p / pieces;
    out.push_back(std::make_shared<const IndexLeaf>(
        IndexLeaf{{run.begin() + begin, run.begin() + end}}));
    begin = end;
  }
}

void ShardIndexBuilder::fold(const IndexDelta* deltas, std::size_t count) {
  std::vector<IndexEntry>& keys = window_keys_;
  keys.clear();
  for (std::size_t d = 0; d < count; ++d) {
    const IndexDelta& delta = deltas[d];
    generation_ = std::max(generation_, delta.generation);
    for (const auto& [list, entries] : delta.append_deltas) {
      if (list >= append_heads_.size()) append_heads_.resize(list + 1, 0);
      append_heads_[list] += entries;
    }
    keys.insert(keys.end(), delta.keys.begin(), delta.keys.end());
  }
  if (keys.empty()) return;

  // Sort the window's keys once and OR-merge duplicate masks, so each
  // leaf is located, checked and copied at most once per window.
  std::sort(keys.begin(), keys.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return index_key_less(a.key, b.key);
            });
  std::size_t unique = 0;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i].key == keys[unique].key) {
      keys[unique].primitives |= keys[i].primitives;
    } else {
      keys[++unique] = keys[i];
    }
  }
  keys.resize(unique + 1);

  const IndexLeafVector& old = *leaves_;
  if (old.empty()) {
    auto next = std::make_shared<IndexLeafVector>();
    key_count_ += keys.size();
    emit_leaves(keys, *next);
    leaves_ = std::move(next);
    return;
  }

  // Walk the sorted keys and the leaves together. The run of keys that
  // lands in one leaf is checked against it first; only a leaf the run
  // changes is merged (and cut if oversized) into a new leaf vector,
  // which takes every other leaf by pointer. A window that changes no
  // leaf keeps the current vector, so publish() shares it again.
  std::shared_ptr<IndexLeafVector> next;
  std::size_t carried = 0;  // old leaves [0, carried) are already in next
  std::size_t leaf = 0;
  std::size_t i = 0;
  while (i < keys.size()) {
    // The last leaf whose first entry is <= keys[i] (leaf 0 also takes
    // every key below it). Keys ascend, so the search starts at `leaf`.
    const auto above = std::upper_bound(old.begin() + leaf + 1, old.end(),
                                        keys[i].key, key_below_leaf);
    leaf = static_cast<std::size_t>(above - old.begin()) - 1;
    // The run: every key before the next leaf's first key.
    std::size_t j = i + 1;
    if (leaf + 1 < old.size()) {
      const proto::TelemetryKey& next_first =
          old[leaf + 1]->entries.front().key;
      while (j < keys.size() && index_key_less(keys[j].key, next_first)) {
        ++j;
      }
    } else {
      j = keys.size();
    }

    const std::vector<IndexEntry>& entries = old[leaf]->entries;
    if (!changes_leaf(entries, keys.data() + i, keys.data() + j)) {
      i = j;
      continue;
    }
    if (!next) {
      next = std::make_shared<IndexLeafVector>();
      next->reserve(old.size() + 1);
    }
    next->insert(next->end(), old.begin() + carried, old.begin() + leaf);
    std::vector<IndexEntry> merged;
    merged.reserve(entries.size() + (j - i));
    std::size_t a = 0;
    for (; i < j; ++i) {
      const IndexEntry& key = keys[i];
      while (a < entries.size() && index_key_less(entries[a].key, key.key)) {
        merged.push_back(entries[a++]);
      }
      if (a < entries.size() && !index_key_less(key.key, entries[a].key)) {
        merged.push_back(entries[a++]);
        merged.back().primitives |= key.primitives;
      } else {
        merged.push_back(key);
        ++key_count_;
      }
    }
    merged.insert(merged.end(), entries.begin() + a, entries.end());
    ++leaf_copies_;
    emit_leaves(std::move(merged), *next);
    carried = leaf + 1;
  }
  if (next) {
    next->insert(next->end(), old.begin() + carried, old.end());
    leaves_ = std::move(next);
  }
}

std::shared_ptr<const ShardIndexVersion> ShardIndexBuilder::publish() const {
  return std::make_shared<const ShardIndexVersion>(generation_, leaves_,
                                                   append_heads_, key_count_);
}

}  // namespace dta::collector
