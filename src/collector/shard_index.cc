#include "collector/shard_index.h"

namespace dta::collector {

namespace {

// Keys a fold probes together: enough independent searches in flight to
// overlap their cache misses (on a 4-vCPU Xeon, 32 lanes measured the
// same as 16 and 8 were slower).
constexpr std::size_t kProbeLanes = 16;

// Lockstep partition points: lane l searches the non-empty sorted run
// [base[l], base[l] + size[l]) for the first element e with
// !below(l, e), and leaves it (possibly one past the run) in base[l].
// Every lane takes one step before any lane takes the next, prefetching
// its next probe as it goes, so the lanes' misses are outstanding
// together instead of one after another (interleaved binary search;
// Psaropoulos et al., PVLDB 2017).
template <typename T, typename Below>
void lockstep_partition_point(const T** base, std::size_t* size,
                              std::size_t lanes, Below below) {
  std::size_t widest = 0;
  for (std::size_t l = 0; l < lanes; ++l) widest = std::max(widest, size[l]);
  // ceil(log2(widest)) halvings bring every lane down to one element; a
  // lane already there keeps probing its own element and stays put.
  for (std::size_t span = 1; span < widest; span *= 2) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t half = size[l] / 2;
      // A mask, not a ?: — compilers turn that select into a branch,
      // which mispredicts on half the steps of a binary search.
      const std::size_t take =
          std::size_t{0} - static_cast<std::size_t>(below(l, base[l][half]));
      base[l] += half & take;
      size[l] -= half;
      __builtin_prefetch(base[l] + size[l] / 2);
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    base[l] += static_cast<std::size_t>(below(l, *base[l]));
  }
}

}  // namespace

IndexCursor::IndexCursor(const ShardIndexVersion& version,
                         const proto::TelemetryKey* from)
    : leaves_(&version.leaves()) {
  if (from == nullptr) {
    enter(0);
    return;
  }
  // The last leaf whose fence is <= from holds the first entry >= from,
  // unless every entry there is below it; then the next leaf's first
  // entry is that entry (its fence is above from).
  const IndexSortKey key = index_sort_key(*from);
  const IndexFenceVector& fences = version.fences();
  const auto above = static_cast<std::size_t>(
      std::upper_bound(fences.begin(), fences.end(), key) - fences.begin());
  enter(above == 0 ? 0 : above - 1);
  at_ = std::lower_bound(at_, end_, key,
                         [](const IndexEntry& e, const IndexSortKey& k) {
                           return index_sort_key(e.key) < k;
                         });
  if (at_ == end_) enter(leaf_ + 1);
}

std::uint8_t ShardIndexVersion::lookup(const proto::TelemetryKey& key) const {
  const IndexCursor cursor(*this, &key);
  return !cursor.done() && cursor.entry().key == key
             ? cursor.entry().primitives
             : 0;
}

ShardIndexBuilder::ShardIndexBuilder(std::uint32_t target_leaf_entries)
    : target_leaf_entries_(std::max<std::uint32_t>(target_leaf_entries, 2)),
      leaves_(std::make_shared<const IndexLeafVector>()),
      fences_(std::make_shared<const IndexFenceVector>()) {}

void ShardIndexBuilder::emit_leaves(
    std::vector<IndexEntry> run, IndexLeafVector& leaves,
    IndexFenceVector& fences) const {
  const std::size_t n = run.size();
  const std::size_t target = target_leaf_entries_;
  if (n <= 2 * target) {
    fences.push_back(index_sort_key(run.front().key));
    leaves.push_back(
        std::make_shared<const IndexLeaf>(IndexLeaf{std::move(run)}));
    return;
  }
  // n / target pieces whose sizes differ by at most one: each holds at
  // least target entries and, because n > 2 x target, at most 2 x target.
  // A single large window therefore cannot leave an oversized leaf.
  const std::size_t pieces = n / target;
  std::size_t begin = 0;
  for (std::size_t p = 1; p <= pieces; ++p) {
    const std::size_t end = n * p / pieces;
    fences.push_back(index_sort_key(run[begin].key));
    leaves.push_back(std::make_shared<const IndexLeaf>(
        IndexLeaf{{run.begin() + begin, run.begin() + end}}));
    begin = end;
  }
}

void ShardIndexBuilder::probe_window(const IndexLeafVector& leaves,
                                     common::Span<const IndexEntry> keys) {
  for (std::size_t first = 0; first < keys.size(); first += kProbeLanes) {
    const std::size_t lanes = std::min(kProbeLanes, keys.size() - first);
    IndexSortKey key[kProbeLanes];
    for (std::size_t l = 0; l < lanes; ++l) {
      key[l] = index_sort_key(keys[first + l].key);
    }
    std::size_t size[kProbeLanes];

    // The leaf: the last whose fence is <= the key. Leaf 0 also takes
    // every key below the first fence.
    const IndexFenceVector& fences = *fences_;
    const IndexSortKey* fence[kProbeLanes];
    for (std::size_t l = 0; l < lanes; ++l) {
      fence[l] = fences.data();
      size[l] = fences.size();
    }
    lockstep_partition_point(
        fence, size, lanes,
        [&key](std::size_t l, const IndexSortKey& f) { return !(key[l] < f); });
    std::uint32_t leaf[kProbeLanes];
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto above = static_cast<std::size_t>(fence[l] - fences.data());
      leaf[l] = static_cast<std::uint32_t>(above == 0 ? 0 : above - 1);
    }

    // The key's place in that leaf; a key that is absent there, or
    // brings a mask bit it lacks, is a change.
    const IndexEntry* entry[kProbeLanes];
    const IndexEntry* end[kProbeLanes];
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::vector<IndexEntry>& entries = leaves[leaf[l]]->entries;
      entry[l] = entries.data();
      size[l] = entries.size();
      end[l] = entry[l] + size[l];
    }
    lockstep_partition_point(entry, size, lanes,
                             [&key](std::size_t l, const IndexEntry& e) {
                               return index_sort_key(e.key) < key[l];
                             });
    for (std::size_t l = 0; l < lanes; ++l) {
      const IndexEntry& want = keys[first + l];
      if (entry[l] == end[l] || entry[l]->key != want.key ||
          (want.primitives & ~entry[l]->primitives) != 0) {
        changes_.push_back({want, leaf[l]});
      }
    }
  }
}

void ShardIndexBuilder::apply(std::uint64_t generation,
                              common::Span<const IndexEntry> keys) {
  generation_ = std::max(generation_, generation);
  if (keys.empty()) return;

  // Probe first, then sort and OR-merge only the keys that change
  // something: a window of keys the index already holds, with bits it
  // already has, stops here without sorting anything.
  const IndexLeafVector& old = *leaves_;
  changes_.clear();
  if (old.empty()) {
    for (const IndexEntry& key : keys) changes_.push_back({key, 0});
  } else {
    probe_window(old, keys);
  }
  if (changes_.empty()) return;
  std::sort(changes_.begin(), changes_.end(),
            [](const Change& a, const Change& b) {
              return index_key_less(a.entry.key, b.entry.key);
            });
  std::size_t unique = 0;
  for (std::size_t i = 1; i < changes_.size(); ++i) {
    if (changes_[i].entry.key == changes_[unique].entry.key) {
      changes_[unique].entry.primitives |= changes_[i].entry.primitives;
    } else {
      changes_[++unique] = changes_[i];
    }
  }
  changes_.resize(unique + 1);

  if (old.empty()) {
    std::vector<IndexEntry> run;
    run.reserve(changes_.size());
    for (const Change& change : changes_) run.push_back(change.entry);
    auto next = std::make_shared<IndexLeafVector>();
    auto next_fences = std::make_shared<IndexFenceVector>();
    key_count_ += run.size();
    emit_leaves(std::move(run), *next, *next_fences);
    leaves_ = std::move(next);
    fences_ = std::move(next_fences);
    return;
  }

  // One walk over the runs of changes that share a leaf: each such leaf
  // is merged (and cut if oversized) into a new leaf vector, which takes
  // every other leaf by pointer and its fence from the old array.
  const IndexFenceVector& fences = *fences_;
  auto next = std::make_shared<IndexLeafVector>();
  next->reserve(old.size() + 1);
  auto next_fences = std::make_shared<IndexFenceVector>();
  next_fences->reserve(fences.size() + 1);
  std::size_t carried = 0;  // old leaves [0, carried) are already in next
  std::size_t i = 0;
  while (i < changes_.size()) {
    const std::uint32_t leaf = changes_[i].leaf;
    next->insert(next->end(), old.begin() + carried, old.begin() + leaf);
    next_fences->insert(next_fences->end(), fences.begin() + carried,
                        fences.begin() + leaf);
    std::size_t j = i + 1;
    while (j < changes_.size() && changes_[j].leaf == leaf) ++j;
    const std::vector<IndexEntry>& entries = old[leaf]->entries;
    std::vector<IndexEntry> merged;
    merged.reserve(entries.size() + (j - i));
    std::size_t a = 0;
    for (; i < j; ++i) {
      const IndexEntry& key = changes_[i].entry;
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
    emit_leaves(std::move(merged), *next, *next_fences);
    carried = leaf + 1;
  }
  next->insert(next->end(), old.begin() + carried, old.end());
  next_fences->insert(next_fences->end(), fences.begin() + carried,
                      fences.end());
  leaves_ = std::move(next);
  fences_ = std::move(next_fences);
}

std::shared_ptr<const ShardIndexVersion> ShardIndexBuilder::publish() const {
  return std::make_shared<const ShardIndexVersion>(
      generation_, leaves_, fences_, key_count_);
}

}  // namespace dta::collector
