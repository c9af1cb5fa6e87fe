// Versioned, defer-publish secondary index over one shard's stores.
//
// The stores themselves cannot answer "which keys exist between k1 and
// k2": Key-Write slots hold a 32-bit checksum of the key, not the key
// (§4 — that is what makes the per-key footprint 4+value bytes), so a
// range query over raw store memory is impossible and the scan path has
// to walk a caller-supplied key catalog. The index closes that gap on
// the translator side of the seam, where full keys are still in hand:
// `CollectorShard` stages every translated report's key and appends the
// batch's keys to the IndexPublisher's window at each delivered op
// batch, stamped with the store-memory generation that delivery
// produced.
//
// The structure borrows the OVS decision-tree classifier playbook
// (DT_INCREMENTAL_BUILD / DT_DEFER_PUBLISH / DT_LEAF_ONLY_COW /
// OVS_VERSION_MECHANISM): a published ShardIndexVersion is an immutable
// vector of immutable sorted leaves, readers walk it lock-free, and the
// builder folds a whole window of batches' keys at once, replacing only the
// leaves the window adds a key or a mask bit to (leaf-only
// copy-on-write). The builder keeps each leaf's first key in one
// contiguous fence array, finds each window key's leaf there, and
// checks the keys against their leaves with binary searches stepped in
// lockstep across keys, so the leaves' cache misses overlap; only keys
// that add something are then sorted. The leaf vector and its fence
// array are shared between versions and replaced only when some leaf
// changed; readers get both, so an IndexCursor seeks a range's first
// key through the fences (a binary search over one contiguous array)
// instead of through the leaves, then walks forward in key order.
// Versions carry the same generation stamp the SnapshotCache compares, so
// "index generation >= snapshot generation" is the consistency
// contract: the index then contains every key whose data is in the
// snapshot (keys are never deleted, so later index generations are
// supersets), and any extra keys resolve as point-query misses against
// the snapshot itself. Values are never duplicated into the index —
// range queries resolve hits through the same snapshot point lookups
// the scan path uses, which is what makes the two byte-equal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "dta/wire.h"

namespace dta::collector {

// Primitive membership bits of one indexed key.
inline constexpr std::uint8_t kIndexKeyWrite = 1u << 0;
inline constexpr std::uint8_t kIndexKeyIncrement = 1u << 1;
inline constexpr std::uint8_t kIndexPostcarding = 1u << 2;

struct IndexEntry {
  proto::TelemetryKey key;
  std::uint8_t primitives = 0;
};

// The index orders keys lexicographically on their byte spans (shorter
// key sorts first on a shared prefix) — TelemetryKey itself only
// defines equality. Precondition: both keys are canonical, i.e. length
// <= 16 and every byte past length zero (dta::Client rejects any other
// key). On canonical keys the span order is the order of the
// zero-padded bytes read as two big-endian 64-bit words, ties broken
// by length: a pad byte sorts below anything a longer key could hold
// there, and equal padded words mean one key is the other plus zero
// bytes. IndexSortKey is that triple, decoded once so a search can
// compare against it repeatedly.
struct IndexSortKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint64_t length = 0;
};

inline IndexSortKey index_sort_key(const proto::TelemetryKey& key) {
  return {common::load_u64(key.bytes.data()),
          common::load_u64(key.bytes.data() + 8), key.length};
}

// Branchless, so a binary search can select on it without mispredicting.
inline bool operator<(const IndexSortKey& a, const IndexSortKey& b) {
  const unsigned hi_less = a.hi < b.hi, hi_equal = a.hi == b.hi;
  const unsigned lo_less = a.lo < b.lo, lo_equal = a.lo == b.lo;
  const unsigned shorter = a.length < b.length;
  return (hi_less | (hi_equal & (lo_less | (lo_equal & shorter)))) != 0;
}

inline bool operator==(const IndexSortKey& a, const IndexSortKey& b) {
  return a.hi == b.hi && a.lo == b.lo && a.length == b.length;
}

inline bool index_key_less(const proto::TelemetryKey& a,
                           const proto::TelemetryKey& b) {
  return index_sort_key(a) < index_sort_key(b);
}

// One COW leaf: a sorted, duplicate-free run of entries. Immutable once
// referenced by a published version.
struct IndexLeaf {
  std::vector<IndexEntry> entries;
};

// A version's leaves in key order. Immutable once published, and shared
// by every later version whose window changed no leaf.
using IndexLeafVector = std::vector<std::shared_ptr<const IndexLeaf>>;

// fences[i] is leaves[i]'s first key, decoded: one contiguous array a
// seek binary-searches without touching a leaf. Published beside the
// leaf vector it describes and shared exactly as long as that vector.
using IndexFenceVector = std::vector<IndexSortKey>;

class ShardIndexVersion;

// Forward cursor over one version's entries in key order; valid while
// the version lives. The seek costs a binary search over the fence
// array plus one inside the leaf it names; each step after that is a
// pointer bump, and a leaf change is one load of the next leaf.
class IndexCursor {
 public:
  // Positioned at the first entry not below `from` (the first entry
  // when null).
  IndexCursor(const ShardIndexVersion& version,
              const proto::TelemetryKey* from);

  bool done() const { return at_ == end_; }
  const IndexEntry& entry() const { return *at_; }
  void next() {
    if (++at_ == end_) enter(leaf_ + 1);
  }

 private:
  // Positions at the first entry of leaf `leaf` or later, or done.
  void enter(std::size_t leaf) {
    for (leaf_ = leaf; leaf_ < leaves_->size(); ++leaf_) {
      const std::vector<IndexEntry>& entries = (*leaves_)[leaf_]->entries;
      if (entries.empty()) continue;
      at_ = entries.data();
      end_ = at_ + entries.size();
      return;
    }
    at_ = end_ = nullptr;
  }

  const IndexLeafVector* leaves_;
  std::size_t leaf_ = 0;
  const IndexEntry* at_ = nullptr;
  const IndexEntry* end_ = nullptr;
};

// An immutable published index version. Safe to read from any thread
// with no synchronization beyond acquiring the shared_ptr.
class ShardIndexVersion {
 public:
  ShardIndexVersion(std::uint64_t generation,
                    std::shared_ptr<const IndexLeafVector> leaves,
                    std::shared_ptr<const IndexFenceVector> fences,
                    std::uint64_t key_count)
      : generation_(generation),
        leaves_(std::move(leaves)),
        fences_(std::move(fences)),
        key_count_(key_count) {}

  // The shard store-memory generation this version is consistent with:
  // every key delivered at or before it is present.
  std::uint64_t generation() const { return generation_; }

  // Distinct keys indexed.
  std::uint64_t key_count() const { return key_count_; }

  // Visits entries in key order, `from` <= key <= `to` (either bound
  // null = open). The visitor returns false to stop early. O(log n)
  // to the first entry, then linear in entries visited.
  template <typename Fn>
  void visit_range(const proto::TelemetryKey* from,
                   const proto::TelemetryKey* to, Fn&& fn) const {
    for (IndexCursor cursor(*this, from); !cursor.done(); cursor.next()) {
      if (to != nullptr && index_key_less(*to, cursor.entry().key)) return;
      if (!fn(cursor.entry())) return;
    }
  }

  // Primitive-membership mask of `key`, 0 when absent.
  std::uint8_t lookup(const proto::TelemetryKey& key) const;

  const IndexLeafVector& leaves() const { return *leaves_; }
  const IndexFenceVector& fences() const { return *fences_; }

 private:
  std::uint64_t generation_;
  std::shared_ptr<const IndexLeafVector> leaves_;
  std::shared_ptr<const IndexFenceVector> fences_;
  std::uint64_t key_count_;
};

// The incremental builder: folds windows of keys with leaf-only COW and
// stamps out immutable versions on publish(). Not thread-safe — the
// publisher serializes access.
class ShardIndexBuilder {
 public:
  explicit ShardIndexBuilder(std::uint32_t target_leaf_entries = 128);

  // Folds one window: the keys delivered up to store-memory generation
  // `generation` since the last fold (duplicates allowed, masks are
  // OR-merged). Every key is probed against the current leaves, the
  // keys that add a key or a mask bit are sorted and their masks
  // OR-merged once, new keys are inserted in order, and existing keys
  // gain the new bits. A leaf is copied only when the window adds a key
  // or a mask bit to it, and only copied leaves can split. The entries
  // are independent of how the keys are cut into windows; the
  // generation never moves back, and advances even for a window with no
  // key (a batch of Append writes).
  void apply(std::uint64_t generation, common::Span<const IndexEntry> keys);

  // Freezes the current state into an immutable version (cheap: shares
  // the leaf and fence vectors, which the next leaf-changing apply
  // replaces rather than modifies).
  std::shared_ptr<const ShardIndexVersion> publish() const;

  std::uint64_t generation() const { return generation_; }
  std::uint64_t key_count() const { return key_count_; }
  // Existing leaves rewritten so far (first-time leaves of an empty
  // index are not copies).
  std::uint64_t leaf_copies() const { return leaf_copies_; }

 private:
  // A window key that adds itself or a mask bit to `leaf`.
  struct Change {
    IndexEntry entry;
    std::uint32_t leaf = 0;
  };

  // Appends to changes_ every key that `leaves` lacks, or holds without
  // all of its mask bits, with its leaf. Keys go 16 at a time: each
  // key's leaf is found in fences_, then the key is searched for in
  // that leaf, the group's searches stepped together.
  void probe_window(const IndexLeafVector& leaves,
                    common::Span<const IndexEntry> keys);
  // Appends `run` to `leaves` as one leaf, or, above 2 x target entries,
  // cut into run.size() / target pieces of target..2 x target entries,
  // and each new leaf's first key to `fences`.
  void emit_leaves(std::vector<IndexEntry> run, IndexLeafVector& leaves,
                   IndexFenceVector& fences) const;

  std::uint32_t target_leaf_entries_;
  std::uint64_t generation_ = 0;
  std::uint64_t key_count_ = 0;
  std::uint64_t leaf_copies_ = 0;
  std::shared_ptr<const IndexLeafVector> leaves_;
  // fences_[i] is (*leaves_)[i]'s first key. Built beside every new leaf
  // vector, from the runs the fold emits and the old fences of the
  // leaves it carries over, so no pass ever reads each leaf for it, and
  // published with it.
  std::shared_ptr<const IndexFenceVector> fences_;
  // Scratch reused across windows so a steady-state fold does not
  // allocate: the window keys that change a leaf (then sorted and
  // OR-deduplicated).
  std::vector<Change> changes_;
};

}  // namespace dta::collector
