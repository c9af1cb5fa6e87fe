// Immutable point-in-time copy of one shard's query stores.
//
// The serving plane (dta::Client's merge path) resolves queries on
// worker threads while ingest keeps running; the live store memory is
// written by the shard's NIC model, so reading it concurrently would
// race. A snapshot holds copies of the registered regions with the
// query stores rebuilt over them; once published it is immutable and
// safely shared across any number of query threads — this is how
// polling cores and queries stop contending on store memory.
//
// Where the copies are made (SnapshotCache drives both):
//   * A refresh runs inside the shard's writer job, on the worker
//     between two drain passes (IngestPipeline::run_writer_job): it
//     patches only the chunks the DirtyTracker listed since the last
//     refresh into a snapshot no reader pins, and copies everything
//     only on a first build or a saturated tracker. Its cost is the
//     dirtied bytes, not the store size.
//   * A copy-on-write clone runs on the reading thread while the shard
//     ingests: when a reader pins the published snapshot, clone()
//     copies that immutable snapshot (not the live regions) and the
//     writer job then patches the clone.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collector/rdma_service.h"
#include "common/lifetime_annotations.h"

namespace dta::collector {

class DirtyTracker;

class StoreSnapshot {
 public:
  // Copies every enabled store of `service`. Call only while nothing
  // writes the shard's store memory (behind a flush barrier with the
  // shard idle, or inside a writer job). `generation` is the shard's
  // store-memory generation at copy time; the SnapshotCache compares it
  // against the live counter to decide whether this snapshot is still
  // current.
  explicit StoreSnapshot(const RdmaService& service,
                         std::uint64_t generation = 0);

  // An unfilled snapshot shaped like `service`: regions allocated (and
  // advised like the live ones), stores built over them, contents zero
  // until refresh_from(..., nullptr) copies them. Reads only `service`'s
  // immutable geometry, so it may run while the shard ingests: it does
  // every allocation a refresh needs, leaving the copy to the writer.
  static std::shared_ptr<StoreSnapshot> allocate(const RdmaService& service);

  // The shard generation this snapshot reflects.
  std::uint64_t generation() const { return generation_; }

  StoreSnapshot(const StoreSnapshot&) = delete;
  StoreSnapshot& operator=(const StoreSnapshot&) = delete;

  // Deep copy of this snapshot: an allocate() shell filled from *this*
  // (immutable, so the copy is race-free even while the shard ingests —
  // the SnapshotCache clones pinned snapshots on the reader, outside the
  // writer job). `service` must be the service this snapshot was built
  // from.
  std::shared_ptr<StoreSnapshot> clone(const RdmaService& service) const;

  // Refresh: copies `dirty`'s chunk ranges — everything when `dirty` is
  // null — from `service`'s live regions into this snapshot's buffers
  // and restamps the generation. Allocates nothing and cannot throw.
  // Call only while nothing writes the shard (inside a writer job), and
  // only on a snapshot no reader can reach (the SnapshotCache's pin
  // protocol guarantees that). Returns the bytes copied.
  std::uint64_t refresh_from(const RdmaService& service,
                             std::uint64_t generation,
                             const DirtyTracker* dirty);

  // The copied regions (nullptr when the primitive is disabled) — the
  // byte-for-byte oracle the incremental-vs-full property sweep
  // compares.
  const rdma::MemoryRegion* keywrite_mem() const DTA_LIFETIMEBOUND {
    return kw_mem_.get();
  }
  const rdma::MemoryRegion* postcarding_mem() const DTA_LIFETIMEBOUND {
    return pc_mem_.get();
  }
  const rdma::MemoryRegion* append_mem() const DTA_LIFETIMEBOUND {
    return ap_mem_.get();
  }
  const rdma::MemoryRegion* keyincrement_mem() const DTA_LIFETIMEBOUND {
    return ki_mem_.get();
  }

  bool has_keywrite() const { return keywrite_ != nullptr; }
  bool has_postcarding() const { return postcarding_ != nullptr; }
  bool has_append() const { return append_ != nullptr; }
  bool has_keyincrement() const { return keyincrement_ != nullptr; }

  // Algorithm 2 vote over the copied Key-Write slots.
  KeyWriteQueryResult keywrite_query(
      const proto::TelemetryKey& key, std::uint8_t redundancy,
      std::uint8_t consensus_threshold = 1) const;

  // Zero-copy variant: the winning value as a span into this snapshot's
  // copied region memory. Valid while the snapshot is alive and pinned
  // (the SnapshotCache never patches a pinned snapshot in place);
  // dtalib's ByteView carries that ownership for callers.
  // lifetimebound: the result's span borrows this snapshot's buffers.
  KeyWriteViewResult keywrite_query_view(
      const proto::TelemetryKey& key, std::uint8_t redundancy,
      std::uint8_t consensus_threshold = 1) const DTA_LIFETIMEBOUND;

  // The query stores over the copied regions (nullptr when the
  // primitive is disabled), for lookups split into their hash, prefetch
  // and read steps (KeyWriteStore::prefetch/read). Same lifetime rules
  // as keywrite_query_view.
  const KeyWriteStore* keywrite() const DTA_LIFETIMEBOUND {
    return keywrite_.get();
  }
  const KeyIncrementStore* keyincrement() const DTA_LIFETIMEBOUND {
    return keyincrement_.get();
  }

  // Chunk-vote path decode over the copied Postcarding chunks.
  PostcardingQueryResult postcarding_query(const proto::TelemetryKey& key,
                                           std::uint8_t redundancy) const;

  // --- event cursor ---------------------------------------------------------
  // Cumulative per-list entry counts captured at snapshot time: what
  // the Append engine emitted to each list (its engine set's
  // append_heads()), read after a flush delivered them — inside the
  // writer job on a shard, after the fabric's flush on the wire path.
  // Together with append_read_range these give cursor-based
  // event reads: absolute position p lives at ring slot
  // p % entries_per_list as long as it is within the last
  // entries_per_list delivered entries. Copies into the snapshot's own
  // heads, which allocate() and clone() size to the store's list count,
  // so setting that many heads allocates nothing.
  void set_append_heads(const std::vector<std::uint64_t>& heads) {
    append_heads_.assign(heads.begin(), heads.end());
  }
  std::uint64_t append_head(std::uint32_t local_list) const {
    return local_list < append_heads_.size() ? append_heads_[local_list] : 0;
  }
  std::uint64_t append_entries_per_list() const;

  // Reads `count` entries of `local_list` starting at absolute entry
  // position `start_entry`, by ring arithmetic. A pure read, so any
  // number of threads may read one shared snapshot. The caller bounds
  // [start_entry, start_entry+count) to the live window
  // [head - entries_per_list, head); positions outside it alias
  // overwritten ring slots.
  std::vector<common::Bytes> append_read_range(std::uint32_t local_list,
                                               std::uint64_t start_entry,
                                               std::uint64_t count) const;

 private:
  // The allocate() shell.
  struct Unfilled {};
  StoreSnapshot(Unfilled, const RdmaService& service);

  std::uint64_t generation_ = 0;
  std::vector<std::uint64_t> append_heads_;
  std::unique_ptr<rdma::MemoryRegion> kw_mem_, pc_mem_, ap_mem_, ki_mem_;
  std::unique_ptr<KeyWriteStore> keywrite_;
  std::unique_ptr<PostcardingStore> postcarding_;
  std::unique_ptr<AppendStore> append_;
  std::unique_ptr<KeyIncrementStore> keyincrement_;
};

}  // namespace dta::collector
