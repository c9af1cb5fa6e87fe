// One collector shard: a slice of every enabled store behind its own
// RDMA service, NIC and queue pair.
//
// The paper's collector stops being the bottleneck because the NIC
// writes reports straight into memory; to scale that past one core the
// runtime partitions the key space N-way (CRC of the telemetry key) and
// gives each partition an independent service. Each shard owns its own
// translator::EngineSet, the one the wire translator runs — the
// single-writer-per-QP property that makes DTA's QP-sharing ablation
// favourable is preserved per shard — and coalesces the emitted RDMA
// ops into batches that it executes directly on its queue pair
// (Nic::execute_write / execute_fetch_add), so the per-batch
// bookkeeping (index keys, generation bump) is paid once per doorbell,
// not once per verb. The RoCE frame round-trip lives in FabricBackend,
// the wire-fidelity path.
//
// The thread that executes a shard's verbs (its pinned worker, or the
// submitting thread inline) is the only writer of the shard's live
// store regions, and their first: so each page lands on that thread's
// NUMA node with no placement hint (see rdma/memory_region.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "collector/dirty_tracker.h"
#include "collector/rdma_service.h"
#include "collector/shard_index.h"
#include "common/lifetime_annotations.h"
#include "dta/tenant.h"
#include "translator/engine_set.h"

namespace dta::collector {

class IndexPublisher;

struct ShardConfig {
  // Per-shard store slices (already divided by the runtime).
  std::optional<KeyWriteSetup> keywrite;
  std::optional<PostcardingSetup> postcarding;
  std::optional<AppendSetup> append;
  std::optional<KeyIncrementSetup> keyincrement;

  rdma::NicParams nic;
  // RDMA ops accumulated before one batched delivery into the NIC.
  std::uint32_t op_batch_size = 16;
  // Translator-side Append entry batching (B of Algorithm 3).
  std::uint32_t append_batch_size = 16;
  std::uint32_t postcard_cache_slots = 32768;
  // Dirty-chunk granularity for incremental snapshot refresh (rounded
  // up to a power of two, min 64 B), and the share of chunks past which
  // the dirty tracker saturates into a full copy.
  std::uint32_t snapshot_chunk_bytes = 64;
  double snapshot_full_copy_ratio = 0.5;
};

struct ShardStats {
  std::uint64_t reports_in = 0;
  std::uint64_t ops_batched = 0;
  std::uint64_t batch_flushes = 0;  // "doorbells": one per delivered batch
  std::uint64_t verbs_executed = 0;
  std::uint64_t verbs_failed = 0;

  ShardStats& operator+=(const ShardStats& o) {
    reports_in += o.reports_in;
    ops_batched += o.ops_batched;
    batch_flushes += o.batch_flushes;
    verbs_executed += o.verbs_executed;
    verbs_failed += o.verbs_failed;
    return *this;
  }
};

// The engine set's counters, summed across shards and hosts.
using TranslationStats = translator::TranslationStats;

class CollectorShard {
 public:
  CollectorShard(std::uint32_t index, const ShardConfig& config);

  CollectorShard(const CollectorShard&) = delete;
  CollectorShard& operator=(const CollectorShard&) = delete;

  // Translates one report with this shard's engines and stages the
  // resulting RDMA ops; delivers a batch once op_batch_size is reached.
  // Append reports must already carry shard-local list ids.
  void ingest(const proto::ParsedDta& parsed);

  // Drains the translator-side aggregation state (postcard cache rows,
  // append batch registers) and delivers any staged ops.
  void flush();

  std::uint32_t index() const { return index_; }
  RdmaService& service() DTA_LIFETIMEBOUND { return service_; }
  const RdmaService& service() const DTA_LIFETIMEBOUND { return service_; }
  const ShardStats& stats() const DTA_LIFETIMEBOUND { return stats_; }

  // Per-tenant slice of reports_in, keyed by the in-process
  // DtaHeader.tenant annotation the serving plane stamps at submit.
  // Read behind a flush barrier, like stats().
  const std::unordered_map<TenantId, std::uint64_t>& tenant_reports_in()
      const DTA_LIFETIMEBOUND {
    return tenant_reports_in_;
  }

  // The shard's translator engines: their counters (stats()) and the
  // Append engine's event-cursor heads (append_heads()), both read
  // behind a flush barrier or inside a writer job, where every emitted
  // op has been delivered.
  const translator::EngineSet& engines() const DTA_LIFETIMEBOUND {
    return engines_;
  }

  // Store-memory generation: bumped once per delivered op batch (the
  // only moments store memory changes), so generation equality means
  // the stores are bit-identical. The snapshot cache compares this
  // stamp lock-free to decide whether a cached snapshot is still
  // current. Monotonic; safe to read from any thread.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Dirty-chunk set accumulated since the last snapshot consume: the
  // delivery loop marks every executed op's byte extent. Saturated
  // (everything dirty) until the first consume. Written, read
  // and cleared on the ingest thread only: the snapshot refresh reads
  // and clears it inside a writer job (IngestPipeline::run_writer_job),
  // which runs there. Other threads read it behind a flush barrier.
  DirtyTracker& dirty_tracker() DTA_LIFETIMEBOUND { return dirty_; }
  const DirtyTracker& dirty_tracker() const DTA_LIFETIMEBOUND {
    return dirty_;
  }

  // Modeled ingest rate of this shard's NIC (verbs per virtual second).
  double modeled_verbs_per_sec() const;

  // Secondary-index feed: when set, every delivered op batch appends to
  // the publisher's window the telemetry keys the batch's reports
  // carried (staged at translate time; store memory cannot recover
  // them), stamped with the generation the delivery produces. They are
  // appended *before* the generation bump, so an observer of generation
  // G always finds batch G's keys already in the window. Call before
  // ingesting (not thread-safe against the worker).
  void set_index_publisher(IndexPublisher* publisher) {
    index_publisher_ = publisher;
  }

 private:
  void deliver_batch();

  std::uint32_t index_;
  std::uint32_t op_batch_size_;
  RdmaService service_;
  translator::EngineSet engines_;
  std::vector<translator::RdmaOp> pending_;
  // Index maintenance: keys staged since the last delivery. Only
  // filled with a publisher attached — otherwise nothing drains the
  // stage.
  IndexPublisher* index_publisher_ = nullptr;
  std::vector<IndexEntry> staged_keys_;
  DirtyTracker dirty_;
  ShardStats stats_;
  std::unordered_map<TenantId, std::uint64_t> tenant_reports_in_;
  std::atomic<std::uint64_t> generation_{0};
};

// Routing helpers shared by the ingest pipeline and the query frontend.
// Keys shard by CRC (common::shard_of); Append lists shard round-robin
// by list id, with the global id folded to a shard-local one.
std::uint32_t shard_for_key(const proto::TelemetryKey& key,
                            std::uint32_t num_shards);
std::uint32_t shard_for_list(std::uint32_t list_id, std::uint32_t num_shards);
std::uint32_t local_list_id(std::uint32_t list_id, std::uint32_t num_shards);

}  // namespace dta::collector
