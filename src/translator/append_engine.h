// Append translation (paper §4 "Append", §5.2, Appendix A.3 Algorithm 3).
//
// Per-list state at the translator: a head pointer into the collector's
// ring buffer and a batch buffer of B−1 pending entries ("Batching of
// size B is achieved by storing B−1 incoming list entries into SRAM
// using per-list registers. Every Bth packet ... sent as a single RDMA
// Write packet."). Lists are ring buffers; the head wraps at the list
// length. The prototype supports 131K simultaneous lists.
//
// Beside each ring head the engine counts the entries it has emitted to
// the list, never wrapping. Once a flush has delivered every emitted
// WRITE, that count is the list's event-cursor head: absolute entry
// position p sits at ring slot p % entries_per_list.
#pragma once

#include <cstdint>
#include <vector>

#include "dta/wire.h"
#include "rdma/cm.h"
#include "translator/rdma_crafter.h"

namespace dta::translator {

struct AppendGeometry {
  std::uint64_t base_va = 0;
  std::uint32_t rkey = 0;
  std::uint32_t num_lists = 1;
  std::uint64_t entries_per_list = 0;
  std::uint32_t entry_bytes = 4;

  // Decodes a kAppend CM region advert (param1: entry bytes; param2:
  // low 32 entries per list, high 32 list count).
  static AppendGeometry from_advert(const rdma::RegionAdvert& advert);

  std::uint64_t list_bytes() const { return entries_per_list * entry_bytes; }
  std::uint64_t list_base(std::uint32_t list) const {
    return base_va + static_cast<std::uint64_t>(list) * list_bytes();
  }
};

struct AppendStats {
  std::uint64_t entries_in = 0;
  std::uint64_t writes_emitted = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t dropped_bad_list = 0;
};

class AppendEngine {
 public:
  // `batch_size` B: number of entries coalesced into one RDMA WRITE.
  // Entries_per_list must be a multiple of B so batches never straddle
  // the ring wrap (the hardware prototype guarantees this by allocation).
  AppendEngine(AppendGeometry geometry, std::uint32_t batch_size);

  // Ingests the entries of one Append report; appends any triggered
  // RDMA WRITE to `out`.
  void ingest(const proto::AppendReport& report, bool immediate,
              std::vector<RdmaOp>& out);

  // Flushes partially filled batches (end-of-run drain and every
  // snapshot refresh; emits short writes, which the ring tolerates —
  // the batch that then reaches the ring end is emitted short too, so
  // no write crosses into the next list).
  void flush_all(std::vector<RdmaOp>& out);

  std::uint64_t head(std::uint32_t list) const {
    return lists_[list].head_entry;
  }
  // Entries emitted per list since construction (see the header
  // comment): what the WRITE payloads carried, one count per list.
  const std::vector<std::uint64_t>& emitted() const { return emitted_; }
  std::uint32_t batch_size() const { return batch_size_; }
  const AppendStats& stats() const { return stats_; }
  const AppendGeometry& geometry() const { return geometry_; }

 private:
  struct ListState {
    std::uint64_t head_entry = 0;  // next write position, in entries
    common::Bytes batch;           // pending entries (up to (B-1)*entry)
    std::uint32_t batched = 0;
  };

  void emit_batch(std::uint32_t list, ListState& st, bool immediate,
                  std::vector<RdmaOp>& out);

  AppendGeometry geometry_;
  std::uint32_t batch_size_;
  std::vector<ListState> lists_;
  std::vector<std::uint64_t> emitted_;
  AppendStats stats_;
};

}  // namespace dta::translator
