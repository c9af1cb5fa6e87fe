// Postcarding aggregation cache (paper §4 "Postcarding", §5.2).
//
// "Postcarding uses an SRAM-based hash table with 32K slots storing
// fixed-size 32-bit payloads. ... Emissions are triggered either by a
// collision or when a row counter reaches the path length."
//
// Each cache row aggregates the postcards of one flow/packet ID. A row
// holds the B per-hop encoded values (checksum(x,i) XOR g(v)); when all
// path_len postcards have arrived, the whole chunk is written to the
// collector with a single RDMA WRITE per redundancy replica. A hash
// collision evicts the resident flow first (early emission — those
// partial reports count as failures in Figure 14's success metric).
//
// Chunk addresses are power-of-two padded: B=5 hops of 4B pad from 20B
// to 32B "due to bitshift-based multiplication during address
// calculation" (§5.2) — we keep that constraint so the memory layout
// matches the hardware prototype.
#pragma once

#include <cstdint>
#include <vector>

#include "dta/wire.h"
#include "rdma/cm.h"
#include "translator/crc_unit.h"
#include "translator/rdma_crafter.h"

namespace dta::translator {

struct PostcardingGeometry {
  std::uint64_t base_va = 0;
  std::uint32_t rkey = 0;
  std::uint64_t num_chunks = 0;
  std::uint8_t hops = 5;  // B
  static constexpr std::uint32_t kSlotBytes = 4;  // b = 32 bits

  // Decodes a kPostcarding CM region advert (param1 high half: hops;
  // param2: chunk count).
  static PostcardingGeometry from_advert(const rdma::RegionAdvert& advert);

  // Chunk stride padded to the next power of two (8 slots for B=5).
  std::uint32_t padded_hops() const {
    std::uint32_t p = 1;
    while (p < hops) p <<= 1;
    return p;
  }
  std::uint32_t chunk_bytes() const { return padded_hops() * kSlotBytes; }
};

struct PostcardCacheStats {
  std::uint64_t postcards_in = 0;
  std::uint64_t full_emissions = 0;   // row counter reached path length
  std::uint64_t early_emissions = 0;  // evicted by a colliding flow
  std::uint64_t writes_emitted = 0;
  std::uint64_t final_flushes = 0;
};

class PostcardCache {
 public:
  PostcardCache(PostcardingGeometry geometry, std::uint32_t cache_slots);

  // Ingests one postcard; appends any triggered RDMA WRITEs to `out`.
  void ingest(const proto::PostcardReport& report, std::vector<RdmaOp>& out);

  // Flushes every resident row, in ascending row order. Every snapshot
  // refresh calls this, so it costs O(resident rows), not O(cache_slots).
  void flush_all(std::vector<RdmaOp>& out);

  const PostcardCacheStats& stats() const { return stats_; }
  std::uint32_t cache_slots() const {
    return static_cast<std::uint32_t>(rows_.size());
  }

 private:
  struct Row {
    proto::TelemetryKey key;
    std::uint8_t path_len = 0;
    std::uint8_t count = 0;
    std::uint8_t redundancy = 1;
    std::uint8_t present_mask = 0;
    std::array<std::uint32_t, 8> encoded{};  // up to padded B
  };

  std::uint32_t row_index(const proto::TelemetryKey& key) const;
  void emit(std::uint32_t index, bool full, std::vector<RdmaOp>& out);

  PostcardingGeometry geometry_;
  std::vector<Row> rows_;
  // One bit per row, set while the row holds a resident flow (a row's
  // contents mean nothing while its bit is clear): flush_all walks the
  // set bits instead of scanning every row.
  std::vector<std::uint64_t> occupied_;
  PostcardCacheStats stats_;
};

}  // namespace dta::translator
