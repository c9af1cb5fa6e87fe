// DirtyTracker unit tests: chunk marking, coalesced range readout,
// saturation fallbacks, the dirty list (re-listing after clear(), the
// full-copy cap), the slot→byte-range helpers the four store types
// expose, and the shard-level integration (delivered op batches mark
// exactly the slots the engines wrote).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "collector/dirty_tracker.h"
#include "collector/runtime.h"
#include "common/rng.h"
#include "dta/report_builders.h"
#include "rdma/memory_region.h"

namespace dta::collector {
namespace {

using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint64_t id) {
  std::uint64_t z = id * 0x9E3779B97F4A7C15ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  Bytes b;
  common::put_u64(b, z);
  return TelemetryKey::from(common::ByteSpan(b));
}

TEST(DirtyTracker, MarksAndCoalescesChunks) {
  rdma::ProtectionDomain pd;
  rdma::MemoryRegion* region = pd.register_region(1 << 16, rdma::kRemoteWrite);
  DirtyTracker tracker(256);
  tracker.track(region);
  EXPECT_EQ(tracker.chunk_bytes(), 256u);
  EXPECT_EQ(tracker.tracked_bytes(), static_cast<std::uint64_t>(1 << 16));
  EXPECT_EQ(tracker.dirty_bytes(), 0u);
  EXPECT_TRUE(tracker.dirty_ranges(region).empty());

  // One byte dirties exactly one chunk.
  tracker.mark(region->base_va() + 10, 1);
  EXPECT_EQ(tracker.dirty_bytes(), 256u);
  auto ranges = tracker.dirty_ranges(region);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0u);
  EXPECT_EQ(ranges[0].second, 256u);

  // A write straddling a chunk boundary dirties both sides; adjacent
  // chunks coalesce into one range.
  tracker.mark(region->base_va() + 255, 2);
  ranges = tracker.dirty_ranges(region);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0u);
  EXPECT_EQ(ranges[0].second, 512u);

  // A distant write opens a second range.
  tracker.mark(region->base_va() + 4096, 8);
  ranges = tracker.dirty_ranges(region);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[1].first, 4096u);
  EXPECT_EQ(ranges[1].second, 256u);
  EXPECT_DOUBLE_EQ(tracker.dirty_ratio(), 3.0 * 256 / (1 << 16));

  tracker.clear();
  EXPECT_EQ(tracker.dirty_bytes(), 0u);
  EXPECT_TRUE(tracker.dirty_ranges(region).empty());
}

TEST(DirtyTracker, ChunkSizeRoundsUpToPowerOfTwo) {
  EXPECT_EQ(DirtyTracker().chunk_bytes(), 64u);  // one cache line
  EXPECT_EQ(DirtyTracker(0).chunk_bytes(), 64u);
  EXPECT_EQ(DirtyTracker(1).chunk_bytes(), 64u);
  EXPECT_EQ(DirtyTracker(65).chunk_bytes(), 128u);
  EXPECT_EQ(DirtyTracker(4096).chunk_bytes(), 4096u);
}

// Per-bit reference for the run walk: one pass over every chunk,
// coalescing adjacent dirty chunks, the last run clamped to `length`.
std::vector<DirtyTracker::Range> reference_ranges(
    const std::vector<bool>& dirty, std::uint64_t chunk_bytes,
    std::uint64_t length) {
  std::vector<DirtyTracker::Range> ranges;
  for (std::uint64_t chunk = 0; chunk < dirty.size(); ++chunk) {
    if (!dirty[chunk]) continue;
    const std::uint64_t begin = chunk * chunk_bytes;
    const std::uint64_t end = std::min((chunk + 1) * chunk_bytes, length);
    if (!ranges.empty() &&
        ranges.back().first + ranges.back().second == begin) {
      ranges.back().second += end - begin;
    } else {
      ranges.emplace_back(begin, end - begin);
    }
  }
  return ranges;
}

TEST(DirtyTracker, RunWalkMatchesPerBitReference) {
  // 64 B chunks over two regions: 1000 chunks with a 17 B last chunk (a
  // partial last word and a partial last chunk), and exactly 16 words,
  // where a run can stay open past the last word.
  constexpr std::uint64_t kChunk = 64;
  common::Rng rng(common::test_seed(0xD1B7));
  for (const std::uint64_t length : {999 * kChunk + 17, 1024 * kChunk}) {
    const std::uint64_t chunks = (length + kChunk - 1) / kChunk;
    const std::uint64_t words = chunks / 64;
    rdma::ProtectionDomain pd;
    rdma::MemoryRegion* region =
        pd.register_region(length, rdma::kRemoteWrite);

    for (int round = 0; round < 200; ++round) {
      DirtyTracker tracker(kChunk);
      tracker.track(region);
      std::vector<bool> dirty(chunks, false);
      const auto mark_chunks = [&](std::uint64_t first, std::uint64_t count) {
        count = std::min(count, chunks - first);
        if (count == 0) return;
        for (std::uint64_t c = first; c < first + count; ++c) dirty[c] = true;
        tracker.mark(region->base_va() + first * kChunk,
                     std::min(count * kChunk, length - first * kChunk));
      };
      switch (round % 4) {
        case 0:  // sparse single chunks
          for (int i = 0; i < 20; ++i) mark_chunks(rng.next_below(chunks), 1);
          break;
        case 1:  // runs of random length, many crossing word boundaries
          for (int i = 0; i < 12; ++i) {
            mark_chunks(rng.next_below(chunks), 1 + rng.next_below(150));
          }
          break;
        case 2:  // whole words (all-ones fast path), neighbours, the tail
          for (int i = 0; i < 4; ++i) {
            mark_chunks(64 * rng.next_below(words),
                        64 * (1 + rng.next_below(2)));
          }
          mark_chunks(64 * rng.next_below(words) + 63, 2);
          mark_chunks(chunks - 1 - rng.next_below(3), 3);
          break;
        case 3:  // dense random bits
          for (std::uint64_t c = 0; c < chunks; ++c) {
            if (rng.next_below(2) == 0) mark_chunks(c, 1);
          }
          break;
      }
      ASSERT_EQ(tracker.dirty_ranges(region),
                reference_ranges(dirty, kChunk, length))
          << "length " << length << " round " << round;
    }

    // Everything dirty: one range, clamped to the region length.
    DirtyTracker full(kChunk);
    full.track(region);
    full.mark(region->base_va(), length);
    const std::vector<DirtyTracker::Range> whole = {{0, length}};
    ASSERT_EQ(full.dirty_ranges(region), whole) << "length " << length;
  }
}

TEST(DirtyTracker, SaturationDegradesToFullCopy) {
  rdma::ProtectionDomain pd;
  rdma::MemoryRegion* region = pd.register_region(8192, rdma::kRemoteWrite);
  DirtyTracker tracker(1024);
  tracker.track(region);

  // A write outside every tracked region must never be lost: the
  // tracker saturates and reports the whole region dirty.
  tracker.mark(0xDEAD0000, 4);
  EXPECT_TRUE(tracker.saturated());
  EXPECT_EQ(tracker.stats().saturations, 1u);
  EXPECT_EQ(tracker.dirty_bytes(), 8192u);
  auto ranges = tracker.dirty_ranges(region);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], DirtyTracker::Range(0, 8192));

  // clear() resets saturation.
  tracker.clear();
  EXPECT_FALSE(tracker.saturated());
  EXPECT_EQ(tracker.dirty_bytes(), 0u);

  // Explicit mark_all behaves the same.
  tracker.mark_all();
  EXPECT_TRUE(tracker.saturated());
  EXPECT_DOUBLE_EQ(tracker.dirty_ratio(), 1.0);
}

TEST(DirtyTracker, ClearedChunksReenterTheList) {
  // One tracker reused across rounds: clear() must leave no stale bit,
  // or a chunk marked again after it would never re-enter the list and
  // its next write would be missed by the refresh.
  constexpr std::uint64_t kChunk = 64;
  constexpr std::uint64_t kChunks = 300;
  rdma::ProtectionDomain pd;
  rdma::MemoryRegion* region =
      pd.register_region(kChunks * kChunk, rdma::kRemoteWrite);
  DirtyTracker tracker(kChunk);
  tracker.track(region);
  common::Rng rng(common::test_seed(0xC1EA));
  for (int round = 0; round < 50; ++round) {
    std::vector<bool> dirty(kChunks, false);
    // Every round marks chunk 7 and its word neighbour 8, so both are
    // re-marked after each clear().
    for (const std::uint64_t chunk : {std::uint64_t{7}, std::uint64_t{8}}) {
      dirty[chunk] = true;
      tracker.mark(region->base_va() + chunk * kChunk, 1);
    }
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t chunk = rng.next_below(kChunks);
      dirty[chunk] = true;
      tracker.mark(region->base_va() + chunk * kChunk + 3, 5);
    }
    ASSERT_EQ(tracker.dirty_ranges(region),
              reference_ranges(dirty, kChunk, kChunks * kChunk))
        << "round " << round;
    const std::uint64_t listed = static_cast<std::uint64_t>(
        std::count(dirty.begin(), dirty.end(), true));
    EXPECT_EQ(tracker.dirty_bytes(), listed * kChunk) << "round " << round;
    tracker.clear();
    EXPECT_EQ(tracker.dirty_bytes(), 0u);
    EXPECT_TRUE(tracker.dirty_ranges(region).empty());
  }
  EXPECT_FALSE(tracker.saturated());
}

TEST(DirtyTracker, PassingTheCapSaturates) {
  // 64 chunks at ratio 0.25: the list holds 16, the 17th saturates.
  rdma::ProtectionDomain pd;
  rdma::MemoryRegion* region = pd.register_region(64 * 64, rdma::kRemoteWrite);
  DirtyTracker tracker(64, 0.25);
  tracker.track(region);
  for (std::uint64_t chunk = 0; chunk < 16; ++chunk) {
    tracker.mark(region->base_va() + chunk * 64, 8);
  }
  tracker.mark(region->base_va(), 64);  // already listed: no entry used
  EXPECT_FALSE(tracker.saturated());
  EXPECT_EQ(tracker.dirty_bytes(), 16u * 64);
  tracker.mark(region->base_va() + 40 * 64, 8);
  EXPECT_TRUE(tracker.saturated());
  EXPECT_EQ(tracker.stats().saturations, 1u);
  const std::vector<DirtyTracker::Range> whole = {{0, 64 * 64}};
  EXPECT_EQ(tracker.dirty_ranges(region), whole);
  tracker.clear();
  EXPECT_FALSE(tracker.saturated());
  EXPECT_TRUE(tracker.dirty_ranges(region).empty());
  // The cap applies afresh after clear().
  tracker.mark(region->base_va() + 40 * 64, 8);
  EXPECT_EQ(tracker.dirty_bytes(), 64u);
}

TEST(DirtyTracker, PassingTheCapForcesOneFullRefresh) {
  CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = ThreadMode::kInline;
  config.op_batch_size = 1;  // deliver (and mark) immediately
  config.snapshot_full_copy_ratio = 0.05;
  KeyWriteSetup kw;
  kw.num_slots = 1 << 12;  // 512 chunks of 64 B: the cap is 25
  kw.value_bytes = 4;
  config.keywrite = kw;
  CollectorRuntime runtime(config);
  const DirtyTracker& tracker = runtime.shard(0).dirty_tracker();
  (void)runtime.snapshot_shard(0);  // first build: a full copy
  ASSERT_EQ(runtime.snapshot_cache().stats().full_refreshes, 1u);

  // Below the cap a refresh patches chunks.
  runtime.submit(reports::keywrite_u32(key_of(0), 1));
  ASSERT_FALSE(tracker.saturated());
  (void)runtime.snapshot_shard(0);
  EXPECT_EQ(runtime.snapshot_cache().stats().incremental_refreshes, 1u);

  // Dirty one report at a time until the list passes the cap.
  std::uint64_t id = 1;
  while (!tracker.saturated()) {
    ASSERT_LE(tracker.dirty_ratio(), config.snapshot_full_copy_ratio);
    ASSERT_LT(id, 1000u) << "the tracker never saturated";
    runtime.submit(reports::keywrite_u32(key_of(id++), 1));
  }
  const auto snap = runtime.snapshot_shard(0);
  const auto stats = runtime.snapshot_cache().stats();
  EXPECT_EQ(stats.full_refreshes, 2u);
  EXPECT_EQ(stats.incremental_refreshes, 1u);
  EXPECT_FALSE(tracker.saturated()) << "the refresh consumes the dirty set";
  const auto fresh = runtime.snapshot_shard_fresh(0);
  const auto* a = snap->keywrite_mem();
  const auto* b = fresh->keywrite_mem();
  ASSERT_EQ(a->length(), b->length());
  EXPECT_TRUE(std::equal(a->data(), a->data() + a->length(), b->data()));
}

TEST(DirtyTracker, RatioAboveOneNeverSaturatesThroughTheCap) {
  rdma::ProtectionDomain pd;
  rdma::MemoryRegion* region = pd.register_region(100 * 64 + 9,
                                                  rdma::kRemoteWrite);
  for (const double ratio : {1.0, 1.1}) {
    DirtyTracker tracker(64, ratio);
    tracker.track(region);
    // Every chunk, last first, one at a time.
    for (std::uint64_t chunk = 101; chunk-- > 0;) {
      tracker.mark(region->base_va() + chunk * 64, 1);
    }
    EXPECT_FALSE(tracker.saturated()) << "ratio " << ratio;
    EXPECT_EQ(tracker.stats().saturations, 0u) << "ratio " << ratio;
    const std::vector<DirtyTracker::Range> whole = {{0, region->length()}};
    EXPECT_EQ(tracker.dirty_ranges(region), whole) << "ratio " << ratio;
    EXPECT_DOUBLE_EQ(tracker.dirty_ratio(), 1.0) << "ratio " << ratio;
  }
}

TEST(DirtyTracker, UntrackedRegionReportsFullRange) {
  rdma::ProtectionDomain pd;
  rdma::MemoryRegion* tracked = pd.register_region(4096, rdma::kRemoteWrite);
  rdma::MemoryRegion* stranger = pd.register_region(2048, rdma::kRemoteWrite);
  DirtyTracker tracker(512);
  tracker.track(tracked);
  // Consumers asking about a region the tracker never saw must get the
  // safe answer (copy everything), not a clean bill.
  auto ranges = tracker.dirty_ranges(stranger);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], DirtyTracker::Range(0, 2048));
}

TEST(DirtyTracker, StoreSlotByteRangesMatchGeometry) {
  rdma::ProtectionDomain pd;
  rdma::MemoryRegion* kw_region =
      pd.register_region(16 * 8, rdma::kRemoteWrite);
  KeyWriteStore kw(kw_region, 16, 4);
  EXPECT_EQ(kw.slot_byte_range(0), std::make_pair(std::uint64_t{0},
                                                  std::uint64_t{8}));
  EXPECT_EQ(kw.slot_byte_range(3), std::make_pair(std::uint64_t{24},
                                                  std::uint64_t{8}));

  rdma::MemoryRegion* ki_region =
      pd.register_region(16 * 8, rdma::kRemoteAtomic);
  KeyIncrementStore ki(ki_region, 16);
  EXPECT_EQ(ki.slot_byte_range(2), std::make_pair(std::uint64_t{16},
                                                  std::uint64_t{8}));

  rdma::MemoryRegion* ap_region =
      pd.register_region(4 * 8 * 4, rdma::kRemoteWrite);
  AppendStore ap(ap_region, 4, 8, 4);
  EXPECT_EQ(ap.entry_byte_range(1, 2),
            std::make_pair(std::uint64_t{(8 + 2) * 4}, std::uint64_t{4}));

  rdma::MemoryRegion* pc_region =
      pd.register_region(8 * 8 * 4, rdma::kRemoteWrite);
  PostcardingStore pc(pc_region, 8, 5, {1, 2, 3});
  // 5 hops pad to 8 slots of 4 B.
  EXPECT_EQ(pc.chunk_bytes(), 32u);
  EXPECT_EQ(pc.chunk_byte_range(3), std::make_pair(std::uint64_t{96},
                                                   std::uint64_t{32}));
}

TEST(DirtyTracker, ShardMarksExactlyTheWrittenSlots) {
  // End to end: reports delivered through the runtime must mark dirty
  // ranges that cover every slot the Key-Write engine wrote — located
  // independently via the store's slot fetch — and nothing outside a
  // chunk radius of them.
  CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = ThreadMode::kInline;
  config.op_batch_size = 1;  // deliver (and mark) immediately
  config.snapshot_chunk_bytes = 64;
  KeyWriteSetup kw;
  kw.num_slots = 1 << 12;
  kw.value_bytes = 4;
  config.keywrite = kw;
  CollectorRuntime runtime(config);
  // A shard's tracker starts saturated until the first snapshot
  // consumes it.
  (void)runtime.snapshot_shard(0);

  const auto* region = runtime.shard(0).service().keywrite_region();
  const auto& store = *runtime.shard(0).service().keywrite();
  const auto& tracker = runtime.shard(0).dirty_tracker();
  ASSERT_EQ(tracker.dirty_bytes(), 0u);

  constexpr std::uint8_t kRedundancy = 2;
  std::set<std::uint64_t> expected_chunks;
  for (std::uint64_t id = 0; id < 20; ++id) {
    proto::KeyWriteReport r;
    r.key = key_of(id);
    r.redundancy = kRedundancy;
    common::put_u32(r.data, static_cast<std::uint32_t>(id));
    for (std::uint8_t replica = 0; replica < kRedundancy; ++replica) {
      const auto span = store.fetch_slot(key_of(id), replica);
      const std::uint64_t offset =
          static_cast<std::uint64_t>(span.data() - region->data());
      expected_chunks.insert(offset / tracker.chunk_bytes());
    }
    runtime.submit(reports::wrap(std::move(r)));
  }
  runtime.flush();

  ASSERT_FALSE(tracker.saturated());
  const auto ranges = tracker.dirty_ranges(region);
  ASSERT_FALSE(ranges.empty());
  auto covered = [&](std::uint64_t chunk) {
    const std::uint64_t offset = chunk * tracker.chunk_bytes();
    for (const auto& range : ranges) {
      if (offset >= range.first && offset < range.first + range.second) {
        return true;
      }
    }
    return false;
  };
  for (const std::uint64_t chunk : expected_chunks) {
    EXPECT_TRUE(covered(chunk)) << "written chunk " << chunk << " not dirty";
  }
  // Precision: the dirty set is the written chunks, no more.
  EXPECT_EQ(tracker.dirty_bytes(),
            expected_chunks.size() * tracker.chunk_bytes());
  EXPECT_GE(tracker.stats().marks, 20u * kRedundancy);
}

}  // namespace
}  // namespace dta::collector
