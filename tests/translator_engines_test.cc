#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.h"
#include "translator/append_engine.h"
#include "translator/crc_unit.h"
#include "translator/keyincrement_engine.h"
#include "translator/keywrite_engine.h"
#include "translator/postcard_cache.h"
#include "translator/rate_limiter.h"

namespace dta::translator {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint32_t id) {
  Bytes b;
  common::put_u32(b, id);
  return TelemetryKey::from(ByteSpan(b));
}

// ------------------------------------------------------------- CRC unit

TEST(CrcUnit, SlotIndexWithinBounds) {
  for (unsigned n = 0; n < 8; ++n) {
    for (std::uint32_t k = 0; k < 1000; ++k) {
      EXPECT_LT(slot_index(n, key_of(k), 977), 977u);
    }
  }
}

TEST(CrcUnit, ReplicasIndexIndependently) {
  // For most keys the N replicas should land in different slots.
  int same = 0;
  for (std::uint32_t k = 0; k < 1000; ++k) {
    if (slot_index(0, key_of(k), 1 << 20) == slot_index(1, key_of(k), 1 << 20))
      ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(CrcUnit, ChecksumDeterministic) {
  EXPECT_EQ(key_checksum(key_of(7)), key_checksum(key_of(7)));
  EXPECT_NE(key_checksum(key_of(7)), key_checksum(key_of(8)));
}

// --------------------------------------------------------- Key-Write engine

class KwEngineTest : public ::testing::Test {
 protected:
  KwEngineTest() {
    geometry_.base_va = 0x1000;
    geometry_.rkey = 0x42;
    geometry_.num_slots = 1 << 16;
    geometry_.value_bytes = 4;
  }
  KeyWriteGeometry geometry_;
};

TEST_F(KwEngineTest, EmitsNWrites) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(1);
  r.redundancy = 3;
  r.data = {1, 2, 3, 4};
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  EXPECT_EQ(ops.size(), 3u);
  EXPECT_EQ(engine.stats().writes_emitted, 3u);
}

TEST_F(KwEngineTest, SlotAddressesMatchCrcUnit) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(99);
  r.redundancy = 2;
  r.data = {5, 5, 5, 5};
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  for (unsigned n = 0; n < 2; ++n) {
    const std::uint64_t slot = slot_index(n, r.key, geometry_.num_slots);
    EXPECT_EQ(ops[n].remote_va, 0x1000 + slot * 8);
    EXPECT_EQ(ops[n].rkey, 0x42u);
  }
}

TEST_F(KwEngineTest, PayloadIsChecksumThenValue) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 1;
  r.data = {0xDE, 0xAD, 0xBE, 0xEF};
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  ASSERT_EQ(ops[0].payload.size(), 8u);
  EXPECT_EQ(common::load_u32(ops[0].payload.data()), key_checksum(r.key));
  EXPECT_EQ(ops[0].payload[4], 0xDE);
  EXPECT_EQ(ops[0].payload[7], 0xEF);
}

TEST_F(KwEngineTest, ShortValueZeroPadded) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 1;
  r.data = {0x11};
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  ASSERT_EQ(ops[0].payload.size(), 8u);
  EXPECT_EQ(ops[0].payload[4], 0x11);
  EXPECT_EQ(ops[0].payload[5], 0);
}

TEST_F(KwEngineTest, LongValueTruncatedAndCounted) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 1;
  r.data.resize(10, 0xAB);
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  EXPECT_EQ(ops[0].payload.size(), 8u);
  EXPECT_EQ(engine.stats().truncated_values, 1u);
}

TEST_F(KwEngineTest, ImmediateOnlyOnFirstReplica) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 3;
  r.data = {1, 2, 3, 4};
  std::vector<RdmaOp> ops;
  engine.translate(r, true, ops);
  EXPECT_TRUE(ops[0].immediate.has_value());
  EXPECT_FALSE(ops[1].immediate.has_value());
  EXPECT_FALSE(ops[2].immediate.has_value());
}

TEST_F(KwEngineTest, TwentyByteValues) {
  geometry_.value_bytes = 20;  // 5-hop path tracing
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 2;
  r.data.resize(20, 0x31);
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  EXPECT_EQ(ops[0].payload.size(), 24u);  // 4B csum + 20B
}

// ----------------------------------------------------- Key-Increment engine

TEST(KiEngine, EmitsNFetchAdds) {
  KeyIncrementGeometry g;
  g.base_va = 0x8000;
  g.rkey = 9;
  g.num_slots = 4096;
  KeyIncrementEngine engine(g);

  proto::KeyIncrementReport r;
  r.key = key_of(3);
  r.redundancy = 4;
  r.counter = 17;
  std::vector<RdmaOp> ops;
  engine.translate(r, ops);
  ASSERT_EQ(ops.size(), 4u);
  for (const auto& op : ops) {
    EXPECT_EQ(op.kind, RdmaOp::Kind::kFetchAdd);
    EXPECT_EQ(op.add_value, 17u);
    EXPECT_EQ((op.remote_va - 0x8000) % 8, 0u);  // aligned counters
    EXPECT_LT(op.remote_va, 0x8000 + 4096 * 8);
  }
}

// -------------------------------------------------------- Postcard cache

class PostcardCacheTest : public ::testing::Test {
 protected:
  PostcardCacheTest() {
    geometry_.base_va = 0x10000;
    geometry_.rkey = 0x77;
    geometry_.num_chunks = 1 << 14;
    geometry_.hops = 5;
  }

  proto::PostcardReport card(std::uint32_t flow, std::uint8_t hop,
                             std::uint32_t value, std::uint8_t path_len = 5) {
    proto::PostcardReport r;
    r.key = key_of(flow);
    r.hop = hop;
    r.path_len = path_len;
    r.redundancy = 1;
    r.value = value;
    return r;
  }

  PostcardingGeometry geometry_;
};

TEST_F(PostcardCacheTest, PaddedChunkGeometry) {
  EXPECT_EQ(geometry_.padded_hops(), 8u);   // 5 -> 8
  EXPECT_EQ(geometry_.chunk_bytes(), 32u);  // 20B padded to 32B, per §5.2
}

TEST_F(PostcardCacheTest, EmitsAfterFullPath) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    cache.ingest(card(1, hop, 100 + hop), ops);
    if (hop < 4) {
      EXPECT_TRUE(ops.empty()) << "premature emit at hop " << hop;
    }
  }
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].payload.size(), 32u);
  EXPECT_EQ(cache.stats().full_emissions, 1u);
  EXPECT_EQ(cache.stats().early_emissions, 0u);
}

TEST_F(PostcardCacheTest, ChunkAddressFromHash) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  const TelemetryKey key = key_of(1);
  for (std::uint8_t hop = 0; hop < 5; ++hop) cache.ingest(card(1, hop, 7), ops);
  ASSERT_EQ(ops.size(), 1u);
  const std::uint64_t chunk = chunk_index(0, key, geometry_.num_chunks);
  EXPECT_EQ(ops[0].remote_va, 0x10000 + chunk * 32);
}

TEST_F(PostcardCacheTest, EncodedSlotsAreXorOfChecksumAndValueCode) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  const TelemetryKey key = key_of(3);
  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    cache.ingest(card(3, hop, 200 + hop), ops);
  }
  ASSERT_EQ(ops.size(), 1u);
  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    const std::uint32_t enc =
        common::load_u32(ops[0].payload.data() + hop * 4);
    EXPECT_EQ(enc, hop_checksum(key, hop) ^ value_code(200 + hop));
  }
}

TEST_F(PostcardCacheTest, ShortPathFillsBlanks) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  const TelemetryKey key = key_of(4);
  for (std::uint8_t hop = 0; hop < 3; ++hop) {
    cache.ingest(card(4, hop, 50 + hop, /*path_len=*/3), ops);
  }
  ASSERT_EQ(ops.size(), 1u);
  // Hops 3 and 4 must carry the encoded blank.
  for (std::uint8_t hop = 3; hop < 5; ++hop) {
    const std::uint32_t enc =
        common::load_u32(ops[0].payload.data() + hop * 4);
    EXPECT_EQ(enc, hop_checksum(key, hop) ^ value_code(kBlankValue));
  }
}

TEST_F(PostcardCacheTest, CollisionEvictsEarly) {
  PostcardCache cache(geometry_, 1);  // single row: everything collides
  std::vector<RdmaOp> ops;
  cache.ingest(card(1, 0, 10), ops);
  EXPECT_TRUE(ops.empty());
  cache.ingest(card(2, 0, 20), ops);  // different flow: evicts flow 1
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(cache.stats().early_emissions, 1u);
}

TEST_F(PostcardCacheTest, RedundancyEmitsNWrites) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    auto c = card(9, hop, 1);
    c.redundancy = 2;
    cache.ingest(c, ops);
  }
  EXPECT_EQ(ops.size(), 2u);
  EXPECT_NE(ops[0].remote_va, ops[1].remote_va);
}

TEST_F(PostcardCacheTest, OutOfRangeHopDropped) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  cache.ingest(card(1, 7, 10), ops);  // hop >= B
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(cache.stats().postcards_in, 1u);
}

TEST_F(PostcardCacheTest, FlushDrainsResidents) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  cache.ingest(card(1, 0, 10), ops);
  cache.ingest(card(1, 1, 11), ops);
  EXPECT_TRUE(ops.empty());
  cache.flush_all(ops);
  EXPECT_EQ(ops.size(), 1u);
  EXPECT_EQ(cache.stats().final_flushes, 1u);
}

TEST_F(PostcardCacheTest, DuplicateHopDoesNotDoubleCount) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  cache.ingest(card(1, 0, 10), ops);
  cache.ingest(card(1, 0, 12), ops);  // retransmitted postcard, new value
  cache.ingest(card(1, 1, 11), ops);
  EXPECT_TRUE(ops.empty());  // count must be 2, not 3
}

// Oracle for flush_all: the cache's row semantics with the flush done
// the plain way, by scanning every row in index order.
class ScanPostcardCache {
 public:
  ScanPostcardCache(PostcardingGeometry geometry, std::uint32_t slots)
      : geometry_(geometry), rows_(slots) {}

  void ingest(const proto::PostcardReport& r, std::vector<RdmaOp>& out) {
    if (r.hop >= geometry_.hops) return;
    Row& row = rows_[common::checksum_crc().compute(r.key.span()) %
                     rows_.size()];
    if (row.valid && !(row.key == r.key)) emit(row, false, out);
    if (!row.valid) {
      row.valid = true;
      row.key = r.key;
      row.redundancy = r.redundancy;
    }
    if (r.path_len != 0) row.path_len = r.path_len;
    if (!(row.present & (1u << r.hop))) {
      row.present |= 1u << r.hop;
      ++row.count;
    }
    row.encoded[r.hop] = hop_checksum(r.key, r.hop) ^ value_code(r.value);
    if (row.count >= target(row)) emit(row, true, out);
  }

  void flush_all(std::vector<RdmaOp>& out) {
    for (Row& row : rows_) {
      if (row.valid) emit(row, row.count >= target(row), out);
    }
  }

 private:
  struct Row {
    bool valid = false;
    proto::TelemetryKey key;
    std::uint8_t path_len = 0, count = 0, redundancy = 1;
    std::uint32_t present = 0;
    std::array<std::uint32_t, 8> encoded{};
  };

  std::uint8_t target(const Row& row) const {
    return row.path_len == 0 ? geometry_.hops : row.path_len;
  }

  void emit(Row& row, bool full, std::vector<RdmaOp>& out) {
    Bytes payload(geometry_.chunk_bytes(), 0);
    for (std::uint8_t i = 0; i < geometry_.hops; ++i) {
      std::uint32_t enc = 0;
      if (row.present & (1u << i)) {
        enc = row.encoded[i];
      } else if (full && i >= target(row)) {
        enc = hop_checksum(row.key, i) ^ value_code(kBlankValue);
      } else {
        continue;
      }
      common::store_u32(payload.data() + i * 4, enc);
    }
    for (unsigned replica = 0; replica < row.redundancy; ++replica) {
      RdmaOp op;
      op.remote_va = geometry_.base_va +
                     chunk_index(replica, row.key, geometry_.num_chunks) *
                         geometry_.chunk_bytes();
      op.rkey = geometry_.rkey;
      op.payload.assign(payload.begin(), payload.end());
      out.push_back(std::move(op));
    }
    row = Row{};
  }

  PostcardingGeometry geometry_;
  std::vector<Row> rows_;
};

void expect_same_ops(const std::vector<RdmaOp>& got,
                     const std::vector<RdmaOp>& want, int step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << "step " << step << " op " << i;
    EXPECT_EQ(got[i].remote_va, want[i].remote_va)
        << "step " << step << " op " << i;
    EXPECT_EQ(got[i].rkey, want[i].rkey) << "step " << step << " op " << i;
    EXPECT_EQ(got[i].payload, want[i].payload)
        << "step " << step << " op " << i;
    EXPECT_EQ(got[i].immediate, want[i].immediate)
        << "step " << step << " op " << i;
  }
}

TEST_F(PostcardCacheTest, FlushMatchesFullRowScan) {
  // Seeded mixes of postcards, completions and collisions: small caches
  // (one a non-multiple of 64 rows) keep many rows resident and colliding,
  // and a few chunks make resident rows share store chunks, so the flush
  // order is observable.
  geometry_.num_chunks = 16;
  common::Rng rng(common::test_seed(0x9C));
  for (const std::uint32_t slots : {1u, 64u, 130u, 1024u}) {
    PostcardCache cache(geometry_, slots);
    ScanPostcardCache reference(geometry_, slots);
    std::vector<RdmaOp> got, want;
    for (int step = 0; step < 3000; ++step) {
      if (rng.next_below(50) == 0) {
        cache.flush_all(got);
        reference.flush_all(want);
      } else {
        const auto flow = static_cast<std::uint32_t>(rng.next_below(400));
        const auto path_len = static_cast<std::uint8_t>(rng.next_below(6));
        auto c = card(flow, static_cast<std::uint8_t>(rng.next_below(6)),
                      rng.next_u32(), path_len);
        c.redundancy = static_cast<std::uint8_t>(1 + rng.next_below(2));
        cache.ingest(c, got);
        reference.ingest(c, want);
      }
      expect_same_ops(got, want, step);
      if (::testing::Test::HasFailure()) return;
      got.clear();
      want.clear();
    }
    cache.flush_all(got);
    reference.flush_all(want);
    expect_same_ops(got, want, -1);
  }
}

// ------------------------------------------------------------ Append engine

class AppendEngineTest : public ::testing::Test {
 protected:
  AppendEngineTest() {
    geometry_.base_va = 0x20000;
    geometry_.rkey = 0x88;
    geometry_.num_lists = 4;
    geometry_.entries_per_list = 64;
    geometry_.entry_bytes = 4;
  }

  proto::AppendReport entry(std::uint32_t list, std::uint32_t value) {
    proto::AppendReport r;
    r.list_id = list;
    r.entry_size = 4;
    common::put_u32(r.entries.emplace_back(), value);
    return r;
  }

  AppendGeometry geometry_;
};

TEST_F(AppendEngineTest, BatchesBeforeEmitting) {
  AppendEngine engine(geometry_, 4);
  std::vector<RdmaOp> ops;
  for (std::uint32_t i = 0; i < 3; ++i) {
    engine.ingest(entry(0, i), false, ops);
    EXPECT_TRUE(ops.empty());
  }
  engine.ingest(entry(0, 3), false, ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].payload.size(), 16u);  // 4 entries x 4B
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(common::load_u32(ops[0].payload.data() + i * 4), i);
  }
}

TEST_F(AppendEngineTest, HeadAdvancesByBatch) {
  AppendEngine engine(geometry_, 4);
  std::vector<RdmaOp> ops;
  for (std::uint32_t i = 0; i < 8; ++i) engine.ingest(entry(0, i), false, ops);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].remote_va, 0x20000u);
  EXPECT_EQ(ops[1].remote_va, 0x20000u + 16);
  EXPECT_EQ(engine.head(0), 8u);
}

TEST_F(AppendEngineTest, RingWrapsAtListEnd) {
  AppendEngine engine(geometry_, 4);
  std::vector<RdmaOp> ops;
  for (std::uint32_t i = 0; i < 64; ++i) engine.ingest(entry(0, i), false, ops);
  EXPECT_EQ(engine.head(0), 0u);  // wrapped exactly
  ops.clear();
  for (std::uint32_t i = 0; i < 4; ++i) engine.ingest(entry(0, i), false, ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].remote_va, 0x20000u);  // back at the start
}

TEST_F(AppendEngineTest, ListsAreIndependent) {
  AppendEngine engine(geometry_, 2);
  std::vector<RdmaOp> ops;
  engine.ingest(entry(0, 1), false, ops);
  engine.ingest(entry(1, 2), false, ops);
  EXPECT_TRUE(ops.empty());  // each list has only 1 of 2 batched
  engine.ingest(entry(1, 3), false, ops);
  ASSERT_EQ(ops.size(), 1u);
  // List 1's region starts one list-length after list 0's.
  EXPECT_EQ(ops[0].remote_va, 0x20000u + 64 * 4);
}

TEST_F(AppendEngineTest, MultiEntryPacketsBatchCorrectly) {
  AppendEngine engine(geometry_, 4);
  proto::AppendReport r;
  r.list_id = 2;
  r.entry_size = 4;
  for (std::uint32_t i = 0; i < 8; ++i) {
    common::put_u32(r.entries.emplace_back(), i);
  }
  std::vector<RdmaOp> ops;
  engine.ingest(r, false, ops);
  EXPECT_EQ(ops.size(), 2u);
  EXPECT_EQ(engine.stats().entries_in, 8u);
}

TEST_F(AppendEngineTest, BadListDropped) {
  AppendEngine engine(geometry_, 4);
  std::vector<RdmaOp> ops;
  engine.ingest(entry(99, 1), false, ops);
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(engine.stats().dropped_bad_list, 1u);
}

TEST_F(AppendEngineTest, WrongEntrySizeDropped) {
  AppendEngine engine(geometry_, 4);
  proto::AppendReport r;
  r.list_id = 0;
  r.entry_size = 8;  // store expects 4
  r.entries.emplace_back().resize(8, 0);
  std::vector<RdmaOp> ops;
  engine.ingest(r, false, ops);
  EXPECT_EQ(engine.stats().dropped_bad_list, 1u);
}

TEST_F(AppendEngineTest, FlushEmitsPartialBatch) {
  AppendEngine engine(geometry_, 16);
  std::vector<RdmaOp> ops;
  for (std::uint32_t i = 0; i < 5; ++i) engine.ingest(entry(0, i), false, ops);
  EXPECT_TRUE(ops.empty());
  engine.flush_all(ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].payload.size(), 20u);
}

TEST_F(AppendEngineTest, PartialFlushNeverWritesPastRingEnd) {
  // A flush leaves the head mid-batch (5 of 16); the batch that later
  // reaches the ring end must stop there instead of spilling into list
  // 1. Every op is applied to a model of the whole append region.
  AppendEngine engine(geometry_, 16);
  const std::uint64_t list_bytes = geometry_.list_bytes();
  Bytes memory(list_bytes * geometry_.num_lists, 0);
  std::vector<RdmaOp> ops;
  const auto apply = [&] {
    for (const RdmaOp& op : ops) {
      const std::uint64_t offset = op.remote_va - geometry_.base_va;
      ASSERT_LE(offset + op.payload.size(), list_bytes)
          << "write crosses the end of list 0's ring";
      std::copy(op.payload.begin(), op.payload.end(),
                memory.begin() + static_cast<std::ptrdiff_t>(offset));
    }
    ops.clear();
  };

  constexpr std::uint32_t kEntries = 5 + 64 + 10;  // flush, wrap, continue
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    engine.ingest(entry(0, 1000 + i), false, ops);
    if (i == 4) {
      engine.flush_all(ops);
      EXPECT_EQ(engine.head(0), 5u);
    }
  }
  engine.flush_all(ops);
  apply();
  EXPECT_EQ(engine.head(0), kEntries % 64);

  // Ring position p holds the newest entry written there.
  for (std::uint32_t i = kEntries - 64; i < kEntries; ++i) {
    EXPECT_EQ(common::load_u32(memory.data() + (i % 64) * 4), 1000 + i)
        << "ring slot " << i % 64;
  }
  // The neighbouring lists were never touched.
  EXPECT_TRUE(std::all_of(memory.begin() + static_cast<std::ptrdiff_t>(list_bytes),
                          memory.end(), [](std::uint8_t b) { return b == 0; }));
}

TEST_F(AppendEngineTest, EmittedCountsEqualTheEntriesWritesCarry) {
  // Seeded streams of 1-5 entry reports to random lists, with flush_all
  // between some of them: after every step, each list's running total
  // equals the entries the emitted WRITE payloads carried to it —
  // through ring wraps, the short batches a flush emits, and the short
  // batch the engine then emits on reaching the ring end.
  const std::uint64_t list_bytes = geometry_.list_bytes();
  for (const std::uint32_t batch : {1u, 4u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("batch " + std::to_string(batch) + " seed " +
                   std::to_string(seed));
      common::Rng rng(common::test_seed(seed));
      AppendEngine engine(geometry_, batch);
      std::vector<std::uint64_t> carried(geometry_.num_lists, 0);
      std::uint64_t ring_end_emits = 0;
      std::vector<RdmaOp> ops;
      const auto count = [&](bool flushed) {
        for (const RdmaOp& op : ops) {
          const std::uint64_t offset = op.remote_va - geometry_.base_va;
          const std::uint64_t entries = op.payload.size() / 4;
          const std::uint64_t slot = offset % list_bytes / 4;
          ASSERT_LE(slot + entries, geometry_.entries_per_list);
          carried[offset / list_bytes] += entries;
          // Outside a flush, only the ring end cuts a batch short.
          if (!flushed && entries < batch) {
            EXPECT_EQ(slot + entries, geometry_.entries_per_list);
            ++ring_end_emits;
          }
        }
        ops.clear();
      };
      for (std::uint32_t step = 0; step < 400; ++step) {
        if (rng.chance(0.05)) {
          engine.flush_all(ops);
          count(true);
        } else {
          proto::AppendReport report =
              entry(static_cast<std::uint32_t>(rng.next_below(4)), step);
          for (std::uint64_t extra = rng.next_below(5); extra > 0; --extra) {
            report.entries.push_back(report.entries.front());
          }
          engine.ingest(report, false, ops);
          count(false);
        }
        ASSERT_EQ(engine.emitted(), carried) << "step " << step;
      }
      engine.flush_all(ops);
      count(true);
      EXPECT_EQ(engine.emitted(), carried);
      std::uint64_t total = 0;
      for (std::uint32_t list = 0; list < geometry_.num_lists; ++list) {
        total += carried[list];
        // Every list went round its ring more than once.
        EXPECT_GT(carried[list], 2 * geometry_.entries_per_list);
        EXPECT_EQ(engine.head(list),
                  carried[list] % geometry_.entries_per_list);
      }
      EXPECT_EQ(total, engine.stats().entries_in);
      if (batch > 1) {
        EXPECT_GT(ring_end_emits, 0u);
      }
    }
  }
}

TEST_F(AppendEngineTest, NoBatchingEmitsPerEntry) {
  AppendEngine engine(geometry_, 1);
  std::vector<RdmaOp> ops;
  engine.ingest(entry(0, 42), false, ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].payload.size(), 4u);
}

// ------------------------------------------------------------ Rate limiter

TEST(RateLimiter, AdmitsWithinBudget) {
  RateLimiterParams params;
  params.ops_per_second = 1e9;
  params.burst = 10;
  RateLimiter limiter(params);
  EXPECT_TRUE(limiter.admit(0, 10));
  EXPECT_FALSE(limiter.admit(0, 1));  // bucket drained, no time passed
}

TEST(RateLimiter, RefillsOverTime) {
  RateLimiterParams params;
  params.ops_per_second = 1e9;  // 1 token/ns
  params.burst = 10;
  RateLimiter limiter(params);
  EXPECT_TRUE(limiter.admit(0, 10));
  EXPECT_FALSE(limiter.admit(0, 5));
  EXPECT_TRUE(limiter.admit(5, 5));  // 5ns later: 5 tokens back
}

TEST(RateLimiter, NackCarriesDropInfo) {
  RateLimiterParams params;
  params.nack_on_drop = true;
  RateLimiter limiter(params);
  auto nack = limiter.make_nack(proto::PrimitiveOp::kAppend, 16, 0);
  ASSERT_TRUE(nack);
  EXPECT_EQ(nack->dropped_op, proto::PrimitiveOp::kAppend);
  EXPECT_EQ(nack->dropped_count, 16u);
}

TEST(RateLimiter, NackDisabled) {
  RateLimiterParams params;
  params.nack_on_drop = false;
  RateLimiter limiter(params);
  EXPECT_FALSE(limiter.make_nack(proto::PrimitiveOp::kKeyWrite, 1, 0));
}

TEST(RateLimiter, RetryAfterTracksRefillHorizon) {
  RateLimiterParams params;
  params.ops_per_second = 1e9;  // 1 token/ns
  params.burst = 10;
  RateLimiter limiter(params);

  EXPECT_EQ(limiter.retry_after_ns(0, 10), 0u);  // full bucket
  EXPECT_TRUE(limiter.admit(0, 10));
  EXPECT_EQ(limiter.retry_after_ns(0, 10), 10u);  // full drain: 10ns
  EXPECT_EQ(limiter.retry_after_ns(0, 3), 3u);
  EXPECT_EQ(limiter.retry_after_ns(2, 3), 1u);  // 2ns of refill counted
  // Requests beyond the bucket depth saturate to the full-bucket
  // horizon instead of promising the impossible.
  EXPECT_EQ(limiter.retry_after_ns(0, 64), 10u);
}

TEST(RateLimiter, NackCarriesRetryHint) {
  RateLimiterParams params;
  params.nack_on_drop = true;
  RateLimiter limiter(params);
  auto nack = limiter.make_nack(proto::PrimitiveOp::kKeyWrite, 3, 2'500'000);
  ASSERT_TRUE(nack);
  EXPECT_EQ(nack->dropped_count, 3u);
  EXPECT_EQ(nack->retry_after_us, 2500u);  // ns clamped into us hint
}

}  // namespace
}  // namespace dta::translator
