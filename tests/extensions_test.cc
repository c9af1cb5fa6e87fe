// Tests for the §7 / §4-extensibility features: the query-enhancing
// translator engine, the heavy-hitter sketch extension, multi-collector
// partitioning, and the SmartNIC translator variant.
#include <gtest/gtest.h>

#include "rdma/memory_region.h"
#include "translator/collector_selector.h"
#include "translator/heavy_hitter.h"
#include "translator/query_engine.h"
#include "translator/smartnic.h"

namespace dta::translator {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint64_t id) {
  std::uint64_t z = id + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  Bytes b;
  common::put_u64(b, z);
  return TelemetryKey::from(ByteSpan(b));
}

proto::PostcardReport latency_card(std::uint64_t flow, std::uint8_t hop,
                                   std::uint32_t latency,
                                   std::uint8_t path_len = 3) {
  proto::PostcardReport r;
  r.key = key_of(flow);
  r.hop = hop;
  r.path_len = path_len;
  r.redundancy = 1;
  r.value = latency;
  return r;
}

// --------------------------------------------------------- QueryEngine

TEST(QueryEngine, SumOverThresholdMatches) {
  // SELECT flowID, path WHERE SUM(latency) > 100.
  QueryEngine engine({.threshold_sum = 100, .export_list = 3}, 1024);
  EXPECT_FALSE(engine.ingest(latency_card(1, 0, 50)).has_value());
  EXPECT_FALSE(engine.ingest(latency_card(1, 1, 40)).has_value());
  const auto match = engine.ingest(latency_card(1, 2, 30));  // sum=120
  ASSERT_TRUE(match);
  EXPECT_EQ(match->sum, 120u);
  EXPECT_EQ(match->per_hop, (std::vector<std::uint32_t>{50, 40, 30}));
  EXPECT_EQ(engine.stats().flows_matched, 1u);
}

TEST(QueryEngine, UnderThresholdSuppressed) {
  QueryEngine engine({.threshold_sum = 1000}, 1024);
  engine.ingest(latency_card(1, 0, 10));
  engine.ingest(latency_card(1, 1, 10));
  EXPECT_FALSE(engine.ingest(latency_card(1, 2, 10)).has_value());
  EXPECT_EQ(engine.stats().flows_suppressed, 1u);
  EXPECT_EQ(engine.stats().flows_matched, 0u);
}

TEST(QueryEngine, ExactThresholdNotMatched) {
  QueryEngine engine({.threshold_sum = 30}, 1024);
  engine.ingest(latency_card(1, 0, 10));
  engine.ingest(latency_card(1, 1, 10));
  EXPECT_FALSE(engine.ingest(latency_card(1, 2, 10)).has_value());  // == T
}

TEST(QueryEngine, RetransmittedHopReplacedNotDoubleCounted) {
  QueryEngine engine({.threshold_sum = 100}, 1024);
  engine.ingest(latency_card(1, 0, 60));
  engine.ingest(latency_card(1, 0, 20));  // retransmit, lower value
  engine.ingest(latency_card(1, 1, 20));
  const auto match = engine.ingest(latency_card(1, 2, 20));  // sum=60
  EXPECT_FALSE(match.has_value());
}

TEST(QueryEngine, CollisionEvictsBestEffort) {
  QueryEngine engine({.threshold_sum = 10}, 1);  // single row
  engine.ingest(latency_card(1, 0, 50));
  // Flow 2 evicts flow 1, whose partial sum (50) exceeds T: match.
  const auto match = engine.ingest(latency_card(2, 0, 5));
  ASSERT_TRUE(match);
  EXPECT_EQ(match->sum, 50u);
  EXPECT_EQ(engine.stats().early_evictions, 1u);
}

TEST(QueryEngine, FlushEvaluatesResidents) {
  QueryEngine engine({.threshold_sum = 10}, 1024);
  engine.ingest(latency_card(1, 0, 100, 5));  // incomplete, over T
  engine.ingest(latency_card(2, 0, 1, 5));    // incomplete, under T
  const auto matches = engine.flush();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].sum, 100u);
}

TEST(QueryEngine, MatchExportsAsAppendEntry) {
  ThresholdQuery q{.threshold_sum = 10, .export_list = 7};
  QueryEngine engine(q, 64);
  engine.ingest(latency_card(1, 0, 20));
  engine.ingest(latency_card(1, 1, 20));
  const auto match = engine.ingest(latency_card(1, 2, 20));
  ASSERT_TRUE(match);
  const auto append = match->to_append(q);
  EXPECT_EQ(append.list_id, 7u);
  ASSERT_EQ(append.entries.size(), 1u);
  // 16B key + 8B sum + 3 x 4B path.
  EXPECT_EQ(append.entries[0].size(), 36u);
  EXPECT_EQ(common::load_u64(append.entries[0].data() + 16), 60u);
}

TEST(QueryEngine, SuppressionCutsCollectorTraffic) {
  // The point of the extension: only matching flows reach the collector.
  QueryEngine engine({.threshold_sum = 250}, 4096);
  int exported = 0;
  for (std::uint64_t flow = 0; flow < 1000; ++flow) {
    // Flow i has per-hop latency i/10: only flows > ~833 cross 250 total.
    for (std::uint8_t hop = 0; hop < 3; ++hop) {
      if (engine.ingest(latency_card(flow, hop,
                                     static_cast<std::uint32_t>(flow / 10)))) {
        ++exported;
      }
    }
  }
  EXPECT_GT(exported, 100);
  EXPECT_LT(exported, 250);  // ~16% pass rate, 84% traffic suppressed
  EXPECT_EQ(engine.stats().flows_completed, 1000u);
}

// ------------------------------------------------------- HeavyHitterEngine

proto::KeyIncrementReport bump(std::uint64_t key, std::uint64_t count) {
  proto::KeyIncrementReport r;
  r.key = key_of(key);
  r.redundancy = 1;
  r.counter = count;
  return r;
}

TEST(HeavyHitter, EstimatesNeverUnderCount) {
  HeavyHitterEngine engine({.threshold = 1u << 30});
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t k = 0; k < 20; ++k) engine.update(bump(k, k + 1));
  }
  for (std::uint64_t k = 0; k < 20; ++k) {
    EXPECT_GE(engine.estimate(key_of(k)), 50 * (k + 1));
  }
}

TEST(HeavyHitter, ExportsCrossingKeysOnce) {
  HeavyHitterEngine engine({.threshold = 100, .export_list = 9});
  int exports = 0;
  for (int i = 0; i < 30; ++i) {
    const auto report = engine.update(bump(42, 10));
    if (report) {
      ++exports;
      EXPECT_EQ(report->list_id, 9u);
      // Entry: 16B key + 8B estimate.
      EXPECT_EQ(report->entries[0].size(), 24u);
      EXPECT_GT(common::load_u64(report->entries[0].data() + 16), 100u);
    }
  }
  EXPECT_EQ(exports, 1);  // latched after the first crossing
  EXPECT_EQ(engine.stats().hitters_exported, 1u);
}

TEST(HeavyHitter, LightKeysNeverExported) {
  HeavyHitterEngine engine({.threshold = 1000});
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_FALSE(engine.update(bump(k, 1)).has_value());
  }
}

TEST(HeavyHitter, EpochFlushWritesSketchAndResets) {
  HeavyHitterConfig config;
  config.sketch_rows = 3;
  config.sketch_cols = 256;
  config.threshold = 50;
  config.mirror_base_va = 0x5000;
  config.mirror_rkey = 0x77;
  HeavyHitterEngine engine(config);
  engine.update(bump(1, 60));

  const auto writes = engine.flush_epoch();
  ASSERT_EQ(writes.size(), 3u);
  for (std::uint32_t row = 0; row < 3; ++row) {
    EXPECT_EQ(writes[row].remote_va, 0x5000 + row * 256 * 8);
    EXPECT_EQ(writes[row].payload.size(), 256u * 8);
  }
  // One row must contain the count 60 somewhere.
  bool found = false;
  for (std::size_t off = 0; off < writes[0].payload.size(); off += 8) {
    if (common::load_u64(writes[0].payload.data() + off) == 60) found = true;
  }
  EXPECT_TRUE(found);

  // Counters reset: the key can cross and be exported again.
  EXPECT_EQ(engine.estimate(key_of(1)), 0u);
  EXPECT_TRUE(engine.update(bump(1, 60)).has_value());
}

TEST(HeavyHitter, AggregationReducesCollectorLoad) {
  // 10K updates -> 3 RDMA writes per epoch instead of 10K fetch-adds.
  HeavyHitterConfig config;
  config.threshold = 1u << 30;
  HeavyHitterEngine engine(config);
  for (int i = 0; i < 10000; ++i) engine.update(bump(i % 100, 1));
  const auto writes = engine.flush_epoch();
  EXPECT_EQ(writes.size(), config.sketch_rows);
  EXPECT_EQ(engine.stats().updates_in, 10000u);
}

// ---------------------------------------------------- CollectorSelector

TEST(Selector, KeyHashIsDeterministicAndBalanced) {
  CollectorSelector selector(PartitionPolicy::kByKeyHash, 4);
  std::vector<int> counts(4, 0);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    proto::KeyWriteReport r;
    r.key = key_of(k);
    const auto first = selector.route(r, 0);
    const auto second = selector.route(r, 99);  // dst ip must not matter
    ASSERT_EQ(first.count, 1u);
    EXPECT_EQ(first.first, second.first);
    counts[first.first]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 2200);  // ~2500 each
    EXPECT_LT(c, 2800);
  }
}

TEST(Selector, AppendPartitionsByList) {
  CollectorSelector selector(PartitionPolicy::kByKeyHash, 3);
  for (std::uint32_t list = 0; list < 9; ++list) {
    proto::AppendReport r;
    r.list_id = list;
    const auto route = selector.route(r, 0);
    ASSERT_EQ(route.count, 1u);
    EXPECT_EQ(route.first, list % 3);
  }
}

TEST(Selector, ReplicateReachesAll) {
  CollectorSelector selector(PartitionPolicy::kReplicate, 3);
  proto::KeyWriteReport r;
  r.key = key_of(1);
  const auto route = selector.route(r, 0);
  EXPECT_EQ(route.first, 0u);
  EXPECT_EQ(route.count, 3u);
}

TEST(Selector, DestinationIpPolicy) {
  CollectorSelector selector(PartitionPolicy::kByDestinationIp, 2);
  proto::KeyWriteReport r;
  r.key = key_of(1);
  EXPECT_EQ(selector.route(r, 10).first, 0u);
  EXPECT_EQ(selector.route(r, 11).first, 1u);
}

TEST(Selector, ShardingIndependentOfSlotHashes) {
  // The shard function must not correlate with slot placement: two keys
  // in the same shard should not systematically share slot indexes.
  CollectorSelector selector(PartitionPolicy::kByKeyHash, 2);
  int same_slot = 0, same_shard = 0;
  for (std::uint64_t k = 0; k < 2000; k += 2) {
    proto::KeyWriteReport a, b;
    a.key = key_of(k);
    b.key = key_of(k + 1);
    if (selector.route(a, 0).first == selector.route(b, 0).first) {
      ++same_shard;
      if (slot_index(0, a.key, 4096) == slot_index(0, b.key, 4096)) {
        ++same_slot;
      }
    }
  }
  EXPECT_GT(same_shard, 300);
  EXPECT_LT(same_slot, 5);
}

// ----------------------------------------------------- SmartNicTranslator

class SmartNicTest : public ::testing::Test {
 protected:
  SmartNicTest() : nic_(&pd_) {
    mr_ = pd_.register_region(4096, rdma::kRemoteWrite | rdma::kRemoteAtomic);
  }
  rdma::ProtectionDomain pd_;
  rdma::MemoryRegion* mr_;
  SmartNicTranslator nic_;
};

TEST_F(SmartNicTest, DmaWriteLands) {
  RdmaOp op;
  op.kind = RdmaOp::Kind::kWrite;
  op.remote_va = mr_->base_va() + 16;
  op.rkey = mr_->rkey();
  op.payload = {0xAB, 0xCD};
  ASSERT_TRUE(nic_.apply(op));
  EXPECT_EQ(mr_->data()[16], 0xAB);
  EXPECT_EQ(nic_.stats().dma_writes, 1u);
}

TEST_F(SmartNicTest, FetchAddAccumulates) {
  RdmaOp op;
  op.kind = RdmaOp::Kind::kFetchAdd;
  op.remote_va = mr_->base_va();
  op.rkey = mr_->rkey();
  op.add_value = 21;
  ASSERT_TRUE(nic_.apply(op));
  ASSERT_TRUE(nic_.apply(op));
  EXPECT_EQ(common::load_u64(mr_->data()), 42u);
}

TEST_F(SmartNicTest, RejectsBadRkeyAndBounds) {
  RdmaOp bad_key;
  bad_key.kind = RdmaOp::Kind::kWrite;
  bad_key.rkey = 0xDEAD;
  bad_key.payload = {1};
  EXPECT_FALSE(nic_.apply(bad_key));

  RdmaOp oob;
  oob.kind = RdmaOp::Kind::kWrite;
  oob.rkey = mr_->rkey();
  oob.remote_va = mr_->base_va() + 4095;
  oob.payload = {1, 2, 3};
  EXPECT_FALSE(nic_.apply(oob));
  EXPECT_EQ(nic_.stats().rejected, 2u);
}

TEST_F(SmartNicTest, MisalignedAtomicRejected) {
  RdmaOp op;
  op.kind = RdmaOp::Kind::kFetchAdd;
  op.remote_va = mr_->base_va() + 4;
  op.rkey = mr_->rkey();
  EXPECT_FALSE(nic_.apply(op));
}

TEST_F(SmartNicTest, RoceOverheadQuantified) {
  RdmaOp write;
  write.kind = RdmaOp::Kind::kWrite;
  // Eth(14)+IP(20)+UDP(8)+BTH(12)+RETH(16)+ICRC(4) = 74.
  EXPECT_EQ(SmartNicTranslator::roce_overhead_bytes(write), 74u);

  RdmaOp atomic;
  atomic.kind = RdmaOp::Kind::kFetchAdd;
  // Request 86 + ACK 62 = 148.
  EXPECT_EQ(SmartNicTranslator::roce_overhead_bytes(atomic), 148u);
}

TEST_F(SmartNicTest, SameResultAsRoceTranslatorForWrites) {
  // The variant must be semantically interchangeable: the same RdmaOp
  // produces identical memory contents via DMA or via RoCE.
  RdmaOp op;
  op.kind = RdmaOp::Kind::kWrite;
  op.remote_va = mr_->base_va() + 64;
  op.rkey = mr_->rkey();
  op.payload = {9, 8, 7, 6, 5};
  ASSERT_TRUE(nic_.apply(op));
  EXPECT_EQ(Bytes(mr_->data() + 64, mr_->data() + 69),
            Bytes(op.payload.begin(), op.payload.end()));
  EXPECT_EQ(nic_.stats().bytes_written, 5u);
}

}  // namespace
}  // namespace dta::translator
