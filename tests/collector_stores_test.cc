// Collector store tests: these drive the stores through the *real* write
// path (translator engines -> RoCE frames -> NIC -> registered memory)
// rather than poking memory directly, so they validate the write/read
// contract between translator and collector.
#include <gtest/gtest.h>

#include "collector/rdma_service.h"
#include "translator/append_engine.h"
#include "translator/keyincrement_engine.h"
#include "translator/keywrite_engine.h"
#include "translator/postcard_cache.h"
#include "translator/rdma_crafter.h"

namespace dta::collector {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;
using translator::RdmaOp;

TelemetryKey key_of(std::uint32_t id) {
  Bytes b;
  common::put_u32(b, id);
  return TelemetryKey::from(ByteSpan(b));
}

// Shared rig: a service with every primitive enabled, engines configured
// from the CM accept, and a crafter whose frames are fed to the NIC.
class StoreRig {
 public:
  StoreRig() {
    KeyWriteSetup kw;
    kw.num_slots = 1 << 16;
    kw.value_bytes = 4;
    service.enable_keywrite(kw);

    PostcardingSetup pc;
    pc.num_chunks = 1 << 14;
    pc.hops = 5;
    for (std::uint32_t v = 0; v < 4096; ++v) pc.value_space.push_back(v);
    service.enable_postcarding(pc);

    AppendSetup ap;
    ap.num_lists = 4;
    ap.entries_per_list = 64;
    ap.entry_bytes = 4;
    service.enable_append(ap);

    KeyIncrementSetup ki;
    ki.num_slots = 1 << 12;
    service.enable_keyincrement(ki);

    rdma::ConnectRequest req;
    req.start_psn = 100;
    accept = service.accept(req);

    for (const auto& region : accept.regions) {
      switch (region.kind) {
        case rdma::RegionKind::kKeyWrite:
          kw_geo.base_va = region.base_va;
          kw_geo.rkey = region.rkey;
          kw_geo.value_bytes = (region.param1 & 0xFFFF) - 4;
          kw_geo.num_slots = region.param2;
          break;
        case rdma::RegionKind::kPostcarding:
          pc_geo.base_va = region.base_va;
          pc_geo.rkey = region.rkey;
          pc_geo.hops = static_cast<std::uint8_t>(region.param1 >> 16);
          pc_geo.num_chunks = region.param2;
          break;
        case rdma::RegionKind::kAppend:
          ap_geo.base_va = region.base_va;
          ap_geo.rkey = region.rkey;
          ap_geo.entry_bytes = region.param1;
          ap_geo.entries_per_list = region.param2 & 0xFFFFFFFFull;
          ap_geo.num_lists = static_cast<std::uint32_t>(region.param2 >> 32);
          break;
        case rdma::RegionKind::kKeyIncrement:
          ki_geo.base_va = region.base_va;
          ki_geo.rkey = region.rkey;
          ki_geo.num_slots = region.param2;
          break;
      }
    }
    crafter = std::make_unique<translator::RdmaCrafter>(
        translator::CrafterEndpoints{}, accept.responder_qpn,
        accept.start_psn);
  }

  void deliver(std::vector<RdmaOp>& ops) {
    for (auto& op : ops) {
      net::Packet frame = crafter->craft(op);
      auto out = service.nic().ingest(frame);
      ASSERT_TRUE(out);
      ASSERT_TRUE(out->responder.executed)
          << "verb did not execute (psn/rkey mismatch?)";
    }
    ops.clear();
  }

  RdmaService service;
  rdma::ConnectAccept accept;
  translator::KeyWriteGeometry kw_geo;
  translator::PostcardingGeometry pc_geo;
  translator::AppendGeometry ap_geo;
  translator::KeyIncrementGeometry ki_geo;
  std::unique_ptr<translator::RdmaCrafter> crafter;
};

// ------------------------------------------------------------ Key-Write

class KeyWriteStoreTest : public ::testing::Test {
 protected:
  void write(std::uint32_t id, std::uint32_t value, std::uint8_t n = 2) {
    translator::KeyWriteEngine engine(rig_.kw_geo);
    proto::KeyWriteReport r;
    r.key = key_of(id);
    r.redundancy = n;
    common::put_u32(r.data, value);
    std::vector<RdmaOp> ops;
    engine.translate(r, false, ops);
    rig_.deliver(ops);
  }

  std::optional<std::uint32_t> read(std::uint32_t id, std::uint8_t n = 2) {
    auto result = rig_.service.keywrite()->query(key_of(id), n);
    if (result.status != QueryStatus::kHit) return std::nullopt;
    return common::load_u32(result.value.data());
  }

  StoreRig rig_;
};

TEST_F(KeyWriteStoreTest, WriteThenQuery) {
  write(1, 0xCAFE);
  auto v = read(1);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 0xCAFEu);
}

TEST_F(KeyWriteStoreTest, UnwrittenKeyNotFound) {
  write(1, 10);
  EXPECT_EQ(rig_.service.keywrite()->query(key_of(999), 2).status,
            QueryStatus::kNotFound);
}

TEST_F(KeyWriteStoreTest, LatestWriteWins) {
  write(1, 10);
  write(1, 20);
  auto v = read(1);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 20u);
}

TEST_F(KeyWriteStoreTest, ManyKeysAllQueryable) {
  for (std::uint32_t i = 0; i < 500; ++i) write(i, i * 3 + 1);
  int hits = 0;
  for (std::uint32_t i = 0; i < 500; ++i) {
    auto v = read(i);
    if (v && *v == i * 3 + 1) ++hits;
  }
  // Load factor 500/65536: essentially everything must survive.
  EXPECT_GE(hits, 498);
}

TEST_F(KeyWriteStoreTest, VotesReportedWithRedundancy) {
  write(5, 77, 4);
  auto result = rig_.service.keywrite()->query(key_of(5), 4);
  ASSERT_EQ(result.status, QueryStatus::kHit);
  // At least 3 of 4 replicas must agree (two hash functions may map this
  // key to the same physical slot, which contributes a single vote).
  EXPECT_GE(result.votes, 3);
  EXPECT_LE(result.votes, 4);
}

TEST_F(KeyWriteStoreTest, ConsensusThresholdRejectsSingleVote) {
  write(5, 77, 1);  // only one replica written
  auto strict = rig_.service.keywrite()->query(key_of(5), 4,
                                               /*consensus_threshold=*/2);
  EXPECT_NE(strict.status, QueryStatus::kHit);
  auto lax = rig_.service.keywrite()->query(key_of(5), 4, 1);
  EXPECT_EQ(lax.status, QueryStatus::kHit);
}

TEST_F(KeyWriteStoreTest, QueryWithHigherNThanWritten) {
  // The collector "can assume by default a maximum redundancy" (§4):
  // querying N=4 for a key written with N=2 must still succeed.
  write(9, 123, 2);
  auto v = read(9, 4);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 123u);
}

// ---------------------------------------------------------- Postcarding

class PostcardingStoreTest : public ::testing::Test {
 protected:
  void write_path(std::uint32_t flow, const std::vector<std::uint32_t>& path,
                  std::uint8_t n = 1) {
    translator::PostcardCache cache(rig_.pc_geo, 4096);
    std::vector<RdmaOp> ops;
    for (std::uint8_t hop = 0; hop < path.size(); ++hop) {
      proto::PostcardReport r;
      r.key = key_of(flow);
      r.hop = hop;
      r.path_len = static_cast<std::uint8_t>(path.size());
      r.redundancy = n;
      r.value = path[hop];
      cache.ingest(r, ops);
    }
    rig_.deliver(ops);
  }

  StoreRig rig_;
};

TEST_F(PostcardingStoreTest, FullPathRoundTrip) {
  write_path(1, {10, 20, 30, 40, 50});
  auto result = rig_.service.postcarding()->query(key_of(1), 1);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.hop_values, (std::vector<std::uint32_t>{10, 20, 30, 40, 50}));
}

TEST_F(PostcardingStoreTest, ShortPathRoundTrip) {
  write_path(2, {7, 8});
  auto result = rig_.service.postcarding()->query(key_of(2), 1);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.hop_values, (std::vector<std::uint32_t>{7, 8}));
}

TEST_F(PostcardingStoreTest, UnwrittenFlowNotFound) {
  write_path(1, {1, 2, 3, 4, 5});
  EXPECT_FALSE(rig_.service.postcarding()->query(key_of(777), 1).found);
}

TEST_F(PostcardingStoreTest, RedundantChunksAgree) {
  write_path(3, {100, 200, 300, 400, 500}, 2);
  auto result = rig_.service.postcarding()->query(key_of(3), 2);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.hop_values.size(), 5u);
}

TEST_F(PostcardingStoreTest, ManyFlowsQueryable) {
  for (std::uint32_t f = 0; f < 200; ++f) {
    write_path(f, {f % 4096, (f + 1) % 4096, (f + 2) % 4096,
                   (f + 3) % 4096, (f + 4) % 4096});
  }
  int found = 0;
  for (std::uint32_t f = 0; f < 200; ++f) {
    auto r = rig_.service.postcarding()->query(key_of(f), 1);
    if (r.found && r.hop_values[0] == f % 4096) ++found;
  }
  EXPECT_GE(found, 198);  // load factor 200/16K: near-perfect recall
}

TEST_F(PostcardingStoreTest, ValueOutsideSpaceInvalidatesChunk) {
  // Values not in V cannot be decoded: the chunk is invalid, the query
  // empty — never a wrong answer.
  write_path(4, {999999, 1, 2, 3, 4});  // 999999 not in value space
  auto result = rig_.service.postcarding()->query(key_of(4), 1);
  EXPECT_FALSE(result.found);
}

// ---------------------------------------------------------------- Append

class AppendStoreTest : public ::testing::Test {
 protected:
  void append(std::uint32_t list, std::uint32_t value,
              std::uint32_t batch = 4) {
    if (!engine_ || engine_->batch_size() != batch) {
      engine_ =
          std::make_unique<translator::AppendEngine>(rig_.ap_geo, batch);
    }
    proto::AppendReport r;
    r.list_id = list;
    r.entry_size = 4;
    common::put_u32(r.entries.emplace_back(), value);
    std::vector<RdmaOp> ops;
    engine_->ingest(r, false, ops);
    rig_.deliver(ops);
  }

  StoreRig rig_;
  std::unique_ptr<translator::AppendEngine> engine_;
};

TEST_F(AppendStoreTest, PollReadsInOrder) {
  for (std::uint32_t i = 0; i < 8; ++i) append(0, 100 + i);
  AppendStore* store = rig_.service.append();
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(common::load_u32(store->poll(0).data()), 100 + i);
  }
  EXPECT_EQ(store->polled(), 8u);
}

TEST_F(AppendStoreTest, ListsIsolated) {
  for (std::uint32_t i = 0; i < 4; ++i) append(1, 10 + i);
  for (std::uint32_t i = 0; i < 4; ++i) append(2, 90 + i);
  AppendStore* store = rig_.service.append();
  EXPECT_EQ(common::load_u32(store->poll(1).data()), 10u);
  EXPECT_EQ(common::load_u32(store->poll(2).data()), 90u);
}

TEST_F(AppendStoreTest, TailWrapsWithRing) {
  AppendStore* store = rig_.service.append();
  // Fill the 64-entry list exactly once: head wraps to 0.
  for (std::uint32_t i = 0; i < 64; ++i) append(0, i);
  store->set_tail(0, 60);
  EXPECT_EQ(common::load_u32(store->poll(0).data()), 60u);
  store->poll(0);
  store->poll(0);
  store->poll(0);
  EXPECT_EQ(store->tail(0), 0u);  // rolled back to start
}

TEST_F(AppendStoreTest, AvailableAccountsForWrap) {
  AppendStore* store = rig_.service.append();
  store->set_tail(0, 60);
  EXPECT_EQ(store->available(0, 62), 2u);
  EXPECT_EQ(store->available(0, 4), 8u);  // wrapped head
}

// --------------------------------------------------------- Key-Increment

class KeyIncrementStoreTest : public ::testing::Test {
 protected:
  void bump(std::uint32_t id, std::uint64_t delta, std::uint8_t n = 2) {
    translator::KeyIncrementEngine engine(rig_.ki_geo);
    proto::KeyIncrementReport r;
    r.key = key_of(id);
    r.redundancy = n;
    r.counter = delta;
    std::vector<RdmaOp> ops;
    engine.translate(r, ops);
    rig_.deliver(ops);
  }

  StoreRig rig_;
};

TEST_F(KeyIncrementStoreTest, IncrementsAccumulate) {
  bump(1, 5);
  bump(1, 7);
  EXPECT_EQ(rig_.service.keyincrement()->query(key_of(1), 2), 12u);
}

TEST_F(KeyIncrementStoreTest, UnwrittenKeyIsZero) {
  bump(1, 5);
  // An untouched key reads 0 unless all its slots collide.
  EXPECT_EQ(rig_.service.keyincrement()->query(key_of(4242), 2), 0u);
}

TEST_F(KeyIncrementStoreTest, CmsNeverUnderestimates) {
  // Count-min property: estimates are always >= the true count.
  std::vector<std::uint64_t> truth(64, 0);
  for (std::uint32_t round = 0; round < 10; ++round) {
    for (std::uint32_t id = 0; id < 64; ++id) {
      bump(id, id % 5 + 1);
      truth[id] += id % 5 + 1;
    }
  }
  for (std::uint32_t id = 0; id < 64; ++id) {
    EXPECT_GE(rig_.service.keyincrement()->query(key_of(id), 2), truth[id]);
  }
}

TEST_F(KeyIncrementStoreTest, ResetZeroesCounters) {
  bump(1, 100);
  rig_.service.keyincrement()->reset();
  EXPECT_EQ(rig_.service.keyincrement()->query(key_of(1), 2), 0u);
}

}  // namespace
}  // namespace dta::collector
