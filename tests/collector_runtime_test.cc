// Sharded collector runtime tests, driven through the dta::Client
// facade (Client::local, a one-host ClusterBackend): routing
// stability, cross-shard query merge, batch/shutdown flushing, and
// equivalence of a 1-shard runtime with the unsharded store path.
// Reports are built by the shared typed builders
// (dta/report_builders.h); internals (shard stats, store memory) are
// reached through Client::local_runtime().
#include <gtest/gtest.h>

#include <set>

#include "collector/runtime.h"
#include "common/crc.h"
#include "dta/report_builders.h"
#include "dtalib/client.h"
#include "translator/keywrite_engine.h"
#include "translator/rdma_crafter.h"

namespace dta::collector {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;
using reports::u32_key;

CollectorRuntimeConfig small_config(std::uint32_t shards,
                                    ThreadMode mode = ThreadMode::kInline) {
  CollectorRuntimeConfig config;
  config.num_shards = shards;
  config.thread_mode = mode;
  KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  config.keywrite = kw;
  KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;
  AppendSetup ap;
  ap.num_lists = 8;
  ap.entries_per_list = 64;
  ap.entry_bytes = 4;
  config.append = ap;
  PostcardingSetup pc;
  pc.num_chunks = 1 << 14;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 4096; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  return config;
}

// ------------------------------------------------------------- routing

TEST(ShardRouting, KeyRoutingIsStable) {
  for (std::uint32_t id = 0; id < 1000; ++id) {
    const TelemetryKey key = u32_key(id);
    const std::uint32_t first = shard_for_key(key, 4);
    EXPECT_EQ(shard_for_key(key, 4), first);
    EXPECT_LT(first, 4u);
  }
}

TEST(ShardRouting, AllPrimitivesOfOneKeyShareAShard) {
  // Key-Write, Key-Increment and Postcarding reports for the same key
  // must land on the same shard or cross-shard queries would miss.
  Client client = Client::local(small_config(4));
  CollectorRuntime& runtime = *client.local_runtime();
  for (std::uint32_t id = 0; id < 100; ++id) {
    const auto keywrite = reports::keywrite_u32(u32_key(id), 1);
    const auto counter = reports::keyincrement(u32_key(id), 1);
    const auto postcard = reports::postcard(u32_key(id), 0, 5, 1);
    const std::uint32_t kw_shard = runtime.shard_index_for(keywrite);
    EXPECT_EQ(runtime.shard_index_for(counter), kw_shard);
    EXPECT_EQ(runtime.shard_index_for(postcard), kw_shard);
  }
}

TEST(ShardRouting, KeysSpreadAcrossShards) {
  std::array<std::uint32_t, 8> hits{};
  for (std::uint32_t id = 0; id < 8000; ++id) {
    ++hits[common::shard_of(u32_key(id).span(), 8)];
  }
  for (std::uint32_t shard = 0; shard < 8; ++shard) {
    // Uniform expectation 1000 per shard; CRC routing must stay within
    // a loose 2x band.
    EXPECT_GT(hits[shard], 500u) << "shard " << shard << " starved";
    EXPECT_LT(hits[shard], 2000u) << "shard " << shard << " overloaded";
  }
}

TEST(ShardRouting, ShardSelectorIndependentOfSlotHashes) {
  // The shard selector must not be correlated with h0(0, .): keys that
  // collide on the first slot hash should still spread over shards.
  std::set<std::uint32_t> shards_seen;
  for (std::uint32_t id = 0; id < 64; ++id) {
    shards_seen.insert(common::shard_of(u32_key(id * 8).span(), 8));
  }
  EXPECT_GT(shards_seen.size(), 4u);
}

// ------------------------------------------------- cross-shard queries

TEST(CollectorRuntimeTest, CrossShardKeyWriteMerge) {
  Client client = Client::local(small_config(4));
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < 500; ++id) {
    ASSERT_TRUE(table.put_u32(u32_key(id), id * 7 + 3).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  int hits = 0;
  for (std::uint32_t id = 0; id < 500; ++id) {
    const auto value = table.get_u32(u32_key(id));
    if (value.ok() && *value == id * 7 + 3) ++hits;
  }
  EXPECT_GE(hits, 498);
}

TEST(CollectorRuntimeTest, CountersRouteToOwningShard) {
  Client client = Client::local(small_config(4));
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t id = 0; id < 64; ++id) {
      ASSERT_TRUE(client.counters().add(u32_key(id), id + 1).ok());
    }
  }
  ASSERT_TRUE(client.flush().ok());
  // CMS property must survive sharding: estimates never underestimate —
  // through the facade and on the owning shard's live store alike.
  CollectorRuntime& runtime = *client.local_runtime();
  for (std::uint32_t id = 0; id < 64; ++id) {
    const auto estimate = client.counters().get(u32_key(id));
    ASSERT_TRUE(estimate.ok());
    EXPECT_GE(*estimate, 3u * (id + 1));
    RdmaService* owner =
        &runtime.shard(shard_for_key(u32_key(id), runtime.num_shards()))
             .service();
    EXPECT_GE(owner->keyincrement()->query(u32_key(id), 2), 3u * (id + 1));
  }
}

TEST(CollectorRuntimeTest, AppendListsRouteAndDrainAcrossShards) {
  Client client = Client::local(small_config(4));
  for (std::uint32_t list = 0; list < 8; ++list) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.list(list).append_u32(list * 100 + i).ok());
    }
  }
  ASSERT_TRUE(client.flush().ok());
  for (std::uint32_t list = 0; list < 8; ++list) {
    const auto events = client.events(list).max(4).run();
    ASSERT_TRUE(events.ok()) << "list " << list;
    ASSERT_EQ(events->entries.size(), 4u) << "list " << list;
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(common::load_u32(events->entries[i].data()), list * 100 + i)
          << "list " << list;
    }
  }
}

TEST(CollectorRuntimeTest, PostcardPathsRecoverableAcrossShards) {
  Client client = Client::local(small_config(4));
  auto postcards = client.postcards();
  for (std::uint32_t flow = 0; flow < 100; ++flow) {
    for (std::uint8_t hop = 0; hop < 5; ++hop) {
      const auto status =
          postcards.report(u32_key(flow), hop, 5, (flow + hop) % 4096);
      ASSERT_TRUE(status.ok());
    }
  }
  ASSERT_TRUE(client.flush().ok());
  int found = 0;
  for (std::uint32_t flow = 0; flow < 100; ++flow) {
    const auto path = postcards.path_of(u32_key(flow));
    if (path.ok() && path->size() == 5 && (*path)[0] == flow % 4096) {
      ++found;
    }
  }
  EXPECT_GE(found, 98);
}

// ------------------------------------------------------ flush/shutdown

TEST(CollectorRuntimeTest, BatchFlushOnShutdown) {
  auto config = small_config(2);
  config.op_batch_size = 64;  // far more than we submit: nothing
                              // reaches the NIC until a flush
  Client client = Client::local(config);
  for (std::uint32_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(u32_key(id), id + 1).ok());
  }
  EXPECT_LT(client.stats().ingest.verbs_executed, 16u);
  client.stop();  // shutdown must deliver the partial batches
  EXPECT_EQ(client.stats().ingest.verbs_executed, 16u);  // 8 reports x N=2
  for (std::uint32_t id = 0; id < 8; ++id) {
    const auto value = client.keywrite().get_u32(u32_key(id));
    ASSERT_TRUE(value.ok()) << "key " << id << " lost at shutdown";
    EXPECT_EQ(*value, id + 1);
  }
}

TEST(CollectorRuntimeTest, FlushAlsoDrainsAppendBatches) {
  auto config = small_config(2);
  config.append_batch_size = 16;  // entries stay in the engine registers
  Client client = Client::local(config);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.list(3).append_u32(40 + i).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  const auto events = client.events(3).max(5).run();
  ASSERT_TRUE(events.ok());
  std::vector<std::uint32_t> drained;
  for (const auto& entry : events->entries) {
    drained.push_back(common::load_u32(entry.data()));
  }
  EXPECT_EQ(drained, (std::vector<std::uint32_t>{40, 41, 42, 43, 44}));
}

TEST(CollectorRuntimeTest, FlushAndSubmitAfterStopAreSafe) {
  // stop() joins the workers; later flush()/report() must fall back to
  // the caller thread instead of waiting on (or enqueueing for) workers
  // that no longer exist.
  Client client = Client::local(small_config(2, ThreadMode::kThreaded));
  ASSERT_TRUE(client.keywrite().put_u32(u32_key(1), 11).ok());
  client.stop();
  EXPECT_TRUE(client.flush().ok());  // must not hang
  ASSERT_TRUE(client.keywrite().put_u32(u32_key(2), 22).ok());
  ASSERT_TRUE(client.flush().ok());
  for (std::uint32_t id : {1u, 2u}) {
    const auto value = client.keywrite().get_u32(u32_key(id));
    ASSERT_TRUE(value.ok()) << "key " << id;
    EXPECT_EQ(*value, id * 11);
  }
}

TEST(CollectorRuntimeTest, ThreadedPipelineMatchesInline) {
  Client client = Client::local(small_config(4, ThreadMode::kThreaded));
  EXPECT_TRUE(client.local_runtime()->pipeline().threaded());
  for (std::uint32_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(u32_key(id), id ^ 0xA5A5).ok());
    ASSERT_TRUE(client.counters().add(u32_key(id % 32), 1).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  int hits = 0;
  for (std::uint32_t id = 0; id < 300; ++id) {
    const auto value = client.keywrite().get_u32(u32_key(id));
    if (value.ok() && *value == (id ^ 0xA5A5)) ++hits;
  }
  EXPECT_GE(hits, 298);
  EXPECT_EQ(client.stats().ingest.reports_in, 600u);
  client.stop();
}

// ------------------------------------------- single-shard equivalence

TEST(CollectorRuntimeTest, SingleShardMatchesUnshardedStore) {
  // The same reports through (a) a 1-shard runtime behind the Client
  // facade and (b) the raw unsharded engine->crafter->NIC path must
  // produce byte-identical Key-Write store memory.
  auto config = small_config(1);
  config.op_batch_size = 4;
  Client client = Client::local(config);

  RdmaService unsharded;
  KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  unsharded.enable_keywrite(kw);
  rdma::ConnectRequest req;
  req.requester_qpn = 0x70;
  req.start_psn = 0x1000;
  const rdma::ConnectAccept accept = unsharded.accept(req);
  translator::KeyWriteGeometry geo;
  for (const auto& region : accept.regions) {
    if (region.kind != rdma::RegionKind::kKeyWrite) continue;
    geo.base_va = region.base_va;
    geo.rkey = region.rkey;
    geo.value_bytes = (region.param1 & 0xFFFF) - 4;
    geo.num_slots = region.param2;
  }
  translator::KeyWriteEngine engine(geo);
  translator::RdmaCrafter crafter(translator::CrafterEndpoints{},
                                  accept.responder_qpn, accept.start_psn);

  for (std::uint32_t id = 0; id < 200; ++id) {
    const auto parsed = reports::keywrite_u32(u32_key(id), id * 13 + 7);
    ASSERT_TRUE(client.keywrite().put_u32(u32_key(id), id * 13 + 7).ok());
    std::vector<translator::RdmaOp> ops;
    engine.translate(std::get<proto::KeyWriteReport>(parsed.report), false,
                     ops);
    for (auto& op : ops) {
      net::Packet frame = crafter.craft(op);
      auto out = unsharded.nic().ingest(frame);
      ASSERT_TRUE(out && out->responder.executed);
    }
  }
  ASSERT_TRUE(client.flush().ok());

  CollectorRuntime& runtime = *client.local_runtime();
  const rdma::MemoryRegion* sharded_region =
      runtime.shard(0).service().keywrite_region();
  const rdma::MemoryRegion* unsharded_region = unsharded.keywrite_region();
  ASSERT_EQ(sharded_region->length(), unsharded_region->length());
  EXPECT_EQ(std::memcmp(sharded_region->data(), unsharded_region->data(),
                        sharded_region->length()),
            0)
      << "1-shard runtime diverged from the unsharded write path";

  // And the query answers agree.
  for (std::uint32_t id = 0; id < 200; ++id) {
    const auto via_client = client.keywrite().get_u32(u32_key(id));
    const auto direct = unsharded.keywrite()->query(u32_key(id), 2);
    ASSERT_EQ(via_client.ok(), direct.status == QueryStatus::kHit);
    if (via_client.ok()) {
      EXPECT_EQ(*via_client, common::load_u32(direct.value.data()));
    }
  }
}

}  // namespace
}  // namespace dta::collector
