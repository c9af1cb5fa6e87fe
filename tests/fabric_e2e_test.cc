// End-to-end tests through the full fabric: reporter UDP encapsulation,
// 100G link, translator parse + translate, RoCE link, NIC verb
// execution, and collector-side queries — the complete Figure 1 data
// flow, with many reporters on the translator's ingress link, and loss
// and reordering behaviour.
#include <gtest/gtest.h>

#include "dtalib/fabric.h"
#include "telemetry/records.h"

namespace dta {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint32_t id) {
  Bytes b;
  common::put_u32(b, id);
  return TelemetryKey::from(ByteSpan(b));
}

FabricConfig full_config() {
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  config.keywrite = kw;

  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 14;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 1024; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;

  collector::AppendSetup ap;
  ap.num_lists = 8;
  ap.entries_per_list = 1024;
  ap.entry_bytes = 4;
  config.append = ap;

  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;

  config.translator.append_batch_size = 4;
  return config;
}

TEST(FabricE2E, KeyWriteThroughFullStack) {
  Fabric fabric(full_config());
  proto::KeyWriteReport r;
  r.key = key_of(1);
  r.redundancy = 2;
  common::put_u32(r.data, 0xABCD);
  fabric.report(r);

  auto result = fabric.service().keywrite()->query(key_of(1), 2);
  ASSERT_EQ(result.status, collector::QueryStatus::kHit);
  EXPECT_EQ(common::load_u32(result.value.data()), 0xABCDu);
  EXPECT_EQ(fabric.translator().stats().dta_reports_in, 1u);
  EXPECT_EQ(fabric.translator().stats().rdma_frames_out, 2u);  // N=2
  EXPECT_EQ(fabric.verbs_executed(), 2u);
}

TEST(FabricE2E, PostcardingThroughFullStack) {
  Fabric fabric(full_config());
  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    proto::PostcardReport r;
    r.key = key_of(7);
    r.hop = hop;
    r.path_len = 5;
    r.redundancy = 1;
    r.value = 100 + hop;
    fabric.report(r);
  }
  auto result = fabric.service().postcarding()->query(key_of(7), 1);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.hop_values,
            (std::vector<std::uint32_t>{100, 101, 102, 103, 104}));
}

TEST(FabricE2E, AppendThroughFullStack) {
  Fabric fabric(full_config());
  for (std::uint32_t i = 0; i < 8; ++i) {
    proto::AppendReport r;
    r.list_id = 3;
    r.entry_size = 4;
    Bytes e;
    common::put_u32(e, i);
    r.entries.push_back(std::move(e));
    fabric.report(r);
  }
  auto* store = fabric.service().append();
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(common::load_u32(store->poll(3).data()), i);
  }
}

TEST(FabricE2E, KeyIncrementThroughFullStack) {
  Fabric fabric(full_config());
  for (int i = 0; i < 5; ++i) {
    proto::KeyIncrementReport r;
    r.key = key_of(11);
    r.redundancy = 2;
    r.counter = 3;
    fabric.report(r);
  }
  EXPECT_EQ(fabric.service().keyincrement()->query(key_of(11), 2), 15u);
}

TEST(FabricE2E, MixedPrimitivesInterleaved) {
  Fabric fabric(full_config());
  for (std::uint32_t i = 0; i < 50; ++i) {
    proto::KeyWriteReport kw;
    kw.key = key_of(i);
    kw.redundancy = 1;
    common::put_u32(kw.data, i);
    fabric.report(kw);

    proto::KeyIncrementReport ki;
    ki.key = key_of(i);
    ki.redundancy = 2;
    ki.counter = 1;
    fabric.report(ki);

    proto::AppendReport ap;
    ap.list_id = 0;
    ap.entry_size = 4;
    Bytes e;
    common::put_u32(e, i);
    ap.entries.push_back(std::move(e));
    fabric.report(ap);
  }
  int kw_hits = 0;
  for (std::uint32_t i = 0; i < 50; ++i) {
    auto r = fabric.service().keywrite()->query(key_of(i), 1);
    if (r.status == collector::QueryStatus::kHit) ++kw_hits;
  }
  EXPECT_GE(kw_hits, 49);
  EXPECT_EQ(fabric.service().keyincrement()->query(key_of(7), 2), 1u);
}

TEST(FabricE2E, TelemetryRecordIntegration) {
  // Table 2 integration sanity: Marple/NetSeer records flow through
  // their designated primitives.
  Fabric fabric(full_config());

  telemetry::MarpleTcpTimeout timeout;
  timeout.flow = {0x0A000001, 0x0A000002, 1234, 80, 6};
  timeout.timeouts = 3;
  fabric.report(timeout.to_dta(2));

  const auto kb = timeout.flow.to_bytes();
  auto key = TelemetryKey::from(ByteSpan(kb.data(), kb.size()));
  auto result = fabric.service().keywrite()->query(key, 2);
  ASSERT_EQ(result.status, collector::QueryStatus::kHit);
  EXPECT_EQ(common::load_u32(result.value.data()), 3u);
}

TEST(FabricE2E, ReportLossDegradesGracefully) {
  FabricConfig config = full_config();
  config.reporter_link.loss_rate = 0.3;
  config.reporter_link.seed = 5;
  Fabric fabric(config);

  for (std::uint32_t i = 0; i < 200; ++i) {
    proto::KeyWriteReport r;
    r.key = key_of(i);
    r.redundancy = 2;
    common::put_u32(r.data, i);
    fabric.report(r);
  }
  int hits = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    auto r = fabric.service().keywrite()->query(key_of(i), 2);
    if (r.status == collector::QueryStatus::kHit) {
      EXPECT_EQ(common::load_u32(r.value.data()), i);  // never wrong
      ++hits;
    }
  }
  // ~70% delivery: the primitives still work, with missing reports
  // simply absent (the paper's "degraded probabilistic guarantees").
  EXPECT_GT(hits, 100);
  EXPECT_LT(hits, 180);
}

TEST(FabricE2E, RdmaLinkLossTriggersPsnResyncAndRecovers) {
  FabricConfig config = full_config();
  config.rdma_link.loss_rate = 0.1;
  config.rdma_link.seed = 9;
  Fabric fabric(config);

  for (std::uint32_t i = 0; i < 300; ++i) {
    proto::KeyWriteReport r;
    r.key = key_of(i);
    r.redundancy = 1;
    common::put_u32(r.data, i);
    fabric.report(r);
  }
  // Lost RoCE frames create PSN gaps; the collector NAKs and the
  // translator resynchronizes, so later writes keep landing.
  EXPECT_GT(fabric.translator().crafter().resyncs(), 0u);
  int hits = 0;
  for (std::uint32_t i = 250; i < 300; ++i) {
    auto r = fabric.service().keywrite()->query(key_of(i), 1);
    if (r.status == collector::QueryStatus::kHit) ++hits;
  }
  EXPECT_GT(hits, 30);  // the tail of the stream still mostly landed
}

TEST(FabricE2E, RateLimiterDropsAndNacks) {
  FabricConfig config = full_config();
  config.translator.rate_limiting_enabled = true;
  config.translator.rate_limiter.ops_per_second = 1;  // absurdly slow
  config.translator.rate_limiter.burst = 4;
  Fabric fabric(config);

  for (std::uint32_t i = 0; i < 50; ++i) {
    proto::KeyWriteReport r;
    r.key = key_of(i);
    r.redundancy = 1;
    common::put_u32(r.data, i);
    fabric.report(r);
  }
  EXPECT_GT(fabric.translator().stats().rate_limited_drops, 0u);
  EXPECT_GT(fabric.translator().stats().nacks_sent, 0u);
  EXPECT_LT(fabric.verbs_executed(), 50u);

  // The fabric routes the wire NACK back to the reporter, which
  // surfaces it as a typed, client-visible backpressure Status with the
  // translator's retry-after hint attached.
  EXPECT_GT(fabric.reporter(0).stats().nacks_received, 0u);
  auto status = fabric.reporter(0).take_backpressure();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kResourceExhausted);
  EXPECT_GT(status->retry_after_ns(), 0u);
}

TEST(FabricE2E, ImmediateFlagRaisesCollectorEvent) {
  Fabric fabric(full_config());
  proto::KeyWriteReport r;
  r.key = key_of(1);
  r.redundancy = 1;
  common::put_u32(r.data, 42);
  fabric.report(r, 0, /*immediate=*/true);

  auto event = fabric.poll_event();
  ASSERT_TRUE(event);
  EXPECT_TRUE(event->immediate.has_value());
}

TEST(FabricE2E, UserTrafficForwardedNotTranslated) {
  Fabric fabric(full_config());
  int forwarded = 0;
  fabric.translator().set_forward_sink([&](net::Packet&&) { ++forwarded; });

  const Bytes payload = {1, 2, 3};
  net::Packet user(net::build_udp_frame({}, {}, 0x0A000001, 0x0A000099, 5555,
                                        8080, ByteSpan(payload)));
  fabric.translator().ingest(std::move(user), 0);
  EXPECT_EQ(forwarded, 1);
  EXPECT_EQ(fabric.translator().stats().user_frames_forwarded, 1u);
  EXPECT_EQ(fabric.translator().stats().dta_reports_in, 0u);
}

TEST(FabricE2E, MalformedDtaDropped) {
  Fabric fabric(full_config());
  const Bytes junk = {0x09, 0xFF, 0x00};
  net::Packet bad(net::build_udp_frame({}, {}, 1, 2, 5555, net::kDtaUdpPort,
                                       ByteSpan(junk)));
  fabric.translator().ingest(std::move(bad), 0);
  EXPECT_EQ(fabric.translator().stats().malformed_dropped, 1u);
}

TEST(FabricE2E, FlushDrainsAggregators) {
  Fabric fabric(full_config());
  // Two postcards of a 5-hop path + 1 append entry (batch 4): both stuck
  // in translator state until flush.
  for (std::uint8_t hop = 0; hop < 2; ++hop) {
    proto::PostcardReport r;
    r.key = key_of(70);
    r.hop = hop;
    r.path_len = 5;
    r.redundancy = 1;
    r.value = hop;
    fabric.report(r);
  }
  proto::AppendReport ap;
  ap.list_id = 0;
  ap.entry_size = 4;
  ap.entries.push_back(Bytes{1, 2, 3, 4});
  fabric.report(ap);

  const auto before = fabric.verbs_executed();
  EXPECT_EQ(before, 0u);
  fabric.flush();
  EXPECT_EQ(fabric.verbs_executed(), 2u);
}

TEST(FabricE2E, ModeledRateReflectsNicCeiling) {
  FabricConfig config = full_config();
  config.nic.base_message_rate = 10e6;
  Fabric fabric(config);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    proto::KeyWriteReport r;
    r.key = key_of(i);
    r.redundancy = 1;
    common::put_u32(r.data, i);
    fabric.report(r);
  }
  // All verbs arrive essentially at t=0 (fabric clock does not advance
  // between reports), so the NIC's modeled rate converges to its ceiling.
  EXPECT_NEAR(fabric.modeled_verbs_per_sec(), 10e6, 0.5e6);
}

// ------------------------------------------------------ many reporters
// num_reporters switches share the translator's one ingress link: the
// Figure 1 topology at fabric scale.

FabricConfig reporters_config(std::uint32_t reporters) {
  FabricConfig config = full_config();
  config.num_reporters = reporters;
  return config;
}

TEST(FabricE2E, ManyReportersAllCollected) {
  Fabric fabric(reporters_config(32));
  for (std::uint32_t sw = 0; sw < 32; ++sw) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      proto::KeyWriteReport r;
      r.key = key_of(sw * 100 + i);
      r.redundancy = 2;
      common::put_u32(r.data, sw * 100 + i);
      fabric.report(r, sw);
    }
  }
  fabric.flush();

  int hits = 0;
  for (std::uint32_t sw = 0; sw < 32; ++sw) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      const auto result =
          fabric.service().keywrite()->query(key_of(sw * 100 + i), 2);
      if (result.status == collector::QueryStatus::kHit &&
          common::load_u32(result.value.data()) == sw * 100 + i) {
        ++hits;
      }
    }
  }
  EXPECT_EQ(hits, 320);
  EXPECT_EQ(fabric.translator().stats().dta_reports_in, 320u);
}

TEST(FabricE2E, InterleavedPostcardsFromDifferentSwitches) {
  // Each switch on a flow's path reports its own postcard — the cross-
  // switch aggregation case: hop i arrives from reporter i.
  Fabric fabric(reporters_config(5));
  for (std::uint32_t flow = 0; flow < 50; ++flow) {
    for (std::uint8_t hop = 0; hop < 5; ++hop) {
      proto::PostcardReport r;
      r.key = key_of(flow);
      r.hop = hop;
      r.path_len = 5;
      r.redundancy = 1;
      r.value = (flow + hop) % 1024;
      fabric.report(r, hop);  // reporter per hop
    }
  }
  fabric.flush();

  int found = 0;
  for (std::uint32_t flow = 0; flow < 50; ++flow) {
    const auto result = fabric.service().postcarding()->query(key_of(flow), 1);
    if (result.found && result.hop_values.size() == 5) ++found;
  }
  EXPECT_GE(found, 49);
}

TEST(FabricE2E, CountersAggregateAcrossSwitches) {
  // Network-wide aggregation: every switch increments the same key
  // (Key-Increment's raison d'être).
  Fabric fabric(reporters_config(8));
  for (std::uint32_t sw = 0; sw < 8; ++sw) {
    proto::KeyIncrementReport r;
    r.key = key_of(7);
    r.redundancy = 2;
    r.counter = 5;
    fabric.report(r, sw);
  }
  EXPECT_EQ(fabric.service().keyincrement()->query(key_of(7), 2), 40u);
}

TEST(FabricE2E, AlternatingReportersInterleaveInOnePostcardRow) {
  // Two reporters emit alternately, one flow each, and the translator
  // sees their frames in the order they were sent: with a one-row
  // postcard cache every postcard evicts the other reporter's flow.
  // Per-reporter bursts would evict only once.
  FabricConfig config = reporters_config(2);
  config.translator.postcard_cache_slots = 1;
  Fabric fabric(config);
  for (int round = 0; round < 10; ++round) {
    for (std::uint32_t sw = 0; sw < 2; ++sw) {
      proto::PostcardReport r;
      r.key = key_of(sw);  // flow per reporter -> collides in the 1-row cache
      r.hop = static_cast<std::uint8_t>(round % 5);
      r.path_len = 5;
      r.redundancy = 1;
      r.value = 1;
      fabric.report(r, sw);
    }
  }
  fabric.flush();
  EXPECT_GE(
      fabric.translator().engines().postcarding()->stats().early_emissions,
      10u);
}

}  // namespace
}  // namespace dta
