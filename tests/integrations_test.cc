// Table 2 integration tests: each monitoring system's records must map
// onto its designated primitive and survive the full write/query path.
#include <gtest/gtest.h>

#include "dtalib/fabric.h"
#include "telemetry/integrations.h"
#include "telemetry/records.h"

namespace dta::telemetry {
namespace {

using common::ByteSpan;
using common::Bytes;

FabricConfig integration_config() {
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 12;  // fits PacketScope's 3x4B traversal record
  config.keywrite = kw;
  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 14;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 1024; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  collector::AppendSetup ap;
  ap.num_lists = 16;
  ap.entries_per_list = 1024;
  ap.entry_bytes = 22;  // dShark summaries, the largest entry here
  config.append = ap;
  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;
  config.translator.append_batch_size = 1;
  return config;
}

// ---------------------------------------------------------------- PINT

TEST(Pint, RedundancyDerivedFromPacketId) {
  // f(pktID) must be deterministic, in range, and geometric-ish.
  int histogram[5] = {};
  for (std::uint32_t id = 0; id < 10000; ++id) {
    const std::uint8_t n = PintReport::redundancy_of(id, 4);
    ASSERT_GE(n, 1);
    ASSERT_LE(n, 4);
    EXPECT_EQ(n, PintReport::redundancy_of(id, 4));
    histogram[n]++;
  }
  EXPECT_GT(histogram[1], histogram[2]);  // higher redundancy is rarer
  EXPECT_GT(histogram[2], histogram[3]);
}

TEST(Pint, OneByteReportsRoundTrip) {
  Fabric fabric(integration_config());
  PintReport report;
  report.flow = {0x0A000001, 0x0A000002, 1000, 80, 6};
  report.digest = 0x5C;
  report.packet_id = 12345;
  fabric.report(report.to_dta());

  const auto kb = report.flow.to_bytes();
  const auto key =
      proto::TelemetryKey::from(ByteSpan(kb.data(), kb.size()));
  const auto result = fabric.service().keywrite()->query(
      key, PintReport::redundancy_of(12345, 4));
  ASSERT_EQ(result.status, collector::QueryStatus::kHit);
  EXPECT_EQ(result.value[0], 0x5C);
}

// -------------------------------------------------------------- Sonata

TEST(Sonata, QueryResultsKeyedByQueryId) {
  Fabric fabric(integration_config());
  SonataQueryResult result;
  result.query_id = 77;
  common::put_u32(result.result, 0xFEED);
  fabric.report(result.to_dta());

  Bytes kb;
  common::put_u32(kb, 77);
  const auto key = proto::TelemetryKey::from(ByteSpan(kb));
  const auto q = fabric.service().keywrite()->query(key, 2);
  ASSERT_EQ(q.status, collector::QueryStatus::kHit);
  EXPECT_EQ(common::load_u32(q.value.data()), 0xFEEDu);
}

TEST(Sonata, RawTuplesAppendToProcessorLists) {
  Fabric fabric(integration_config());
  for (std::uint32_t i = 0; i < 4; ++i) {
    SonataRawTuple tuple;
    tuple.query_id = 3;
    tuple.flow = {i, i + 1, 80, 443, 6};
    tuple.feature = i * 100;
    auto report = tuple.to_dta();
    report.entry_size = 22;  // shared region geometry
    report.entries[0].resize(22, 0);
    fabric.report(report);
  }
  auto* store = fabric.service().append();
  const auto first = store->poll(3);
  EXPECT_EQ(common::load_u32(first.data() + 13), 0u);  // feature of tuple 0
}

// -------------------------------------------------------------- dShark

TEST(DShark, AllObserversAgreeOnGrouper) {
  DSharkSummary at_tor;
  at_tor.flow = {1, 2, 3, 4, 6};
  at_tor.ip_id = 999;
  at_tor.tcp_seq = 1234;
  at_tor.observer = 0;
  DSharkSummary at_spine = at_tor;
  at_spine.observer = 9;  // different capture point, same packet
  EXPECT_EQ(at_tor.grouper_of(16), at_spine.grouper_of(16));

  DSharkSummary other_packet = at_tor;
  other_packet.tcp_seq = 1235;
  // Not required to differ, but always in range, and over many packets
  // groupers must spread.
  EXPECT_LT(other_packet.grouper_of(16), 16u);
  int spread[4] = {};
  for (std::uint32_t seq = 0; seq < 1000; ++seq) {
    DSharkSummary s = at_tor;
    s.tcp_seq = seq;
    spread[s.grouper_of(4)]++;
  }
  for (int c : spread) EXPECT_GT(c, 150);
}

TEST(DShark, SummaryIs22Bytes) {
  DSharkSummary summary;
  summary.flow = {1, 2, 3, 4, 6};
  const auto report = summary.to_dta(8);
  EXPECT_EQ(report.entry_size, DSharkSummary::kEntryBytes);
  EXPECT_EQ(report.entries[0].size(), 22u);
}

// ---------------------------------------------------------- PacketScope

TEST(PacketScope, TraversalKeyIncludesSwitchId) {
  PacketScopeTraversal a;
  a.switch_id = 1;
  a.flow = {1, 2, 3, 4, 6};
  PacketScopeTraversal b = a;
  b.switch_id = 2;
  // Same flow at different switches must key differently.
  EXPECT_FALSE(a.to_dta().key == b.to_dta().key);
}

TEST(PacketScope, TraversalRoundTrip) {
  Fabric fabric(integration_config());
  PacketScopeTraversal t;
  t.switch_id = 42;
  t.flow = {0x0A000001, 0x0A000002, 1000, 80, 6};
  t.ingress_port = 3;
  t.egress_port = 17;
  t.queue_id = 5;
  fabric.report(t.to_dta());

  const auto result = fabric.service().keywrite()->query(t.to_dta().key, 2);
  ASSERT_EQ(result.status, collector::QueryStatus::kHit);
  EXPECT_EQ(common::load_u32(result.value.data()), 3u);
  EXPECT_EQ(common::load_u32(result.value.data() + 4), 17u);
  EXPECT_EQ(common::load_u32(result.value.data() + 8), 5u);
}

TEST(PacketScope, PipelineLossIs14Bytes) {
  PacketScopePipelineLoss loss;
  loss.switch_id = 7;
  loss.pipeline_stage = 4;
  loss.drop_table = 2;
  loss.flow_digest = 0xABCDEF;
  const auto report = loss.to_dta(5);
  EXPECT_EQ(report.entry_size, 14);
  EXPECT_EQ(report.list_id, 5u);
}

// -------------------------------------------------- Trajectory Sampling

TEST(Trajectory, LabelsAggregateLikePostcards) {
  Fabric fabric(integration_config());
  for (std::uint8_t hop = 0; hop < 4; ++hop) {
    TrajectoryLabel label;
    label.packet_hash = 0xBEEF;
    label.hop = hop;
    label.path_len = 4;
    label.label = 100 + hop;
    fabric.report(label.to_dta());
  }
  Bytes kb;
  common::put_u32(kb, 0xBEEF);
  const auto key = proto::TelemetryKey::from(ByteSpan(kb));
  const auto result = fabric.service().postcarding()->query(key, 1);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.hop_values,
            (std::vector<std::uint32_t>{100, 101, 102, 103}));
}

}  // namespace
}  // namespace dta::telemetry
