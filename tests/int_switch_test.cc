// Reporter switch dataplane tests: flow-consistent sampling and the
// packet -> postcard -> DTA frame pipeline, end-to-end into a collector.
#include <gtest/gtest.h>

#include "dtalib/fabric.h"
#include "reporter/int_switch.h"

namespace dta::reporter {
namespace {

telemetry::TracePacket packet_of(std::uint32_t flow_id) {
  telemetry::TracePacket p;
  p.flow = {0x0A000000 + flow_id, 0x0B000000 + flow_id,
            static_cast<std::uint16_t>(1000 + flow_id), 443, 6};
  p.flow_index = flow_id;
  return p;
}

TEST(IntSwitch, SamplingIsFlowConsistent) {
  // Every switch must make the same sampling decision for a packet.
  for (std::uint32_t f = 0; f < 1000; ++f) {
    const auto flow = packet_of(f).flow;
    const bool first = IntSwitch::sampled(flow, 100, 1);
    EXPECT_EQ(IntSwitch::sampled(flow, 100, 1), first);
  }
}

TEST(IntSwitch, SamplingRateApproximatesConfig) {
  int sampled = 0;
  constexpr int kFlows = 100000;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    if (IntSwitch::sampled(packet_of(f).flow, 200, 1)) ++sampled;
  }
  EXPECT_NEAR(static_cast<double>(sampled) / kFlows, 0.005, 0.001);
}

TEST(IntSwitch, SampleModZeroMeansAlways) {
  EXPECT_TRUE(IntSwitch::sampled(packet_of(1).flow, 0, 0));
}

TEST(IntSwitch, EmitsPostcardFrameForSampledPackets) {
  IntSwitchConfig config;
  config.switch_id = 0x42;
  config.my_hop = 2;
  config.sample_mod = 1;  // sample everything
  IntSwitch sw(config);

  const auto frame = sw.process(packet_of(1));
  ASSERT_TRUE(frame);
  // The frame must parse back into a postcard for this switch and hop.
  auto udp = net::parse_udp_frame(frame->span());
  ASSERT_TRUE(udp);
  EXPECT_EQ(udp->udp.dst_port, net::kDtaUdpPort);
  auto parsed = proto::decode_dta_payload(
      frame->span().subspan(udp->payload_offset, udp->payload_length));
  ASSERT_TRUE(parsed);
  const auto& card = std::get<proto::PostcardReport>(parsed->report);
  EXPECT_EQ(card.hop, 2);
  EXPECT_EQ(card.value, 0x42u);
  EXPECT_EQ(sw.stats().postcards_emitted, 1u);
}

TEST(IntSwitch, UnsampledPacketsPassSilently) {
  IntSwitchConfig config;
  config.sample_mod = 1u << 30;  // effectively never
  config.sample_keep = 0;
  IntSwitch sw(config);
  EXPECT_FALSE(sw.process(packet_of(1)).has_value());
  EXPECT_EQ(sw.stats().packets_seen, 1u);
  EXPECT_EQ(sw.stats().packets_sampled, 0u);
}

TEST(IntSwitchPath, AllHopsEmitForSampledPacket) {
  IntSwitchPath path({10, 20, 30, 40, 50}, /*sample_mod=*/1);
  const auto frames = path.process(packet_of(7));
  EXPECT_EQ(frames.size(), 5u);
}

TEST(IntSwitchPath, PathPostcardsAssembleAtCollector) {
  // Full loop: trace packet -> 5 switch dataplanes -> translator ->
  // collector -> path query.
  FabricConfig config;
  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 12;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 128; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  Fabric fabric(config);

  IntSwitchPath path({11, 22, 33, 44, 55}, /*sample_mod=*/1);
  const auto pkt = packet_of(3);
  for (auto& frame : path.process(pkt)) {
    fabric.translator().ingest(std::move(frame), 0);
  }

  const auto kb = pkt.flow.to_bytes();
  const auto key = proto::TelemetryKey::from(
      common::ByteSpan(kb.data(), kb.size()));
  const auto result = fabric.service().postcarding()->query(key, 1);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.hop_values,
            (std::vector<std::uint32_t>{11, 22, 33, 44, 55}));
}

TEST(IntSwitchPath, UnsampledFlowsNeverReachCollector) {
  IntSwitchPath path({1, 2, 3}, /*sample_mod=*/1u << 20);
  int total = 0;
  for (std::uint32_t f = 0; f < 50; ++f) {
    total += static_cast<int>(path.process(packet_of(f)).size());
  }
  EXPECT_EQ(total, 0);
}

}  // namespace
}  // namespace dta::reporter
