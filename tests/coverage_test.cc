// Targeted coverage for paths not exercised elsewhere: the reporter
// facade, the collector facade's event loop, NACK feedback end-to-end,
// hardware-model edge cases, and store corner cases.
#include <gtest/gtest.h>

#include "analysis/hw_model.h"
#include "baseline/ingest.h"
#include "dtalib/fabric.h"
#include "perfmodel/mem_counter.h"
#include "telemetry/records.h"

namespace dta {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint32_t id) {
  Bytes b;
  common::put_u32(b, id * 2654435761u);
  return TelemetryKey::from(ByteSpan(b));
}

// ----------------------------------------------------------- Reporter

TEST(Reporter, FramesAddressedToTranslatorPort) {
  reporter::ReporterConfig config;
  config.ip = 0x0A000007;
  config.collector_ip = 0x0A0000C0;
  reporter::Reporter rep(config);

  proto::KeyWriteReport r;
  r.key = key_of(1);
  r.redundancy = 1;
  r.data = {1, 2, 3, 4};
  const net::Packet frame = rep.make_frame(r);

  auto udp = net::parse_udp_frame(frame.span());
  ASSERT_TRUE(udp);
  EXPECT_EQ(udp->ip.src_ip, 0x0A000007u);
  EXPECT_EQ(udp->ip.dst_ip, 0x0A0000C0u);
  EXPECT_EQ(udp->udp.dst_port, net::kDtaUdpPort);
  EXPECT_EQ(rep.stats().reports_sent, 1u);
  EXPECT_GT(rep.stats().bytes_sent, 0u);
}

TEST(Reporter, NackFeedbackAccounting) {
  reporter::Reporter rep({});
  proto::NackReport nack;
  nack.dropped_op = proto::PrimitiveOp::kKeyWrite;
  nack.dropped_count = 7;
  rep.handle_nack(nack);
  rep.handle_nack(nack);
  EXPECT_EQ(rep.stats().nacks_received, 2u);
  EXPECT_EQ(rep.stats().reports_dropped_remote, 14u);
}

TEST(Reporter, ImmediateFlagOnWire) {
  reporter::Reporter rep({});
  proto::KeyWriteReport r;
  r.key = key_of(1);
  r.redundancy = 1;
  const net::Packet frame = rep.make_frame(r, /*immediate=*/true);
  auto udp = net::parse_udp_frame(frame.span());
  auto parsed = proto::decode_dta_payload(
      frame.span().subspan(udp->payload_offset, udp->payload_length));
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->header.immediate);
}

// ------------------------------------------------- NACK path end-to-end

TEST(NackPath, TranslatorNackReachesReporterAccounting) {
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 12;
  config.keywrite = kw;
  config.translator.rate_limiting_enabled = true;
  config.translator.rate_limiter.ops_per_second = 1;
  config.translator.rate_limiter.burst = 2;
  Fabric fabric(config);

  // Route translator NACK frames back into the reporter's accounting.
  fabric.translator().set_nack_sink([&](net::Packet&& frame) {
    auto udp = net::parse_udp_frame(frame.span());
    ASSERT_TRUE(udp);
    auto parsed = proto::decode_dta_payload(
        frame.span().subspan(udp->payload_offset, udp->payload_length));
    ASSERT_TRUE(parsed);
    fabric.reporter(0).handle_nack(
        std::get<proto::NackReport>(parsed->report));
  });

  for (std::uint32_t i = 0; i < 20; ++i) {
    proto::KeyWriteReport r;
    r.key = key_of(i);
    r.redundancy = 1;
    common::put_u32(r.data, i);
    fabric.report(r);
  }
  EXPECT_GT(fabric.reporter(0).stats().nacks_received, 0u);
  EXPECT_GT(fabric.reporter(0).stats().reports_dropped_remote, 0u);
}

// ----------------------------------------------------- collector facade

TEST(CollectorFacade, EventQueueDrainsInOrder) {
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 12;
  config.keywrite = kw;
  Fabric fabric(config);

  for (std::uint32_t i = 0; i < 3; ++i) {
    proto::KeyWriteReport r;
    r.key = key_of(i);
    r.redundancy = 1;
    common::put_u32(r.data, i);
    fabric.report(r, 0, /*immediate=*/true);
  }
  int events = 0;
  while (auto event = fabric.poll_event()) {
    EXPECT_TRUE(event->immediate.has_value());
    ++events;
  }
  EXPECT_EQ(events, 3);
  EXPECT_FALSE(fabric.poll_event());
}

// --------------------------------------------------------- hw model edges

TEST(HwModelEdges, ZeroAndDegenerateInputs) {
  analysis::HwParams hw;
  EXPECT_GT(analysis::kw_collection_rate(hw, 0, 4), 0.0);  // N clamped to 1
  EXPECT_GT(analysis::append_collection_rate(hw, 0, 4), 0.0);
  EXPECT_EQ(analysis::cpu_collection_rate(0, 16), 0.0);
  EXPECT_DOUBLE_EQ(
      analysis::postcarding_paths_rate(hw, 5, 1, 0.0), 0.0);
}

TEST(HwModelEdges, IngressBoundDominatesForHugePayloads) {
  analysis::HwParams hw;
  // 1KB values: the link, not the NIC, must bind.
  const double rate = analysis::kw_collection_rate(hw, 1, 1024);
  EXPECT_LT(rate, 12e6);
  EXPECT_GT(rate, 8e6);  // ~100Gbps / (1061B frame + framing)
}

TEST(HwModelEdges, KiRateMatchesKwShape) {
  analysis::HwParams hw;
  EXPECT_NEAR(analysis::ki_collection_rate(hw, 2),
              analysis::kw_collection_rate(hw, 2, 8), 1e6);
}

// --------------------------------------------------------- perfmodel misc

TEST(PerfModel, MergeAndSummary) {
  perfmodel::MemCounter a, b;
  a.record(perfmodel::Phase::kIo, perfmodel::Access::kSeqLoad, 5);
  b.record(perfmodel::Phase::kIo, perfmodel::Access::kRandStore, 3);
  b.record(perfmodel::Phase::kInsert, perfmodel::Access::kRandLoad, 2);
  a.merge(b);
  EXPECT_EQ(a.total(), 10u);
  EXPECT_EQ(a.total_random(), 5u);
  EXPECT_NE(a.summary().find("I/O"), std::string::npos);
  a.reset();
  EXPECT_EQ(a.total(), 0u);
}

TEST(PerfModel, PhaseAndAccessNames) {
  EXPECT_STREQ(perfmodel::phase_name(perfmodel::Phase::kParse), "Parsing");
  EXPECT_STREQ(perfmodel::access_name(perfmodel::Access::kRandStore),
               "rand-store");
}

// ---------------------------------------------------------- store corners

TEST(StoreCorners, KeyWriteZeroRedundancyQuery) {
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 12;
  config.keywrite = kw;
  Fabric fabric(config);
  const auto result = fabric.service().keywrite()->query(key_of(1), 0);
  EXPECT_EQ(result.status, collector::QueryStatus::kNotFound);
}

TEST(StoreCorners, KeyIncrementZeroRedundancyQueryIsZero) {
  FabricConfig config;
  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 10;
  config.keyincrement = ki;
  Fabric fabric(config);
  EXPECT_EQ(fabric.service().keyincrement()->query(key_of(1), 0), 0u);
}

TEST(StoreCorners, EmptyPostcardingStoreAllBlankInvalid) {
  // A zeroed store must never produce a "found" path.
  FabricConfig config;
  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 10;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 64; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  Fabric fabric(config);
  for (std::uint32_t k = 0; k < 500; ++k) {
    EXPECT_FALSE(fabric.service().postcarding()->query(key_of(k), 2).found);
  }
}

// --------------------------------------------------------- record presets

TEST(RecordPresets, IntPathTraceRedundancyDefaultIsTwo) {
  telemetry::IntPathTrace trace;
  trace.flow = {1, 2, 3, 4, 6};
  trace.switch_ids = {9};
  EXPECT_EQ(trace.to_dta().redundancy, 2);
}

TEST(RecordPresets, BaselinePacketsDeterministic) {
  const auto a = baseline::make_packets(100, 50, 7);
  const auto b = baseline::make_packets(100, 50, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  const auto c = baseline::make_packets(100, 50, 8);
  EXPECT_NE(a[0], c[0]);
}

}  // namespace
}  // namespace dta
