// Tests for the INT-MD embedded-mode protocol walk and PFC lossless
// transport (§7).
#include <gtest/gtest.h>

#include "dtalib/fabric.h"
#include "net/pfc.h"
#include "telemetry/int_md.h"

namespace dta {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint64_t id) {
  std::uint64_t z = id * 0x9E3779B97F4A7C15ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  Bytes b;
  common::put_u64(b, z);
  return TelemetryKey::from(ByteSpan(b));
}

// ----------------------------------------------------------------- INT-MD

TEST(IntMd, HeaderRoundTrip) {
  telemetry::IntMdState state;
  state.header.remaining_hops = 3;
  state.header.instructions = telemetry::kSwitchId | telemetry::kHopLatency;
  state.stack = {7, 8, 9};
  const auto decoded = telemetry::IntMdState::decode(ByteSpan(state.encode()));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->header.remaining_hops, 3);
  EXPECT_EQ(decoded->header.instructions, state.header.instructions);
  EXPECT_EQ(decoded->stack, state.stack);
}

TEST(IntMd, TransitPushesNewestFirst) {
  telemetry::IntMdState state;
  state.header.remaining_hops = 5;
  EXPECT_TRUE(telemetry::int_md_transit(state, 100));
  EXPECT_TRUE(telemetry::int_md_transit(state, 200));
  EXPECT_EQ(state.stack, (std::vector<std::uint32_t>{200, 100}));
  EXPECT_EQ(state.header.remaining_hops, 3);
}

TEST(IntMd, HopBudgetSuppressesExtraHops) {
  const std::vector<std::uint32_t> path = {1, 2, 3, 4, 5, 6, 7};
  const auto run = telemetry::int_md_traverse({}, path, /*budget=*/5);
  EXPECT_EQ(run.hops_recorded, 5);
  EXPECT_EQ(run.hops_suppressed, 2);
  EXPECT_EQ(run.report.switch_ids,
            (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
}

TEST(IntMd, SinkRestoresPathOrder) {
  const std::vector<std::uint32_t> path = {10, 20, 30};
  const auto run = telemetry::int_md_traverse({}, path);
  EXPECT_EQ(run.report.switch_ids, path);
}

TEST(IntMd, EmbeddedBytesGrowPerHop) {
  const auto short_run = telemetry::int_md_traverse({}, {1, 2});
  const auto long_run = telemetry::int_md_traverse({}, {1, 2, 3, 4, 5});
  // 12B header + 4B per recorded hop.
  EXPECT_EQ(short_run.max_embedded_bytes, 12u + 2 * 4);
  EXPECT_EQ(long_run.max_embedded_bytes, 12u + 5 * 4);
}

TEST(IntMd, SinkReportFeedsKeyWrite) {
  // The INT-MD sink's report is exactly the Fig. 10 20B KW payload.
  net::FiveTuple flow{1, 2, 3, 4, 6};
  const auto run = telemetry::int_md_traverse(flow, {11, 22, 33, 44, 55});
  const auto kw = run.report.to_dta(2);
  EXPECT_EQ(kw.data.size(), 20u);
  EXPECT_EQ(common::load_u32(kw.data.data()), 11u);
  EXPECT_EQ(common::load_u32(kw.data.data() + 16), 55u);
}

// -------------------------------------------------------------------- PFC

TEST(Pfc, PausesAboveXoffResumesBelowXon) {
  net::PfcParams params;
  params.capacity_bytes = 1000;
  params.xoff_bytes = 600;
  params.xon_bytes = 200;
  net::PfcQueue queue(params);

  // 100B packets: pause after the 6th.
  int sent = 0;
  while (queue.can_send() && sent < 20) {
    ASSERT_TRUE(queue.enqueue(net::Packet(Bytes(100, 0))));
    ++sent;
  }
  EXPECT_EQ(sent, 6);
  EXPECT_TRUE(queue.paused());
  EXPECT_EQ(queue.counters().pause_frames, 1u);

  // Drain until XON.
  while (queue.paused()) queue.dequeue();
  EXPECT_LE(queue.occupancy_bytes(), 200u);
  EXPECT_EQ(queue.counters().resume_frames, 1u);
  EXPECT_TRUE(queue.can_send());
}

TEST(Pfc, NoLossWhenSenderHonorsPause) {
  net::PfcParams params;
  params.capacity_bytes = 2000;
  params.xoff_bytes = 1200;
  params.xon_bytes = 400;
  net::PfcQueue queue(params);

  // Offered load 2x drain rate for 10K frames; the sender defers while
  // paused. Everything must eventually be delivered, nothing dropped.
  std::uint64_t offered = 0, delivered = 0;
  std::uint64_t backlog = 10000;
  while (delivered < 10000) {
    for (int burst = 0; burst < 2 && backlog > 0; ++burst) {
      if (queue.can_send()) {
        ASSERT_TRUE(queue.enqueue(net::Packet(Bytes(100, 0))));
        --backlog;
        ++offered;
      }
    }
    if (queue.dequeue()) ++delivered;
  }
  EXPECT_EQ(queue.counters().dropped_overflow, 0u);
  EXPECT_EQ(delivered, 10000u);
  EXPECT_GT(queue.counters().pause_frames, 0u);
}

TEST(Pfc, OverflowOnlyWithoutHeadroom) {
  net::PfcParams params;
  params.capacity_bytes = 300;
  params.xoff_bytes = 280;  // mis-sized: no headroom for in-flight
  params.xon_bytes = 100;
  net::PfcQueue queue(params);
  for (int i = 0; i < 4; ++i) queue.enqueue(net::Packet(Bytes(100, 0)));
  EXPECT_GT(queue.counters().dropped_overflow, 0u);
}

TEST(Pfc, LosslessDtaTransport) {
  // §7's claim end-to-end: DTA over a PFC-protected hop delivers every
  // report despite a slow translator, where the plain lossy link would
  // have dropped.
  net::PfcQueue queue;
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 14;
  config.keywrite = kw;
  Fabric fabric(config);

  // Producer: 5000 reports into the PFC queue (honoring pause).
  std::uint64_t produced = 0, consumed = 0;
  const std::uint64_t total = 5000;
  while (consumed < total) {
    if (produced < total && queue.can_send()) {
      proto::KeyWriteReport r;
      r.key = key_of(produced);
      r.redundancy = 1;
      common::put_u32(r.data, static_cast<std::uint32_t>(produced));
      net::Packet frame = fabric.reporter(0).make_frame(r);
      ASSERT_TRUE(queue.enqueue(std::move(frame)));
      ++produced;
    }
    // Slow consumer: the translator drains one frame per iteration.
    if (auto frame = queue.dequeue()) {
      fabric.translator().ingest(std::move(*frame), 0);
      ++consumed;
    }
  }
  EXPECT_EQ(queue.counters().dropped_overflow, 0u);
  EXPECT_EQ(fabric.verbs_executed(), total);
}

}  // namespace
}  // namespace dta
