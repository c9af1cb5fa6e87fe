// Wire-path round-trips against the collector stores themselves — the
// typed telemetry records of Table 2 reported through the full fabric
// and queried straight from the per-primitive stores — plus the
// checksum-width (b) knob, including the empirical wrong-output
// measurement that only short checksums make observable (Appendix
// A.5's trade-off). (The application-facing query surface is
// dta::Client; see client_api_test.cc.)
#include <gtest/gtest.h>

#include "dta/report_builders.h"
#include "dtalib/fabric.h"
#include "telemetry/records.h"

namespace dta {
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

TelemetryKey key_of_flow(const net::FiveTuple& flow) {
  const auto bytes = flow.to_bytes();
  return TelemetryKey::from(ByteSpan(bytes.data(), bytes.size()));
}

FabricConfig store_config() {
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 15;
  kw.value_bytes = 4;
  config.keywrite = kw;
  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 13;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 512; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  collector::AppendSetup ap;
  ap.num_lists = 4;
  ap.entries_per_list = 256;
  ap.entry_bytes = 18;
  config.append = ap;
  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;
  config.translator.append_batch_size = 1;
  return config;
}

net::FiveTuple flow_of(std::uint32_t i) {
  return {0x0A000000 + i, 0x0B000000 + i,
          static_cast<std::uint16_t>(1000 + i), 443, 6};
}

TEST(StoreQuery, FlowMetricRoundTrip) {
  Fabric fabric(store_config());
  auto& service = fabric.service();

  telemetry::MarpleTcpTimeout record;
  record.flow = flow_of(1);
  record.timeouts = 9;
  fabric.report(record.to_dta(2));

  const auto result = service.keywrite()->query(key_of_flow(flow_of(1)), 2);
  ASSERT_EQ(result.status, collector::QueryStatus::kHit);
  ASSERT_GE(result.value.size(), 4u);
  EXPECT_EQ(common::load_u32(result.value.data()), 9u);
  EXPECT_NE(service.keywrite()->query(key_of_flow(flow_of(999)), 2).status,
            collector::QueryStatus::kHit);
}

TEST(StoreQuery, FlowPathRoundTrip) {
  Fabric fabric(store_config());
  auto& service = fabric.service();

  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    telemetry::IntPostcard card;
    card.flow = flow_of(2);
    card.hop = hop;
    card.path_len = 5;
    card.value = 40 + hop;
    fabric.report(card.to_dta(1));
  }
  const auto result = service.postcarding()->query(key_of_flow(flow_of(2)), 1);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.hop_values, (std::vector<std::uint32_t>{40, 41, 42, 43, 44}));
}

TEST(StoreQuery, CountersAccumulate) {
  Fabric fabric(store_config());
  auto& service = fabric.service();

  telemetry::TurboFlowRecord rec;
  rec.flow = flow_of(3);
  rec.packets = 25;
  fabric.report(rec.to_dta(2));
  fabric.report(rec.to_dta(2));
  EXPECT_EQ(service.keyincrement()->query(key_of_flow(flow_of(3)), 2), 50u);

  telemetry::MarpleHostCounter host;
  host.src_ip = 0xC0A80101;
  host.count = 7;
  fabric.report(host.to_dta(2));
  Bytes hk;
  common::put_u32(hk, 0xC0A80101);
  EXPECT_EQ(
      service.keyincrement()->query(TelemetryKey::from(ByteSpan(hk)), 2), 7u);
  Bytes miss;
  common::put_u32(miss, 0xC0A80199);
  EXPECT_EQ(
      service.keyincrement()->query(TelemetryKey::from(ByteSpan(miss)), 2),
      0u);
}

TEST(StoreQuery, AppendPollDecodesLossEvents) {
  Fabric fabric(store_config());
  auto& service = fabric.service();

  for (std::uint32_t i = 0; i < 6; ++i) {
    telemetry::NetSeerLossEvent ev;
    ev.flow = flow_of(i);
    ev.packet_seq = 100 + i;
    ev.reason = static_cast<std::uint8_t>(i % 3);
    fabric.report(ev.to_dta(2));
  }
  std::vector<telemetry::NetSeerLossEvent> events;
  for (int i = 0; i < 6; ++i) {
    events.push_back(
        telemetry::NetSeerLossEvent::from_entry(service.append()->poll(2)));
  }
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].packet_seq, 100u);
  EXPECT_EQ(events[5].reason, 2);
  EXPECT_EQ(events[3].flow, flow_of(3));
}

// -------------------------------------------------- checksum width (b)

// With b=8 checksums, overwritten slots collide with the query key's
// checksum with probability 2^-8 — wrong outputs become measurable at
// high load, exactly as eq. (4) predicts; with b=32 they never appear.
class ChecksumWidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChecksumWidthTest, WrongOutputRateTracksEq4) {
  const unsigned bits = GetParam();
  constexpr std::uint64_t kSlots = 1 << 14;
  constexpr int kProbes = 3000;

  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = kSlots;
  kw.value_bytes = 4;
  kw.checksum_bits = bits;
  config.keywrite = kw;
  Fabric fabric(config);

  auto write = [&](std::uint64_t id) {
    proto::KeyWriteReport r;
    r.key = key_of(id);
    r.redundancy = 1;
    common::put_u32(r.data, static_cast<std::uint32_t>(id));
    fabric.report_direct(reports::wrap(r));
  };

  for (std::uint64_t i = 0; i < kProbes; ++i) write(i);
  // alpha = 2: every probe slot is almost surely overwritten.
  for (std::uint64_t i = 0; i < 2 * kSlots; ++i) write((1ull << 32) | i);

  int wrong = 0;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    const auto result = fabric.service().keywrite()->query(key_of(i), 1);
    if (result.status == collector::QueryStatus::kHit &&
        common::load_u32(result.value.data()) != i) {
      ++wrong;
    }
  }

  const double rate = static_cast<double>(wrong) / kProbes;
  if (bits <= 8) {
    // eq.(4) with q~0.86, N=1, b=8: ~3.4e-3. Expect the same order.
    EXPECT_GT(wrong, 0);
    EXPECT_LT(rate, 0.02);
  } else {
    // 16+ bit checksums: wrong outputs must be absent at this scale.
    EXPECT_EQ(wrong, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ChecksumWidthTest,
                         ::testing::Values(8u, 16u, 32u),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dta
