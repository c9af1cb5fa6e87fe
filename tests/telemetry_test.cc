#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "telemetry/int_gen.h"
#include "telemetry/marple_gen.h"
#include "telemetry/netseer_gen.h"
#include "telemetry/rates.h"
#include "telemetry/records.h"
#include "telemetry/trace.h"

namespace dta::telemetry {
namespace {

// ----------------------------------------------------------------- trace

TEST(Trace, DeterministicForSeed) {
  TraceConfig c;
  c.seed = 5;
  TraceGenerator a(c), b(c);
  for (int i = 0; i < 1000; ++i) {
    const TracePacket pa = a.next();
    const TracePacket pb = b.next();
    EXPECT_EQ(pa.flow_index, pb.flow_index);
    EXPECT_EQ(pa.arrival_ns, pb.arrival_ns);
  }
}

TEST(Trace, FlowMappingStable) {
  TraceConfig c;
  TraceGenerator gen(c);
  const net::FiveTuple t1 = gen.flow_at(42);
  const net::FiveTuple t2 = gen.flow_at(42);
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(t1 == gen.flow_at(43));
}

TEST(Trace, ArrivalsMonotonic) {
  TraceGenerator gen(TraceConfig{});
  std::uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const TracePacket p = gen.next();
    EXPECT_GT(p.arrival_ns, last);
    last = p.arrival_ns;
  }
}

TEST(Trace, PopularityIsSkewed) {
  TraceConfig c;
  c.num_flows = 10000;
  TraceGenerator gen(c);
  std::unordered_map<std::uint32_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[gen.next().flow_index]++;
  // Top flow should dwarf the median flow under Zipf ~1.05.
  int max_count = 0;
  for (auto& [f, n] : counts) max_count = std::max(max_count, n);
  EXPECT_GT(max_count, 1000);
}

TEST(Trace, RateMatchesSwitchLoad) {
  // 6.4T at 40% with 850B packets ~ 376 Mpps -> mean gap ~2.66ns.
  TraceGenerator gen(TraceConfig{});
  std::uint64_t last = 0;
  constexpr int kPackets = 100000;
  for (int i = 0; i < kPackets; ++i) last = gen.next().arrival_ns;
  const double pps = kPackets * 1e9 / static_cast<double>(last);
  EXPECT_NEAR(pps, 376e6, 80e6);
}

TEST(Trace, FlowSizesHeavyTailed) {
  TraceGenerator gen(TraceConfig{});
  std::uint64_t small = 0, huge = 0;
  for (std::uint32_t f = 0; f < 10000; ++f) {
    const std::uint32_t size = gen.flow_size_packets(f);
    if (size <= 10) ++small;
    if (size >= 1000) ++huge;
  }
  EXPECT_GT(small, 5000u);  // most flows are mice
  EXPECT_GT(huge, 10u);     // elephants exist
  EXPECT_LT(huge, 500u);    // but are rare
}

TEST(Trace, FlowStartFlaggedOnce) {
  TraceConfig c;
  c.num_flows = 100;
  TraceGenerator gen(c);
  std::set<std::uint32_t> started;
  for (int i = 0; i < 5000; ++i) {
    const TracePacket p = gen.next();
    if (p.flow_start) {
      EXPECT_TRUE(started.insert(p.flow_index).second)
          << "flow " << p.flow_index << " started twice";
    }
  }
}

// ------------------------------------------------------------------- INT

TEST(IntGen, SamplingRateRespected) {
  TraceGenerator trace(TraceConfig{});
  IntConfig ic;
  ic.sampling_rate = 0.01;
  IntGenerator gen(ic, &trace);
  for (int i = 0; i < 500; ++i) gen.next_postcards();
  const double rate = 500.0 / static_cast<double>(gen.packets_examined());
  EXPECT_NEAR(rate, 0.01, 0.002);
}

TEST(IntGen, PostcardsCoverPathInOrder) {
  TraceGenerator trace(TraceConfig{});
  IntGenerator gen(IntConfig{}, &trace);
  for (int i = 0; i < 100; ++i) {
    const auto cards = gen.next_postcards();
    ASSERT_GE(cards.size(), 2u);
    ASSERT_LE(cards.size(), 5u);
    for (std::uint8_t h = 0; h < cards.size(); ++h) {
      EXPECT_EQ(cards[h].hop, h);
      EXPECT_EQ(cards[h].path_len, cards.size());
      EXPECT_EQ(cards[h].flow, cards[0].flow);
    }
  }
}

TEST(IntGen, PathDeterministicPerFlow) {
  TraceGenerator trace(TraceConfig{});
  IntGenerator gen(IntConfig{}, &trace);
  const net::FiveTuple flow{0x0A000001, 0x0A000002, 1000, 80, 6};
  EXPECT_EQ(gen.path_of(flow), gen.path_of(flow));
}

TEST(IntGen, SwitchIdsWithinValueSpace) {
  TraceGenerator trace(TraceConfig{});
  IntConfig ic;
  ic.switch_id_space = 1 << 10;
  IntGenerator gen(ic, &trace);
  for (int i = 0; i < 50; ++i) {
    for (const auto id : gen.next_path_trace().switch_ids) {
      EXPECT_GT(id, 0u);
      EXPECT_LT(id, 1u << 10);
    }
  }
}

TEST(IntGen, PathLengthDistributionHasLocality) {
  TraceGenerator trace(TraceConfig{});
  IntGenerator gen(IntConfig{}, &trace);
  int short_paths = 0, full_paths = 0;
  for (int i = 0; i < 300; ++i) {
    const auto p = gen.next_path_trace();
    if (p.switch_ids.size() == 2) ++short_paths;
    if (p.switch_ids.size() == 5) ++full_paths;
  }
  EXPECT_GT(short_paths, 0);
  EXPECT_GT(full_paths, 0);
}

// ---------------------------------------------------------------- Marple

TEST(Marple, FlowletsFireOnGaps) {
  TraceGenerator trace(TraceConfig{});
  MarpleConfig mc;
  mc.flowlet_gap_ns = 1;  // everything is a gap
  MarpleGenerator gen(mc, &trace);
  int flowlets = 0;
  for (int i = 0; i < 20000; ++i) {
    if (gen.step().flowlet) ++flowlets;
  }
  EXPECT_GT(flowlets, 100);
}

TEST(Marple, NoFlowletsWithoutGaps) {
  TraceGenerator trace(TraceConfig{});
  MarpleConfig mc;
  mc.flowlet_gap_ns = ~0ull >> 1;  // gap never exceeded
  MarpleGenerator gen(mc, &trace);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_FALSE(gen.step().flowlet.has_value());
  }
}

TEST(Marple, LossyFlowsDetected) {
  TraceConfig tc;
  tc.num_flows = 50;  // few flows -> each sees many packets
  TraceGenerator trace(tc);
  MarpleConfig mc;
  mc.congested_flow_fraction = 0.3;
  mc.congested_loss_rate = 0.10;
  mc.lossy_report_threshold = 0.02;
  MarpleGenerator gen(mc, &trace);
  int lossy = 0;
  for (int i = 0; i < 50000; ++i) {
    if (gen.step().lossy_flow) ++lossy;
  }
  EXPECT_GT(lossy, 3);
  EXPECT_LE(lossy, 50);  // at most once per flow
}

TEST(Marple, LossyFlowReportedOnce) {
  TraceConfig tc;
  tc.num_flows = 10;
  TraceGenerator trace(tc);
  MarpleConfig mc;
  mc.congested_flow_fraction = 1.0;  // every flow is lossy
  mc.congested_loss_rate = 0.5;
  MarpleGenerator gen(mc, &trace);
  std::set<std::uint64_t> reported;
  for (int i = 0; i < 20000; ++i) {
    auto r = gen.step();
    if (r.lossy_flow) {
      EXPECT_TRUE(
          reported.insert(net::flow_hash64(r.lossy_flow->flow)).second);
    }
  }
  EXPECT_GT(reported.size(), 5u);
}

TEST(Marple, TcpTimeoutsOnlyOnTcp) {
  TraceGenerator trace(TraceConfig{});
  MarpleConfig mc;
  mc.tcp_timeout_ns = 1;
  MarpleGenerator gen(mc, &trace);
  for (int i = 0; i < 20000; ++i) {
    auto r = gen.step();
    if (r.tcp_timeout) {
      EXPECT_EQ(r.tcp_timeout->flow.protocol, 6);
    }
  }
}

// --------------------------------------------------------------- NetSeer

TEST(NetSeer, EventsCarryCause) {
  TraceGenerator trace(TraceConfig{});
  NetSeerGenerator gen(NetSeerConfig{}, &trace);
  for (int i = 0; i < 100; ++i) {
    const auto ev = gen.next_event();
    EXPECT_LT(ev.reason, 3);
    EXPECT_GT(ev.packet_seq, 0u);
  }
}

TEST(NetSeer, LossRateApproximatesConfig) {
  TraceGenerator trace(TraceConfig{});
  NetSeerConfig nc;
  nc.loss_rate = 0.01;
  nc.burst_continue_prob = 0.0;  // no bursts: clean Bernoulli
  NetSeerGenerator gen(nc, &trace);
  for (int i = 0; i < 300; ++i) gen.next_event();
  const double rate = 300.0 / static_cast<double>(gen.packets_examined());
  EXPECT_NEAR(rate, 0.01, 0.003);
}

TEST(NetSeer, BurstsProduceClusters) {
  TraceGenerator trace(TraceConfig{});
  NetSeerConfig nc;
  nc.loss_rate = 0.001;
  nc.burst_continue_prob = 0.9;
  NetSeerGenerator gen(nc, &trace);
  int consecutive = 0;
  std::uint32_t last_seq = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto ev = gen.next_event();
    if (ev.packet_seq == last_seq + 1) ++consecutive;
    last_seq = ev.packet_seq;
  }
  EXPECT_GT(consecutive, 500);  // bursts dominate
}

// -------------------------------------------------- record -> DTA mapping

TEST(Records, PostcardMapping) {
  IntPostcard card;
  card.flow = {1, 2, 3, 4, 6};
  card.hop = 2;
  card.path_len = 5;
  card.value = 0x1234;
  const auto r = card.to_dta(2);
  EXPECT_EQ(r.hop, 2);
  EXPECT_EQ(r.value, 0x1234u);
  EXPECT_EQ(r.key.length, 13);
  EXPECT_EQ(r.redundancy, 2);
}

TEST(Records, PathTracePacksFiveIds) {
  IntPathTrace trace;
  trace.flow = {1, 2, 3, 4, 6};
  trace.switch_ids = {10, 20, 30};
  const auto r = trace.to_dta();
  ASSERT_EQ(r.data.size(), 20u);  // always 5 x 4B
  EXPECT_EQ(common::load_u32(r.data.data()), 10u);
  EXPECT_EQ(common::load_u32(r.data.data() + 8), 30u);
  EXPECT_EQ(common::load_u32(r.data.data() + 12), 0u);  // padded
}

TEST(Records, LossyFlowBucketsByLossRate) {
  MarpleLossyFlow low;
  low.loss_rate = 0.0005;
  MarpleLossyFlow high;
  high.loss_rate = 0.5;
  EXPECT_LT(low.to_dta(10, 4).list_id, high.to_dta(10, 4).list_id);
  EXPECT_GE(low.to_dta(10, 4).list_id, 10u);
  EXPECT_LT(high.to_dta(10, 4).list_id, 14u);
}

TEST(Records, NetSeerEntryIs18Bytes) {
  NetSeerLossEvent ev;
  ev.flow = {1, 2, 3, 4, 6};
  ev.packet_seq = 99;
  ev.reason = 1;
  const auto r = ev.to_dta(0);
  EXPECT_EQ(r.entry_size, 18);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].size(), 18u);
}

TEST(Records, MarpleFlowletEntryIs17Bytes) {
  MarpleFlowlet f;
  f.flow = {1, 2, 3, 4, 6};
  f.packets = 12;
  EXPECT_EQ(f.to_dta(0).entry_size, 17);
}

TEST(Records, HostCounterUsesSourceIpKey) {
  MarpleHostCounter c;
  c.src_ip = 0x0A000001;
  c.count = 5;
  const auto r = c.to_dta();
  EXPECT_EQ(r.key.length, 4);
  EXPECT_EQ(r.counter, 5u);
}

// ---------------------------------------------------------------- Table 1

TEST(Table1, IntPostcardRateMatchesPaper) {
  const auto rows = table1_rates();
  ASSERT_GE(rows.size(), 4u);
  EXPECT_EQ(rows[0].system, "INT Postcards");
  // 6.4T * 40% / 84B * 0.5% = 19.05 Mpps, the paper's 19M.
  EXPECT_NEAR(rows[0].reports_per_sec, rows[0].paper_reports_per_sec,
              rows[0].paper_reports_per_sec * 0.05);
}

TEST(Table1, AllRowsWithin15PercentOfPaper) {
  for (const auto& row : table1_rates()) {
    EXPECT_NEAR(row.reports_per_sec, row.paper_reports_per_sec,
                row.paper_reports_per_sec * 0.15)
        << row.system << " / " << row.metric;
  }
}

TEST(Table1, SwitchPpsArithmetic) {
  SwitchModel sw;
  EXPECT_NEAR(switch_pps_min_packets(sw), 3.81e9, 0.05e9);
  EXPECT_NEAR(switch_pps_avg_packets(sw), 376e6, 5e6);
}

}  // namespace
}  // namespace dta::telemetry
