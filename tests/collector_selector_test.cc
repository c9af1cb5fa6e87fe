// CollectorSelector tests: all three partition policies, Append list
// contiguity, how routes spread over and cover the collectors, and the
// two-level placement checked against the runtime: the host route()
// picks, and the shard the host's CollectorRuntime::submit places the
// report on, are the ones the query path looks in.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <tuple>

#include "collector/shard.h"
#include "dta/report_builders.h"
#include "dtalib/cluster_runtime.h"
#include "translator/collector_selector.h"

namespace dta::translator {
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

proto::Report keywrite(std::uint64_t id) {
  proto::KeyWriteReport r;
  r.key = key_of(id);
  r.redundancy = 2;
  common::put_u32(r.data, static_cast<std::uint32_t>(id));
  return r;
}

proto::Report append(std::uint32_t list) {
  proto::AppendReport r;
  r.list_id = list;
  r.entry_size = 4;
  common::put_u32(r.entries.emplace_back(), list);
  return r;
}

// ------------------------------------------------------------- policies

TEST(CollectorSelector, ByDestinationIpMapsIpsRoundRobin) {
  const CollectorSelector selector(PartitionPolicy::kByDestinationIp, 3);
  for (std::uint32_t ip = 0; ip < 30; ++ip) {
    const HostRange route = selector.route(keywrite(7), ip);
    ASSERT_EQ(route.count, 1u);
    EXPECT_EQ(route.first, ip % 3);
  }
}

TEST(CollectorSelector, ByKeyHashIsStableAndSpreads) {
  const CollectorSelector selector(PartitionPolicy::kByKeyHash, 4);
  std::set<std::uint32_t> seen;
  for (std::uint64_t id = 0; id < 400; ++id) {
    const HostRange first = selector.route(keywrite(id), 0);
    ASSERT_EQ(first.count, 1u);
    EXPECT_EQ(selector.route(keywrite(id), 0).first, first.first)
        << "key " << id;
    seen.insert(first.first);
  }
  EXPECT_EQ(seen.size(), 4u);  // every collector owns part of the key space
}

TEST(CollectorSelector, ByKeyHashIgnoresDestinationIp) {
  const CollectorSelector selector(PartitionPolicy::kByKeyHash, 4);
  const HostRange a = selector.route(keywrite(42), 0x0A000001);
  const HostRange b = selector.route(keywrite(42), 0x0A0000FF);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.count, b.count);
}

TEST(CollectorSelector, ReplicateReachesEveryCollector) {
  const CollectorSelector selector(PartitionPolicy::kReplicate, 3);
  const HostRange route = selector.route(keywrite(1), 0);
  EXPECT_EQ(route.first, 0u);
  EXPECT_EQ(route.count, 3u);
}

TEST(CollectorSelector, OneCollectorIsTheWholeRangeUnderEveryPolicy) {
  using P = PartitionPolicy;
  for (const P policy : {P::kByDestinationIp, P::kByKeyHash, P::kReplicate}) {
    const CollectorSelector selector(policy, 1);
    for (std::uint64_t id = 0; id < 50; ++id) {
      const HostRange route =
          selector.route(keywrite(id), static_cast<std::uint32_t>(id));
      EXPECT_EQ(route.first, 0u);
      EXPECT_EQ(route.count, 1u);
    }
  }
}

// ------------------------------------------------- Append contiguity

TEST(CollectorSelector, AppendListsStayContiguousPerCollector) {
  // Every entry of one list must land on one collector, and the
  // host-local ids of the lists a collector owns must be dense
  // (0, 1, 2, ...) so its store capacity divides evenly.
  const CollectorSelector selector(PartitionPolicy::kByKeyHash, 3);
  std::map<std::uint32_t, std::set<std::uint32_t>> local_ids_per_host;
  for (std::uint32_t list = 0; list < 30; ++list) {
    std::set<std::uint32_t> hosts;
    for (int rep = 0; rep < 5; ++rep) {
      const HostRange route = selector.route(append(list), 0);
      ASSERT_EQ(route.count, 1u);
      hosts.insert(route.first);
    }
    EXPECT_EQ(hosts.size(), 1u) << "list " << list << " split across hosts";
    EXPECT_EQ(*hosts.begin(), list % 3);
    local_ids_per_host[*hosts.begin()].insert(
        selector.host_local_list(list));
  }
  for (const auto& [host, locals] : local_ids_per_host) {
    EXPECT_EQ(locals.size(), 10u) << "host " << host;
    EXPECT_EQ(*locals.begin(), 0u) << "host " << host;
    EXPECT_EQ(*locals.rbegin(), 9u)
        << "host " << host << ": local ids not contiguous";
  }
}

TEST(CollectorSelector, HostLocalListFoldsOnlyUnderKeyHash) {
  const CollectorSelector hash(PartitionPolicy::kByKeyHash, 2);
  const CollectorSelector repl(PartitionPolicy::kReplicate, 2);
  EXPECT_EQ(hash.host_local_list(6), 3u);
  // Replication leaves every host with the full list space; folding
  // would alias lists 6 and 7 onto one local id.
  EXPECT_EQ(repl.host_local_list(6), 6u);
}

// ------------------------------------------------- spread and coverage

TEST(CollectorSelector, KeyHashRoutesSpreadOverEveryCollector) {
  const CollectorSelector selector(PartitionPolicy::kByKeyHash, 4);
  std::array<std::uint64_t, 4> per_collector{};
  for (std::uint64_t id = 0; id < 1000; ++id) {
    const HostRange route = selector.route(keywrite(id), 0);
    ASSERT_EQ(route.count, 1u) << "key " << id;
    ASSERT_LT(route.first, 4u) << "key " << id;
    per_collector[route.first]++;
  }
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_GT(per_collector[c], 150u) << "collector " << c;
    total += per_collector[c];
  }
  EXPECT_EQ(total, 1000u);  // one copy per report
}

TEST(CollectorSelector, ReplicateRoutesCoverEveryCollectorOnce) {
  const CollectorSelector selector(PartitionPolicy::kReplicate, 3);
  std::array<std::uint64_t, 3> per_collector{};
  std::uint64_t copies = 0;
  for (std::uint64_t id = 0; id < 100; ++id) {
    const HostRange route = selector.route(keywrite(id), 0);
    for (std::uint32_t c = route.first; c < route.first + route.count; ++c) {
      per_collector[c]++;
      ++copies;
    }
  }
  EXPECT_EQ(copies - 100, 200u);  // two extra copies per report
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_EQ(per_collector[c], 100u) << "collector " << c;
  }
}

// ------------------------------- two-level placement, against the runtime

TEST(CollectorSelector, KeyHashRouteIsTheOwnerHost) {
  // route() must agree with the probe the query tier uses to find the
  // key again, and be a pure function of the report: identical across
  // calls and across selector instances.
  const CollectorSelector a(PartitionPolicy::kByKeyHash, 4, 4);
  const CollectorSelector b(PartitionPolicy::kByKeyHash, 4, 4);
  for (std::uint64_t id = 0; id < 300; ++id) {
    const HostRange route = a.route(keywrite(id), 0);
    ASSERT_EQ(route.count, 1u);
    EXPECT_LT(route.first, 4u);
    EXPECT_EQ(route.first, *a.owner_host(key_of(id))) << "key " << id;
    EXPECT_EQ(route.first, b.route(keywrite(id), 0).first) << "key " << id;
  }
}

TEST(CollectorSelector, ShardWithinHostIsTheRuntimesShard) {
  // The shard tier is CollectorRuntime::submit's decision; the query
  // path's shard_within_host() must name the same shard.
  for (const std::uint32_t shards : {1u, 2u, 4u, 7u}) {
    const CollectorSelector selector(PartitionPolicy::kByKeyHash, 3, shards);
    for (std::uint64_t id = 0; id < 300; ++id) {
      EXPECT_EQ(selector.shard_within_host(key_of(id)),
                collector::shard_for_key(key_of(id), shards))
          << "key " << id << ", " << shards << " shards";
    }
  }
  // And on a live cluster: every key lands on exactly the (host, shard)
  // the probes name, which is where point gets read it.
  ClusterRuntimeConfig config;
  config.num_hosts = 2;
  config.policy = PartitionPolicy::kByKeyHash;
  config.host.num_shards = 4;
  config.host.thread_mode = collector::ThreadMode::kInline;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 14;
  config.host.keywrite = kw;
  ClusterRuntime cluster(config);
  constexpr std::uint64_t kKeys = 400;
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    cluster.submit(reports::wrap(keywrite(id)));
  }
  cluster.flush();
  const CollectorSelector& selector = cluster.selector();
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    const std::uint32_t host = *selector.owner_host(key_of(id));
    const std::uint32_t shard = selector.shard_within_host(key_of(id));
    for (std::uint32_t h = 0; h < 2; ++h) {
      for (std::uint32_t s = 0; s < 4; ++s) {
        const auto result =
            cluster.host(h).shard(s).service().keywrite()->query(key_of(id), 2);
        const bool placed = h == host && s == shard;
        EXPECT_EQ(result.status == collector::QueryStatus::kHit, placed)
            << "key " << id << " on host " << h << " shard " << s;
      }
    }
  }
}

TEST(CollectorSelector, KeysPinnedToOneHostCoverAllItsShards) {
  // The host hash and the shard hash use distinct CRC engines, so the
  // keys one host owns still spread over every shard of that host.
  const CollectorSelector selector(PartitionPolicy::kByKeyHash, 4, 4);
  std::array<std::set<std::uint32_t>, 4> shards_per_host;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    const std::uint32_t host = selector.route(keywrite(id), 0).first;
    shards_per_host[host].insert(selector.shard_within_host(key_of(id)));
  }
  for (std::uint32_t h = 0; h < 4; ++h) {
    EXPECT_EQ(shards_per_host[h].size(), 4u)
        << "host " << h << " does not use all its shards";
  }
}

TEST(CollectorSelector, ReplicateYieldsEveryHost) {
  // Every replica host gets the copy, and the shard tier only sees the
  // key: each host places it on the same shard index, so queries probe
  // one shard per host.
  const CollectorSelector selector(PartitionPolicy::kReplicate, 3, 4);
  for (std::uint64_t id = 0; id < 100; ++id) {
    const HostRange route = selector.route(keywrite(id), 0);
    EXPECT_EQ(route.first, 0u);
    EXPECT_EQ(route.count, 3u);
    EXPECT_FALSE(selector.owner_host(key_of(id)).has_value());
    EXPECT_EQ(selector.shard_within_host(key_of(id)),
              collector::shard_for_key(key_of(id), 4));
  }
}

TEST(CollectorSelector, TwoLevelAppendMappingIsDense) {
  // Global list -> (host, host-local, shard, shard-local): the double
  // fold keeps ids dense at both levels and never aliases two lists.
  const std::uint32_t hosts = 2, shards = 2;
  const CollectorSelector selector(PartitionPolicy::kByKeyHash, hosts, shards);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> placed;
  for (std::uint32_t list = 0; list < 16; ++list) {
    const HostRange route = selector.route(append(list), 0);
    ASSERT_EQ(route.count, 1u);
    EXPECT_EQ(route.first, *selector.owner_host_of_list(list));
    const std::uint32_t local = selector.host_local_list(list);
    const std::uint32_t shard = selector.shard_within_host_of_list(local);
    // The host runtime's own fold of the host-local id.
    EXPECT_EQ(shard, collector::shard_for_list(local, shards));
    const std::uint32_t shard_local = collector::local_list_id(local, shards);
    const auto placement = std::make_tuple(route.first, shard, shard_local);
    EXPECT_TRUE(placed.insert(placement).second)
        << "list " << list << " aliases another list's slot";
    EXPECT_LT(shard_local, 16u / (hosts * shards));
  }
}

}  // namespace
}  // namespace dta::translator
