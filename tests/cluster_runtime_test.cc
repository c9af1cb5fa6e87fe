// ClusterRuntime tests, driven through the dta::Client facade
// (ClusterBackend): two-level scale-out (hosts x shards), replica
// failover after a collector death, the stats rollup over live and dead
// hosts, the async snapshot-based query tier (point/range/event
// queries, concurrent with ingest — the TSan target) and worker
// pinning. Reports are built by the shared typed builders; cluster
// internals (selector, snapshot caches, per-shard stats) are reached
// through Client::cluster_runtime().
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dta/report_builders.h"
#include "dtalib/client.h"

namespace dta {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint64_t id) {
  std::uint64_t z = id * 0x9E3779B97F4A7C15ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  return reports::u64_key(z);
}

ClusterRuntimeConfig cluster_config(
    std::uint32_t hosts, std::uint32_t shards,
    translator::PartitionPolicy policy =
        translator::PartitionPolicy::kByKeyHash,
    collector::ThreadMode mode = collector::ThreadMode::kInline) {
  ClusterRuntimeConfig config;
  config.num_hosts = hosts;
  config.policy = policy;
  config.host.num_shards = shards;
  config.host.thread_mode = mode;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  config.host.keywrite = kw;
  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.host.keyincrement = ki;
  collector::AppendSetup ap;
  ap.num_lists = 16;
  ap.entries_per_list = 256;
  ap.entry_bytes = 4;
  config.host.append = ap;
  config.host.append_batch_size = 1;
  return config;
}

// ------------------------------------------------------------ scale-out

TEST(ClusterRuntime, ConfigReportsTheGeometryThatRuns) {
  // Zero hosts or shards run as one; config() and the backend's
  // host_config() say so, for a cluster and for Client::local alike.
  const ClusterRuntime cluster(cluster_config(0, 0));
  EXPECT_EQ(cluster.config().num_hosts, 1u);
  EXPECT_EQ(cluster.config().host.num_shards, 1u);
  EXPECT_EQ(cluster.num_hosts(), 1u);
  EXPECT_EQ(cluster.shards_per_host(), 1u);

  Client client = Client::local(cluster_config(1, 0).host);
  EXPECT_EQ(client.backend().host_config().num_shards, 1u);
  EXPECT_EQ(client.local_runtime()->num_shards(), 1u);
}

TEST(ClusterRuntime, AggregateRateScalesHostsTimesShards) {
  // §7's scaling claim composed across both tiers: every shard of every
  // host owns an independent NIC message unit, so a 4x4 kByKeyHash
  // cluster models ~16x the 1x1 deployment (exact up to shard balance;
  // with CRC routing every shard is hit at these key counts).
  Client single = Client::cluster(cluster_config(1, 1));
  Client cluster = Client::cluster(cluster_config(4, 4));

  for (std::uint64_t id = 0; id < 8000; ++id) {
    ASSERT_TRUE(
        single.keywrite().put_u32(key_of(id), 1, /*redundancy=*/1).ok());
    ASSERT_TRUE(
        cluster.keywrite().put_u32(key_of(id), 1, /*redundancy=*/1).ok());
  }
  ASSERT_TRUE(single.flush().ok());
  ASSERT_TRUE(cluster.flush().ok());

  const double base = single.modeled_verbs_per_sec();
  ASSERT_GT(base, 0.0);
  const double ratio = cluster.modeled_verbs_per_sec() / base;
  EXPECT_NEAR(ratio, 16.0, 16.0 * 0.02);

  // All 16 shard NICs took part.
  ClusterRuntime& runtime = *cluster.cluster_runtime();
  for (std::uint32_t h = 0; h < 4; ++h) {
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_GT(runtime.host(h).shard(s).stats().verbs_executed, 0u)
          << "host " << h << " shard " << s;
    }
  }
}

TEST(ClusterRuntime, KeyHashClusterAnswersEveryKey) {
  Client client = Client::cluster(cluster_config(3, 2));
  for (std::uint64_t id = 0; id < 600; ++id) {
    ASSERT_TRUE(client.keywrite()
                    .put_u32(key_of(id), static_cast<std::uint32_t>(id * 3))
                    .ok());
  }
  ASSERT_TRUE(client.flush().ok());
  int hits = 0;
  for (std::uint64_t id = 0; id < 600; ++id) {
    const auto value = client.keywrite().get_u32(key_of(id));
    if (value.ok() && *value == id * 3) ++hits;
  }
  EXPECT_GE(hits, 598);  // slot collisions may cost a key or two
}

TEST(ClusterRuntime, ByDestinationIpRoutesOnAddress) {
  Client client = Client::cluster(cluster_config(
      2, 2, translator::PartitionPolicy::kByDestinationIp));
  ClusterRuntime& cluster = *client.cluster_runtime();
  ReportOptions to_host1;
  to_host1.dst_ip = cluster.host_ip(1);
  for (std::uint64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(key_of(id), 7, 2, to_host1).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  EXPECT_EQ(cluster.host(0).stats().reports_in, 0u);
  EXPECT_EQ(cluster.host(1).stats().reports_in, 100u);
  // The key still determines the host-internal shard, and queries (which
  // fan out over hosts under this policy) find the values.
  int hits = 0;
  for (std::uint64_t id = 0; id < 100; ++id) {
    if (client.keywrite().get(key_of(id)).ok()) ++hits;
  }
  EXPECT_GE(hits, 99);
}

TEST(ClusterRuntime, HostIpAddressesExactlyThatHost) {
  // Regression: with 3 hosts the raw base address is not divisible by
  // the host count, so an unnormalized modulo would rotate the mapping
  // (host_ip(0) -> host 1). host_ip(h) must deliver to host h exactly.
  Client client = Client::cluster(cluster_config(
      3, 2, translator::PartitionPolicy::kByDestinationIp));
  ClusterRuntime& cluster = *client.cluster_runtime();
  for (std::uint32_t h = 0; h < 3; ++h) {
    ReportOptions to_host;
    to_host.dst_ip = cluster.host_ip(h);
    for (std::uint64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE(
          client.keywrite().put_u32(key_of(h * 100 + id), 1, 2, to_host).ok());
    }
  }
  ASSERT_TRUE(client.flush().ok());
  for (std::uint32_t h = 0; h < 3; ++h) {
    EXPECT_EQ(cluster.host(h).stats().reports_in, 10u) << "host " << h;
  }
}

TEST(ClusterRuntime, ByDestinationIpEventsReadTheAddressedHost) {
  // Only the addressed host holds the list under kByDestinationIp; the
  // event query must follow the same mapping as submit, not fall back
  // to an arbitrary live host with an untouched (zero) ring.
  Client client = Client::cluster(cluster_config(
      3, 2, translator::PartitionPolicy::kByDestinationIp));
  ClusterRuntime& cluster = *client.cluster_runtime();
  ReportOptions to_host1;
  to_host1.dst_ip = cluster.host_ip(1);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.list(2).append_u32(70 + i, to_host1).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  QueryOptions from_host1;
  from_host1.dst_ip = cluster.host_ip(1);
  const auto events = client.events(2).options(from_host1).max(4).run();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->entries.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(common::load_u32(events->entries[i].data()), 70 + i);
  }
}

TEST(ClusterRuntime, KeyHashAppendListLandsWholeOnItsOwner) {
  // Append lists partition whole under kByKeyHash: every entry of a
  // list reaches the host that owns it, and nothing reaches the other.
  Client client = Client::cluster(cluster_config(2, 2));
  ClusterRuntime& cluster = *client.cluster_runtime();
  const auto owner = cluster.selector().owner_host_of_list(3);
  ASSERT_TRUE(owner.has_value());
  for (std::uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.list(3).append_u32(i).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  EXPECT_EQ(cluster.host(*owner).stats().reports_in, 20u);
  EXPECT_EQ(cluster.host(1 - *owner).stats().reports_in, 0u);
  const auto events = client.events(3).max(20).run();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->entries.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(common::load_u32(events->entries[i].data()), i);
  }
}

// ----------------------------------------------------------- failover

TEST(ClusterRuntime, ReplicatePointQuerySurvivesHostDeath) {
  Client client = Client::cluster(cluster_config(
      2, 2, translator::PartitionPolicy::kReplicate));
  for (std::uint64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(client.keywrite()
                    .put_u32(key_of(id), static_cast<std::uint32_t>(id + 5))
                    .ok());
  }
  ASSERT_TRUE(client.flush().ok());

  ASSERT_TRUE(client.fail_host(0).ok());
  EXPECT_EQ(client.stats().live_hosts, 1u);

  // Every key is still answerable — the merge layer asks the survivor.
  int hits = 0;
  for (std::uint64_t id = 0; id < 100; ++id) {
    const auto value = client.keywrite().get_u32(key_of(id));
    if (value.ok() && *value == id + 5) ++hits;
  }
  EXPECT_EQ(hits, 100);

  // New reports only land on the survivor.
  ASSERT_TRUE(client.keywrite().put_u32(key_of(1000), 99).ok());
  ASSERT_TRUE(client.flush().ok());
  ClusterRuntime& cluster = *client.cluster_runtime();
  EXPECT_EQ(cluster.host(0).stats().reports_in, 100u);
  EXPECT_EQ(cluster.host(1).stats().reports_in, 101u);

  // Aggregate capacity reflects the loss (same workload, no failure:
  // twice the live shard NICs).
  Client healthy = Client::cluster(cluster_config(
      2, 2, translator::PartitionPolicy::kReplicate));
  for (std::uint64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(healthy.keywrite()
                    .put_u32(key_of(id), static_cast<std::uint32_t>(id + 5))
                    .ok());
  }
  ASSERT_TRUE(healthy.flush().ok());
  EXPECT_LT(client.modeled_verbs_per_sec(), healthy.modeled_verbs_per_sec());
}

TEST(ClusterRuntime, StatsTotalLiveHostsAndKeepDeadHostRows) {
  // Totals cover live hosts only; the dead host keeps its row with its
  // pre-failure counters.
  Client client = Client::cluster(cluster_config(
      2, 2, translator::PartitionPolicy::kReplicate));
  for (std::uint64_t id = 0; id < 30; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(key_of(id), 1).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  ASSERT_TRUE(client.fail_host(0).ok());
  for (std::uint64_t id = 30; id < 40; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(key_of(id), 1).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.num_hosts, 2u);
  EXPECT_EQ(stats.live_hosts, 1u);
  ASSERT_EQ(stats.per_host.size(), 2u);
  EXPECT_TRUE(stats.per_host[0].failed);
  EXPECT_EQ(stats.per_host[0].ingest.reports_in, 30u);
  EXPECT_FALSE(stats.per_host[1].failed);
  EXPECT_EQ(stats.per_host[1].ingest.reports_in, 40u);
  EXPECT_EQ(stats.ingest.reports_in, stats.per_host[1].ingest.reports_in);
  EXPECT_EQ(stats.translation.keywrite_reports,
            stats.per_host[1].translation.keywrite_reports);
  // Tenant attribution counts every host, the dead one included.
  ASSERT_EQ(stats.per_tenant.size(), 1u);
  EXPECT_EQ(stats.per_tenant[0].ingest_reports, 70u);
}

TEST(ClusterRuntime, ReplicateEventQueryFailsOver) {
  Client client = Client::cluster(cluster_config(
      2, 2, translator::PartitionPolicy::kReplicate));
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.list(3).append_u32(30 + i).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  ASSERT_TRUE(client.fail_host(0).ok());
  const auto events = client.events(3).max(5).run();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->entries.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(common::load_u32(events->entries[i].data()), 30 + i);
  }
}

TEST(ClusterRuntime, KeyHashDeadOwnerLosesOnlyItsPartition) {
  Client client = Client::cluster(cluster_config(2, 2));
  for (std::uint64_t id = 0; id < 200; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(key_of(id), 1).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  ASSERT_TRUE(client.fail_host(0).ok());
  ClusterRuntime& cluster = *client.cluster_runtime();
  int answered = 0, lost = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    const auto owner = cluster.selector().owner_host(key_of(id));
    ASSERT_TRUE(owner.has_value());
    const auto value = client.keywrite().get(key_of(id));
    if (*owner == 0) {
      ASSERT_FALSE(value.ok()) << "key " << id << " answered by a dead host";
      EXPECT_EQ(value.code(), StatusCode::kUnavailable) << "key " << id;
      ++lost;
    } else if (value.ok()) {
      ++answered;
    }
  }
  EXPECT_GT(answered, 50);
  EXPECT_GT(lost, 50);
}

TEST(ClusterRuntime, FailoverDoesNotServeDeadHostCachedSnapshots) {
  // Cluster-tier cache coherence: queries before the failure populate
  // every host's snapshot cache; fail_host must drop the dead host's
  // entries, and the failover path must answer every key from the
  // survivor without ever consulting the dead host's cache again.
  Client client = Client::cluster(cluster_config(
      2, 2, translator::PartitionPolicy::kReplicate));
  for (std::uint64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(client.keywrite()
                    .put_u32(key_of(id), static_cast<std::uint32_t>(id + 5))
                    .ok());
  }
  ASSERT_TRUE(client.flush().ok());
  for (std::uint64_t id = 0; id < 20; ++id) {
    ASSERT_TRUE(client.keywrite().get(key_of(id)).ok());
  }
  ClusterRuntime& cluster = *client.cluster_runtime();
  ASSERT_GT(cluster.host(0).snapshot_cache().cached_count(), 0u);
  const auto before = cluster.host(0).snapshot_cache().stats();

  ASSERT_TRUE(client.fail_host(0).ok());
  EXPECT_EQ(cluster.host(0).snapshot_cache().cached_count(), 0u)
      << "dead host still holds cached snapshots";

  int hits = 0;
  for (std::uint64_t id = 0; id < 100; ++id) {
    const auto value = client.keywrite().get_u32(key_of(id));
    if (value.ok() && *value == id + 5) ++hits;
  }
  EXPECT_EQ(hits, 100);

  const auto after = cluster.host(0).snapshot_cache().stats();
  EXPECT_EQ(after.hits, before.hits)
      << "query tier served a snapshot from the dead host's cache";
  EXPECT_EQ(after.misses, before.misses)
      << "query tier re-copied from the dead host";
  EXPECT_EQ(cluster.host(0).snapshot_cache().cached_count(), 0u);
}

TEST(ClusterRuntime, RangeQueryPinsOneSnapshotPerShard) {
  // A multi-shard batch get must route every sub-range through one
  // generation pin: however many keys land on a shard, the shard is
  // copied at most once per query — and an identical repeat of the
  // query is answered entirely from the cache.
  Client client = Client::cluster(cluster_config(2, 2));
  for (std::uint64_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(client.keywrite()
                    .put_u32(key_of(id), static_cast<std::uint32_t>(id))
                    .ok());
  }
  ASSERT_TRUE(client.flush().ok());

  std::vector<TelemetryKey> keys;
  for (std::uint64_t id = 0; id < 300; ++id) keys.push_back(key_of(id));
  const auto first = client.keywrite().get_many(keys);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), keys.size());

  ClusterRuntime& cluster = *client.cluster_runtime();
  std::uint64_t copies = 0;
  for (std::uint32_t h = 0; h < 2; ++h) {
    const auto stats = cluster.host(h).snapshot_cache().stats();
    EXPECT_LE(stats.misses, 2u) << "host " << h
                                << " re-snapshotted a shard mid-query";
    copies += stats.misses;
  }
  EXPECT_LE(copies, 4u);  // at most one copy per (host, shard)

  const auto second = client.keywrite().get_many(keys);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), keys.size());
  std::uint64_t copies_after = 0;
  for (std::uint32_t h = 0; h < 2; ++h) {
    copies_after += cluster.host(h).snapshot_cache().stats().misses;
  }
  EXPECT_EQ(copies_after, copies)
      << "unchanged shards were re-copied by the second query";
  for (std::size_t i = 0; i < first->size(); ++i) {
    ASSERT_EQ((*first)[i].has_value(), (*second)[i].has_value())
        << "key " << i;
  }
}

// ------------------------------------------------------------- queries

TEST(ClusterRuntime, RangeQueryResolvesBatchInInputOrder) {
  Client client = Client::cluster(cluster_config(2, 2));
  for (std::uint64_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(client.keywrite()
                    .put_u32(key_of(id), static_cast<std::uint32_t>(id ^ 0x5A))
                    .ok());
  }
  ASSERT_TRUE(client.flush().ok());
  std::vector<TelemetryKey> keys;
  for (std::uint64_t id = 0; id < 300; id += 3) keys.push_back(key_of(id));
  keys.push_back(key_of(999999));  // never written
  const auto results = client.keywrite().get_many(keys);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), keys.size());
  int hits = 0;
  for (std::size_t i = 0; i + 1 < results->size(); ++i) {
    const auto& value = (*results)[i];
    if (value && common::load_u32(value->data()) == ((3 * i) ^ 0x5A)) {
      ++hits;
    }
  }
  EXPECT_GE(hits, 98);
  EXPECT_FALSE(results->back().has_value());
}

TEST(ClusterRuntime, CounterAndEventReadsResolve) {
  Client client = Client::cluster(cluster_config(2, 2));
  net::FiveTuple flow{0x0A000001, 0x0B000001, 1234, 443, 6};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.counters().add(flow_key(flow), 4).ok());
  }
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.list(5).append_u32(i).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  const auto counter = client.counters().get(flow_key(flow));
  ASSERT_TRUE(counter.ok());
  EXPECT_GE(*counter, 12u);  // CMS: >= truth
  const auto events = client.events(5).max(6).run();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->entries.size(), 6u);
  EXPECT_EQ(common::load_u32(events->entries[0].data()), 0u);
  EXPECT_EQ(common::load_u32(events->entries[5].data()), 5u);
}

TEST(ClusterRuntime, QueriesRunConcurrentlyWithThreadedIngest) {
  // The TSan acceptance test: point queries resolve from per-shard
  // snapshots while the threaded ingest pipelines keep writing store
  // memory. Any cross-thread read of live
  // store state would be a data race; snapshots make it race-free.
  Client client = Client::cluster(cluster_config(
      2, 2, translator::PartitionPolicy::kReplicate,
      collector::ThreadMode::kThreaded));

  std::vector<Expected<common::Bytes>> results;
  std::uint64_t next_id = 0;
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (std::uint32_t i = 0; i < 50; ++i, ++next_id) {
      ASSERT_TRUE(client.keywrite()
                      .put_u32(key_of(next_id),
                               static_cast<std::uint32_t>(next_id * 7 + 1))
                      .ok());
    }
    // Queries for keys from earlier rounds, issued while this round's
    // reports are still in flight through the SPSC queues.
    if (round > 0) {
      const std::uint64_t probe = (round - 1) * 50;
      results.push_back(client.keywrite().get(key_of(probe)));
      results.push_back(client.keywrite().get(key_of(probe + 49)));
    }
  }
  int hits = 0;
  for (const auto& result : results) {
    if (result.ok()) ++hits;
  }
  // Every probed key was flushed by its snapshot barrier before the
  // query resolved.
  EXPECT_EQ(hits, static_cast<int>(results.size()));
  client.stop();
  EXPECT_EQ(client.stats().ingest.reports_in, 2u * 1000u);  // both replicas
}

TEST(ClusterRuntime, FailHostRacesIngestAndQueries) {
  // The TSan target for the per-host failed flags: one thread fails
  // host 1 while a second submits and a third runs point and batch
  // gets, each reading the flags. Every call ends in a value or a
  // typed Status, and the two survivors end up holding every key.
  Client client = Client::cluster(cluster_config(
      3, 2, translator::PartitionPolicy::kReplicate,
      collector::ThreadMode::kThreaded));
  auto table = client.keywrite();
  constexpr std::uint64_t kPreloaded = 100;
  constexpr std::uint64_t kKeys = 600;
  const auto value_of = [](std::uint64_t id) {
    return static_cast<std::uint32_t>(id * 7 + 1);
  };
  for (std::uint64_t id = 0; id < kPreloaded; ++id) {
    ASSERT_TRUE(table.put_u32(key_of(id), value_of(id)).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  // Relaxed progress flags: the test itself adds no happens-before edge
  // between the threads, so any unsynchronized flag access shows. Each
  // of the submitter and the querier waits, before its last stretch,
  // until host 1 is failed, so both overlap the failure.
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> queried{0};
  std::atomic<bool> host_failed{false};
  const auto await_failure = [&] {
    while (!host_failed.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
  };
  std::atomic<int> bad_submits{0};
  std::atomic<int> bad_reads{0};
  const auto expect_read = [&](const Expected<std::uint32_t>& value,
                               std::uint64_t id) {
    const bool typed = value.ok() || value.code() == StatusCode::kNotFound ||
                       value.code() == StatusCode::kConflict;
    if (!typed || (value.ok() && *value != value_of(id))) {
      bad_reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  Status killed;
  std::thread killer([&] {
    while (submitted.load(std::memory_order_relaxed) < 100 ||
           queried.load(std::memory_order_relaxed) < 20) {
      std::this_thread::yield();
    }
    killed = client.fail_host(1);
    host_failed.store(true, std::memory_order_relaxed);
  });
  std::thread submitter([&] {
    for (std::uint64_t id = kPreloaded; id < kKeys; ++id) {
      if (id == kKeys - 100) await_failure();
      if (!table.put_u32(key_of(id), value_of(id)).ok()) {
        bad_submits.fetch_add(1, std::memory_order_relaxed);
      }
      submitted.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread querier([&] {
    for (std::uint64_t i = 0; i < 200; ++i) {
      if (i == 150) await_failure();
      const std::uint64_t id = i % kPreloaded;
      expect_read(table.get_u32(key_of(id)), id);
      const auto batch =
          table.get_many({key_of(id), key_of((id + 1) % kPreloaded)});
      if (!batch.ok() || batch->size() != 2) {
        bad_reads.fetch_add(1, std::memory_order_relaxed);
      }
      queried.fetch_add(1, std::memory_order_relaxed);
    }
  });
  submitter.join();
  querier.join();
  killer.join();
  EXPECT_TRUE(killed.ok()) << killed.to_string();
  EXPECT_EQ(bad_submits.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);

  ASSERT_TRUE(client.flush().ok());
  EXPECT_EQ(client.stats().live_hosts, 2u);
  ClusterRuntime& cluster = *client.cluster_runtime();
  EXPECT_TRUE(cluster.is_failed(1));
  EXPECT_EQ(cluster.host(0).stats().reports_in, kKeys);
  EXPECT_EQ(cluster.host(2).stats().reports_in, kKeys);
  EXPECT_LE(cluster.host(1).stats().reports_in, kKeys - 100);
  int hits = 0;
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    const auto value = table.get_u32(key_of(id));
    if (value.ok() && *value == value_of(id)) ++hits;
  }
  EXPECT_EQ(hits, static_cast<int>(kKeys));
}

// ------------------------------------------------------ worker pinning

TEST(ClusterRuntime, PinnedWorkersReportAffinity) {
  auto config = cluster_config(1, 2);
  config.host.thread_mode = collector::ThreadMode::kThreaded;
  config.host.pin_workers = true;
  config.host.worker_cores = {0, 0};  // core 0 always exists
  Client client = Client::cluster(config);
  for (std::uint64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(key_of(id), 1).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  ClusterRuntime& cluster = *client.cluster_runtime();
#if defined(__linux__)
  EXPECT_EQ(cluster.host(0).pipeline().stats().workers_pinned, 2u);
#else
  EXPECT_EQ(cluster.host(0).pipeline().stats().workers_pinned, 0u);
#endif
  EXPECT_EQ(cluster.host(0).stats().reports_in, 100u);
}

TEST(ClusterRuntime, UnpinnedIsTheDefaultNoOp) {
  Client client = Client::cluster(cluster_config(
      1, 2, translator::PartitionPolicy::kByKeyHash,
      collector::ThreadMode::kThreaded));
  ASSERT_TRUE(client.keywrite().put_u32(key_of(1), 1).ok());
  ASSERT_TRUE(client.flush().ok());
  ClusterRuntime& cluster = *client.cluster_runtime();
  EXPECT_EQ(cluster.host(0).pipeline().stats().workers_pinned, 0u);
}

}  // namespace
}  // namespace dta
