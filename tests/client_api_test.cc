// dtalib v2 acceptance tests: every primitive round-trips through the
// typed dta::Client facade identically against Client::local (one
// host, sharded CollectorRuntime) and Client::cluster (N hosts x M
// shards, replica failover), and every failure mode of the error model
// comes back as a distinct dta::Status code — no bools, no optionals,
// no asserts/UB.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "dta/report_builders.h"
#include "dtalib/client.h"

namespace dta {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

enum class BackendKind { kLocal, kCluster };

const char* kind_name(BackendKind kind) {
  return kind == BackendKind::kLocal ? "Local" : "Cluster";
}

collector::CollectorRuntimeConfig host_config(
    collector::ThreadMode mode = collector::ThreadMode::kInline) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = 2;
  config.thread_mode = mode;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  config.keywrite = kw;
  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;
  collector::AppendSetup ap;
  ap.num_lists = 8;
  ap.entries_per_list = 256;
  ap.entry_bytes = 4;
  config.append = ap;
  config.append_batch_size = 1;
  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 14;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 4096; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  return config;
}

Client make_client(BackendKind kind,
                   collector::ThreadMode mode = collector::ThreadMode::kInline,
                   translator::PartitionPolicy policy =
                       translator::PartitionPolicy::kReplicate) {
  if (kind == BackendKind::kLocal) {
    return Client::local(host_config(mode));
  }
  ClusterRuntimeConfig config;
  config.num_hosts = 2;
  config.policy = policy;
  config.host = host_config(mode);
  return Client::cluster(config);
}

class ClientApiTest : public ::testing::TestWithParam<BackendKind> {};

// ------------------------------------------------------ Key-Write

TEST_P(ClientApiTest, KeyWriteRoundTrip) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(table.put_u32(reports::mixed_key(id), id * 7 + 3).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  int hits = 0;
  for (std::uint32_t id = 0; id < 300; ++id) {
    const auto value = table.get_u32(reports::mixed_key(id));
    if (value.ok() && *value == id * 7 + 3) ++hits;
  }
  EXPECT_GE(hits, 298);  // slot collisions may cost a key or two

  // A key never reported is kNotFound — not a bare nullopt.
  const auto miss = table.get(reports::mixed_key(999999));
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.code(), StatusCode::kNotFound);
}

TEST_P(ClientApiTest, KeyWriteRawBytesRoundTrip) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  Bytes value;
  common::put_u32(value, 0xDEADBEEF);
  ASSERT_TRUE(table.put(reports::u32_key(7), ByteSpan(value)).ok());
  ASSERT_TRUE(client.flush().ok());
  const auto got = table.get(reports::u32_key(7));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(common::load_u32(got->data()), 0xDEADBEEFu);
}

TEST_P(ClientApiTest, GetManyResolvesBatchInInputOrder) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(table.put_u32(reports::mixed_key(id), id ^ 0x5A).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  std::vector<TelemetryKey> keys;
  for (std::uint32_t id = 0; id < 300; id += 3) {
    keys.push_back(reports::mixed_key(id));
  }
  keys.push_back(reports::mixed_key(999999));  // never written
  const auto results = table.get_many(keys);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), keys.size());
  int hits = 0;
  for (std::size_t i = 0; i + 1 < results->size(); ++i) {
    const auto& value = (*results)[i];
    if (value && common::load_u32(value->data()) == ((3 * i) ^ 0x5A)) ++hits;
  }
  EXPECT_GE(hits, 98);
  EXPECT_FALSE(results->back().has_value());
}

TEST_P(ClientApiTest, ZeroCopyViewsMatchCopiesAndOutliveRefresh) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(table.put_u32(reports::mixed_key(id), id * 11 + 1).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  // get_view resolves through the same merge as get, without the copy.
  int hits = 0;
  for (std::uint32_t id = 0; id < 300; ++id) {
    const auto view = table.get_view(reports::mixed_key(id));
    if (view.ok() && view->size() == 4 &&
        common::load_u32(view->data()) == id * 11 + 1) {
      ++hits;
    }
  }
  EXPECT_GE(hits, 298);
  EXPECT_EQ(table.get_view(reports::mixed_key(999999)).code(),
            StatusCode::kNotFound);

  // Lifetime rule: a held view pins its snapshot, so overwriting the
  // key and refreshing serves the new value to new queries while the
  // held view's bytes stay exactly as read.
  const auto held = table.get_view(reports::mixed_key(5));
  ASSERT_TRUE(held.ok());
  const std::uint32_t before = common::load_u32(held->data());
  ASSERT_TRUE(table.put_u32(reports::mixed_key(5), 0xFEED).ok());
  ASSERT_TRUE(client.flush().ok());
  const auto after = table.get_view(reports::mixed_key(5));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(common::load_u32(after->data()), 0xFEEDu);
  EXPECT_EQ(common::load_u32(held->data()), before);
  // The copy escape detaches: equal bytes, owned storage.
  const Bytes detached = held->to_bytes();
  EXPECT_EQ(common::load_u32(detached.data()), before);

  // Batch views: input order, nullopt misses, all zero-copy.
  std::vector<TelemetryKey> keys;
  for (std::uint32_t id = 0; id < 300; id += 3) {
    keys.push_back(reports::mixed_key(id));
  }
  keys.push_back(reports::mixed_key(999999));
  const auto views = table.get_many_views(keys);
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views->size(), keys.size());
  int batch_hits = 0;
  for (std::size_t i = 0; i + 1 < views->size(); ++i) {
    const auto& view = (*views)[i];
    if (view && common::load_u32(view->data()) == (3 * i) * 11 + 1) {
      ++batch_hits;
    }
  }
  EXPECT_GE(batch_hits, 97);
  EXPECT_FALSE(views->back().has_value());

  // Append entries arrive in list order through the cursor-based event
  // query (concurrent reads of one snapshot are covered in
  // snapshot_cache_test).
  auto list = client.list(1);
  for (std::uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(list.append_u32(700 + i).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  const auto batch = client.events(1).max(10).run();
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->entries.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(common::load_u32(batch->entries[i].data()), 700 + i);
  }
}

TEST_P(ClientApiTest, RedundancyBeyondEngineCountRejected) {
  // The CRC catalogue has exactly 8 slot-hash engines; redundancy 9
  // would need a ninth. The facade rejects it as kOutOfRange instead of
  // letting slot_crc() abort on the out-of-range engine index.
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  EXPECT_EQ(table.put_u32(reports::u32_key(1), 1, /*redundancy=*/9).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(client.counters().add(reports::u32_key(1), 1, 9).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(table.put_u32(reports::u32_key(1), 1, 8).ok());
  ASSERT_TRUE(client.flush().ok());
  QueryOptions nine;
  nine.redundancy = 9;
  EXPECT_EQ(table.get(reports::u32_key(1), nine).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(table.get_view(reports::u32_key(1), nine).code(),
            StatusCode::kOutOfRange);
  // The full 8 engines work end to end.
  QueryOptions eight;
  eight.redundancy = 8;
  const auto got = table.get_u32(reports::u32_key(1), eight);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 1u);
}

// --------------------------------------------------- Key-Increment

TEST_P(ClientApiTest, CounterRoundTrip) {
  Client client = make_client(GetParam());
  auto counters = client.counters();
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t id = 0; id < 32; ++id) {
      ASSERT_TRUE(counters.add(reports::u32_key(id), id + 1).ok());
    }
  }
  ASSERT_TRUE(client.flush().ok());
  for (std::uint32_t id = 0; id < 32; ++id) {
    const auto estimate = counters.get(reports::u32_key(id));
    ASSERT_TRUE(estimate.ok()) << estimate.status().to_string();
    EXPECT_GE(*estimate, 3u * (id + 1));  // CMS never underestimates
  }
  const auto repeat_estimate = counters.get(reports::u32_key(1));
  ASSERT_TRUE(repeat_estimate.ok());
  EXPECT_GE(*repeat_estimate, 6u);
}

// ---------------------------------------------------------- Append

TEST_P(ClientApiTest, AppendRoundTrip) {
  Client client = make_client(GetParam());
  auto list = client.list(3);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(list.append_u32(30 + i).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  const auto events = client.events(list).max(6).run();
  ASSERT_TRUE(events.ok()) << events.status().to_string();
  ASSERT_EQ(events->entries.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(common::load_u32(events->entries[i].data()), 30 + i);
  }
  EXPECT_EQ(events->dropped, 0u);
  EXPECT_EQ(events->remaining, 0u);
  EXPECT_EQ(events->next.position, 6u);
}

// ----------------------------------------------------- Postcarding

TEST_P(ClientApiTest, PostcardRoundTrip) {
  Client client = make_client(GetParam());
  auto postcards = client.postcards();
  for (std::uint32_t flow = 0; flow < 100; ++flow) {
    for (std::uint8_t hop = 0; hop < 5; ++hop) {
      ASSERT_TRUE(postcards
                      .report(reports::u32_key(flow), hop, /*path_len=*/5,
                              (flow + hop) % 4096)
                      .ok());
    }
  }
  ASSERT_TRUE(client.flush().ok());
  int found = 0;
  for (std::uint32_t flow = 0; flow < 100; ++flow) {
    const auto path = postcards.path_of(reports::u32_key(flow));
    if (path.ok() && path->size() == 5 && (*path)[0] == flow % 4096) ++found;
  }
  EXPECT_GE(found, 98);

  const auto miss = postcards.path_of(reports::u32_key(999999));
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.code(), StatusCode::kNotFound);
}

// ------------------------------------------------------ error model

TEST_P(ClientApiTest, ErrorModelDistinctCodes) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  ASSERT_TRUE(table.put_u32(reports::u32_key(1), 11).ok());
  ASSERT_TRUE(client.flush().ok());

  // Empty keys are invalid, for reporting and querying.
  EXPECT_EQ(table.put_u32(TelemetryKey{}, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.get(TelemetryKey{}).code(), StatusCode::kInvalidArgument);

  // Zero redundancy can neither write nor vote.
  EXPECT_EQ(table.put_u32(reports::u32_key(2), 1, /*redundancy=*/0).code(),
            StatusCode::kInvalidArgument);
  QueryOptions zero_votes;
  zero_votes.redundancy = 0;
  EXPECT_EQ(table.get(reports::u32_key(1), zero_votes).code(),
            StatusCode::kInvalidArgument);

  // A value wider than the store's geometry is rejected, not truncated.
  Bytes wide(64, 0xAB);
  EXPECT_EQ(table.put(reports::u32_key(3), ByteSpan(wide)).code(),
            StatusCode::kOutOfRange);

  // Unknown Append list ids, for appends and reads.
  const std::uint32_t bogus_list = 1000;
  EXPECT_EQ(client.list(bogus_list).append_u32(1).code(),
            StatusCode::kUnknownList);
  EXPECT_EQ(client.events(bogus_list).max(1).run().code(),
            StatusCode::kUnknownList);

  // Entry size must match the ring geometry.
  Bytes wrong_entry(8, 1);
  EXPECT_EQ(client.list(0).append(ByteSpan(wrong_entry)).code(),
            StatusCode::kOutOfRange);

  // A 260B entry aliases entry_size 4 in the 8-bit wire field; the
  // payload-size check must reject it instead of silently truncating.
  Bytes huge_entry(260, 2);
  EXPECT_EQ(client.list(0).append(ByteSpan(huge_entry)).code(),
            StatusCode::kOutOfRange);

  // An event cursor ahead of the head is kOutOfRange (the rest of the
  // cursor error surface is covered in the event-cursor tests).
  EXPECT_EQ(client.events(0).since(1u << 30).run().code(),
            StatusCode::kOutOfRange);

  // A covers_seq floor ahead of everything submitted is unsatisfiable.
  QueryOptions future_floor;
  future_floor.covers_seq = 1u << 30;
  EXPECT_EQ(table.get(reports::u32_key(1), future_floor).code(),
            StatusCode::kStalenessViolation);

  // Postcard hop beyond the configured path length.
  EXPECT_EQ(client.postcards()
                .report(reports::u32_key(1), /*hop=*/9, /*path_len=*/5, 1)
                .code(),
            StatusCode::kOutOfRange);
}

// Rejections carry a message naming the failing field and its value —
// a bare code is not actionable from a client log line.
TEST_P(ClientApiTest, ErrorMessagesNameTheFailingField) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();

  auto contains = [](const Status& status, const char* needle) {
    return status.message().find(needle) != std::string::npos;
  };

  const Status empty_key = table.put_u32(TelemetryKey{}, 1);
  EXPECT_TRUE(contains(empty_key, "empty telemetry key"))
      << empty_key.to_string();

  const Status no_redundancy = table.put_u32(reports::u32_key(2), 1, 0);
  EXPECT_TRUE(contains(no_redundancy, "redundancy 0"))
      << no_redundancy.to_string();

  const Status too_wide = table.put_u32(reports::u32_key(2), 1, 9);
  EXPECT_TRUE(contains(too_wide, "redundancy 9")) << too_wide.to_string();
  EXPECT_TRUE(contains(too_wide, "8 slot-hash engines"))
      << too_wide.to_string();

  Bytes wide(64, 0xAB);
  const Status fat_value = table.put(reports::u32_key(3), ByteSpan(wide));
  EXPECT_TRUE(contains(fat_value, "64B")) << fat_value.to_string();
  EXPECT_TRUE(contains(fat_value, "value_bytes")) << fat_value.to_string();

  const Status bad_list = client.list(1000).append_u32(1);
  EXPECT_TRUE(contains(bad_list, "list id 1000")) << bad_list.to_string();

  Bytes wrong_entry(8, 1);
  const Status bad_entry = client.list(0).append(ByteSpan(wrong_entry));
  EXPECT_TRUE(contains(bad_entry, "entry_size")) << bad_entry.to_string();

  const Status bad_hop =
      client.postcards().report(reports::u32_key(1), /*hop=*/9,
                                /*path_len=*/5, 1);
  EXPECT_TRUE(contains(bad_hop, "hop 9")) << bad_hop.to_string();

  const auto bad_query = table.get(TelemetryKey{});
  EXPECT_TRUE(contains(bad_query.status(), "empty telemetry key"))
      << bad_query.status().to_string();

  // Range-query validation names the inverted bounds.
  const auto inverted = client.range(table)
                            .from(reports::u32_key(9))
                            .to(reports::u32_key(1))
                            .run();
  EXPECT_EQ(inverted.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(contains(inverted.status(), "bounds inverted"))
      << inverted.status().to_string();

  // Event-query validation names the cursor and the head it passed.
  ASSERT_TRUE(client.list(0).append_u32(7).ok());
  ASSERT_TRUE(client.flush().ok());
  const auto ahead = client.events(0).since(1u << 20).run();
  EXPECT_EQ(ahead.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(contains(ahead.status(), "cursor"))
      << ahead.status().to_string();
}

TEST_P(ClientApiTest, NotConfiguredPrimitivesReportCleanly) {
  // A client with only Key-Write enabled: the other handles fail with
  // kNotConfigured instead of dereferencing a missing store.
  collector::CollectorRuntimeConfig config;
  config.num_shards = 2;
  config.thread_mode = collector::ThreadMode::kInline;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 12;
  kw.value_bytes = 4;
  config.keywrite = kw;

  Client client = GetParam() == BackendKind::kLocal
                      ? Client::local(config)
                      : Client::cluster([&] {
                          ClusterRuntimeConfig cluster;
                          cluster.num_hosts = 2;
                          cluster.policy =
                              translator::PartitionPolicy::kReplicate;
                          cluster.host = config;
                          return cluster;
                        }());

  EXPECT_EQ(client.counters().add(reports::u32_key(1), 1).code(),
            StatusCode::kNotConfigured);
  EXPECT_EQ(client.counters().get(reports::u32_key(1)).code(),
            StatusCode::kNotConfigured);
  EXPECT_EQ(client.list(0).append_u32(1).code(), StatusCode::kNotConfigured);
  EXPECT_EQ(client.events(0).max(1).run().code(),
            StatusCode::kNotConfigured);
  EXPECT_EQ(client.postcards().report(reports::u32_key(1), 0, 1, 1).code(),
            StatusCode::kNotConfigured);
  EXPECT_EQ(client.postcards().path_of(reports::u32_key(1)).code(),
            StatusCode::kNotConfigured);
  // Key-Write itself works.
  EXPECT_TRUE(client.keywrite().put_u32(reports::u32_key(1), 5).ok());
}

// -------------------------------------------------- failover paths

TEST_P(ClientApiTest, FailoverAndUnavailability) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(table.put_u32(reports::mixed_key(id), id + 5).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  if (GetParam() == BackendKind::kLocal) {
    // One host is the one-partition cluster: with it dead nothing is
    // left to answer — a typed kUnavailable for point, batch and event
    // queries, not UB.
    ASSERT_TRUE(client.fail_host(0).ok());
    EXPECT_EQ(table.get(reports::mixed_key(1)).code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(table.get_many({reports::mixed_key(1)}).code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(client.events(0).max(1).run().code(), StatusCode::kUnavailable);
    EXPECT_EQ(client.stats().live_hosts, 0u);
    EXPECT_EQ(client.fail_host(1).code(), StatusCode::kInvalidArgument);
    return;
  }

  // Replica failover: host 0 dies, every key still answers from the
  // survivor through the same facade calls.
  ASSERT_TRUE(client.fail_host(0).ok());
  int hits = 0;
  for (std::uint32_t id = 0; id < 100; ++id) {
    const auto value = table.get_u32(reports::mixed_key(id));
    if (value.ok() && *value == id + 5) ++hits;
  }
  EXPECT_EQ(hits, 100);
  EXPECT_EQ(client.stats().live_hosts, 1u);

  // The whole replica set dead: a typed kUnavailable, for point, batch
  // and event queries alike.
  ASSERT_TRUE(client.fail_host(1).ok());
  const auto dead = table.get(reports::mixed_key(1));
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.code(), StatusCode::kUnavailable);
  EXPECT_EQ(table.get_many({reports::mixed_key(1)}).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(client.events(0).max(1).run().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.fail_host(9).code(), StatusCode::kInvalidArgument);
}

TEST(ClientApiClusterTest, KeyHashDeadOwnerLosesOnlyItsPartition) {
  Client client = make_client(BackendKind::kCluster,
                              collector::ThreadMode::kInline,
                              translator::PartitionPolicy::kByKeyHash);
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < 200; ++id) {
    ASSERT_TRUE(table.put_u32(reports::mixed_key(id), 1).ok());
  }
  ASSERT_TRUE(client.flush().ok());
  ASSERT_TRUE(client.fail_host(0).ok());

  ClusterRuntime& cluster = *client.cluster_runtime();
  int answered = 0, unavailable = 0;
  for (std::uint32_t id = 0; id < 200; ++id) {
    const auto owner =
        cluster.selector().owner_host(reports::mixed_key(id));
    ASSERT_TRUE(owner.has_value());
    const auto value = table.get(reports::mixed_key(id));
    if (*owner == 0) {
      ASSERT_FALSE(value.ok());
      EXPECT_EQ(value.code(), StatusCode::kUnavailable) << "key " << id;
      ++unavailable;
    } else if (value.ok()) {
      ++answered;
    }
  }
  EXPECT_GT(answered, 50);
  EXPECT_GT(unavailable, 50);
}

// -------------------------------------------- staleness-budget path

TEST_P(ClientApiTest, StalenessBudgetServesStaleAndFloorOverrides) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  ASSERT_TRUE(table.put_u32(reports::u32_key(1), 11).ok());
  ASSERT_TRUE(client.flush().ok());
  ASSERT_TRUE(table.get_u32(reports::u32_key(1)).ok());  // warm the cache

  // New reports land; a budgeted query may ride the cached snapshot
  // and miss them (stale within budget)...
  ASSERT_TRUE(table.put_u32(reports::u32_key(2), 22).ok());
  ASSERT_TRUE(client.flush().ok());
  QueryOptions stale;
  stale.staleness = collector::SnapshotStalenessBudget{};
  stale.staleness->generations = 1u << 20;
  const auto stale_read = table.get_u32(reports::u32_key(2), stale);
  if (stale_read.ok()) {
    EXPECT_EQ(*stale_read, 22u);  // the cache may have been refreshed
  } else {
    EXPECT_EQ(stale_read.code(), StatusCode::kNotFound);
  }

  // ...but read_your_submits overrides any budget: the same query with
  // the floor set must see the report.
  QueryOptions fresh = stale;
  fresh.read_your_submits = true;
  const auto fresh_read = table.get_u32(reports::u32_key(2), fresh);
  ASSERT_TRUE(fresh_read.ok()) << fresh_read.status().to_string();
  EXPECT_EQ(*fresh_read, 22u);

  // And the pre-budget exact-freshness default still answers.
  const auto exact = table.get_u32(reports::u32_key(2));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, 22u);
}

// ------------------------------------------- concurrency (TSan target)

TEST_P(ClientApiTest, QueriesRunConcurrentlyWithThreadedIngest) {
  Client client = make_client(GetParam(), collector::ThreadMode::kThreaded);
  auto table = client.keywrite();
  std::vector<Expected<common::Bytes>> results;
  std::uint32_t next_id = 0;
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (std::uint32_t i = 0; i < 50; ++i, ++next_id) {
      ASSERT_TRUE(table.put_u32(reports::mixed_key(next_id), next_id * 7 + 1).ok());
    }
    if (round > 0) {
      const std::uint32_t probe = (round - 1) * 50;
      results.push_back(table.get(reports::mixed_key(probe)));
      results.push_back(table.get(reports::mixed_key(probe + 49)));
    }
  }
  int hits = 0;
  for (const auto& result : results) {
    if (result.ok()) ++hits;
  }
  EXPECT_EQ(hits, static_cast<int>(results.size()));
  client.stop();
  const auto stats = client.stats();
  const std::uint64_t copies =
      GetParam() == BackendKind::kCluster ? 2u : 1u;
  EXPECT_EQ(stats.ingest.reports_in, copies * 1000u);
}

// ------------------------------------------------------------- stats

TEST_P(ClientApiTest, StatsAggregateIngestAndTranslation) {
  Client client = make_client(GetParam());
  for (std::uint32_t id = 0; id < 40; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(reports::mixed_key(id), id).ok());
    ASSERT_TRUE(client.counters().add(reports::mixed_key(id), 2).ok());
  }
  ASSERT_TRUE(client.list(1).append_u32(9).ok());
  ASSERT_TRUE(client.flush().ok());

  const auto stats = client.stats();
  const std::uint64_t copies =
      GetParam() == BackendKind::kCluster ? 2u : 1u;
  EXPECT_EQ(stats.ingest.reports_in, copies * 81u);
  EXPECT_EQ(stats.translation.keywrite_reports, copies * 40u);
  EXPECT_EQ(stats.translation.keywrite_writes, copies * 80u);  // N=2
  EXPECT_EQ(stats.translation.keyincrement_reports, copies * 40u);
  EXPECT_EQ(stats.translation.fetch_adds, copies * 80u);
  EXPECT_EQ(stats.translation.append_entries_in, copies * 1u);
  EXPECT_EQ(stats.num_hosts, copies);
  EXPECT_EQ(stats.live_hosts, copies);
  ASSERT_EQ(stats.per_host.size(), copies);
  EXPECT_EQ(stats.per_host[0].ingest.reports_in, 81u);
  EXPECT_FALSE(stats.per_host[0].failed);
  EXPECT_GT(client.modeled_verbs_per_sec(), 0.0);
}

// ------------------------------------------------- multi-tenant plane

TEST_P(ClientApiTest, TenantQuotaExhaustionIsTypedNotSilent) {
  Client client = make_client(GetParam());
  TenantConfig config;
  config.quota.submits_per_second = 1.0;  // refills ~nothing mid-test
  config.quota.submit_burst = 5;
  client.tenants().register_tenant(7, config);

  ReportOptions as7;
  as7.tenant = 7;
  auto table = client.keywrite();
  int admitted = 0, shed = 0;
  Status last_shed = Status::Ok();
  for (std::uint32_t id = 0; id < 20; ++id) {
    const Status status = table.put_u32(reports::u32_key(id), id, 2, as7);
    if (status.ok()) {
      ++admitted;
    } else {
      ++shed;
      last_shed = status;
    }
  }
  // The burst admits, the rest sheds with a typed, hinted Status.
  EXPECT_EQ(admitted, 5);
  EXPECT_EQ(shed, 15);
  EXPECT_EQ(last_shed.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(last_shed.retry_after_ns(), 0u);

  // Shedding is accounted, never silent.
  const auto counters = client.tenants().counters(7);
  EXPECT_EQ(counters.submits_admitted, 5u);
  EXPECT_EQ(counters.submits_shed, 15u);

  // Tenant 7's exhaustion never touches the default tenant.
  EXPECT_TRUE(table.put_u32(reports::u32_key(100), 1).ok());

  // Re-registering as unlimited (rate 0) replaces the quota: the old
  // bucket must not keep shedding.
  client.tenants().register_tenant(7, TenantConfig{});
  EXPECT_TRUE(table.put_u32(reports::u32_key(101), 1, 2, as7).ok());
}

TEST_P(ClientApiTest, TenantQueryQuotaShedsQueries) {
  Client client = make_client(GetParam());
  TenantConfig config;
  config.quota.queries_per_second = 1.0;
  config.quota.query_burst = 3;
  client.tenants().register_tenant(9, config);

  auto table = client.keywrite();
  ASSERT_TRUE(table.put_u32(reports::u32_key(1), 11).ok());
  ASSERT_TRUE(client.flush().ok());

  QueryOptions as9 = client.tenant_options(9);
  ASSERT_EQ(as9.tenant, 9u);
  int ok = 0, shed = 0;
  for (int i = 0; i < 10; ++i) {
    const auto value = table.get_u32(reports::u32_key(1), as9);
    if (value.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(value.code(), StatusCode::kResourceExhausted);
      EXPECT_GT(value.status().retry_after_ns(), 0u);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(shed, 7);
  EXPECT_EQ(client.tenants().counters(9).queries_shed, 7u);

  // The default tenant still queries freely.
  EXPECT_TRUE(table.get_u32(reports::u32_key(1)).ok());
}

TEST_P(ClientApiTest, TenantOptionsCarryRegisteredDefaults) {
  Client client = make_client(GetParam());
  TenantConfig config;
  config.query_defaults.redundancy = 1;
  config.query_defaults.read_your_submits = true;
  client.tenants().register_tenant(4, config);

  const QueryOptions opts = client.tenant_options(4);
  EXPECT_EQ(opts.tenant, 4u);
  EXPECT_EQ(opts.redundancy, 1u);
  EXPECT_TRUE(opts.read_your_submits);

  // Unregistered tenants get plain defaults, tenant stamped.
  const QueryOptions plain = client.tenant_options(12);
  EXPECT_EQ(plain.tenant, 12u);
  EXPECT_EQ(plain.redundancy, 2u);
  EXPECT_FALSE(plain.read_your_submits);
}

TEST_P(ClientApiTest, PerTenantStatsAttributeIngest) {
  Client client = make_client(GetParam());
  client.tenants().register_tenant(2, {});
  client.tenants().register_tenant(3, {});

  ReportOptions as2, as3;
  as2.tenant = 2;
  as3.tenant = 3;
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < 12; ++id) {
    ASSERT_TRUE(table.put_u32(reports::mixed_key(id), id, 2, as2).ok());
  }
  for (std::uint32_t id = 100; id < 105; ++id) {
    ASSERT_TRUE(table.put_u32(reports::mixed_key(id), id, 2, as3).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  const auto stats = client.stats();
  const std::uint64_t copies =
      GetParam() == BackendKind::kCluster ? 2u : 1u;
  auto row_of = [&](TenantId tenant) -> const TenantStatsRow* {
    for (const auto& row : stats.per_tenant) {
      if (row.tenant == tenant) return &row;
    }
    return nullptr;
  };
  const auto* row2 = row_of(2);
  const auto* row3 = row_of(3);
  ASSERT_NE(row2, nullptr);
  ASSERT_NE(row3, nullptr);
  EXPECT_EQ(row2->counters.submits_admitted, 12u);
  EXPECT_EQ(row2->ingest_reports, copies * 12u);
  EXPECT_EQ(row3->counters.submits_admitted, 5u);
  EXPECT_EQ(row3->ingest_reports, copies * 5u);
  // Rows come back sorted by tenant id.
  for (std::size_t i = 1; i < stats.per_tenant.size(); ++i) {
    EXPECT_LT(stats.per_tenant[i - 1].tenant, stats.per_tenant[i].tenant);
  }
}

// Two tenants submitting from concurrent threads (TSan target): the
// backend serializes submits internally, so neither ingest nor the
// tenant counters may race or lose reports.
TEST_P(ClientApiTest, TwoTenantsSubmitConcurrently) {
  Client client = make_client(GetParam(), collector::ThreadMode::kThreaded);
  client.tenants().register_tenant(2, {});
  client.tenants().register_tenant(3, {});

  constexpr std::uint32_t kPerTenant = 400;
  auto submit_as = [&client](TenantId tenant, std::uint32_t base) {
    ReportOptions opts;
    opts.tenant = tenant;
    auto table = client.keywrite();
    for (std::uint32_t i = 0; i < kPerTenant; ++i) {
      ASSERT_TRUE(
          table.put_u32(reports::mixed_key(base + i), i, 2, opts).ok());
    }
  };
  std::thread t2([&] { submit_as(2, 0); });
  std::thread t3([&] { submit_as(3, 1u << 20); });
  t2.join();
  t3.join();
  ASSERT_TRUE(client.flush().ok());
  client.stop();

  const auto stats = client.stats();
  const std::uint64_t copies =
      GetParam() == BackendKind::kCluster ? 2u : 1u;
  EXPECT_EQ(stats.ingest.reports_in, copies * 2u * kPerTenant);
  EXPECT_EQ(client.tenants().counters(2).submits_admitted, kPerTenant);
  EXPECT_EQ(client.tenants().counters(3).submits_admitted, kPerTenant);
}

// A registered quota whose rate is `per_second` in both directions
// over a bucket of `burst` tokens.
TenantConfig quota_config(double per_second, std::uint32_t burst) {
  TenantConfig config;
  config.quota.submits_per_second = per_second;
  config.quota.submit_burst = burst;
  config.quota.queries_per_second = per_second;
  config.quota.query_burst = burst;
  return config;
}

// Each registered tenant draws on a bucket of its own, and a tenant
// with no bucket is counted but never shed.
TEST(TenantRegistry, BucketedTenantsDrainIndependently) {
  TenantRegistry registry;
  registry.register_tenant(7, quota_config(1e9, 4));
  registry.register_tenant(8, quota_config(1e9, 4));

  // Tenant 7 drains its own bucket...
  EXPECT_TRUE(registry.admit_submit_at(7, 0, 4).ok());
  EXPECT_EQ(registry.admit_submit_at(7, 0, 1).code(),
            StatusCode::kResourceExhausted);
  // ...and neither tenant 8's submit bucket nor its own query bucket
  // lost a token.
  EXPECT_TRUE(registry.admit_submit_at(8, 0, 4).ok());
  EXPECT_TRUE(registry.admit_query_at(7, 0, 4).ok());
  EXPECT_EQ(registry.admit_query_at(8, 0, 5).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(registry.admit_query_at(8, 0, 4).ok());

  // Unregistered tenants, the default one included, have no bucket.
  for (TenantId tenant : {kDefaultTenant, TenantId{42}}) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(registry.admit_submit_at(tenant, 0, 1000).ok());
      EXPECT_TRUE(registry.admit_query_at(tenant, 0, 1000).ok());
    }
    const TenantCounters c = registry.counters(tenant);
    EXPECT_EQ(c.submits_admitted, 100'000u);
    EXPECT_EQ(c.queries_admitted, 100'000u);
    EXPECT_EQ(c.submits_shed + c.queries_shed, 0u);
  }

  const TenantCounters seven = registry.counters(7);
  EXPECT_EQ(seven.submits_admitted, 4u);
  EXPECT_EQ(seven.submits_shed, 1u);
  EXPECT_EQ(seven.queries_admitted, 4u);
  EXPECT_EQ(seven.queries_shed, 0u);
  const TenantCounters eight = registry.counters(8);
  EXPECT_EQ(eight.submits_admitted, 4u);
  EXPECT_EQ(eight.submits_shed, 0u);
  EXPECT_EQ(eight.queries_admitted, 4u);
  EXPECT_EQ(eight.queries_shed, 5u);
  EXPECT_EQ(registry.stats().size(), 4u);  // tenants 0, 7, 8 and 42
}

TEST(TenantRegistry, BucketRefillsAtItsTenantsRate) {
  TenantRegistry registry;
  registry.register_tenant(3, quota_config(1e9, 8));  // 1 token/ns
  registry.register_tenant(4, quota_config(1e6, 8));  // 1 token/us
  for (TenantId tenant : {3u, 4u}) {
    ASSERT_TRUE(registry.admit_submit_at(tenant, 0, 8).ok());
    ASSERT_FALSE(registry.admit_submit_at(tenant, 0, 1).ok());
  }
  // 4 ns later tenant 3 has four tokens back, tenant 4 none yet.
  EXPECT_TRUE(registry.admit_submit_at(3, 4, 4).ok());
  EXPECT_FALSE(registry.admit_submit_at(3, 4, 1).ok());
  EXPECT_FALSE(registry.admit_submit_at(4, 4, 1).ok());
  // 4 us later tenant 4 has about four back, and tenant 3 is full
  // again.
  EXPECT_TRUE(registry.admit_submit_at(4, 4000, 3).ok());
  EXPECT_FALSE(registry.admit_submit_at(4, 4000, 2).ok());
  EXPECT_TRUE(registry.admit_submit_at(3, 4000, 8).ok());
}

TEST(TenantRegistry, ShedCarriesRefillHorizonAsRetryAfter) {
  TenantRegistry registry;
  registry.register_tenant(5, quota_config(1e9, 10));  // 1 token/ns
  registry.register_tenant(6, quota_config(1e6, 10));  // 1 token/us
  ASSERT_TRUE(registry.admit_submit_at(5, 0, 10).ok());
  ASSERT_TRUE(registry.admit_query_at(6, 0, 10).ok());

  const Status submit = registry.admit_submit_at(5, 0, 3);
  EXPECT_EQ(submit.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(submit.retry_after_ns(), 3u);
  // Wider than the bucket: the full-bucket horizon, not a promise.
  EXPECT_EQ(registry.admit_submit_at(5, 0, 64).retry_after_ns(), 10u);
  // Refill since the last admission shortens the horizon.
  EXPECT_EQ(registry.admit_submit_at(5, 1, 3).retry_after_ns(), 2u);

  const Status query = registry.admit_query_at(6, 0, 3);
  EXPECT_EQ(query.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(query.retry_after_ns(), 3000u);
  EXPECT_EQ(registry.counters(5).submits_shed, 3u + 3u + 64u);
  EXPECT_EQ(registry.counters(6).queries_shed, 3u);
}

TEST(TenantRegistry, ReRegistrationRestartsWithAFullBucket) {
  TenantRegistry registry;
  registry.register_tenant(9, quota_config(1.0, 4));  // 1 token/s
  ASSERT_TRUE(registry.admit_submit_at(9, 0, 4).ok());
  ASSERT_TRUE(registry.admit_query_at(9, 0, 4).ok());
  ASSERT_FALSE(registry.admit_submit_at(9, 0, 1).ok());
  ASSERT_FALSE(registry.admit_query_at(9, 0, 1).ok());

  registry.register_tenant(9, quota_config(1.0, 4));
  EXPECT_TRUE(registry.admit_submit_at(9, 0, 4).ok());
  EXPECT_TRUE(registry.admit_query_at(9, 0, 4).ok());
  EXPECT_FALSE(registry.admit_submit_at(9, 0, 1).ok());
  // The tallies carry over the re-registration.
  const TenantCounters c = registry.counters(9);
  EXPECT_EQ(c.submits_admitted, 8u);
  EXPECT_EQ(c.submits_shed, 2u);
  EXPECT_EQ(c.queries_admitted, 8u);
  EXPECT_EQ(c.queries_shed, 1u);
}

// Submit-side and query-side admission take separate locks (TSan
// target): one thread admits submits while another admits queries for
// the same tenant, with quotas installed on both sides, and a third
// reads the merged counters meanwhile. Every attempt is counted once,
// as admitted or shed, in its own direction.
TEST(TenantRegistry, SubmitAndQueryAdmissionRunConcurrently) {
  TenantRegistry registry;
  constexpr TenantId kTenant = 5;
  TenantConfig config;
  config.quota.submits_per_second = 2000.0;
  config.quota.submit_burst = 32;
  config.quota.queries_per_second = 1000.0;
  config.quota.query_burst = 16;
  registry.register_tenant(kTenant, config);

  constexpr std::uint64_t kAttempts = 20000;
  struct Outcome {
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
  };
  auto drive = [&registry](bool submit) {
    Outcome out;
    for (std::uint64_t i = 0; i < kAttempts; ++i) {
      const Status status = submit ? registry.admit_submit(kTenant)
                                   : registry.admit_query(kTenant);
      if (status.ok()) {
        ++out.admitted;
      } else {
        EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
        ++out.shed;
      }
    }
    return out;
  };
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const TenantCounters c = registry.counters(kTenant);
      EXPECT_LE(c.submits_admitted + c.submits_shed, kAttempts);
      EXPECT_LE(c.queries_admitted + c.queries_shed, kAttempts);
      EXPECT_FALSE(registry.stats().empty());
    }
  });
  auto submits = std::async(std::launch::async, drive, true);
  auto queries = std::async(std::launch::async, drive, false);
  const Outcome submit = submits.get();
  const Outcome query = queries.get();
  done.store(true);
  reader.join();

  EXPECT_EQ(submit.admitted + submit.shed, kAttempts);
  EXPECT_EQ(query.admitted + query.shed, kAttempts);
  // Both buckets were small enough to shed.
  EXPECT_GT(submit.shed, 0u);
  EXPECT_GT(query.shed, 0u);

  const TenantCounters counters = registry.counters(kTenant);
  EXPECT_EQ(counters.submits_admitted, submit.admitted);
  EXPECT_EQ(counters.submits_shed, submit.shed);
  EXPECT_EQ(counters.queries_admitted, query.admitted);
  EXPECT_EQ(counters.queries_shed, query.shed);

  const auto rows = registry.stats();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tenant, kTenant);
  EXPECT_EQ(rows[0].counters.submits_admitted, counters.submits_admitted);
  EXPECT_EQ(rows[0].counters.submits_shed, counters.submits_shed);
  EXPECT_EQ(rows[0].counters.queries_admitted, counters.queries_admitted);
  EXPECT_EQ(rows[0].counters.queries_shed, counters.queries_shed);
}

INSTANTIATE_TEST_SUITE_P(Backends, ClientApiTest,
                         ::testing::Values(BackendKind::kLocal,
                                           BackendKind::kCluster),
                         [](const ::testing::TestParamInfo<BackendKind>& info) {
                           return kind_name(info.param);
                         });

}  // namespace
}  // namespace dta
