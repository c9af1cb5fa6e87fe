// Backend-conformance kit: every dta::Client scenario holds over all
// four Backend kinds — Local (Client::local's one-host ClusterBackend,
// direct execution), Cluster (replicated hosts), Fabric (the real
// UDP/translator/RoCE wire loop) and Replay (recording decorator) —
// and the record/replay
// differential: a trace recorded from any backend replays into a fresh
// backend with identical client-visible results, and two replays of the
// same trace produce byte-identical store state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "collector/shard_index.h"
#include "dta/report_builders.h"
#include "tests/backend_fixtures.h"

namespace dta {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;
using testing::BackendKind;
using testing::conformance_host_config;
using testing::conformance_probes;
using testing::conformance_workload;
using testing::images_equal;
using testing::ingest_copies;
using testing::kind_name;
using testing::make_backend;
using testing::make_client;
using testing::observe;
using testing::ObservedResults;
using testing::store_images;

class BackendConformanceTest : public ::testing::TestWithParam<BackendKind> {};

// ------------------------------------------------------ Key-Write

TEST_P(BackendConformanceTest, KeyWriteRoundTrip) {
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

  const auto miss = table.get(reports::mixed_key(999999));
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.code(), StatusCode::kNotFound);
}

TEST_P(BackendConformanceTest, KeyWriteRawBytesRoundTrip) {
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

TEST_P(BackendConformanceTest, KeyWriteValueBeyondWireLengthRejected) {
  // A store wide enough for 300-byte values: a value still meets the
  // wire's one-byte length first, on every backend (the Fabric would
  // otherwise wrap a 300-byte length to 44 and store another value).
  collector::CollectorRuntimeConfig config =
      testing::conformance_host_config();
  config.keywrite->value_bytes = 300;
  Client client(make_backend(GetParam(), config));
  auto table = client.keywrite();
  Bytes widest(proto::kKeyWriteMaxValueBytes);
  for (std::size_t i = 0; i < widest.size(); ++i) {
    widest[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  ASSERT_TRUE(table.put(reports::u32_key(1), ByteSpan(widest)).ok());
  const Bytes one_past(proto::kKeyWriteMaxValueBytes + 1, 0x5A);
  EXPECT_EQ(table.put(reports::u32_key(2), ByteSpan(one_past)).code(),
            StatusCode::kOutOfRange);
  const Bytes slot_wide(300, 0x5A);
  EXPECT_EQ(table.put(reports::u32_key(3), ByteSpan(slot_wide)).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(client.flush().ok());

  const auto got = table.get(reports::u32_key(1));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 300u);
  EXPECT_TRUE(std::equal(widest.begin(), widest.end(), got->begin()));
  EXPECT_TRUE(std::all_of(got->begin() + widest.size(), got->end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(table.get(reports::u32_key(2)).code(), StatusCode::kNotFound);
  EXPECT_EQ(table.get(reports::u32_key(3)).code(), StatusCode::kNotFound);
}

TEST_P(BackendConformanceTest, GetManyResolvesBatchInInputOrder) {
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

TEST_P(BackendConformanceTest, ZeroCopyViewsMatchCopiesAndOutliveRefresh) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < 300; ++id) {
    ASSERT_TRUE(table.put_u32(reports::mixed_key(id), id * 11 + 1).ok());
  }
  ASSERT_TRUE(client.flush().ok());

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

  // A held view pins its snapshot across an overwrite + refresh.
  const auto held = table.get_view(reports::mixed_key(5));
  ASSERT_TRUE(held.ok());
  const std::uint32_t before = common::load_u32(held->data());
  ASSERT_TRUE(table.put_u32(reports::mixed_key(5), 0xFEED).ok());
  ASSERT_TRUE(client.flush().ok());
  const auto after = table.get_view(reports::mixed_key(5));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(common::load_u32(after->data()), 0xFEEDu);
  EXPECT_EQ(common::load_u32(held->data()), before);
  const Bytes detached = held->to_bytes();
  EXPECT_EQ(common::load_u32(detached.data()), before);

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

TEST_P(BackendConformanceTest, RedundancyBeyondEngineCountRejected) {
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
  QueryOptions eight;
  eight.redundancy = 8;
  const auto got = table.get_u32(reports::u32_key(1), eight);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 1u);
}

// ------------------------------------------ batch gets (differential)

// Every batch read of `keys` equals per-key get, entry for entry: the
// same value, and nullopt exactly where get is not ok.
void expect_batch_gets_equal_gets(Client& client,
                                  const std::vector<TelemetryKey>& keys) {
  auto table = client.keywrite();
  const auto many = table.get_many(keys);
  const auto views = table.get_many_views(keys);
  ASSERT_TRUE(many.ok()) << many.status().to_string();
  ASSERT_TRUE(views.ok()) << views.status().to_string();
  ASSERT_EQ(many->size(), keys.size());
  ASSERT_EQ(views->size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto one = table.get(keys[i]);
    std::optional<Bytes> want;
    if (one.ok()) want = *one;
    std::optional<Bytes> viewed;
    if ((*views)[i]) viewed = (*views)[i]->to_bytes();
    EXPECT_TRUE((*many)[i] == want) << "get_many entry " << i;
    EXPECT_TRUE(viewed == want) << "get_many_views entry " << i;
  }
}

// A store small enough to collide: 256 slots (the Fabric's whole store;
// a runtime shard keeps at least 1024) and 4-bit checksums, so
// kCollidingWrites keys make some reads kNotFound and some kConflict.
constexpr std::uint32_t kCollidingWrites = 3000;

collector::CollectorRuntimeConfig colliding_config() {
  collector::CollectorRuntimeConfig config = conformance_host_config();
  config.keywrite->num_slots = 256;
  config.keywrite->checksum_bits = 4;
  return config;
}

// Writes kCollidingWrites keys, then returns the batches to compare:
// every size around the resolver's 16-key groups, each cycling through
// keys that read a value, kNotFound and kConflict, keys never written,
// and repeats of earlier keys.
std::vector<std::vector<TelemetryKey>> colliding_batches(Client& client) {
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < kCollidingWrites; ++id) {
    EXPECT_TRUE(table.put_u32(reports::mixed_key(id), id * 2654435761u).ok());
  }
  EXPECT_TRUE(client.flush().ok());
  std::vector<TelemetryKey> hits;
  std::vector<TelemetryKey> not_found;
  std::vector<TelemetryKey> conflicts;
  for (std::uint32_t id = 0; id < kCollidingWrites; ++id) {
    const TelemetryKey key = reports::mixed_key(id);
    switch (table.get(key).code()) {
      case StatusCode::kOk: hits.push_back(key); break;
      case StatusCode::kNotFound: not_found.push_back(key); break;
      case StatusCode::kConflict: conflicts.push_back(key); break;
      default: ADD_FAILURE() << "unexpected get status"; break;
    }
  }
  EXPECT_FALSE(hits.empty());
  EXPECT_FALSE(not_found.empty());
  EXPECT_FALSE(conflicts.empty());
  if (hits.empty() || not_found.empty() || conflicts.empty()) return {};

  std::vector<std::vector<TelemetryKey>> batches;
  for (const std::size_t size : {0, 1, 15, 16, 17, 33, 64}) {
    std::vector<TelemetryKey> keys;
    for (std::size_t i = 0; i < size; ++i) {
      if (i % 7 == 6) {
        keys.push_back(keys[i / 2]);
        continue;
      }
      switch (i % 5) {
        case 0:
        case 1: keys.push_back(hits[(i * 31 + size) % hits.size()]); break;
        case 2: keys.push_back(not_found[i % not_found.size()]); break;
        case 3: keys.push_back(conflicts[i % conflicts.size()]); break;
        default: keys.push_back(reports::mixed_key(1000000 + i)); break;
      }
    }
    batches.push_back(std::move(keys));
  }
  return batches;
}

TEST_P(BackendConformanceTest, BatchGetsEqualPerKeyGets) {
  Client client(make_backend(GetParam(), colliding_config()));
  for (const auto& keys : colliding_batches(client)) {
    SCOPED_TRACE("batch of " + std::to_string(keys.size()));
    expect_batch_gets_equal_gets(client, keys);
  }
}

TEST(BackendDifferentialTest, BatchGetsEqualPerKeyGetsOverAFailedReplica) {
  // Three kReplicate hosts, host 1 failed: every key resolves over the
  // two survivors' snapshots, batch and per-key alike.
  Client client(std::make_unique<ClusterBackend>(ClusterRuntimeConfig{
      colliding_config(), 3, translator::PartitionPolicy::kReplicate}));
  const auto batches = colliding_batches(client);
  ASSERT_TRUE(client.fail_host(1).ok());
  for (const auto& keys : batches) {
    SCOPED_TRACE("batch of " + std::to_string(keys.size()));
    expect_batch_gets_equal_gets(client, keys);
  }
}

// --------------------------------------------------- Key-Increment

TEST_P(BackendConformanceTest, CounterRoundTrip) {
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
}

// ---------------------------------------------------------- Append

TEST_P(BackendConformanceTest, AppendRoundTrip) {
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
  EXPECT_EQ(events->next.position, 6u);
  EXPECT_EQ(events->remaining, 0u);
}

// ----------------------------------------------------- Postcarding

TEST_P(BackendConformanceTest, PostcardRoundTrip) {
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

TEST_P(BackendConformanceTest, ErrorModelDistinctCodes) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  ASSERT_TRUE(table.put_u32(reports::u32_key(1), 11).ok());
  ASSERT_TRUE(client.flush().ok());

  EXPECT_EQ(table.put_u32(TelemetryKey{}, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.get(TelemetryKey{}).code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(table.put_u32(reports::u32_key(2), 1, /*redundancy=*/0).code(),
            StatusCode::kInvalidArgument);
  QueryOptions zero_votes;
  zero_votes.redundancy = 0;
  EXPECT_EQ(table.get(reports::u32_key(1), zero_votes).code(),
            StatusCode::kInvalidArgument);

  Bytes wide(64, 0xAB);
  EXPECT_EQ(table.put(reports::u32_key(3), ByteSpan(wide)).code(),
            StatusCode::kOutOfRange);

  const std::uint32_t bogus_list = 1000;
  EXPECT_EQ(client.list(bogus_list).append_u32(1).code(),
            StatusCode::kUnknownList);
  EXPECT_EQ(client.events(bogus_list).max(1).run().code(),
            StatusCode::kUnknownList);

  Bytes wrong_entry(8, 1);
  EXPECT_EQ(client.list(0).append(ByteSpan(wrong_entry)).code(),
            StatusCode::kOutOfRange);

  Bytes huge_entry(260, 2);
  EXPECT_EQ(client.list(0).append(ByteSpan(huge_entry)).code(),
            StatusCode::kOutOfRange);

  // The wire carries a packed Append's entry count in one byte: 256
  // entries must be rejected, not wrapped to 0 on the Fabric.
  proto::AppendReport packed;
  packed.list_id = 0;
  packed.entries.assign(256, Bytes(4, 3));
  EXPECT_EQ(client.report(packed).code(), StatusCode::kOutOfRange);

  // The event query's kOutOfRange is a cursor past the head.
  EXPECT_EQ(client.events(0).since(1u << 30).run().code(),
            StatusCode::kOutOfRange);

  QueryOptions future_floor;
  future_floor.covers_seq = 1u << 30;
  EXPECT_EQ(table.get(reports::u32_key(1), future_floor).code(),
            StatusCode::kStalenessViolation);

  EXPECT_EQ(client.postcards()
                .report(reports::u32_key(1), /*hop=*/9, /*path_len=*/5, 1)
                .code(),
            StatusCode::kOutOfRange);

  // Keys must be canonical: at most 16 bytes (the CRC would otherwise
  // read past the key's array), and zero past their length (equality
  // and the index order would otherwise disagree about the key).
  TelemetryKey too_long = reports::u32_key(4);
  too_long.length = 200;
  TelemetryKey dirty_pad = reports::u32_key(5);
  dirty_pad.bytes[9] = 0x5A;
  EXPECT_EQ(table.put_u32(too_long, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(table.put_u32(dirty_pad, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.counters().add(too_long, 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(client.postcards().report(dirty_pad, 0, 1, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.get(too_long).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(table.get(dirty_pad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.get_many({reports::u32_key(1), too_long}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(client.counters().get(dirty_pad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.range(table).from(too_long).run().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(client.range(table).to(dirty_pad).run().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.range(client.counters()).after({too_long}).run().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(client.range(table).after({dirty_pad}).run().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(BackendConformanceTest, NotConfiguredPrimitivesReportCleanly) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = 2;
  config.thread_mode = collector::ThreadMode::kInline;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 12;
  kw.value_bytes = 4;
  config.keywrite = kw;
  Client client(make_backend(GetParam(), config));

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
  EXPECT_TRUE(client.keywrite().put_u32(reports::u32_key(1), 5).ok());
}

// -------------------------------------------------- failover paths

TEST_P(BackendConformanceTest, FailoverAndUnavailability) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  for (std::uint32_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(table.put_u32(reports::mixed_key(id), id + 5).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  if (GetParam() == BackendKind::kFabric) {
    // A Fabric is one wire-path collector with no host to fail — typed,
    // not UB.
    EXPECT_EQ(client.fail_host(0).code(), StatusCode::kUnsupported);
    return;
  }
  if (GetParam() != BackendKind::kCluster) {
    // One host (Local, and Replay over it): with it dead nothing is
    // left to answer — kUnavailable for point, batch and event queries.
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

  ASSERT_TRUE(client.fail_host(0).ok());
  int hits = 0;
  for (std::uint32_t id = 0; id < 100; ++id) {
    const auto value = table.get_u32(reports::mixed_key(id));
    if (value.ok() && *value == id + 5) ++hits;
  }
  EXPECT_EQ(hits, 100);
  EXPECT_EQ(client.stats().live_hosts, 1u);

  ASSERT_TRUE(client.fail_host(1).ok());
  const auto dead = table.get(reports::mixed_key(1));
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.code(), StatusCode::kUnavailable);
}

// -------------------------------------------- staleness-budget path

TEST_P(BackendConformanceTest, StalenessBudgetServesStaleAndFloorOverrides) {
  Client client = make_client(GetParam());
  auto table = client.keywrite();
  ASSERT_TRUE(table.put_u32(reports::u32_key(1), 11).ok());
  ASSERT_TRUE(client.flush().ok());
  ASSERT_TRUE(table.get_u32(reports::u32_key(1)).ok());  // warm the cache

  ASSERT_TRUE(table.put_u32(reports::u32_key(2), 22).ok());
  ASSERT_TRUE(client.flush().ok());
  QueryOptions stale;
  stale.staleness = collector::SnapshotStalenessBudget{};
  stale.staleness->generations = 1u << 20;
  const auto stale_read = table.get_u32(reports::u32_key(2), stale);
  if (stale_read.ok()) {
    EXPECT_EQ(*stale_read, 22u);  // a fresh backend may not serve stale
  } else {
    EXPECT_EQ(stale_read.code(), StatusCode::kNotFound);
  }

  QueryOptions fresh = stale;
  fresh.read_your_submits = true;
  const auto fresh_read = table.get_u32(reports::u32_key(2), fresh);
  ASSERT_TRUE(fresh_read.ok()) << fresh_read.status().to_string();
  EXPECT_EQ(*fresh_read, 22u);

  const auto exact = table.get_u32(reports::u32_key(2));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, 22u);
}

// ------------------------------------------- concurrency (TSan target)

TEST_P(BackendConformanceTest, QueriesRunConcurrentlyWithIngest) {
  Client client = make_client(GetParam(), collector::ThreadMode::kThreaded);
  auto table = client.keywrite();
  std::vector<Expected<common::Bytes>> results;
  std::uint32_t next_id = 0;
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (std::uint32_t i = 0; i < 50; ++i, ++next_id) {
      ASSERT_TRUE(
          table.put_u32(reports::mixed_key(next_id), next_id * 7 + 1).ok());
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
  EXPECT_EQ(client.stats().ingest.reports_in,
            ingest_copies(GetParam()) * 1000u);
}

// Concurrent submitters + queriers against the wire-fidelity backend
// (the Fabric object itself is synchronous; the backend's mutex must
// make it safe), and record-while-serving on the replay decorator.
TEST_P(BackendConformanceTest, ConcurrentSubmitAndQueryStress) {
  Client client = make_client(GetParam(), collector::ThreadMode::kThreaded);
  client.tenants().register_tenant(2, {});
  client.tenants().register_tenant(3, {});

  constexpr std::uint32_t kPerTenant = 200;
  auto submit_as = [&client](TenantId tenant, std::uint32_t base) {
    ReportOptions opts;
    opts.tenant = tenant;
    auto table = client.keywrite();
    for (std::uint32_t i = 0; i < kPerTenant; ++i) {
      ASSERT_TRUE(
          table.put_u32(reports::mixed_key(base + i), i + 1, 2, opts).ok());
    }
  };
  std::atomic<bool> done{false};
  std::thread querier([&] {
    auto table = client.keywrite();
    while (!done.load(std::memory_order_relaxed)) {
      (void)table.get_u32(reports::mixed_key(0));
    }
  });
  std::thread t2([&] { submit_as(2, 0); });
  std::thread t3([&] { submit_as(3, 1u << 20); });
  t2.join();
  t3.join();
  done.store(true, std::memory_order_relaxed);
  querier.join();
  ASSERT_TRUE(client.flush().ok());
  client.stop();

  EXPECT_EQ(client.stats().ingest.reports_in,
            ingest_copies(GetParam()) * 2u * kPerTenant);
  EXPECT_EQ(client.tenants().counters(2).submits_admitted, kPerTenant);
  EXPECT_EQ(client.tenants().counters(3).submits_admitted, kPerTenant);

  // Record-while-serving: everything both tenants submitted is in the
  // trace when the backend is a recorder.
  if (auto* replay = dynamic_cast<ReplayBackend*>(&client.backend())) {
    EXPECT_EQ(replay->recorded(), 2u * kPerTenant);
  }
}

// ------------------------------------------------------------- stats

TEST_P(BackendConformanceTest, StatsAggregateIngestAndTranslation) {
  Client client = make_client(GetParam());
  for (std::uint32_t id = 0; id < 40; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(reports::mixed_key(id), id).ok());
    ASSERT_TRUE(client.counters().add(reports::mixed_key(id), 2).ok());
  }
  ASSERT_TRUE(client.list(1).append_u32(9).ok());
  ASSERT_TRUE(client.flush().ok());

  const auto stats = client.stats();
  const std::uint64_t copies = ingest_copies(GetParam());
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

TEST_P(BackendConformanceTest, TenantQuotaExhaustionIsTypedNotSilent) {
  Client client = make_client(GetParam());
  TenantConfig config;
  config.quota.submits_per_second = 1.0;
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
  EXPECT_EQ(admitted, 5);
  EXPECT_EQ(shed, 15);
  EXPECT_EQ(last_shed.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(last_shed.retry_after_ns(), 0u);
  EXPECT_EQ(client.tenants().counters(7).submits_admitted, 5u);
  EXPECT_EQ(client.tenants().counters(7).submits_shed, 15u);
  EXPECT_TRUE(table.put_u32(reports::u32_key(100), 1).ok());

  // A recorder records only the admitted stream: the 15 shed submits
  // must not be in the trace.
  if (auto* replay = dynamic_cast<ReplayBackend*>(&client.backend())) {
    EXPECT_EQ(replay->recorded(), 6u);
  }
}

TEST_P(BackendConformanceTest, PerTenantStatsAttributeIngest) {
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
  const std::uint64_t copies = ingest_copies(GetParam());
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
  for (std::size_t i = 1; i < stats.per_tenant.size(); ++i) {
    EXPECT_LT(stats.per_tenant[i - 1].tenant, stats.per_tenant[i].tenant);
  }
}

// =================================================== record / replay

// Helper: run the standard workload through `backend` (recording if it
// is a recorder), rotating tenants 0/1/2.
void submit_workload(Backend& backend,
                     const std::vector<proto::ParsedDta>& workload) {
  for (std::size_t i = 0; i < workload.size(); ++i) {
    ReportOptions opts;
    opts.tenant = static_cast<TenantId>(i % 3);
    ASSERT_TRUE(backend.submit(workload[i], opts).ok());
  }
  ASSERT_TRUE(backend.flush().ok());
}

// A trace recorded over any backend kind replays into a fresh backend
// of the same kind with identical client-visible query results.
TEST_P(BackendConformanceTest, ReplayReproducesIdenticalQueryResults) {
  const auto workload = conformance_workload(600);
  const auto probes = conformance_probes();

  auto recorder = std::make_unique<ReplayBackend>(
      make_backend(GetParam(), conformance_host_config()));
  submit_workload(*recorder, workload);
  const auto records = recorder->records();
  ASSERT_EQ(records.size(), workload.size());

  Client recorded_client(std::move(recorder));
  const auto recorded_results = observe(recorded_client, probes, 8, 32);

  Client fresh_client(make_backend(GetParam(), conformance_host_config()));
  ASSERT_TRUE(
      ReplayBackend::replay(records, fresh_client.backend()).ok());
  const auto replayed_results = observe(fresh_client, probes, 8, 32);

  EXPECT_TRUE(recorded_results == replayed_results)
      << "replay diverged on " << kind_name(GetParam());
}

// The cross-backend differential: with single-shard geometry (so every
// backend computes the same slot layout), one recorded trace replayed
// through Local, Cluster, Fabric and Replay yields identical
// client-visible results on all four.
TEST(BackendDifferentialTest, OneTraceIdenticalResultsAcrossAllBackends) {
  const auto config =
      conformance_host_config(collector::ThreadMode::kInline, 1);
  const auto workload = conformance_workload(600);
  const auto probes = conformance_probes();

  ReplayBackend recorder(testing::make_local_backend(config));
  submit_workload(recorder, workload);
  // Serialize + decode round-trip: the replayed records are the ones
  // that went through the wire format, not the in-memory ones.
  const auto decoded =
      telemetry::decode_trace(common::ByteSpan(recorder.serialize_trace()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded.value().size(), workload.size());

  std::vector<ObservedResults> all;
  for (BackendKind kind : testing::all_backend_kinds()) {
    Client client(make_backend(kind, config));
    ASSERT_TRUE(
        ReplayBackend::replay(decoded.value(), client.backend()).ok())
        << kind_name(kind);
    all.push_back(observe(client, probes, 8, 32));
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(all[0] == all[i])
        << kind_name(testing::all_backend_kinds()[i])
        << " diverged from Local";
  }
}

// Determinism: two replays of the same trace produce byte-identical
// store state — every registered region memcmp-equal — on every
// backend kind.
TEST_P(BackendConformanceTest, ReplayDeterminismByteIdenticalStores) {
  const auto config = conformance_host_config();
  const auto workload = conformance_workload(400);

  ReplayBackend recorder(testing::make_local_backend(config));
  submit_workload(recorder, workload);
  const auto records = recorder.records();

  auto first = make_backend(GetParam(), config);
  auto second = make_backend(GetParam(), config);
  ASSERT_TRUE(ReplayBackend::replay(records, *first).ok());
  ASSERT_TRUE(ReplayBackend::replay(records, *second).ok());
  EXPECT_TRUE(images_equal(store_images(*first), store_images(*second)))
      << "two replays diverged on " << kind_name(GetParam());
}

// The wire path computes the same bytes as direct execution: a trace
// replayed through the Fabric leaves the single-shard stores
// byte-identical to the Local backend's, with Append entries written
// one by one (batch size 1) and packed into batched WRITEs (16, the
// default).
TEST(BackendDifferentialTest, WireAndDirectStoresByteIdentical) {
  const auto workload = conformance_workload(400);
  for (const std::uint32_t append_batch : {1u, 16u}) {
    SCOPED_TRACE("append_batch_size " + std::to_string(append_batch));
    auto config = conformance_host_config(collector::ThreadMode::kInline, 1);
    config.append_batch_size = append_batch;

    ReplayBackend recorder(testing::make_local_backend(config));
    submit_workload(recorder, workload);
    const auto records = recorder.records();

    auto local = make_backend(BackendKind::kLocal, config);
    auto fabric = make_backend(BackendKind::kFabric, config);
    ASSERT_TRUE(ReplayBackend::replay(records, *local).ok());
    ASSERT_TRUE(ReplayBackend::replay(records, *fabric).ok());
    EXPECT_TRUE(images_equal(store_images(*local), store_images(*fabric)));
  }
}

// The wire path per host: each host of a 2-host, 1-shard ClusterBackend
// holds byte-identical stores to a FabricBackend fed exactly the reports
// the cluster's selector routes to that host, with Append list ids
// folded to the host-local space first as ClusterRuntime::submit folds
// them. Under kByKeyHash each host gets its partition; under kReplicate
// both get everything.
TEST(BackendDifferentialTest, ClusterHostsMatchPerHostWireFabrics) {
  const auto config =
      conformance_host_config(collector::ThreadMode::kInline, 1);
  const auto workload = conformance_workload(400);
  for (const auto policy : {translator::PartitionPolicy::kByKeyHash,
                            translator::PartitionPolicy::kReplicate}) {
    SCOPED_TRACE(policy == translator::PartitionPolicy::kByKeyHash
                     ? "kByKeyHash"
                     : "kReplicate");
    ClusterBackend cluster(ClusterRuntimeConfig{config, 2, policy});
    submit_workload(cluster, workload);

    const translator::CollectorSelector& selector =
        cluster.cluster().selector();
    std::vector<std::unique_ptr<FabricBackend>> wires;
    for (std::uint32_t h = 0; h < 2; ++h) {
      wires.push_back(std::make_unique<FabricBackend>(config));
    }
    for (proto::ParsedDta parsed : workload) {
      const translator::HostRange hosts = selector.route(parsed.report, 0);
      if (auto* ap = std::get_if<proto::AppendReport>(&parsed.report)) {
        ap->list_id = selector.host_local_list(ap->list_id);
      }
      for (std::uint32_t h = hosts.first; h < hosts.first + hosts.count; ++h) {
        ASSERT_TRUE(wires[h]->submit(parsed, ReportOptions{}).ok());
      }
    }

    // One shard per host: the cluster's image is host 0's regions, then
    // host 1's.
    const auto images = store_images(cluster);
    const std::size_t per_host = images.size() / 2;
    for (std::uint32_t h = 0; h < 2; ++h) {
      const std::vector<Bytes> host_image(images.begin() + h * per_host,
                                          images.begin() + (h + 1) * per_host);
      EXPECT_TRUE(images_equal(host_image, store_images(*wires[h])))
          << "host " << h;
    }
  }
}

// Event heads are the Append engine's emitted counts on every
// transport. With Append batching at 16, each list first gets a partial
// batch and a flush, then enough entries to reach its ring end
// mid-batch (and to wrap lists 6 and 7), then another flush. After
// each flush, events() reads the same entries, positions, drops and
// heads on Local (2 shards), Cluster (2 hosts x 2 shards) and Fabric.
TEST(BackendDifferentialTest, BatchedAppendEventsAgreeAcrossBackends) {
  struct Read {
    std::vector<Bytes> entries;
    std::uint64_t position = 0;
    std::uint64_t dropped = 0;
    std::uint64_t remaining = 0;
    bool operator==(const Read& o) const {
      return entries == o.entries && position == o.position &&
             dropped == o.dropped && remaining == o.remaining;
    }
  };
  auto config = conformance_host_config(collector::ThreadMode::kInline, 2);
  config.append_batch_size = 16;
  constexpr std::uint32_t kLists = 8;
  const BackendKind kinds[] = {BackendKind::kLocal, BackendKind::kCluster,
                               BackendKind::kFabric};
  std::vector<std::vector<Read>> reads;
  for (const BackendKind kind : kinds) {
    SCOPED_TRACE(kind_name(kind));
    Client client(make_backend(kind, config));
    std::vector<Read> mine;
    std::vector<std::uint64_t> heads(kLists, 0);
    std::uint32_t value = 0;
    for (std::uint32_t round = 0; round < 2; ++round) {
      for (std::uint32_t list = 0; list < kLists; ++list) {
        const std::uint32_t n = round == 0 ? 5 + 3 * list : 7 + 41 * list;
        auto handle = client.list(list);
        for (std::uint32_t i = 0; i < n; ++i) {
          ASSERT_TRUE(handle.append_u32(value++).ok());
        }
        heads[list] += n;
      }
      ASSERT_TRUE(client.flush().ok());
      for (std::uint32_t list = 0; list < kLists; ++list) {
        for (const std::uint64_t max : {7u, 1024u}) {
          const auto batch = client.events(list).max(max).run();
          ASSERT_TRUE(batch.ok()) << batch.status().to_string();
          mine.push_back({batch->entries, batch->next.position,
                          batch->dropped, batch->remaining});
          EXPECT_EQ(batch->next.position + batch->remaining, heads[list])
              << "list " << list << " round " << round;
        }
      }
    }
    reads.push_back(std::move(mine));
  }
  for (std::size_t k = 1; k < reads.size(); ++k) {
    EXPECT_TRUE(reads[k] == reads[0])
        << kind_name(kinds[k]) << " diverged from Local";
  }
}

// ================================================ indexed range queries

// Ground-truth key catalog per primitive, extracted from the workload
// itself: these are exactly the keys the index must contain, so a
// sorted point-get sweep over them is the scan-path reference the
// indexed range has to match byte-for-byte.
std::vector<TelemetryKey> reported_keys(
    const std::vector<proto::ParsedDta>& workload, bool keywrite) {
  std::vector<TelemetryKey> keys;
  for (const auto& parsed : workload) {
    if (keywrite) {
      if (const auto* kw =
              std::get_if<proto::KeyWriteReport>(&parsed.report)) {
        keys.push_back(kw->key);
      }
    } else if (const auto* ki =
                   std::get_if<proto::KeyIncrementReport>(&parsed.report)) {
      keys.push_back(ki->key);
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const TelemetryKey& a, const TelemetryKey& b) {
              return collector::index_key_less(a, b);
            });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<RangeEntry> scan_keywrite(
    Client& client, const std::vector<TelemetryKey>& catalog) {
  std::vector<RangeEntry> out;
  auto table = client.keywrite();
  for (const auto& key : catalog) {
    auto value = table.get(key);
    if (value.ok()) out.push_back({key, std::move(*value)});
  }
  return out;
}

std::vector<CounterRangeEntry> scan_counters(
    Client& client, const std::vector<TelemetryKey>& catalog) {
  std::vector<CounterRangeEntry> out;
  auto counters = client.counters();
  for (const auto& key : catalog) {
    const auto estimate = counters.get(key);
    if (estimate.ok()) out.push_back({key, *estimate});
  }
  return out;
}

// The core differential: unbounded indexed ranges over both indexed
// primitives equal the scan sweep exactly — same keys, same bytes, same
// estimates.
void expect_indexed_equals_scan(Client& client,
                                const std::vector<proto::ParsedDta>& workload,
                                const char* label) {
  const auto kw_catalog = reported_keys(workload, /*keywrite=*/true);
  const auto kw_expected = scan_keywrite(client, kw_catalog);
  ASSERT_GT(kw_expected.size(), 50u) << label;
  const auto kw_indexed = client.range(client.keywrite()).run();
  ASSERT_TRUE(kw_indexed.ok()) << label;
  EXPECT_FALSE(kw_indexed->truncated) << label;
  ASSERT_EQ(kw_indexed->entries.size(), kw_expected.size()) << label;
  for (std::size_t i = 0; i < kw_expected.size(); ++i) {
    EXPECT_EQ(kw_indexed->entries[i], kw_expected[i])
        << label << " keywrite entry " << i;
  }

  const auto ct_catalog = reported_keys(workload, /*keywrite=*/false);
  const auto ct_expected = scan_counters(client, ct_catalog);
  ASSERT_FALSE(ct_expected.empty()) << label;
  const auto ct_indexed = client.range(client.counters()).run();
  ASSERT_TRUE(ct_indexed.ok()) << label;
  ASSERT_EQ(ct_indexed->entries.size(), ct_expected.size()) << label;
  for (std::size_t i = 0; i < ct_expected.size(); ++i) {
    EXPECT_EQ(ct_indexed->entries[i], ct_expected[i])
        << label << " counter entry " << i;
  }
}

TEST_P(BackendConformanceTest, IndexedRangeMatchesScanPath) {
  const auto workload = conformance_workload(600);
  Client client = make_client(GetParam());
  submit_workload(client.backend(), workload);
  expect_indexed_equals_scan(client, workload, kind_name(GetParam()));
}

// Bounded windows: a [from, to] slice of the index equals the same
// slice of the scan sweep, including both inclusive endpoints.
TEST_P(BackendConformanceTest, IndexedRangeBoundsSliceExactly) {
  const auto workload = conformance_workload(600);
  Client client = make_client(GetParam());
  submit_workload(client.backend(), workload);

  const auto expected =
      scan_keywrite(client, reported_keys(workload, /*keywrite=*/true));
  ASSERT_GT(expected.size(), 20u);
  const std::size_t lo = expected.size() / 4;
  const std::size_t hi = (3 * expected.size()) / 4;
  const auto window = client.range(client.keywrite())
                          .from(expected[lo].key)
                          .to(expected[hi].key)
                          .run();
  ASSERT_TRUE(window.ok());
  ASSERT_EQ(window->entries.size(), hi - lo + 1);
  for (std::size_t i = 0; i < window->entries.size(); ++i) {
    EXPECT_EQ(window->entries[i], expected[lo + i]) << "entry " << i;
  }
}

// Pagination: concatenating limit-37 pages through the opaque resume
// cursor reproduces the unlimited result exactly — no dropped, no
// duplicated entries at page seams.
TEST_P(BackendConformanceTest, IndexedRangePagesConcatenateToFullResult) {
  const auto workload = conformance_workload(600);
  Client client = make_client(GetParam());
  submit_workload(client.backend(), workload);

  const auto full = client.range(client.keywrite()).run();
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->entries.size(), 37u);

  std::vector<RangeEntry> paged;
  RangeCursor cursor;
  bool resuming = false;
  int pages = 0;
  while (true) {
    auto query = client.range(client.keywrite()).limit(37);
    if (resuming) query.after(cursor);
    const auto page = query.run();
    ASSERT_TRUE(page.ok());
    EXPECT_LE(page->entries.size(), 37u);
    paged.insert(paged.end(), page->entries.begin(), page->entries.end());
    ++pages;
    if (!page->truncated) break;
    ASSERT_TRUE(page->next.has_value());
    cursor = *page->next;
    resuming = true;
    ASSERT_LT(pages, 1000) << "cursor failed to make progress";
  }
  EXPECT_GT(pages, 1);
  EXPECT_TRUE(paged == full->entries) << "page seams diverged";
}

// The committed golden trace replayed into every backend kind yields
// (a) indexed == scan on each backend and (b) the identical indexed
// result across all four — the index analogue of the point-get
// differential above, anchored to a fixture on disk.
TEST(BackendDifferentialTest, GoldenTraceIndexedRangesAgreeOnAllBackends) {
  const auto records = telemetry::read_trace_file(
      std::string(DTA_TEST_DATA_DIR) + "/conformance_600.dtatrace");
  ASSERT_TRUE(records.ok()) << records.status().to_string();
  std::vector<proto::ParsedDta> workload;
  for (const auto& record : records.value()) workload.push_back(record.parsed);

  const auto config =
      conformance_host_config(collector::ThreadMode::kInline, 1);
  std::vector<std::vector<RangeEntry>> indexed_per_backend;
  for (BackendKind kind : testing::all_backend_kinds()) {
    Client client(make_backend(kind, config));
    ASSERT_TRUE(ReplayBackend::replay(records.value(), client.backend()).ok())
        << kind_name(kind);
    expect_indexed_equals_scan(client, workload, kind_name(kind));
    auto indexed = client.range(client.keywrite()).run();
    ASSERT_TRUE(indexed.ok()) << kind_name(kind);
    indexed_per_backend.push_back(std::move(indexed->entries));
  }
  for (std::size_t i = 1; i < indexed_per_backend.size(); ++i) {
    EXPECT_TRUE(indexed_per_backend[0] == indexed_per_backend[i])
        << kind_name(testing::all_backend_kinds()[i])
        << " indexed range diverged from Local";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformanceTest,
    ::testing::Values(BackendKind::kLocal, BackendKind::kCluster,
                      BackendKind::kFabric, BackendKind::kReplay),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return kind_name(info.param);
    });

}  // namespace
}  // namespace dta
