// The range resolver (internal::resolve_range, behind every
// Backend::range_query) held to its reference: collect_range_candidates
// + scan_range_candidates + resolve_range_entry over the same pinned
// index versions, each candidate resolved over the snapshot set a point
// get of it reads; the merged candidates themselves are held to a full
// walk of every index. Seeded workloads on Local (2 and 4 shards), Cluster
// (three replicated hosts with one failed, two key-hash partitioned
// hosts with one failed) and Fabric; Key-Write and counter ranges;
// limits 0, 1, the resolved count, the candidate count and above it;
// .after() below .from() and at a candidate; windows one shard holds
// alone; and a Key-Write store small enough that colliding keys
// overwrite candidates' slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dtalib/client.h"
#include "dtalib/fabric_backend.h"
#include "dtalib/query_core.h"
#include "tests/backend_fixtures.h"

namespace dta {
namespace {

using proto::TelemetryKey;

bool key_less(const TelemetryKey& a, const TelemetryKey& b) {
  return collector::index_key_less(a, b);
}

// Canonical keys of 1..16 bytes; short ones share prefixes with long
// ones often enough to exercise the length tie-break.
TelemetryKey random_key(common::Rng& rng) {
  std::uint8_t bytes[16] = {};
  const auto length = static_cast<std::size_t>(1 + rng.next_below(16));
  for (std::size_t i = 0; i < length; ++i) {
    bytes[i] = static_cast<std::uint8_t>(rng.next_below(4) == 0
                                             ? rng.next_below(3)
                                             : rng.next_below(256));
  }
  return TelemetryKey::from(common::ByteSpan(bytes, length));
}

// The conformance geometry with stores small enough that colliding keys
// overwrite each other's Key-Write slots and inflate counters.
collector::CollectorRuntimeConfig small_store_config(std::uint32_t shards) {
  auto config =
      testing::conformance_host_config(collector::ThreadMode::kInline, shards);
  config.keywrite->num_slots = 1 << 8;
  config.keyincrement->num_slots = 1 << 7;
  return config;
}

struct Workload {
  std::vector<TelemetryKey> keys;  // every reported key, sorted, unique
};

Workload submit_workload(Backend& backend, std::uint64_t seed) {
  common::Rng rng(common::test_seed(seed));
  KeyWriteTable table(&backend);
  CounterTable counters(&backend);
  Workload out;
  for (int i = 0; i < 400; ++i) {
    const TelemetryKey key = random_key(rng);
    out.keys.push_back(key);
    const auto kind = rng.next_below(3);
    if (kind != 1) {
      EXPECT_TRUE(table.put_u32(key, rng.next_u32(), /*redundancy=*/2).ok());
    }
    if (kind != 0) {
      EXPECT_TRUE(
          counters.add(key, 1 + rng.next_below(50), /*redundancy=*/2).ok());
    }
  }
  EXPECT_TRUE(backend.flush().ok());
  std::sort(out.keys.begin(), out.keys.end(), key_less);
  out.keys.erase(std::unique(out.keys.begin(), out.keys.end()),
                 out.keys.end());
  return out;
}

// The index versions the backend's range_query reads: one per live
// (host, shard), caught up to that shard's pinned snapshot.
internal::IndexVersions pinned_indexes(Backend& backend) {
  internal::IndexVersions out;
  const auto pin_host = [&out](collector::CollectorRuntime& runtime) {
    for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
      out.push_back(
          runtime.index_shard(s, runtime.snapshot_shard(s)->generation()));
    }
  };
  if (auto* cluster = dynamic_cast<ClusterBackend*>(&backend)) {
    for (std::uint32_t h = 0; h < cluster->cluster().num_hosts(); ++h) {
      if (!cluster->cluster().is_failed(h)) pin_host(cluster->cluster().host(h));
    }
  } else if (auto* fabric = dynamic_cast<FabricBackend*>(&backend)) {
    out.push_back(fabric->index());
  }
  return out;
}

// The candidate set from first principles: every entry of every index
// walked in full, filtered to the bounds and the primitive, then sorted
// and deduplicated — so a fault in the shared merge (a duplicate across
// replica hosts, an .after() key let through) cannot hide in both sides
// of the comparison below.
std::vector<TelemetryKey> brute_force_candidates(
    const internal::IndexVersions& indexes, const RangeSpec& spec) {
  const std::uint8_t want = spec.primitive == RangePrimitive::kCounter
                                ? collector::kIndexKeyIncrement
                                : collector::kIndexKeyWrite;
  const bool resume =
      spec.after && !(spec.from && key_less(*spec.after, *spec.from));
  std::vector<TelemetryKey> out;
  for (const auto& index : indexes) {
    index->visit_range(nullptr, nullptr, [&](const collector::IndexEntry& e) {
      const bool above_lower = resume      ? key_less(*spec.after, e.key)
                               : spec.from ? !key_less(e.key, *spec.from)
                                           : true;
      const bool below_upper = !spec.to || !key_less(*spec.to, e.key);
      if (above_lower && below_upper && (e.primitives & want) != 0) {
        out.push_back(e.key);
      }
      return true;
    });
  }
  std::sort(out.begin(), out.end(), key_less);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

RangeResult reference_range(Backend& backend,
                            const internal::IndexVersions& indexes,
                            const RangeSpec& spec, const QueryOptions& opts) {
  const auto candidates = internal::collect_range_candidates(indexes, spec);
  return internal::scan_range_candidates(
      candidates, spec.limit,
      [&](const TelemetryKey& key) -> std::optional<RangeEntry> {
        // kUnavailable: the key's owner died, so point gets fail too.
        auto snaps = backend.key_snapshots(key, opts);
        if (!snaps.ok()) return std::nullopt;
        return internal::resolve_range_entry(*snaps, key, spec, opts);
      });
}

std::string describe(const RangeSpec& spec) {
  std::string out =
      spec.primitive == RangePrimitive::kCounter ? "counter" : "keywrite";
  out += spec.from ? " from" : "";
  out += spec.to ? " to" : "";
  out += spec.after ? " after" : "";
  return out + " limit " + std::to_string(spec.limit);
}

struct Counts {
  std::size_t candidates = 0;
  std::size_t resolved = 0;
};

// Runs `spec` at every limit of interest through the backend and the
// reference and demands identical results; returns the unlimited
// candidate and entry counts.
Counts expect_matches_reference(Backend& backend,
                                const internal::IndexVersions& indexes,
                                RangeSpec spec) {
  const QueryOptions opts;
  spec.limit = 0;
  const auto candidates = internal::collect_range_candidates(indexes, spec);
  EXPECT_TRUE(candidates == brute_force_candidates(indexes, spec))
      << describe(spec) << ": merged candidates";
  Counts counts;
  counts.candidates = candidates.size();
  counts.resolved = reference_range(backend, indexes, spec, opts).entries.size();
  for (const std::uint64_t limit :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{counts.resolved},
        std::uint64_t{counts.candidates},
        std::uint64_t{counts.candidates + 1},
        std::uint64_t{counts.candidates + 7}}) {
    spec.limit = limit;
    SCOPED_TRACE(describe(spec));
    const RangeResult expected = reference_range(backend, indexes, spec, opts);
    const auto actual = backend.range_query(spec, opts);
    EXPECT_TRUE(actual.ok()) << actual.status().to_string();
    if (!actual.ok()) continue;
    EXPECT_TRUE(actual->entries == expected.entries)
        << actual->entries.size() << " entries vs " << expected.entries.size();
    EXPECT_EQ(actual->truncated, expected.truncated);
    EXPECT_EQ(actual->next.has_value(), expected.next.has_value());
    if (actual->next && expected.next) {
      EXPECT_EQ(actual->next->last, expected.next->last);
    }
  }
  return counts;
}

// Keys adjacent in the full sorted key list that one shard holds both
// of, so no other shard's index has anything between them.
std::vector<std::pair<TelemetryKey, TelemetryKey>> one_shard_windows(
    const std::vector<TelemetryKey>& keys,
    const std::function<std::uint32_t(const TelemetryKey&)>& shard_of) {
  std::vector<std::pair<TelemetryKey, TelemetryKey>> out;
  for (std::size_t i = 1; i < keys.size() && out.size() < 3; ++i) {
    if (shard_of(keys[i - 1]) == shard_of(keys[i])) {
      out.emplace_back(keys[i - 1], keys[i]);
    }
  }
  return out;
}

void expect_resolver_matches_reference(
    Backend& backend, const Workload& workload,
    const std::function<std::uint32_t(const TelemetryKey&)>& shard_of,
    std::uint64_t seed) {
  const internal::IndexVersions indexes = pinned_indexes(backend);
  ASSERT_FALSE(indexes.empty());
  common::Rng rng(common::test_seed(seed));
  const std::vector<TelemetryKey>& keys = workload.keys;
  ASSERT_GT(keys.size(), 100u);

  for (const RangePrimitive primitive :
       {RangePrimitive::kKeyWrite, RangePrimitive::kCounter}) {
    RangeSpec base;
    base.primitive = primitive;
    SCOPED_TRACE(primitive == RangePrimitive::kCounter ? "counter"
                                                       : "keywrite");

    // The whole index.
    const Counts all = expect_matches_reference(backend, indexes, base);
    EXPECT_GT(all.resolved, 20u);
    if (primitive == RangePrimitive::kKeyWrite) {
      // Collisions overwrote some candidates' slots: they are in the
      // index and resolve to nothing, which both sides must skip.
      EXPECT_LT(all.resolved, all.candidates);
    }

    // Random [from, to] windows, inclusive bounds on existing keys.
    for (int w = 0; w < 4; ++w) {
      const std::size_t lo = rng.next_below(keys.size());
      const std::size_t hi =
          std::min(keys.size() - 1, lo + rng.next_below(keys.size() / 3));
      RangeSpec spec = base;
      spec.from = keys[lo];
      spec.to = keys[hi];
      expect_matches_reference(backend, indexes, spec);

      // .after() below .from(): .from() wins, inclusive.
      if (lo > 0) {
        spec.after = keys[rng.next_below(lo)];
        expect_matches_reference(backend, indexes, spec);
      }
      // .after() at a key inside the window: strictly past it.
      spec.after = keys[lo + (hi - lo) / 2];
      expect_matches_reference(backend, indexes, spec);
      // .after() alone.
      RangeSpec resume = base;
      resume.after = keys[lo];
      expect_matches_reference(backend, indexes, resume);
    }

    // Windows only one shard holds: a single key, and two keys adjacent
    // in the whole key order that share a shard.
    for (const auto& [first, second] : one_shard_windows(keys, shard_of)) {
      RangeSpec spec = base;
      spec.from = first;
      spec.to = first;
      expect_matches_reference(backend, indexes, spec);
      spec.to = second;
      expect_matches_reference(backend, indexes, spec);
    }
  }
}

TEST(RangeResolverTest, LocalMatchesReference) {
  for (const std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("Local, " + std::to_string(shards) + " shards");
    ClusterBackend backend(ClusterRuntimeConfig{
        small_store_config(shards), 1,
        translator::PartitionPolicy::kByKeyHash});
    const Workload workload = submit_workload(backend, 11 + shards);
    expect_resolver_matches_reference(
        backend, workload,
        [shards](const TelemetryKey& key) {
          return collector::shard_for_key(key, shards);
        },
        21 + shards);
  }
}

TEST(RangeResolverTest, ClusterMatchesReference) {
  const struct {
    translator::PartitionPolicy policy;
    std::uint32_t hosts;
    std::uint32_t failed;
    const char* name;
  } cases[] = {
      // Two live replicas: every key is in two hosts' indexes.
      {translator::PartitionPolicy::kReplicate, 3, 1, "replicated"},
      {translator::PartitionPolicy::kByKeyHash, 2, 0, "key-hash"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string("Cluster, ") + c.name);
    ClusterRuntimeConfig config;
    config.num_hosts = c.hosts;
    config.policy = c.policy;
    config.host = small_store_config(2);
    ClusterBackend backend(config);
    const Workload workload = submit_workload(backend, 31 + c.hosts);
    ASSERT_TRUE(backend.fail_host(c.failed).ok());
    const translator::CollectorSelector& selector =
        backend.cluster().selector();
    expect_resolver_matches_reference(
        backend, workload,
        [&selector](const TelemetryKey& key) {
          return selector.shard_within_host(key);
        },
        41 + c.hosts);
  }
}

TEST(RangeResolverTest, FabricMatchesReference) {
  FabricBackend backend(small_store_config(1));
  const Workload workload = submit_workload(backend, 51);
  expect_resolver_matches_reference(
      backend, workload, [](const TelemetryKey&) { return 0u; }, 61);
}

}  // namespace
}  // namespace dta
