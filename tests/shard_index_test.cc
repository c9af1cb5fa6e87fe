// Secondary-index tests: incremental builds equal one-shot and windowed
// rebuilds (leaf geometry notwithstanding), leaf-only COW actually shares
// untouched leaves, no leaf outgrows its bound, rewrites that add nothing
// copy nothing, the defer-publish window lags until the batch or a
// reader catch-up, the runtime's per-shard indexes cover every pinned
// snapshot across all four stores, event cursors resume/drop/wrap
// correctly over small rings, and the whole thing survives a TSan
// stress of concurrent ingest + indexed range queries. Seeded random
// windows of mixed-length keys (prefixes, zero bytes, fence keys) are
// checked against an ordered-map reference, and the two-word key order
// against lexicographic span order.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

#include "collector/index_publisher.h"
#include "collector/runtime.h"
#include "collector/shard_index.h"
#include "dta/report_builders.h"
#include "dtalib/client.h"

namespace dta::collector {
namespace {

using proto::TelemetryKey;
using reports::u32_key;

std::vector<IndexEntry> flatten(const ShardIndexVersion& version) {
  std::vector<IndexEntry> out;
  version.visit_range(nullptr, nullptr, [&](const IndexEntry& entry) {
    out.push_back(entry);
    return true;
  });
  return out;
}

void expect_same_entries(const std::vector<IndexEntry>& a,
                         const std::vector<IndexEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "entry " << i;
    EXPECT_EQ(a[i].primitives, b[i].primitives) << "entry " << i;
  }
}

// ----------------------------------------------------------- builder

TEST(ShardIndexBuilder, IncrementalEqualsOneShotAcrossLeafGeometries) {
  // 50 batches of overlapping keys with varying masks, applied one at a
  // time into a small-leaf builder, must produce exactly the entries of
  // the 50 batches' keys folded as one window into a large-leaf builder
  // and into a small-leaf one: contents are independent of batch
  // slicing, of windowing AND of leaf geometry.
  ShardIndexBuilder incremental(/*target_leaf_entries=*/4);
  ShardIndexBuilder one_shot(/*target_leaf_entries=*/128);
  ShardIndexBuilder windowed(/*target_leaf_entries=*/4);
  std::vector<IndexEntry> window;
  for (std::uint64_t g = 1; g <= 50; ++g) {
    std::vector<IndexEntry> batch;
    for (std::uint32_t j = 0; j < 8; ++j) {
      const std::uint32_t id = static_cast<std::uint32_t>(g * 7 + j) % 300;
      const std::uint8_t mask =
          (id % 3 == 0) ? kIndexKeyWrite
                        : (id % 3 == 1)
                              ? kIndexKeyIncrement
                              : (kIndexKeyWrite | kIndexPostcarding);
      batch.push_back({u32_key(id), mask});
    }
    incremental.apply(g, batch);
    window.insert(window.end(), batch.begin(), batch.end());
  }
  one_shot.apply(50, window);
  windowed.apply(50, window);

  const auto a = incremental.publish();
  const auto b = one_shot.publish();
  const auto c = windowed.publish();
  EXPECT_EQ(a->generation(), 50u);
  EXPECT_EQ(b->generation(), 50u);
  EXPECT_EQ(c->generation(), 50u);
  EXPECT_EQ(a->key_count(), b->key_count());
  EXPECT_EQ(c->key_count(), b->key_count());
  expect_same_entries(flatten(*a), flatten(*b));
  expect_same_entries(flatten(*c), flatten(*b));
  // The small-leaf builder actually split (and so exercised COW merges).
  EXPECT_GT(a->leaves().size(), b->leaves().size());
  EXPECT_GT(incremental.leaf_copies(), 0u);
}

TEST(ShardIndexBuilder, VisitRangeBoundsAndLookup) {
  ShardIndexBuilder builder(/*target_leaf_entries=*/4);
  std::vector<IndexEntry> keys;
  for (std::uint32_t id = 0; id < 40; id += 2) {  // even ids only
    keys.push_back({u32_key(id), kIndexKeyWrite});
  }
  builder.apply(1, keys);
  const auto version = builder.publish();

  // Inclusive bounds; absent bound keys land between entries.
  const TelemetryKey from = u32_key(10);
  const TelemetryKey to = u32_key(21);  // odd: between 20 and 22
  std::vector<std::uint32_t> seen;
  version->visit_range(&from, &to, [&](const IndexEntry& entry) {
    seen.push_back(entry.key.bytes[3]);  // u32 keys are big-endian
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{10, 12, 14, 16, 18, 20}));

  // Early stop.
  int visited = 0;
  version->visit_range(nullptr, nullptr, [&](const IndexEntry&) {
    return ++visited < 3;
  });
  EXPECT_EQ(visited, 3);

  EXPECT_EQ(version->lookup(u32_key(12)), kIndexKeyWrite);
  EXPECT_EQ(version->lookup(u32_key(13)), 0u);
  EXPECT_EQ(version->lookup(u32_key(999)), 0u);
}

TEST(ShardIndexBuilder, LeafOnlyCowSharesUntouchedLeaves) {
  // Seed incrementally (4 keys per window) so every leaf settles at or
  // below the 2x-target split bound before the COW probe.
  ShardIndexBuilder builder(/*target_leaf_entries=*/4);
  for (std::uint32_t g = 0; g < 16; ++g) {
    std::vector<IndexEntry> seed;
    for (std::uint32_t j = 0; j < 4; ++j) {
      seed.push_back({u32_key(g * 4 + j), kIndexKeyWrite});
    }
    builder.apply(g + 1, seed);
  }
  const auto before = builder.publish();
  ASSERT_GT(before->leaves().size(), 4u);

  // OR a new mask bit into one existing key: exactly one leaf is
  // copied, every other leaf pointer is shared with the old version.
  const std::uint64_t copies_before = builder.leaf_copies();
  const std::vector<IndexEntry> touch{{u32_key(30), kIndexKeyIncrement}};
  builder.apply(17, touch);
  EXPECT_EQ(builder.leaf_copies(), copies_before + 1);
  EXPECT_EQ(builder.key_count(), 64u);

  const auto after = builder.publish();
  ASSERT_EQ(after->leaves().size(), before->leaves().size());
  std::size_t replaced = 0;
  for (std::size_t i = 0; i < after->leaves().size(); ++i) {
    if (after->leaves()[i] != before->leaves()[i]) ++replaced;
  }
  EXPECT_EQ(replaced, 1u);
  EXPECT_EQ(after->lookup(u32_key(30)), kIndexKeyWrite | kIndexKeyIncrement);
  // The old version is immutable: still the old mask.
  EXPECT_EQ(before->lookup(u32_key(30)), kIndexKeyWrite);
}

TEST(ShardIndexBuilder, EveryLeafWithinBoundAfterAnyApply) {
  // One large window into an empty index, then mixed small ones that land
  // inside, between and beyond its keys: after every apply each leaf
  // holds at most 2 x target entries, however much one apply added.
  constexpr std::uint32_t kTarget = 4;
  ShardIndexBuilder builder(kTarget);
  auto largest_leaf = [&] {
    std::size_t largest = 0;
    for (const auto& leaf : builder.publish()->leaves()) {
      largest = std::max(largest, leaf->entries.size());
    }
    return largest;
  };

  std::vector<IndexEntry> bulk;
  for (std::uint32_t id = 0; id < 10000; ++id) {
    bulk.push_back({u32_key(id * 4), kIndexKeyWrite});
  }
  builder.apply(1, bulk);
  EXPECT_EQ(builder.key_count(), 10000u);
  ASSERT_LE(largest_leaf(), 2u * kTarget) << "after the bulk apply";

  for (std::uint64_t g = 2; g <= 40; ++g) {
    std::vector<IndexEntry> keys;
    const std::uint32_t width = (g % 5 == 0) ? 600 : 7;
    for (std::uint32_t j = 0; j < width; ++j) {
      // New keys (odd ids between the bulk's), rewrites of bulk keys,
      // and keys past the end.
      const std::uint32_t base = static_cast<std::uint32_t>(g * 131 + j);
      const std::uint32_t id = (j % 3 == 0)   ? (base % 10000) * 4 + 1 + g % 3
                               : (j % 3 == 1) ? (base % 10000) * 4
                                              : 40000 + base * 8;
      keys.push_back({u32_key(id), kIndexKeyIncrement});
    }
    builder.apply(g, keys);
    ASSERT_LE(largest_leaf(), 2u * kTarget) << "after apply " << g;
  }
}

TEST(ShardIndexBuilder, RewriteOfPresentKeysCopiesNothing) {
  ShardIndexBuilder builder(/*target_leaf_entries=*/4);
  std::vector<IndexEntry> seed;
  for (std::uint32_t g = 1; g <= 8; ++g) {
    for (std::uint32_t j = 0; j < 16; ++j) {
      const std::uint32_t id = (g * 16 + j) % 100;
      const std::uint8_t mask = (id % 2 == 0)
                                    ? kIndexKeyWrite
                                    : (kIndexKeyWrite | kIndexKeyIncrement);
      seed.push_back({u32_key(id), mask});
    }
  }
  builder.apply(8, seed);
  const auto before = builder.publish();
  ASSERT_GT(before->leaves().size(), 4u);
  const std::uint64_t copies = builder.leaf_copies();

  // The same keys again, with masks they already carry (or a subset),
  // one key each and then the seed's window again: nothing to add, so
  // no leaf is copied and the next version shares the previous leaf
  // vector outright.
  std::vector<IndexEntry> again;
  for (std::uint32_t id = 0; id < 100; ++id) {
    if (before->lookup(u32_key(id)) == 0) continue;
    again.push_back({u32_key(id), kIndexKeyWrite});
  }
  ASSERT_FALSE(again.empty());
  builder.apply(9, again);
  builder.apply(17, seed);
  EXPECT_EQ(builder.leaf_copies(), copies);

  const auto after = builder.publish();
  EXPECT_EQ(after->generation(), 17u);
  EXPECT_EQ(after->key_count(), before->key_count());
  EXPECT_EQ(&after->leaves(), &before->leaves());
}

// Random canonical keys of length 1..16 over a few byte values, 0x00
// among them, so shared prefixes, keys that are prefixes of one another
// and zero bytes at every position are all common. `lo`/`hi` bound the
// first byte.
TelemetryKey random_key(common::Rng& rng, std::uint8_t lo = 0x00,
                        std::uint8_t hi = 0xFF) {
  static constexpr std::uint8_t kBytes[] = {0x00, 0x00, 0x01, 0x7F, 0x80,
                                            0xFE, 0xFF};
  TelemetryKey key;
  key.length = static_cast<std::uint8_t>(1 + rng.next_below(16));
  key.bytes[0] = static_cast<std::uint8_t>(lo + rng.next_below(hi - lo + 1));
  for (std::uint8_t i = 1; i < key.length; ++i) {
    key.bytes[i] = kBytes[rng.next_below(sizeof(kBytes))];
  }
  return key;
}

std::vector<std::uint8_t> span_of(const TelemetryKey& key) {
  const common::ByteSpan span = key.span();
  return {span.begin(), span.end()};
}

TEST(ShardIndexBuilder, RandomWindowsMatchOrderedMapReference) {
  // Seeded random windows against a std::map keyed by the byte spans,
  // so the reference order is plain lexicographic order and shares no
  // code with index_key_less. After every apply: the same entries and
  // masks, no leaf above 2 x target, and exactly one leaf copy per leaf
  // of the previous version the window added a key or a mask bit to.
  const std::uint8_t masks[] = {kIndexKeyWrite, kIndexKeyIncrement,
                                kIndexPostcarding,
                                kIndexKeyWrite | kIndexKeyIncrement};
  for (const std::uint32_t target : {2u, 4u, 128u}) {
    SCOPED_TRACE(::testing::Message() << "target " << target);
    common::Rng rng(common::test_seed(0x1D3C0000u + target));
    ShardIndexBuilder builder(target);
    std::map<std::vector<std::uint8_t>, std::uint8_t> reference;
    std::vector<TelemetryKey> present;
    std::uint64_t generation = 0;
    for (int round = 0; round < 120; ++round) {
      const auto before = builder.publish();
      const IndexLeafVector& leaves = before->leaves();
      // The first rounds stay inside first bytes 0x40..0xC0, so later
      // windows reach below the first fence and above the last.
      const bool inner = round < 10;
      std::vector<IndexEntry> window;
      const std::uint64_t batches = 1 + rng.next_below(4);
      for (std::uint64_t batch = 0; batch < batches; ++batch) {
        ++generation;
        const std::uint64_t width =
            1 + rng.next_below(round % 7 == 0 ? 300 : 24);
        for (std::uint64_t k = 0; k < width; ++k) {
          const std::uint8_t mask = masks[rng.next_below(4)];
          TelemetryKey key;
          switch (present.empty() ? 0 : rng.next_below(4)) {
            case 0:  // usually absent
              key = inner ? random_key(rng, 0x40, 0xC0) : random_key(rng);
              break;
            case 1:  // present, maybe with a new mask bit
              key = present[rng.next_below(present.size())];
              break;
            case 2: {  // equal to a fence
              const auto& leaf = leaves[rng.next_below(leaves.size())];
              key = leaf->entries.front().key;
              break;
            }
            default: {  // a prefix or a zero-extension of a present key
              key = present[rng.next_below(present.size())];
              if (rng.chance(0.5) && key.length > 1) {
                const auto keep = static_cast<std::uint8_t>(
                    1 + rng.next_below(key.length - 1));
                std::fill(key.bytes.begin() + keep, key.bytes.end(), 0);
                key.length = keep;
              } else if (key.length < 16) {
                ++key.length;  // the new byte is the zero pad
              }
              break;
            }
          }
          window.push_back({key, mask});
          if (rng.chance(0.1)) window.push_back({key, mask});  // dup
        }
      }

      // Expected leaf copies: previous leaves some window key lands in
      // (the last leaf whose first key is <= it; leaf 0 below all) and
      // adds a key or a mask bit to.
      std::map<std::vector<std::uint8_t>, std::uint8_t> window_masks;
      for (const IndexEntry& entry : window) {
        window_masks[span_of(entry.key)] |= entry.primitives;
      }
      std::vector<bool> changed(leaves.size(), false);
      for (const auto& [bytes, mask] : window_masks) {
        const auto it = reference.find(bytes);
        if (it != reference.end() && (mask & ~it->second) == 0) continue;
        const auto above = std::upper_bound(
            leaves.begin(), leaves.end(), bytes,
            [](const std::vector<std::uint8_t>& k, const auto& leaf) {
              return k < span_of(leaf->entries.front().key);
            });
        if (!leaves.empty()) {
          changed[above == leaves.begin() ? 0 : above - leaves.begin() - 1] =
              true;
        }
      }
      const auto expected_copies = static_cast<std::uint64_t>(
          std::count(changed.begin(), changed.end(), true));

      const std::uint64_t copies_before = builder.leaf_copies();
      builder.apply(generation, window);
      for (const auto& [bytes, mask] : window_masks) {
        auto [it, inserted] = reference.emplace(bytes, mask);
        if (inserted) {
          present.push_back(
              TelemetryKey::from(common::ByteSpan(bytes.data(), bytes.size())));
        } else {
          it->second |= mask;
        }
      }

      SCOPED_TRACE(::testing::Message() << "round " << round);
      ASSERT_EQ(builder.leaf_copies() - copies_before, expected_copies);
      const auto after = builder.publish();
      ASSERT_EQ(after->key_count(), reference.size());
      const std::vector<IndexEntry> entries = flatten(*after);
      ASSERT_EQ(entries.size(), reference.size());
      auto ref = reference.begin();
      for (std::size_t e = 0; e < entries.size(); ++e, ++ref) {
        ASSERT_EQ(span_of(entries[e].key), ref->first) << "entry " << e;
        ASSERT_EQ(entries[e].primitives, ref->second) << "entry " << e;
      }
      for (const auto& leaf : after->leaves()) {
        ASSERT_LE(leaf->entries.size(), 2u * target);
      }
      for (const auto& [bytes, mask] : window_masks) {
        ASSERT_EQ(after->lookup(TelemetryKey::from(
                      common::ByteSpan(bytes.data(), bytes.size()))),
                  reference.at(bytes));
      }

      // The published fences are the leaves' first keys, and a cursor
      // seeking any key (absent, present, below the first fence, above
      // the last) starts at the reference's lower bound and walks on in
      // order across leaves.
      ASSERT_EQ(after->fences().size(), after->leaves().size());
      for (std::size_t l = 0; l < after->leaves().size(); ++l) {
        ASSERT_TRUE(after->fences()[l] ==
                    index_sort_key(after->leaves()[l]->entries.front().key))
            << "leaf " << l;
      }
      for (int seek = 0; seek < 6; ++seek) {
        const TelemetryKey from = seek % 2 == 0
                                      ? random_key(rng)
                                      : present[rng.next_below(present.size())];
        auto ref = reference.lower_bound(span_of(from));
        IndexCursor cursor(*after, &from);
        for (int step = 0; step < 2 * static_cast<int>(target) + 3 &&
                           ref != reference.end();
             ++step, ++ref, cursor.next()) {
          ASSERT_FALSE(cursor.done()) << "seek " << seek << " step " << step;
          ASSERT_EQ(span_of(cursor.entry().key), ref->first)
              << "seek " << seek << " step " << step;
        }
        if (ref == reference.end()) {
          ASSERT_TRUE(cursor.done());
        }
      }
    }
  }
}

TEST(IndexKeyLess, MatchesSpanLexicographicOrderOnCanonicalKeys) {
  // 100K random canonical pairs: unrelated keys, a key and its own
  // prefix or extension (zero or arbitrary bytes), and a key and itself
  // with one byte changed, so either word can decide. The two-word
  // compare must agree with lexicographic order over the spans in both
  // directions.
  common::Rng rng(common::test_seed(0x1D3C1E55u));
  for (int n = 0; n < 100000; ++n) {
    const TelemetryKey a = random_key(rng);
    TelemetryKey b;
    switch (rng.next_below(4)) {
      case 0:
        b = random_key(rng);
        break;
      case 3:  // one byte changed
        b = a;
        b.bytes[rng.next_below(a.length)] =
            static_cast<std::uint8_t>(rng.next_u32());
        break;
      case 1: {  // a prefix of a (possibly a itself)
        b = a;
        b.length = static_cast<std::uint8_t>(rng.next_below(a.length + 1));
        std::fill(b.bytes.begin() + b.length, b.bytes.end(), 0);
        break;
      }
      default: {  // a extended by zero or arbitrary bytes
        b = a;
        while (b.length < 16 && rng.chance(0.6)) {
          b.bytes[b.length++] =
              rng.chance(0.5) ? 0 : static_cast<std::uint8_t>(rng.next_u32());
        }
        break;
      }
    }
    const common::ByteSpan sa = a.span(), sb = b.span();
    ASSERT_EQ(index_key_less(a, b),
              std::lexicographical_compare(sa.begin(), sa.end(), sb.begin(),
                                           sb.end()))
        << "pair " << n;
    ASSERT_EQ(index_key_less(b, a),
              std::lexicographical_compare(sb.begin(), sb.end(), sa.begin(),
                                           sa.end()))
        << "pair " << n;
  }
}

// --------------------------------------------------------- publisher

TEST(IndexPublisher, DeferPublishLagsUntilBatchOrCatchup) {
  constexpr std::uint64_t kBatch = IndexPublisher::kPublishBatch;
  IndexPublisher publisher(/*num_shards=*/2);

  // Batch g carries one key, g.
  auto append_at = [&publisher](std::uint64_t g) {
    const std::vector<IndexEntry> keys{
        {u32_key(static_cast<std::uint32_t>(g)), kIndexKeyWrite}};
    publisher.append(0, g, keys);
  };

  // One batch short of the window: still the empty generation-0 version.
  for (std::uint64_t g = 1; g < kBatch; ++g) append_at(g);
  EXPECT_EQ(publisher.published(0)->generation(), 0u);
  EXPECT_EQ(publisher.published(0)->key_count(), 0u);

  // The window's last batch fills it: apply + publish.
  append_at(kBatch);
  EXPECT_EQ(publisher.published(0)->generation(), kBatch);
  EXPECT_EQ(publisher.published(0)->key_count(), kBatch);

  // Two more appended: published stays put until a reader demands more.
  append_at(kBatch + 1);
  append_at(kBatch + 2);
  EXPECT_EQ(publisher.published(0)->generation(), kBatch);
  const auto caught_up = publisher.version_at_least(0, kBatch + 2);
  EXPECT_GE(caught_up->generation(), kBatch + 2);
  EXPECT_EQ(publisher.published(0)->generation(), kBatch + 2);

  // Fast path: no further publish for an already-covered generation.
  const auto stats_before = publisher.stats();
  EXPECT_EQ(publisher.version_at_least(0, kBatch + 2)->generation(),
            kBatch + 2);
  const auto stats_after = publisher.stats();
  EXPECT_EQ(stats_after.publishes, stats_before.publishes);
  EXPECT_EQ(stats_after.reader_catchups, 1u);

  // Shards are independent: shard 1 never moved.
  EXPECT_EQ(publisher.published(1)->generation(), 0u);
}

TEST(IndexPublisher, PublishedGenerationIsMonotonic) {
  // Reader catch-ups every 3 * kPublishBatch / 2 batches land both
  // inside and across the writer's defer windows; the batches carry no
  // key, and still advance the generation.
  constexpr std::uint64_t kLast = 5 * IndexPublisher::kPublishBatch;
  constexpr std::uint64_t kCatchupEvery = 3 * IndexPublisher::kPublishBatch / 2;
  IndexPublisher publisher(/*num_shards=*/1);
  std::uint64_t last = 0;
  for (std::uint64_t g = 1; g <= kLast; ++g) {
    publisher.append(0, g, {});
    if (g % kCatchupEvery == 0) publisher.version_at_least(0, g);
    const std::uint64_t now = publisher.published(0)->generation();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_EQ(publisher.version_at_least(0, kLast)->generation(), kLast);
}

TEST(IndexPublisher, StressReaderCatchupRacesWriterPublish) {
  // Targets the catch-up/publish window under TSan: per shard, one
  // writer (the single-writer contract of IndexPublisher::append) streams
  // batches while readers hammer version_at_least with the freshest
  // appended generation — so reader-forced catch-ups race writer-side
  // defer-window publishes on the same shard state. The append-before-
  // advertise order below mirrors the shard's append-before-generation-
  // bump protocol, which is exactly what makes "the catch-up can never
  // come up short" hold; every reader asserts it.
  constexpr std::uint32_t kShards = 2;
  // Many defer windows, so both publish paths are exercised.
  constexpr std::uint64_t kBatches = 2000;
  IndexPublisher publisher(kShards);

  std::array<std::atomic<std::uint64_t>, kShards> advertised{};
  std::atomic<bool> failed{false};

  std::vector<std::thread> writers;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&, s] {
      for (std::uint64_t g = 1; g <= kBatches; ++g) {
        const std::vector<IndexEntry> keys{
            {u32_key(static_cast<std::uint32_t>(g % 256)), kIndexKeyWrite}};
        publisher.append(s, g, keys);
        advertised[s].store(g, std::memory_order_release);
      }
    });
  }

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::array<std::uint64_t, kShards> last{};
      bool done = false;
      while (!done) {
        done = true;
        for (std::uint32_t s = 0; s < kShards; ++s) {
          const std::uint64_t want =
              advertised[s].load(std::memory_order_acquire);
          const auto version = publisher.version_at_least(s, want);
          // Appended before advertised => the catch-up covers it, and
          // published generations never move backwards.
          if (version->generation() < want) failed.store(true);
          if (version->generation() < last[s]) failed.store(true);
          last[s] = version->generation();
          if (want < kBatches) done = false;
        }
      }
    });
  }

  for (auto& writer : writers) writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(failed.load());

  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(publisher.version_at_least(s, kBatches)->generation(),
              kBatches);
  }
  const auto stats = publisher.stats();
  EXPECT_EQ(stats.batches_appended, kShards * kBatches);
  EXPECT_EQ(stats.batches_folded, kShards * kBatches);
}

// ----------------------------------------------- runtime integration

CollectorRuntimeConfig stores_config(std::uint32_t shards,
                                     ThreadMode mode = ThreadMode::kInline) {
  CollectorRuntimeConfig config;
  config.num_shards = shards;
  config.thread_mode = mode;
  KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  config.keywrite = kw;
  KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;
  AppendSetup ap;
  ap.num_lists = 8;
  ap.entries_per_list = 8;  // tiny rings so cursors wrap in-test
  ap.entry_bytes = 4;
  config.append = ap;
  // The ring length must be a multiple of the append write batch.
  config.append_batch_size = 4;
  PostcardingSetup pc;
  pc.num_chunks = 1 << 14;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 4096; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  return config;
}

// Feeds the same four-store workload through `client`; when `flushes`
// is large the keys arrive in many small batches (incremental), when
// it is 1 everything lands in one delivery (rebuild-equivalent).
std::map<std::uint32_t, std::uint8_t> drive_workload(
    Client& client, std::uint32_t flush_every) {
  std::map<std::uint32_t, std::uint8_t> masks;
  std::uint32_t since_flush = 0;
  auto maybe_flush = [&] {
    if (++since_flush == flush_every) {
      EXPECT_TRUE(client.flush().ok());
      since_flush = 0;
    }
  };
  for (std::uint32_t id = 0; id < 200; ++id) {
    EXPECT_TRUE(client.keywrite().put_u32(u32_key(id), id * 3).ok());
    masks[id] |= kIndexKeyWrite;
    maybe_flush();
    if (id % 2 == 0) {
      EXPECT_TRUE(client.counters().add(u32_key(id), id + 1).ok());
      masks[id] |= kIndexKeyIncrement;
      maybe_flush();
    }
    if (id % 5 == 0) {
      EXPECT_TRUE(
          client.postcards().report(u32_key(id), 0, 1, id % 4096).ok());
      masks[id] |= kIndexPostcarding;
      maybe_flush();
    }
    if (id % 3 == 0) {
      EXPECT_TRUE(client.list(id % 8).append_u32(id).ok());
      maybe_flush();
    }
  }
  EXPECT_TRUE(client.flush().ok());
  return masks;
}

std::vector<IndexEntry> all_indexed_entries(CollectorRuntime& runtime) {
  std::vector<IndexEntry> out;
  for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
    const auto snap = runtime.snapshot_shard(s);
    const auto index = runtime.index_shard(s, snap->generation());
    EXPECT_GE(index->generation(), snap->generation());
    for (const auto& entry : flatten(*index)) out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return index_key_less(a.key, b.key);
            });
  return out;
}

TEST(RuntimeIndex, IncrementalEqualsRebuiltAcrossAllFourStores) {
  Client incremental = Client::local(stores_config(4));
  Client rebuilt = Client::local(stores_config(4));
  const auto masks = drive_workload(incremental, /*flush_every=*/1);
  const auto masks2 = drive_workload(rebuilt, /*flush_every=*/1000000);
  ASSERT_EQ(masks, masks2);

  const auto a = all_indexed_entries(*incremental.local_runtime());
  const auto b = all_indexed_entries(*rebuilt.local_runtime());
  expect_same_entries(a, b);

  // And both equal the ground-truth key->mask map the workload built.
  ASSERT_EQ(a.size(), masks.size());
  std::size_t i = 0;
  for (const auto& [id, mask] : masks) {
    EXPECT_EQ(a[i].key, u32_key(id)) << "id " << id;
    EXPECT_EQ(a[i].primitives, mask) << "id " << id;
    ++i;
  }

  // Per-shard ownership: each key is indexed exactly on its shard.
  CollectorRuntime& runtime = *incremental.local_runtime();
  std::vector<std::shared_ptr<const ShardIndexVersion>> indexes;
  for (std::uint32_t s = 0; s < 4; ++s) {
    indexes.push_back(
        runtime.index_shard(s, runtime.snapshot_shard(s)->generation()));
  }
  for (const auto& [id, mask] : masks) {
    const std::uint32_t owner = shard_for_key(u32_key(id), 4);
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(indexes[s]->lookup(u32_key(id)), s == owner ? mask : 0)
          << "id " << id << " shard " << s;
    }
  }
}

TEST(RuntimeIndex, SecondTripOverSameKeysCopiesNoLeaf) {
  // An inline runtime indexes 2,000 keys; the same reports again fold
  // through the same windows but add nothing, so the publisher's
  // leaf-copy count stays put and each shard republishes its old leaf
  // vector.
  Client client = Client::local(stores_config(2));
  CollectorRuntime& runtime = *client.local_runtime();
  auto trip = [&] {
    for (std::uint32_t id = 0; id < 2000; ++id) {
      ASSERT_TRUE(client.keywrite().put_u32(u32_key(id), id).ok());
      if (id % 2 == 0) {
        ASSERT_TRUE(client.counters().add(u32_key(id), 1).ok());
      }
    }
    ASSERT_TRUE(client.flush().ok());
  };
  // Every delivered batch's keys folded in and published.
  auto settled = [&] {
    std::vector<std::shared_ptr<const ShardIndexVersion>> out;
    for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
      out.push_back(
          runtime.index_shard(s, runtime.snapshot_shard(s)->generation()));
    }
    return out;
  };

  trip();
  const auto first = settled();
  const IndexPublisherStats after_first = runtime.index_publisher().stats();
  EXPECT_GT(after_first.leaf_copies, 0u);

  trip();
  const auto second = settled();
  const IndexPublisherStats after_second = runtime.index_publisher().stats();
  EXPECT_GT(after_second.publishes, after_first.publishes);
  EXPECT_EQ(after_second.leaf_copies, after_first.leaf_copies);
  for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
    EXPECT_GT(second[s]->generation(), first[s]->generation());
    EXPECT_EQ(second[s]->key_count(), first[s]->key_count());
    EXPECT_EQ(&second[s]->leaves(), &first[s]->leaves()) << "shard " << s;
  }
}

TEST(RuntimeIndex, EventCursorDropResumeAndWrap) {
  Client client = Client::local(stores_config(2));
  // 20 entries through an 8-entry ring: 12 dropped at the tail.
  for (std::uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.list(1).append_u32(i).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  const auto from_zero = client.events(1).run();
  ASSERT_TRUE(from_zero.ok());
  EXPECT_EQ(from_zero->dropped, 12u);
  ASSERT_EQ(from_zero->entries.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(common::load_u32(from_zero->entries[i].data()), 12 + i);
  }
  EXPECT_EQ(from_zero->next.position, 20u);
  EXPECT_EQ(from_zero->remaining, 0u);

  // max() paginates; resuming from the returned cursor loses nothing.
  const auto first = client.events(1).max(3).run();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->dropped, 12u);
  ASSERT_EQ(first->entries.size(), 3u);
  EXPECT_EQ(first->next.position, 15u);
  EXPECT_EQ(first->remaining, 5u);
  const auto rest = client.events(1).since(first->next).run();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->dropped, 0u);
  ASSERT_EQ(rest->entries.size(), 5u);
  EXPECT_EQ(common::load_u32(rest->entries[0].data()), 15u);
  EXPECT_EQ(rest->remaining, 0u);

  // A drained cursor returns an empty batch, and resumes after new
  // entries arrive without rereading anything.
  const auto drained = client.events(1).since(from_zero->next).run();
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->entries.empty());
  EXPECT_EQ(drained->next.position, 20u);
  ASSERT_TRUE(client.list(1).append_u32(777).ok());
  ASSERT_TRUE(client.flush().ok());
  const auto fresh = client.events(1).since(drained->next).run();
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->entries.size(), 1u);
  EXPECT_EQ(common::load_u32(fresh->entries[0].data()), 777u);
  EXPECT_EQ(fresh->dropped, 0u);

  // A cursor ahead of the head is a typed error, not an empty batch.
  EXPECT_EQ(client.events(1).since(1000).run().code(),
            StatusCode::kOutOfRange);
}

TEST(RuntimeIndex, StressConcurrentIngestAndIndexedQueries) {
  // The TSan acceptance test: one producer streams reports through the
  // threaded pipeline while reader threads run indexed range queries,
  // event-cursor reads and per-shard generation checks. Readers must
  // never block ingest, never crash, and never observe a published
  // index generation going backwards.
  Client client = Client::local(stores_config(2, ThreadMode::kThreaded));
  CollectorRuntime& runtime = *client.local_runtime();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> range_results{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::uint64_t> last_gen(runtime.num_shards(), 0);
      EventCursor cursor;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto range = client.range(client.keywrite())
                               .from(u32_key(0))
                               .to(u32_key(4096))
                               .limit(64)
                               .run();
        if (range.ok()) {
          range_results.fetch_add(range->entries.size(),
                                  std::memory_order_relaxed);
        }
        const auto events =
            client.events(t % 8).since(cursor).max(16).run();
        if (events.ok()) cursor = events->next;
        for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
          const std::uint64_t gen =
              runtime.index_publisher().published(s)->generation();
          EXPECT_GE(gen, last_gen[s]);
          last_gen[s] = gen;
        }
      }
    });
  }

  for (std::uint32_t id = 0; id < 3000; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(u32_key(id % 512), id).ok());
    if (id % 4 == 0) {
      ASSERT_TRUE(client.counters().add(u32_key(id % 512), 1).ok());
    }
    if (id % 8 == 0) {
      ASSERT_TRUE(client.list(id % 8).append_u32(id).ok());
    }
  }
  ASSERT_TRUE(client.flush().ok());
  stop.store(true);
  for (auto& reader : readers) reader.join();

  // Differential close: the settled range result must match a point-get
  // sweep exactly — same keys resolved, same bytes. (Point-gets are the
  // ground truth; checksum collisions may evict a key from the store,
  // in which case BOTH paths must miss it.)
  const auto final_range = client.range(client.keywrite())
                               .from(u32_key(0))
                               .to(u32_key(4096))
                               .run();
  ASSERT_TRUE(final_range.ok());
  std::vector<RangeEntry> expected;
  for (std::uint32_t id = 0; id < 512; ++id) {
    auto got = client.keywrite().get(u32_key(id));
    if (got.ok()) expected.push_back({u32_key(id), std::move(*got)});
  }
  EXPECT_GT(expected.size(), 500u);  // evictions should be rare
  ASSERT_EQ(final_range->entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(final_range->entries[i], expected[i]) << "entry " << i;
  }
}

}  // namespace
}  // namespace dta::collector
