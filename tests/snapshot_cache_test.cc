// Snapshot-cache tests: generation-stamped snapshot reuse between
// flushes, read-your-submits across cache hits, the refresh's writer
// job (the shard worker patches the snapshot between drain passes)
// under concurrent ingest+query load — the TSan headline test: many
// query threads against one flushing shard, where no query may ever
// observe a torn or stale-beyond-one-generation snapshot — and where the
// shard regions' pages actually land.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "collector/runtime.h"
#include "dta/report_builders.h"
#include "dtalib/client.h"
#include "rdma/memory_region.h"

namespace dta::collector {
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

// An 8-byte value whose halves must agree — a torn snapshot (copy
// racing a store write) would surface as lo != hi.
proto::ParsedDta paired_report(std::uint64_t id, std::uint32_t round) {
  Bytes data;
  common::put_u32(data, round);
  common::put_u32(data, round);
  return reports::keywrite(key_of(id), ByteSpan(data), /*redundancy=*/2);
}

proto::ParsedDta small_report(std::uint64_t id, std::uint32_t value,
                              std::uint8_t redundancy = 1) {
  return reports::keywrite_u32(key_of(id), value, redundancy);
}

CollectorRuntimeConfig cache_config(ThreadMode mode,
                                    std::uint32_t value_bytes = 4,
                                    std::uint32_t op_batch = 4) {
  CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = mode;
  config.op_batch_size = op_batch;
  KeyWriteSetup kw;
  kw.num_slots = 1 << 14;
  kw.value_bytes = value_bytes;
  config.keywrite = kw;
  return config;
}

// --------------------------------------------------------------- reuse

TEST(SnapshotCache, ServesCachedSnapshotBetweenChanges) {
  CollectorRuntime runtime(cache_config(ThreadMode::kInline));
  for (std::uint64_t id = 0; id < 10; ++id) {
    runtime.submit(small_report(id, 100 + static_cast<std::uint32_t>(id)));
  }

  const auto s1 = runtime.snapshot_shard(0);
  const auto s2 = runtime.snapshot_shard(0);
  EXPECT_EQ(s1.get(), s2.get()) << "unchanged shard must share one copy";
  auto stats = runtime.snapshot_cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);

  // New data invalidates: the next snapshot is a fresh, newer copy.
  runtime.submit(small_report(99, 7));
  const auto s3 = runtime.snapshot_shard(0);
  EXPECT_NE(s3.get(), s1.get());
  EXPECT_GT(s3->generation(), s1->generation());
  const auto result = s3->keywrite_query(key_of(99), 1);
  ASSERT_EQ(result.status, QueryStatus::kHit);
  EXPECT_EQ(common::load_u32(result.value.data()), 7u);
  // The old snapshot is immutable: key 99 is invisible to it.
  EXPECT_NE(s1->keywrite_query(key_of(99), 1).status, QueryStatus::kHit);
}

TEST(SnapshotCache, GenerationCountsDeliveredBatches) {
  CollectorRuntime runtime(cache_config(ThreadMode::kInline));
  EXPECT_EQ(runtime.shard(0).generation(), 0u);

  // op_batch_size = 4, redundancy 1: three reports stage three ops but
  // deliver nothing, so store memory — and the generation — are
  // untouched.
  for (std::uint64_t id = 0; id < 3; ++id) {
    runtime.submit(small_report(id, 1));
  }
  EXPECT_EQ(runtime.shard(0).generation(), 0u);

  runtime.submit(small_report(3, 1));  // fourth op: batch delivered
  EXPECT_EQ(runtime.shard(0).generation(), 1u);

  runtime.flush();  // nothing staged: no delivery, no bump
  EXPECT_EQ(runtime.shard(0).generation(), 1u);

  runtime.submit(small_report(4, 1));
  runtime.flush();  // partial batch forced out
  EXPECT_EQ(runtime.shard(0).generation(), 2u);
}

TEST(SnapshotCache, FreshCopyBypassesCache) {
  CollectorRuntime runtime(cache_config(ThreadMode::kInline));
  runtime.submit(small_report(1, 5));
  const auto f1 = runtime.snapshot_shard_fresh(0);
  const auto f2 = runtime.snapshot_shard_fresh(0);
  EXPECT_NE(f1.get(), f2.get()) << "fresh copies are never shared";
  const auto stats = runtime.snapshot_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(runtime.snapshot_cache().cached_count(), 0u);
  const auto result = f2->keywrite_query(key_of(1), 1);
  ASSERT_EQ(result.status, QueryStatus::kHit);
  EXPECT_EQ(common::load_u32(result.value.data()), 5u);
}

TEST(SnapshotCache, InvalidationDropsEntries) {
  CollectorRuntime runtime(cache_config(ThreadMode::kInline));
  runtime.submit(small_report(1, 5));
  const auto s1 = runtime.snapshot_shard(0);
  EXPECT_EQ(runtime.snapshot_cache().cached_count(), 1u);

  runtime.invalidate_snapshots();
  EXPECT_EQ(runtime.snapshot_cache().cached_count(), 0u);
  EXPECT_EQ(runtime.snapshot_cache().stats().invalidations, 1u);

  // Next acquisition re-copies even though the generation is unchanged.
  const auto s2 = runtime.snapshot_shard(0);
  EXPECT_NE(s2.get(), s1.get());
  EXPECT_EQ(s2->generation(), s1->generation());
  EXPECT_EQ(runtime.snapshot_cache().stats().misses, 2u);
}

TEST(SnapshotCache, ReadYourSubmitsAcrossCacheHits) {
  // A report that is submitted but not yet committed to an op batch
  // must still invalidate the cache: generation compare alone would
  // serve the stale snapshot (the batch hasn't delivered), covers_seq
  // is what catches it.
  CollectorRuntime runtime(
      cache_config(ThreadMode::kThreaded, 4, /*op_batch=*/64));
  runtime.submit(small_report(1, 11));
  const auto s1 = runtime.snapshot_shard(0);
  ASSERT_EQ(s1->keywrite_query(key_of(1), 1).status, QueryStatus::kHit);

  runtime.submit(small_report(2, 22));  // stays staged: batch of 64
  const auto s2 = runtime.snapshot_shard(0);
  EXPECT_NE(s2.get(), s1.get());
  const auto result = s2->keywrite_query(key_of(2), 1);
  ASSERT_EQ(result.status, QueryStatus::kHit);
  EXPECT_EQ(common::load_u32(result.value.data()), 22u);
  runtime.stop();
}

// ------------------------------------------------- concurrent stress

TEST(SnapshotCache, ConcurrentQueriesSeeFreshUntornSnapshots) {
  // The TSan headline: query threads acquire snapshots nonstop while
  // the control thread keeps writing and flushing one shard. Asserted
  // per observation:
  //   * torn-freedom — every 8-byte value has matching halves (a copy
  //     racing an ingest write would tear them);
  //   * freshness — a snapshot acquired after round R was published
  //     contains values >= R for every key (never stale beyond the
  //     generation the control thread pinned);
  //   * monotonicity — each thread's observed generations never go
  //     backwards.
  static constexpr std::uint32_t kKeys = 32;
  static constexpr std::uint32_t kRounds = 30;
  constexpr unsigned kQueryThreads = 3;

  CollectorRuntime runtime(
      cache_config(ThreadMode::kThreaded, /*value_bytes=*/8, /*op_batch=*/8));
  std::atomic<std::uint32_t> published_round{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&runtime, &published_round, &done] {
      std::uint64_t last_generation = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint32_t floor = published_round.load();
        const auto snap = runtime.snapshot_shard(0);
        EXPECT_GE(snap->generation(), last_generation);
        last_generation = snap->generation();
        for (std::uint64_t id = 0; id < kKeys; id += 5) {
          const auto result = snap->keywrite_query(key_of(id), 2);
          if (floor >= 1) {
            EXPECT_EQ(result.status, QueryStatus::kHit) << "key " << id;
          }
          if (result.status != QueryStatus::kHit) continue;
          const std::uint32_t lo = common::load_u32(result.value.data());
          const std::uint32_t hi = common::load_u32(result.value.data() + 4);
          EXPECT_EQ(lo, hi) << "torn value for key " << id;
          EXPECT_GE(lo, floor) << "stale snapshot served for key " << id;
          EXPECT_LE(lo, kRounds);
        }
      }
    });
  }

  for (std::uint32_t round = 1; round <= kRounds; ++round) {
    for (std::uint64_t id = 0; id < kKeys; ++id) {
      runtime.submit(paired_report(id, round));
    }
    // Pin the round into the cache (writer job + copy) before announcing
    // it: every snapshot acquired after the announcement includes it.
    const auto snap = runtime.snapshot_shard(0);
    EXPECT_GE(snap->generation(), round > 1 ? 1u : 0u);
    published_round.store(round);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  // Reuse must actually have happened, and must still work now that
  // the shard is idle.
  const auto a = runtime.snapshot_shard(0);
  const auto b = runtime.snapshot_shard(0);
  EXPECT_EQ(a.get(), b.get());
  const auto stats = runtime.snapshot_cache().stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, kRounds);
  runtime.stop();
}

TEST(SnapshotCache, ExactReadsReturnUnderSaturatingProducer) {
  // A producer that keeps the shard's queue full must not starve
  // exact-freshness reads: each worker drain pass stops at the depth it
  // started with, so a writer job waits a pass or two, not for an empty
  // queue. The producer only moves pre-built reports into the queue, so
  // when it has a core of its own it outruns the eight-replica worker
  // and the queue stays full until it runs dry; a starved read would
  // return only after that. Every read must return while the producer
  // still has reports left, and cover every report submitted before it.
  static constexpr std::uint64_t kKeys = 64;
  static constexpr std::uint8_t kRedundancy = 8;
  static constexpr std::uint64_t kReports = 1 << 16;
  static constexpr std::uint32_t kDepth = 256;  // one report per slot
  CollectorRuntimeConfig config = cache_config(ThreadMode::kThreaded);
  config.queue_capacity = kDepth;
  CollectorRuntime runtime(config);
  std::vector<proto::ParsedDta> pending;
  pending.reserve(kReports);
  for (std::uint64_t id = 0; id < kReports; ++id) {
    pending.push_back(small_report(id % kKeys, static_cast<std::uint32_t>(id),
                                   kRedundancy));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> done{false};
  std::atomic<bool> ran_dry{false};
  std::thread producer([&runtime, &pending, &done, &ran_dry, deadline] {
    for (std::uint64_t id = 0; id < kReports; ++id) {
      if (done.load(std::memory_order_acquire)) return;
      if (id % 256 == 0 && std::chrono::steady_clock::now() > deadline) {
        return;
      }
      runtime.submit(std::move(pending[id]));
    }
    ran_dry.store(true, std::memory_order_release);
  });

  // Read only once the producer has filled the queue twice over.
  while (runtime.pipeline().submitted(0) < 2 * kDepth &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  for (int read = 0; read < 20; ++read) {
    const std::uint64_t submitted = runtime.pipeline().submitted(0);
    const auto snap = runtime.snapshot_shard(0);
    // Report ids 0..submitted-1 are covered; the newest one's key must
    // hold its value or a later one.
    const std::uint64_t newest = submitted - 1;
    const auto result =
        snap->keywrite_query(key_of(newest % kKeys), kRedundancy);
    EXPECT_EQ(result.status, QueryStatus::kHit) << "read " << read;
    if (result.status == QueryStatus::kHit) {
      EXPECT_GE(common::load_u32(result.value.data()),
                static_cast<std::uint32_t>(newest))
          << "read " << read << " misses a report submitted before it";
    }
  }
  EXPECT_FALSE(ran_dry.load(std::memory_order_acquire))
      << "exact reads returned only once the producer stopped: starved";
  EXPECT_LT(std::chrono::steady_clock::now(), deadline);
  done.store(true, std::memory_order_release);
  producer.join();
  runtime.stop();
}

TEST(SnapshotCache, StopRacingSnapshotAcquisitionIsSafe) {
  // stop() may land while another thread is inside snapshot_shard: the
  // worker must not exit with an unanswered writer job (hang) or run
  // its final flush during a copy (tear). Loop a few races; TSan
  // watches.
  for (int iteration = 0; iteration < 5; ++iteration) {
    CollectorRuntime runtime(
        cache_config(ThreadMode::kThreaded, /*value_bytes=*/8, /*op_batch=*/4));
    for (std::uint64_t id = 0; id < 16; ++id) {
      runtime.submit(paired_report(id, 1));
    }
    std::atomic<bool> done{false};
    std::thread reader([&runtime, &done] {
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = runtime.snapshot_shard(0);
        const auto result = snap->keywrite_query(key_of(3), 2);
        if (result.status == QueryStatus::kHit) {
          EXPECT_EQ(common::load_u32(result.value.data()),
                    common::load_u32(result.value.data() + 4));
        }
      }
    });
    std::this_thread::yield();
    runtime.stop();  // races the reader's acquisitions
    done.store(true, std::memory_order_release);
    reader.join();

    // The stopped pipeline still snapshots (single-threaded fallback).
    const auto snap = runtime.snapshot_shard(0);
    EXPECT_EQ(snap->keywrite_query(key_of(3), 2).status, QueryStatus::kHit);
  }
}

// ------------------------------------------- incremental refresh (PR 4)

// Byte-for-byte equality of two snapshots' copied regions.
void expect_snapshots_identical(const StoreSnapshot& a,
                                const StoreSnapshot& b) {
  const auto compare = [](const rdma::MemoryRegion* x,
                          const rdma::MemoryRegion* y, const char* what) {
    ASSERT_EQ(x == nullptr, y == nullptr) << what;
    if (!x) return;
    ASSERT_EQ(x->length(), y->length()) << what;
    EXPECT_EQ(std::memcmp(x->data(), y->data(), x->length()), 0)
        << what << " memory diverged";
  };
  EXPECT_EQ(a.generation(), b.generation());
  compare(a.keywrite_mem(), b.keywrite_mem(), "keywrite");
  compare(a.postcarding_mem(), b.postcarding_mem(), "postcarding");
  compare(a.append_mem(), b.append_mem(), "append");
  compare(a.keyincrement_mem(), b.keyincrement_mem(), "keyincrement");
}

TEST(SnapshotCache, IncrementalRefreshMatchesFullCopy) {
  CollectorRuntime runtime(cache_config(ThreadMode::kInline));
  for (std::uint32_t round = 1; round <= 8; ++round) {
    for (std::uint64_t id = round; id < round + 6; ++id) {
      runtime.submit(small_report(id, round));
    }
    runtime.flush();
    const auto cached = runtime.snapshot_shard(0);
    const auto reference = runtime.snapshot_shard_fresh(0);
    expect_snapshots_identical(*cached, *reference);
  }
  const auto stats = runtime.snapshot_cache().stats();
  // First build is a full copy; every later round only patched chunks.
  EXPECT_EQ(stats.full_refreshes, 1u);
  EXPECT_EQ(stats.incremental_refreshes, 7u);
}

TEST(SnapshotCache, IncrementalRefreshCopiesOnlyDirtiedBytes) {
  CollectorRuntimeConfig config = cache_config(ThreadMode::kInline);
  config.snapshot_chunk_bytes = 4096;
  CollectorRuntime runtime(config);
  const std::uint64_t store_bytes =
      runtime.shard(0).service().keywrite_region()->length();

  for (std::uint64_t id = 0; id < 200; ++id) {
    runtime.submit(small_report(id, 1));
  }
  (void)runtime.snapshot_shard(0);  // full first build
  const std::uint64_t after_build =
      runtime.snapshot_cache().stats().quiesce_bytes_copied;
  EXPECT_GE(after_build, store_bytes);

  // One report dirties one chunk: the next refresh's writer job must
  // copy a tiny fraction of the store, not all of it.
  runtime.submit(small_report(7777, 2));
  runtime.flush();
  (void)runtime.snapshot_shard(0);
  const auto stats = runtime.snapshot_cache().stats();
  EXPECT_EQ(stats.incremental_refreshes, 1u);
  const std::uint64_t patched = stats.quiesce_bytes_copied - after_build;
  EXPECT_GT(patched, 0u);
  EXPECT_LE(patched, store_bytes / 4) << "patch should be chunk-sized";
}

TEST(SnapshotCache, PinnedReaderForcesCopyOnWrite) {
  CollectorRuntime runtime(cache_config(ThreadMode::kInline));
  runtime.submit(small_report(1, 10));
  auto pinned = runtime.snapshot_shard(0);

  // The pinned snapshot must stay frozen: the refresh clones instead of
  // patching in place.
  runtime.submit(small_report(2, 20));
  auto fresh = runtime.snapshot_shard(0);
  EXPECT_NE(fresh.get(), pinned.get());
  EXPECT_EQ(runtime.snapshot_cache().stats().cow_clones, 1u);
  EXPECT_NE(pinned->keywrite_query(key_of(2), 1).status, QueryStatus::kHit);
  ASSERT_EQ(fresh->keywrite_query(key_of(2), 1).status, QueryStatus::kHit);

  // A handle is the record: a copy of one, taken before the refresh,
  // holds the snapshot alone once the original is dropped.
  const auto copied = fresh;
  pinned.reset();
  fresh.reset();
  runtime.submit(small_report(3, 30));
  auto after_copy = runtime.snapshot_shard(0);
  EXPECT_NE(after_copy.get(), copied.get());
  EXPECT_EQ(runtime.snapshot_cache().stats().cow_clones, 2u);
  EXPECT_NE(copied->keywrite_query(key_of(3), 1).status, QueryStatus::kHit);

  // So does a copy of a ByteView into the snapshot.
  const auto span = after_copy->keywrite_query_view(key_of(3), 1);
  ASSERT_EQ(span.status, QueryStatus::kHit);
  std::optional<ByteView> view(ByteView(after_copy, span.value));
  const ByteView view_copy = *view;
  view.reset();
  after_copy.reset();
  runtime.submit(small_report(3, 31));
  auto after_view = runtime.snapshot_shard(0);
  EXPECT_EQ(runtime.snapshot_cache().stats().cow_clones, 3u);
  EXPECT_EQ(common::load_u32(view_copy.data()), 30u);
  EXPECT_EQ(common::load_u32(
                after_view->keywrite_query(key_of(3), 1).value.data()),
            31u);

  // With every copy dropped the next refresh patches the published
  // snapshot in place — same object, new contents, no clone.
  const StoreSnapshot* recycled = after_view.get();
  after_view.reset();
  runtime.submit(small_report(4, 40));
  const auto in_place = runtime.snapshot_shard(0);
  EXPECT_EQ(in_place.get(), recycled);
  EXPECT_EQ(runtime.snapshot_cache().stats().cow_clones, 3u);
  ASSERT_EQ(in_place->keywrite_query(key_of(4), 1).status, QueryStatus::kHit);
}

TEST(SnapshotCache, HighDirtyRatioFallsBackToFullCopy) {
  CollectorRuntimeConfig config = cache_config(ThreadMode::kInline);
  KeyWriteSetup kw;
  kw.num_slots = 1 << 10;  // tiny store: a burst dirties most chunks
  kw.value_bytes = 4;
  config.keywrite = kw;
  config.snapshot_chunk_bytes = 64;
  config.snapshot_full_copy_ratio = 0.25;
  CollectorRuntime runtime(config);
  runtime.submit(small_report(0, 1));
  (void)runtime.snapshot_shard(0);  // first build

  for (std::uint64_t id = 0; id < 1000; ++id) {
    runtime.submit(small_report(id, 2));
  }
  runtime.flush();
  const auto snap = runtime.snapshot_shard(0);
  const auto stats = runtime.snapshot_cache().stats();
  EXPECT_EQ(stats.incremental_refreshes, 0u);
  EXPECT_EQ(stats.full_refreshes, 2u);
  expect_snapshots_identical(*snap, *runtime.snapshot_shard_fresh(0));
}

// --------------------------------------------- bounded staleness (PR 4)

TEST(SnapshotCache, WithinBudgetServesWithoutQuiesce) {
  CollectorRuntimeConfig config = cache_config(ThreadMode::kInline);
  config.staleness_budget.generations = 100;
  CollectorRuntime runtime(config);
  runtime.submit(small_report(1, 1));
  const auto base = runtime.snapshot_shard_bounded(0);  // miss: first build
  const std::uint64_t quiesces_after_build = runtime.pipeline().quiesces(0);
  EXPECT_GE(quiesces_after_build, 1u);

  // The store changes; a bounded acquisition within budget serves the
  // stale snapshot without running a writer job or refreshing.
  runtime.submit(small_report(2, 2));
  runtime.flush();
  const std::uint64_t quiesces_before = runtime.pipeline().quiesces(0);
  const auto stale = runtime.snapshot_shard_bounded(0);
  EXPECT_EQ(stale.get(), base.get()) << "budget must reuse the cached copy";
  EXPECT_EQ(runtime.pipeline().quiesces(0), quiesces_before)
      << "a within-budget serve must not quiesce";
  EXPECT_GE(runtime.snapshot_cache().stats().stale_hits, 1u);
  EXPECT_LT(stale->generation(), runtime.shard(0).generation());

  // The exact-freshness path still refreshes.
  const auto fresh = runtime.snapshot_shard(0);
  EXPECT_GT(runtime.pipeline().quiesces(0), quiesces_before);
  EXPECT_EQ(fresh->generation(), runtime.shard(0).generation());

  // A current record read under a budget is served by the budget: no
  // writer job, and one stale hit — not a hit as well.
  const auto served_before = runtime.snapshot_cache().stats();
  const std::uint64_t quiesces_current = runtime.pipeline().quiesces(0);
  const auto current = runtime.snapshot_shard_bounded(0);
  EXPECT_EQ(current.get(), fresh.get());
  EXPECT_EQ(runtime.pipeline().quiesces(0), quiesces_current);
  const auto served_after = runtime.snapshot_cache().stats();
  EXPECT_EQ(served_after.stale_hits, served_before.stale_hits + 1);
  EXPECT_EQ(served_after.hits, served_before.hits);
  EXPECT_EQ(served_after.misses, served_before.misses);
}

TEST(SnapshotCache, ExpiredGenerationBudgetRefreshes) {
  CollectorRuntimeConfig config = cache_config(ThreadMode::kInline);
  config.staleness_budget.generations = 2;
  // op_batch 4 (cache_config): each flushed report = one generation.
  CollectorRuntime runtime(config);
  runtime.submit(small_report(0, 1));
  runtime.flush();
  const auto base = runtime.snapshot_shard_bounded(0);

  // Lag 2 generations: still within budget.
  for (std::uint64_t id = 1; id <= 2; ++id) {
    runtime.submit(small_report(id, 1));
    runtime.flush();
  }
  EXPECT_EQ(runtime.snapshot_shard_bounded(0).get(), base.get());

  // A third generation exceeds the budget: the cache must refresh.
  runtime.submit(small_report(3, 1));
  runtime.flush();
  const std::uint64_t quiesces_before = runtime.pipeline().quiesces(0);
  const auto refreshed = runtime.snapshot_shard_bounded(0);
  EXPECT_NE(refreshed.get(), base.get());
  EXPECT_EQ(refreshed->generation(), runtime.shard(0).generation());
  EXPECT_GT(runtime.pipeline().quiesces(0), quiesces_before);
}

TEST(SnapshotCache, AgeBudgetExpires) {
  CollectorRuntimeConfig config = cache_config(ThreadMode::kInline);
  config.staleness_budget.age_us = 600ull * 1000 * 1000;  // 10 min
  CollectorRuntime runtime(config);
  runtime.submit(small_report(1, 1));
  const auto base = runtime.snapshot_shard_bounded(0);

  // Any generation lag is fine while the snapshot is young.
  runtime.submit(small_report(2, 2));
  runtime.flush();
  EXPECT_EQ(runtime.snapshot_shard_bounded(0).get(), base.get());

  // Shrink the budget below the snapshot's age: it must refresh.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  SnapshotStalenessBudget tight;
  tight.age_us = 1;
  runtime.set_staleness_budget(tight);
  const auto refreshed = runtime.snapshot_shard_bounded(0);
  EXPECT_NE(refreshed.get(), base.get());
  EXPECT_EQ(refreshed->generation(), runtime.shard(0).generation());
}

TEST(SnapshotCache, CoversSeqFloorOverridesBudget) {
  CollectorRuntimeConfig config = cache_config(ThreadMode::kInline);
  config.staleness_budget.generations = 100;
  CollectorRuntime runtime(config);
  runtime.submit(small_report(1, 11));
  const auto base = runtime.snapshot_shard_bounded(0);

  runtime.submit(small_report(2, 22));
  // Without a floor the budget serves the stale copy (key 2 invisible)…
  const auto stale = runtime.snapshot_shard_bounded(0);
  EXPECT_EQ(stale.get(), base.get());
  EXPECT_NE(stale->keywrite_query(key_of(2), 1).status, QueryStatus::kHit);

  // …but a read-your-submits floor forces a covering refresh.
  const auto covering =
      runtime.snapshot_shard_bounded(0, runtime.pipeline().submitted(0));
  EXPECT_NE(covering.get(), base.get());
  const auto result = covering->keywrite_query(key_of(2), 1);
  ASSERT_EQ(result.status, QueryStatus::kHit);
  EXPECT_EQ(common::load_u32(result.value.data()), 22u);
}

TEST(SnapshotCache, StaleServingQueriesDuringIngest) {
  // TSan stress for the bounded path: readers spin on
  // snapshot_shard_bounded — mostly riding stale cached snapshots, so
  // almost never quiescing — while the control thread keeps writing and
  // pinning fresh generations. Asserts torn-freedom and per-thread
  // generation monotonicity; TSan watches the rest.
  static constexpr std::uint32_t kKeys = 32;
  static constexpr std::uint32_t kRounds = 20;
  constexpr unsigned kQueryThreads = 3;

  CollectorRuntimeConfig config =
      cache_config(ThreadMode::kThreaded, /*value_bytes=*/8, /*op_batch=*/8);
  config.staleness_budget.generations = 4;
  CollectorRuntime runtime(config);
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&runtime, &done] {
      std::uint64_t last_generation = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = runtime.snapshot_shard_bounded(0);
        EXPECT_GE(snap->generation(), last_generation);
        last_generation = snap->generation();
        for (std::uint64_t id = 0; id < kKeys; id += 7) {
          const auto result = snap->keywrite_query(key_of(id), 2);
          if (result.status != QueryStatus::kHit) continue;
          const std::uint32_t lo = common::load_u32(result.value.data());
          const std::uint32_t hi = common::load_u32(result.value.data() + 4);
          EXPECT_EQ(lo, hi) << "torn value for key " << id;
          EXPECT_LE(lo, kRounds);
        }
      }
    });
  }

  for (std::uint32_t round = 1; round <= kRounds; ++round) {
    for (std::uint64_t id = 0; id < kKeys; ++id) {
      runtime.submit(paired_report(id, round));
    }
    // Pin each round through the exact path so refreshes (and their
    // in-place/COW decisions) interleave with the stale serves.
    (void)runtime.snapshot_shard(0);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  const auto stats = runtime.snapshot_cache().stats();
  EXPECT_GE(stats.misses, kRounds);
  runtime.stop();
}

// A producer thread that keeps shard 0's queue full of paired 8-byte
// Key-Write reports on kKeys keys, a new round each pass, until
// stopped.
class SaturatingProducer {
 public:
  static constexpr std::uint64_t kKeys = 64;

  explicit SaturatingProducer(CollectorRuntime& runtime)
      : thread_([this, &runtime] {
          for (std::uint32_t round = 1; !done_.load(std::memory_order_acquire);
               ++round) {
            for (std::uint64_t id = 0; id < kKeys; ++id) {
              runtime.submit(paired_report(id, round));
            }
          }
        }) {}
  ~SaturatingProducer() { stop(); }
  SaturatingProducer(const SaturatingProducer&) = delete;
  SaturatingProducer& operator=(const SaturatingProducer&) = delete;

  void stop() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

CollectorRuntimeConfig saturated_config() {
  CollectorRuntimeConfig config =
      cache_config(ThreadMode::kThreaded, /*value_bytes=*/8, /*op_batch=*/8);
  config.keywrite->num_slots = 1 << 10;
  config.queue_capacity = 256;
  return config;
}

// An age-only budget longer than any test: what the pipeline bench's
// panels read under.
constexpr SnapshotStalenessBudget kLongAgeBudget{0, 600ull * 1000 * 1000};

TEST(SnapshotCache, BudgetedReadWaitingOnARefreshTakesItsRecord) {
  // One exact reader, whose reads refresh beside a saturating producer,
  // and one budgeted reader. A budgeted read can still land on
  // refresh's mutex (the entry is empty while a refresh patches in
  // place); the double-check under the mutex must then serve the record
  // that refresh published, which fits the budget, instead of running a
  // second writer job. So each exact read is one hit or one miss, and
  // every budgeted read is one stale hit.
  static constexpr std::uint64_t kExactReads = 500;
  CollectorRuntime runtime(saturated_config());
  SaturatingProducer producer(runtime);
  (void)runtime.snapshot_shard(0);  // first build
  const SnapshotCacheStats before = runtime.snapshot_cache().stats();

  std::atomic<bool> budgeted_started{false};
  std::atomic<bool> exact_done{false};
  std::uint64_t budgeted_reads = 0;
  std::thread budgeted([&] {
    while (!exact_done.load(std::memory_order_acquire)) {
      EXPECT_NE(runtime.snapshot_shard_bounded(0, 0, kLongAgeBudget), nullptr);
      ++budgeted_reads;
      budgeted_started.store(true, std::memory_order_release);
    }
  });
  while (!budgeted_started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (std::uint64_t read = 0; read < kExactReads; ++read) {
    EXPECT_NE(runtime.snapshot_shard(0), nullptr);
  }
  exact_done.store(true, std::memory_order_release);
  budgeted.join();
  producer.stop();

  const SnapshotCacheStats after = runtime.snapshot_cache().stats();
  EXPECT_EQ(after.misses + after.hits - before.misses - before.hits,
            kExactReads)
      << "budgeted reads refreshed or were counted as exact hits";
  EXPECT_EQ(after.stale_hits - before.stale_hits, budgeted_reads);
  runtime.stop();
}

TEST(SnapshotCache, HandlesHoldTheirBytesUnderSaturatingProducer) {
  // TSan stress for the pin protocol: two readers take handles, budgeted
  // and exact, copy them, drop the originals and keep a few copies
  // across later refreshes (dropping them all now and then), while a
  // saturating producer rewrites every key. The Key-Write region's bytes must not change while any copy of
  // a handle is held: a refresh may patch a snapshot in place only once
  // no handle can reach it.
  static constexpr int kReadsPerReader = 400;
  static constexpr std::size_t kHeld = 3;
  CollectorRuntime runtime(saturated_config());
  SaturatingProducer producer(runtime);
  (void)runtime.snapshot_shard(0);

  struct Held {
    std::shared_ptr<const StoreSnapshot> snap;
    Bytes bytes;
  };
  const auto region_bytes = [](const StoreSnapshot& snap) {
    const rdma::MemoryRegion* region = snap.keywrite_mem();
    return Bytes(region->data(), region->data() + region->length());
  };
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 2; ++reader) {
    readers.emplace_back([&runtime, &region_bytes, reader] {
      std::vector<Held> held;
      for (int read = 0; read < kReadsPerReader; ++read) {
        auto taken = (read + reader) % 2 == 0
                         ? runtime.snapshot_shard(0)
                         : runtime.snapshot_shard_bounded(0, 0, kLongAgeBudget);
        Held h{taken, region_bytes(*taken)};
        taken.reset();  // the copy in `h` alone holds the record now
        held.push_back(std::move(h));
        for (const Held& kept : held) {
          ASSERT_TRUE(region_bytes(*kept.snap) == kept.bytes)
              << "a held snapshot changed under its handle";
        }
        if (held.size() > kHeld) held.erase(held.begin());
        // Now and then hold nothing, so refreshes also patch in place.
        if (read % 16 == 15) held.clear();
      }
    });
  }
  for (auto& reader : readers) reader.join();
  producer.stop();
  EXPECT_GT(runtime.snapshot_cache().stats().cow_clones, 0u);
  runtime.stop();
}

// ------------------------------------------------------ NUMA placement

// ------------------------------------------------------------ zero-copy

TEST(SnapshotCache, ZeroCopyViewsStableAcrossRefreshes) {
  // The zero-copy serving contract: a query-view span into a pinned
  // snapshot stays byte-stable forever, because the cache never patches
  // a pinned snapshot in place — refreshes divert to a COW clone.
  CollectorRuntime runtime(cache_config(ThreadMode::kInline));
  for (std::uint64_t id = 0; id < 16; ++id) {
    runtime.submit(small_report(id, 100 + static_cast<std::uint32_t>(id)));
  }

  const auto pinned = runtime.snapshot_shard(0);
  const auto view = pinned->keywrite_query_view(key_of(3), 1);
  ASSERT_EQ(view.status, QueryStatus::kHit);
  ASSERT_EQ(view.value.size(), 4u);
  EXPECT_EQ(common::load_u32(view.value.data()), 103u);

  // Overwrite the very key the view points at, across several refresh
  // cycles, while the original snapshot stays pinned.
  for (std::uint32_t round = 0; round < 5; ++round) {
    runtime.submit(small_report(3, 1000 + round));
    const auto fresh = runtime.snapshot_shard(0);
    const auto fresh_view = fresh->keywrite_query_view(key_of(3), 1);
    ASSERT_EQ(fresh_view.status, QueryStatus::kHit);
    EXPECT_EQ(common::load_u32(fresh_view.value.data()), 1000 + round);
    // The held view is untouched by every refresh.
    EXPECT_EQ(common::load_u32(view.value.data()), 103u)
        << "pinned view mutated in round " << round;
  }
  EXPECT_GE(runtime.snapshot_cache().stats().cow_clones, 1u)
      << "refreshes over a pinned snapshot must clone, not patch";
}

TEST(SnapshotCache, ConcurrentZeroCopyViewsUnderIngest) {
  // TSan coverage for the view lifetime rule: reader threads hold
  // query-view spans across ingest + refresh cycles and re-validate
  // their bytes; the control thread keeps mutating the same keys. Any
  // in-place patch of a pinned snapshot is a data race TSan flags and
  // a value mismatch this test catches.
  static constexpr std::uint32_t kKeys = 16;
  static constexpr std::uint32_t kRounds = 25;
  constexpr unsigned kReaders = 2;

  CollectorRuntime runtime(
      cache_config(ThreadMode::kThreaded, /*value_bytes=*/8, /*op_batch=*/8));
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    runtime.submit(paired_report(id, 1));
  }
  (void)runtime.snapshot_shard(0);
  std::atomic<bool> done{false};

  struct HeldView {
    std::shared_ptr<const StoreSnapshot> snap;
    ByteSpan value;
    std::uint32_t observed = 0;
  };

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kReaders; ++t) {
    readers.emplace_back([&runtime, &done] {
      std::vector<HeldView> held;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = runtime.snapshot_shard(0);
        for (std::uint64_t id = 0; id < kKeys; id += 3) {
          const auto view = snap->keywrite_query_view(key_of(id), 2);
          if (view.status != QueryStatus::kHit) continue;
          HeldView h;
          h.snap = snap;
          h.value = view.value;
          h.observed = common::load_u32(view.value.data());
          held.push_back(std::move(h));
        }
        // Every retained view — possibly several refreshes old — must
        // still read exactly what it read at acquisition time.
        for (const auto& h : held) {
          EXPECT_EQ(common::load_u32(h.value.data()), h.observed);
          EXPECT_EQ(common::load_u32(h.value.data() + 4), h.observed);
        }
        if (held.size() > 24) held.erase(held.begin(), held.begin() + 12);
      }
    });
  }

  for (std::uint32_t round = 2; round <= kRounds; ++round) {
    for (std::uint64_t id = 0; id < kKeys; ++id) {
      runtime.submit(paired_report(id, round));
    }
    (void)runtime.snapshot_shard(0);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  runtime.stop();
}

TEST(SnapshotCache, ConcurrentEventReadsOfOneSnapshotAgree) {
  // Event reads only read the shared snapshot: four threads reading one
  // cached snapshot by cursor, with no ingest between reads, each get
  // exactly what a single-threaded read gets. Under TSan a write any
  // read made to the shared snapshot would also race the others.
  CollectorRuntimeConfig config = cache_config(ThreadMode::kThreaded);
  AppendSetup ap;
  ap.num_lists = 2;
  ap.entries_per_list = 64;
  ap.entry_bytes = 4;
  config.append = ap;
  Client client = Client::local(config);
  // 96 entries into a 64-entry ring: positions 0..31 are overwritten.
  auto list = client.list(0);
  for (std::uint32_t i = 0; i < 96; ++i) {
    ASSERT_TRUE(list.append_u32(500 + i).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  struct Read {
    std::vector<Bytes> entries;
    std::uint64_t next = 0;
    std::uint64_t dropped = 0;
    bool operator==(const Read& o) const {
      return entries == o.entries && next == o.next && dropped == o.dropped;
    }
  };
  const auto read = [&client](std::uint64_t cursor, std::uint64_t max) {
    const auto batch = client.events(0).since(cursor).max(max).run();
    Read out;
    if (!batch.ok()) return out;
    out.entries = batch->entries;
    out.next = batch->next.position;
    out.dropped = batch->dropped;
    return out;
  };
  const std::uint64_t cursors[] = {0, 20, 32, 50, 90, 96};
  const std::uint64_t maxes[] = {1, 5, 64};
  std::vector<Read> expected;
  for (const std::uint64_t cursor : cursors) {
    for (const std::uint64_t max : maxes) expected.push_back(read(cursor, max));
  }
  const Read& whole = expected[2];  // cursor 0, max 64
  ASSERT_EQ(whole.entries.size(), 64u);
  EXPECT_EQ(whole.dropped, 32u);
  EXPECT_EQ(whole.next, 96u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(common::load_u32(whole.entries[i].data()), 532 + i);
  }

  const std::uint64_t misses =
      client.local_runtime()->snapshot_cache().stats().misses;
  std::atomic<std::uint32_t> mismatches{0};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::size_t i = 0;
        for (const std::uint64_t cursor : cursors) {
          for (const std::uint64_t max : maxes) {
            if (!(read(cursor, max) == expected[i++])) ++mismatches;
          }
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // Every read above was served from the one snapshot cached before.
  EXPECT_EQ(client.local_runtime()->snapshot_cache().stats().misses, misses);
  client.stop();
}

// The shard's regions ask for transparent huge pages, and the advice
// has to land before the first write to count: a hinted region of at
// least 2 MiB starts on a 2 MiB boundary and is advised, and so are the
// snapshot copy and the copy-on-write clone.
TEST(SnapshotCache, HugepageHintedRegionsAndTheirCopiesAreAdvised) {
  CollectorRuntimeConfig config = cache_config(ThreadMode::kInline);
  config.keywrite->num_slots = 1 << 19;  // 8 B slots: a 4 MiB region
  CollectorRuntime runtime(config);
  for (std::uint64_t id = 0; id < 64; ++id) {
    runtime.submit(small_report(id, static_cast<std::uint32_t>(id), 2));
  }
  runtime.flush();
  const RdmaService& service = runtime.shard(0).service();
  const auto snap = runtime.snapshot_shard(0);
  const auto clone = snap->clone(service);
  rdma::MemoryRegion* live = runtime.shard(0).service().keywrite_region();
  const std::vector<std::uint8_t> before(live->data(),
                                         live->data() + live->length());
  ASSERT_GE(live->length(), std::size_t{2} << 20);
#if defined(__linux__)
  // madvise(MADV_HUGEPAGE) succeeds on any kernel built with THP, in
  // every mode; the sysfs knob exists exactly then.
  const bool thp = std::ifstream(
                       "/sys/kernel/mm/transparent_hugepage/enabled")
                       .is_open();
  const auto check = [thp](const rdma::MemoryRegion* region,
                           const char* what) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(region->data()) % (2u << 20),
              0u)
        << what;
    if (thp) {
      EXPECT_TRUE(region->hugepage_advised()) << what;
    }
  };
  check(live, "live region");
  check(snap->keywrite_mem(), "snapshot copy");
  check(clone->keywrite_mem(), "copy-on-write clone");
#endif
  EXPECT_TRUE(std::equal(before.begin(), before.end(), live->data()));
  EXPECT_TRUE(std::equal(before.begin(), before.end(),
                         snap->keywrite_mem()->data()));
  const auto read = service.keywrite()->query(key_of(7), 2);
  ASSERT_EQ(read.status, QueryStatus::kHit);
  EXPECT_EQ(read.value, snap->keywrite_query(key_of(7), 2).value);
  runtime.stop();
}

// ------------------------------------------------------ page placement
//
// No placement hint exists: a live store page is faulted in by its
// first writer, the shard's pinned worker, so the kernel's default
// local allocation puts it on that worker's node. These check where
// the pages actually are, not what anything recorded about them.

#if defined(__linux__)
CollectorRuntimeConfig placement_config(ThreadMode mode) {
  CollectorRuntimeConfig config = cache_config(mode);
  config.num_shards = 2;
  config.keywrite->num_slots = 1 << 19;  // 2 MiB per shard: advised onto THP
  PostcardingSetup pc;
  pc.num_chunks = 1 << 12;
  pc.hops = 4;
  for (std::uint32_t v = 0; v < 64; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  AppendSetup ap;
  ap.num_lists = 4;
  ap.entries_per_list = 1 << 10;
  ap.entry_bytes = 4;
  config.append = ap;
  KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;  // 16 KiB per shard: below a huge page
  config.keyincrement = ki;
  return config;
}

std::vector<const rdma::MemoryRegion*> live_regions(CollectorShard& shard) {
  RdmaService& service = shard.service();
  return {service.keywrite_region(), service.postcarding_region(),
          service.append_region(), service.keyincrement_region()};
}

// The resident pages of `region`'s buffer per mincore, or nullopt when
// the kernel refuses the call.
std::optional<std::vector<void*>> resident_pages(
    const rdma::MemoryRegion& region) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  auto* base = const_cast<std::uint8_t*>(region.data());
  std::vector<unsigned char> vec((region.length() + page - 1) / page);
  if (mincore(base, region.length(), vec.data()) != 0) return std::nullopt;
  std::vector<void*> out;
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if (vec[i] & 1) out.push_back(base + i * page);
  }
  return out;
}

// The node the kernel reports (getcpu) to a thread pinned to `core`, or
// -1 when the thread cannot be pinned there or the call is refused.
int node_of_core(int core) {
  int node = -1;
  std::thread probe([core, &node] {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(core), &set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
      return;
    }
    unsigned cpu = 0, cpu_node = 0;
    if (syscall(SYS_getcpu, &cpu, &cpu_node, nullptr) == 0 &&
        cpu == static_cast<unsigned>(core)) {
      node = static_cast<int>(cpu_node);
    }
  });
  probe.join();
  return node;
}

TEST(StorePlacement, NoLivePageIsFaultedBeforeTheFirstSubmit) {
  // Nothing writes (or reads) a live store region before its first
  // writer does: not the mapping, the stores, the shard, the runtime,
  // the pipeline or its workers. Threaded and pinned, or inline.
  for (const ThreadMode mode : {ThreadMode::kThreaded, ThreadMode::kInline}) {
    CollectorRuntimeConfig config = placement_config(mode);
    config.pin_workers = true;
    config.worker_cores = {0, 0};  // core 0 always exists
    CollectorRuntime runtime(config);
    for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
      for (const rdma::MemoryRegion* region : live_regions(runtime.shard(s))) {
        const auto resident = resident_pages(*region);
        if (!resident) GTEST_SKIP() << "mincore: " << std::strerror(errno);
        EXPECT_TRUE(resident->empty())
            << resident->size() << " resident pages in shard " << s
            << " region rkey " << region->rkey() << " before any submit";
      }
    }
    runtime.stop();
  }
}

TEST(StorePlacement, LivePagesLandOnTheirPinnedWorkersNode) {
  // Two workers on the first and last core this process may run on (on
  // a multi-node host, usually two nodes). After they ingest and flush,
  // every resident page of a shard's live regions, taken with no
  // snapshot so that only what the worker wrote is resident, sits on
  // the node of its worker's core.
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  std::vector<int> cores;
  for (int core = 0; core < CPU_SETSIZE; ++core) {
    if (CPU_ISSET(core, &allowed)) cores.push_back(core);
  }
  ASSERT_FALSE(cores.empty());
  CollectorRuntimeConfig config = placement_config(ThreadMode::kThreaded);
  config.pin_workers = true;
  config.worker_cores = {cores.front(), cores.back()};
  std::vector<int> nodes;
  for (const int core : config.worker_cores) {
    nodes.push_back(node_of_core(core));
    if (nodes.back() < 0) GTEST_SKIP() << "getcpu on core " << core;
  }

  CollectorRuntime runtime(config);
  ASSERT_EQ(runtime.pipeline().stats().workers_pinned, 2u);
  for (std::uint64_t id = 0; id < 4000; ++id) {
    const TelemetryKey key = key_of(id);
    runtime.submit(reports::keywrite_u32(key, 1, /*redundancy=*/2));
    runtime.submit(reports::keyincrement(key, 3, /*redundancy=*/2));
    runtime.submit(reports::postcard(key, static_cast<std::uint8_t>(id % 4),
                                     4, static_cast<std::uint32_t>(id % 64)));
    runtime.submit(reports::append_u32(static_cast<std::uint32_t>(id % 4),
                                       static_cast<std::uint32_t>(id)));
  }
  runtime.flush();

  for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
    for (const rdma::MemoryRegion* region : live_regions(runtime.shard(s))) {
      const auto resident = resident_pages(*region);
      if (!resident) GTEST_SKIP() << "mincore: " << std::strerror(errno);
      ASSERT_FALSE(resident->empty())
          << "shard " << s << " region rkey " << region->rkey()
          << " holds no page after ingest";
      std::vector<int> status(resident->size(), -1);
      if (syscall(SYS_move_pages, 0L, resident->size(), resident->data(),
                  nullptr, status.data(), 0L) != 0) {
        GTEST_SKIP() << "move_pages: " << std::strerror(errno);
      }
      std::size_t misplaced = 0;
      for (const int node : status) misplaced += node != nodes[s];
      EXPECT_EQ(misplaced, 0u)
          << "of " << status.size() << " resident pages in shard " << s
          << " region rkey " << region->rkey() << ", expected on node "
          << nodes[s] << " (first status " << status.front() << ")";
    }
  }
  runtime.stop();
}
#endif  // __linux__

}  // namespace
}  // namespace dta::collector
