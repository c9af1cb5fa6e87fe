// Figure 11: Key-Write query performance.
//   (a) queries/s vs cores (1..32) and redundancy N (1..4);
//   (b) per-query execution-time breakdown: checksum computation vs
//       slot fetches.
//
// This is a *real* multithreaded measurement on this machine: the store
// is populated through the RDMA path, then worker threads issue the
// Algorithm 2 query (CRC checksum + N slot fetches + vote), exactly the
// paper's worst case of touching every redundancy slot.
//
// Section (c) extends the figure to the snapshot tier: queries through
// the runtime resolve against immutable StoreSnapshots, and the
// generation-stamped SnapshotCache turns one store copy *per query*
// into one per flush interval. The sweep measures cached vs fresh
// acquisition at growing queries-per-flush-interval Q and also reports
// the modeled throughput from the measured per-op costs
// (copy + query): fresh = Q / (Q*(t_copy + t_query)), cached =
// Q / (t_copy + Q*t_query).
//
// Section (d) sweeps the *incremental* refresh path: with 1%–100% of
// the store mutated per flush interval, dirty-chunk patching should
// cost proportionally to the dirtied bytes while the full copy stays
// flat — incremental wins exactly at low dirty ratios. Machine-
// readable output (sections (c)+(d) plus a "gate" summary for the CI
// regression gate): BENCH_snapshot_cache.json. Run with --smoke for
// the CI-sized sweep (sections (c)+(d)+(f) only, small store).
//
// Section (f) benchmarks the secondary index: indexed range queries vs
// the old-API scan (a get_many sweep over the full key catalog with a
// client-side filter), swept over selectivity. Emits BENCH_index.json.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "collector/rdma_service.h"
#include "collector/shard_index.h"
#include "dtalib/client.h"
#include "translator/keywrite_engine.h"
#include "translator/rdma_crafter.h"

using namespace dta;

namespace {

constexpr std::uint64_t kSlots = 1 << 22;  // 4M slots x 8B = 32MiB store
constexpr std::uint32_t kKeys = 1 << 20;

double run_queries(const collector::KeyWriteStore& store, unsigned threads,
                   unsigned redundancy, std::uint64_t queries_per_thread) {
  std::atomic<std::uint64_t> total{0};
  benchutil::WallTimer timer;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t hits = 0;
      for (std::uint64_t i = 0; i < queries_per_thread; ++i) {
        const auto key =
            benchutil::mixed_key((t * queries_per_thread + i) % kKeys);
        const auto result =
            store.query(key, static_cast<std::uint8_t>(redundancy));
        hits += result.status == collector::QueryStatus::kHit;
      }
      total += hits;
    });
  }
  for (auto& w : workers) w.join();
  const double seconds = timer.seconds();
  return static_cast<double>(threads) * queries_per_thread / seconds;
}

struct CachePoint {
  unsigned queries_per_flush = 0;
  double fresh_qps = 0.0;
  double cached_qps = 0.0;
  double modeled_fresh = 0.0;
  double modeled_cached = 0.0;
};

struct CacheSweepResult {
  std::uint64_t store_bytes = 0;
  double t_copy = 0.0;
  double t_query = 0.0;
  std::vector<CachePoint> sweep;
  collector::SnapshotCacheStats stats;
};

// Section (c): cached vs fresh snapshot acquisition through the Client
// facade's one-host runtime, Q queries per flush interval.
CacheSweepResult run_snapshot_cache_sweep(bool smoke) {
  using namespace dta::collector;
  CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = ThreadMode::kInline;
  KeyWriteSetup kw;
  kw.num_slots = smoke ? (1ull << 16) : (1ull << 20);
  kw.value_bytes = 4;
  config.keywrite = kw;
  Client client = Client::local(config);
  CollectorRuntime& runtime = *client.local_runtime();

  const std::uint64_t populate = smoke ? 20000 : 200000;
  auto write = [&](std::uint64_t id) {
    (void)client.keywrite().put_u32(benchutil::mixed_key(id),
                                    static_cast<std::uint32_t>(id));
  };
  for (std::uint64_t id = 0; id < populate; ++id) write(id);
  (void)client.flush();

  // Per-op costs driving the modeled series.
  const unsigned copy_reps = smoke ? 20 : 50;
  benchutil::WallTimer copy_timer;
  for (unsigned i = 0; i < copy_reps; ++i) {
    auto snap = runtime.snapshot_shard_fresh(0);
    (void)snap;
  }
  const double t_copy = copy_timer.seconds() / copy_reps;

  const std::uint64_t query_reps = smoke ? 20000 : 200000;
  auto warm = runtime.snapshot_shard(0);
  std::uint64_t sink = 0;
  benchutil::WallTimer query_timer;
  for (std::uint64_t i = 0; i < query_reps; ++i) {
    sink += warm->keywrite_query(benchutil::mixed_key(i % populate), 2)
                .status == QueryStatus::kHit;
  }
  const double t_query = query_timer.seconds() / query_reps;
  (void)sink;

  std::printf("\n(c) snapshot acquisition: cached (generation-stamped) vs "
              "fresh copy\n");
  std::printf("    store: %s, copy %.0fus, query %.2fus\n",
              benchutil::eng(static_cast<double>(kw.num_slots * 8)).c_str(),
              t_copy * 1e6, t_query * 1e6);
  std::printf("%6s %14s %14s %14s %14s %10s\n", "Q", "fresh q/s",
              "cached q/s", "model fresh", "model cached", "speedup");

  std::vector<CachePoint> sweep;
  const unsigned intervals = smoke ? 5 : 20;
  std::uint64_t dirty_id = populate;
  for (unsigned q : {1u, 2u, 4u, 8u, 16u, 32u}) {
    CachePoint point;
    point.queries_per_flush = q;

    benchutil::WallTimer fresh_timer;
    for (unsigned f = 0; f < intervals; ++f) {
      write(dirty_id++);  // a new flush interval: the store changed
      for (unsigned i = 0; i < q; ++i) {
        auto snap = runtime.snapshot_shard_fresh(0);
        sink += snap->keywrite_query(benchutil::mixed_key(i % populate), 2)
                    .status == QueryStatus::kHit;
      }
    }
    point.fresh_qps =
        static_cast<double>(intervals) * q / fresh_timer.seconds();

    benchutil::WallTimer cached_timer;
    for (unsigned f = 0; f < intervals; ++f) {
      write(dirty_id++);
      for (unsigned i = 0; i < q; ++i) {
        auto snap = runtime.snapshot_shard(0);  // 1 copy, Q-1 cache hits
        sink += snap->keywrite_query(benchutil::mixed_key(i % populate), 2)
                    .status == QueryStatus::kHit;
      }
    }
    point.cached_qps =
        static_cast<double>(intervals) * q / cached_timer.seconds();

    point.modeled_fresh = q / (q * (t_copy + t_query));
    point.modeled_cached = q / (t_copy + q * t_query);
    std::printf("%6u %14s %14s %14s %14s %9.1fx\n", q,
                benchutil::eng(point.fresh_qps).c_str(),
                benchutil::eng(point.cached_qps).c_str(),
                benchutil::eng(point.modeled_fresh).c_str(),
                benchutil::eng(point.modeled_cached).c_str(),
                point.modeled_cached / point.modeled_fresh);
    sweep.push_back(point);
  }
  const auto stats = runtime.snapshot_cache().stats();
  std::printf("    cache: %llu hits / %llu copies over the cached series\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));

  CacheSweepResult result;
  result.store_bytes = kw.num_slots * 8;
  result.t_copy = t_copy;
  result.t_query = t_query;
  result.sweep = std::move(sweep);
  result.stats = stats;
  return result;
}

struct DirtyPoint {
  double target_pct = 0.0;      // fraction of chunks aimed at per flush
  double achieved_ratio = 0.0;  // measured dirty ratio before refresh
  unsigned writes = 0;          // reports per flush interval
  double incremental_us = 0.0;  // dirty-chunk-patched refresh latency
  double full_us = 0.0;         // full-copy snapshot latency
  double speedup_vs_full = 0.0;
};

// Section (d): incremental (dirty-chunk) vs full-copy refresh latency
// as the fraction of the store mutated per flush interval grows. The
// patch path should scale with dirtied bytes; the full copy is flat.
std::vector<DirtyPoint> run_dirty_ratio_sweep(bool smoke) {
  using namespace dta::collector;
  CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = ThreadMode::kInline;
  config.op_batch_size = 16;
  KeyWriteSetup kw;
  kw.num_slots = smoke ? (1ull << 16) : (1ull << 21);
  kw.value_bytes = 4;
  config.keywrite = kw;
  config.snapshot_chunk_bytes = 4096;
  // Measure the pure patch path across the whole sweep (no full-copy
  // fallback), so the curve shows the crossover honestly.
  config.snapshot_full_copy_ratio = 1.1;
  Client client = Client::local(config);
  CollectorRuntime& runtime = *client.local_runtime();

  std::uint64_t next_key = 0;
  auto write = [&](std::uint64_t id) {
    (void)client.keywrite().put_u32(benchutil::mixed_key(id),
                                    static_cast<std::uint32_t>(id),
                                    /*redundancy=*/1);
  };
  for (std::uint64_t id = 0; id < kw.num_slots / 2; ++id) write(next_key++);
  (void)client.flush();
  (void)runtime.snapshot_shard(0);  // first build: full copy, tracker reset

  const std::uint64_t store_bytes =
      runtime.shard(0).service().keywrite_region()->length();
  const double chunks =
      static_cast<double>(store_bytes) / config.snapshot_chunk_bytes;

  std::printf("\n(d) refresh cost vs dirty ratio: incremental "
              "(chunk-patched) vs full copy\n");
  std::printf("    store %s, chunk %u B\n",
              benchutil::eng(static_cast<double>(store_bytes)).c_str(),
              config.snapshot_chunk_bytes);
  std::printf("%8s %8s %8s %14s %12s %10s\n", "target", "dirty", "writes",
              "incremental", "full copy", "speedup");

  std::vector<DirtyPoint> sweep;
  const unsigned intervals = smoke ? 4 : 10;
  for (const double pct : {1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 75.0, 100.0}) {
    DirtyPoint point;
    point.target_pct = pct;
    const double p = pct / 100.0;
    // Coupon collector: K random slot writes leave ~C(1-e^(-K/C))
    // chunks dirty; invert for the target (p=1: ~e^-7 of a chunk shy).
    point.writes = static_cast<unsigned>(
        chunks * (p >= 1.0 ? 7.0 : -std::log(1.0 - p)));
    if (point.writes == 0) point.writes = 1;

    double dirty_sum = 0.0;
    benchutil::WallTimer incremental_timer;
    double incremental_s = 0.0;
    for (unsigned f = 0; f < intervals; ++f) {
      for (unsigned w = 0; w < point.writes; ++w) write(next_key++);
      runtime.flush();
      dirty_sum += runtime.shard(0).dirty_tracker().dirty_ratio();
      incremental_timer.reset();
      auto snap = runtime.snapshot_shard(0);  // patches dirty chunks
      incremental_s += incremental_timer.seconds();
    }
    point.achieved_ratio = dirty_sum / intervals;
    point.incremental_us = incremental_s / intervals * 1e6;

    double full_s = 0.0;
    benchutil::WallTimer full_timer;
    for (unsigned f = 0; f < intervals; ++f) {
      for (unsigned w = 0; w < point.writes; ++w) write(next_key++);
      runtime.flush();
      full_timer.reset();
      auto snap = runtime.snapshot_shard_fresh(0);  // always a full copy
      full_s += full_timer.seconds();
    }
    point.full_us = full_s / intervals * 1e6;
    // copy_fresh leaves the dirty set in place; consume it so the next
    // point's incremental series starts from a clean tracker.
    (void)runtime.snapshot_shard(0);

    point.speedup_vs_full =
        point.incremental_us > 0 ? point.full_us / point.incremental_us : 0;
    std::printf("%7.0f%% %7.1f%% %8u %12.1fus %10.1fus %9.2fx\n", pct,
                point.achieved_ratio * 100.0, point.writes,
                point.incremental_us, point.full_us, point.speedup_vs_full);
    sweep.push_back(point);
  }
  return sweep;
}

struct ZeroCopyResult {
  double copy_qps = 0.0;  // get(): merge + copy the winning value out
  double view_qps = 0.0;  // get_view(): merge, ByteView into the snapshot
};

// Section (e): zero-copy serving. Both arms run the identical merge
// path against the cached snapshot; get() then materializes a Bytes
// per query while get_view() hands back a pinned view — the delta is
// exactly the per-result allocation + memcpy the zero-copy tier
// removes. 64B values so the copy is visible next to the merge cost.
ZeroCopyResult run_zero_copy_sweep(bool smoke) {
  using namespace dta::collector;
  CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = ThreadMode::kInline;
  KeyWriteSetup kw;
  kw.num_slots = 1ull << 16;
  kw.value_bytes = 64;
  config.keywrite = kw;
  Client client = Client::local(config);

  const std::uint64_t populate = smoke ? 10000 : 50000;
  common::Bytes value(64);
  for (std::uint64_t id = 0; id < populate; ++id) {
    common::store_u32(value.data(), static_cast<std::uint32_t>(id));
    (void)client.keywrite().put(benchutil::mixed_key(id),
                                common::ByteSpan(value));
  }
  (void)client.flush();

  const std::uint64_t iters = smoke ? 50000 : 200000;
  auto table = client.keywrite();
  std::uint64_t hits = 0;

  // Warm the snapshot cache so both arms measure the cached regime.
  (void)table.get(benchutil::mixed_key(0), {});

  benchutil::WallTimer copy_timer;
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto r = table.get(benchutil::mixed_key(i % populate), {});
    hits += r.ok() && !r->empty();
  }
  const double copy_qps = iters / copy_timer.seconds();

  benchutil::WallTimer view_timer;
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto r = table.get_view(benchutil::mixed_key(i % populate), {});
    hits += r.ok() && !r->empty();
  }
  const double view_qps = iters / view_timer.seconds();
  (void)hits;

  std::printf("\n(e) zero-copy serving (64B values, cached snapshot): "
              "get %s q/s vs get_view %s q/s (%.2fx)\n",
              benchutil::eng(copy_qps).c_str(),
              benchutil::eng(view_qps).c_str(), view_qps / copy_qps);
  ZeroCopyResult result;
  result.copy_qps = copy_qps;
  result.view_qps = view_qps;
  return result;
}

// Machine-readable output for sections (c)+(d)+(e). The "gate" object
// is what bench/check_regression.py compares against bench/baselines/.
void write_bench_json(const CacheSweepResult& cache,
                      const std::vector<DirtyPoint>& dirty,
                      const ZeroCopyResult& zero_copy) {
  FILE* json = std::fopen("BENCH_snapshot_cache.json", "w");
  if (!json) return;
  std::fprintf(json,
               "{\n  \"store_bytes\": %llu,\n  \"copy_ns\": %.1f,\n"
               "  \"query_ns\": %.1f,\n  \"sweep\": [\n",
               static_cast<unsigned long long>(cache.store_bytes),
               cache.t_copy * 1e9, cache.t_query * 1e9);
  for (std::size_t i = 0; i < cache.sweep.size(); ++i) {
    const CachePoint& p = cache.sweep[i];
    std::fprintf(
        json,
        "    {\"queries_per_flush\": %u, \"fresh_qps\": %.1f, "
        "\"cached_qps\": %.1f, \"modeled_fresh_qps\": %.1f, "
        "\"modeled_cached_qps\": %.1f, \"modeled_speedup\": %.3f, "
        "\"measured_speedup\": %.3f}%s\n",
        p.queries_per_flush, p.fresh_qps, p.cached_qps, p.modeled_fresh,
        p.modeled_cached, p.modeled_cached / p.modeled_fresh,
        p.fresh_qps > 0 ? p.cached_qps / p.fresh_qps : 0.0,
        i + 1 < cache.sweep.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"cache\": {\"hits\": %llu, \"misses\": %llu},\n"
               "  \"dirty_sweep\": [\n",
               static_cast<unsigned long long>(cache.stats.hits),
               static_cast<unsigned long long>(cache.stats.misses));
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const DirtyPoint& p = dirty[i];
    std::fprintf(json,
                 "    {\"target_pct\": %.0f, \"achieved_ratio\": %.4f, "
                 "\"writes\": %u, \"incremental_us\": %.2f, "
                 "\"full_us\": %.2f, \"speedup_vs_full\": %.3f}%s\n",
                 p.target_pct, p.achieved_ratio, p.writes, p.incremental_us,
                 p.full_us, p.speedup_vs_full,
                 i + 1 < dirty.size() ? "," : "");
  }
  // Gate metrics: ratios, not absolute rates, so the regression gate is
  // portable across runner hardware.
  const CachePoint& top_q = cache.sweep.back();
  const DirtyPoint& low_dirty = dirty.front();
  const DirtyPoint& mid_dirty = dirty[dirty.size() / 2];
  std::fprintf(json,
               "  ],\n  \"zero_copy\": {\"copy_qps\": %.1f, "
               "\"view_qps\": %.1f},\n",
               zero_copy.copy_qps, zero_copy.view_qps);
  std::fprintf(
      json,
      "  \"gate\": {\n"
      "    \"cached_speedup_top_q\": %.3f,\n"
      "    \"incremental_speedup_low_dirty\": %.3f,\n"
      "    \"incremental_speedup_mid_dirty\": %.3f,\n"
      "    \"zero_copy_view_speedup\": %.3f\n  }\n}\n",
      top_q.fresh_qps > 0 ? top_q.cached_qps / top_q.fresh_qps : 0.0,
      low_dirty.speedup_vs_full, mid_dirty.speedup_vs_full,
      zero_copy.copy_qps > 0 ? zero_copy.view_qps / zero_copy.copy_qps : 0.0);
  std::fclose(json);
  std::printf("\nwrote BENCH_snapshot_cache.json\n");
}

// Section (f): indexed range queries vs the scan path, sweeping
// selectivity at a fixed key count. Without the secondary index the
// stores cannot enumerate keys (slots hold 32-bit checksums), so the
// old-API way to answer "every key in [a, b] with its value" was a
// point-get sweep over the client's full key catalog with a
// client-side filter — get_many(catalog), then keep the in-window
// results. The indexed path walks only the window. The win must grow
// as the window narrows; the CI gate holds the floor at the 0.1% and
// 1% selectivity points. The widest window is also timed with
// .limit(kLimitedRange), a dashboard page: a resolver that stops at the
// limit costs what the page returns, not what the window holds, and the
// gate holds a floor on that ratio too.

constexpr std::uint64_t kLimitedRange = 256;

struct IndexPoint {
  double selectivity_pct = 0.0;
  std::uint64_t window_keys = 0;
  double indexed_us = 0.0;
  double scan_us = 0.0;
  double speedup = 0.0;
  double limited_us = 0.0;  // the same window at .limit(kLimitedRange)
};

struct IndexSweepResult {
  std::uint64_t keys = 0;
  std::vector<IndexPoint> sweep;
};

IndexSweepResult run_index_sweep(bool smoke) {
  using namespace dta::collector;
  CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = ThreadMode::kInline;
  KeyWriteSetup kw;
  kw.num_slots = smoke ? (1ull << 18) : (1ull << 22);
  kw.value_bytes = 4;
  config.keywrite = kw;
  Client client = Client::local(config);

  IndexSweepResult result;
  result.keys = smoke ? 100000 : 1000000;
  std::vector<proto::TelemetryKey> catalog;
  catalog.reserve(result.keys);
  for (std::uint64_t id = 0; id < result.keys; ++id) {
    catalog.push_back(benchutil::mixed_key(id));
    (void)client.keywrite().put_u32(catalog.back(),
                                    static_cast<std::uint32_t>(id));
  }
  (void)client.flush();

  // Index-order sort, used only to carve contiguous selectivity
  // windows — the scan path itself has no order to lean on.
  std::vector<proto::TelemetryKey> sorted = catalog;
  std::sort(sorted.begin(), sorted.end(),
            [](const proto::TelemetryKey& a, const proto::TelemetryKey& b) {
              return collector::index_key_less(a, b);
            });

  std::printf("\n(f) indexed range vs catalog scan — %s keys\n",
              benchutil::eng(static_cast<double>(result.keys)).c_str());
  std::printf("%8s %12s %12s %12s %10s\n", "sel", "window", "indexed",
              "scan", "speedup");
  for (const double sel_pct : {10.0, 1.0, 0.1}) {
    IndexPoint point;
    point.selectivity_pct = sel_pct;
    point.window_keys = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(result.keys) * sel_pct / 100.0));
    const std::size_t start = (sorted.size() - point.window_keys) / 2;
    const proto::TelemetryKey from = sorted[start];
    const proto::TelemetryKey to = sorted[start + point.window_keys - 1];

    const unsigned indexed_reps = smoke ? 10 : 20;
    std::size_t indexed_hits = 0;
    benchutil::WallTimer indexed_timer;
    for (unsigned rep = 0; rep < indexed_reps; ++rep) {
      const auto range =
          client.range(client.keywrite()).from(from).to(to).run();
      indexed_hits = range.ok() ? range->entries.size() : 0;
    }
    point.indexed_us = indexed_timer.seconds() * 1e6 / indexed_reps;

    if (result.sweep.empty()) {
      std::vector<RangeEntry> page;
      benchutil::WallTimer limited_timer;
      for (unsigned rep = 0; rep < indexed_reps; ++rep) {
        auto range = client.range(client.keywrite())
                         .from(from)
                         .to(to)
                         .limit(kLimitedRange)
                         .run();
        page = range.ok() ? std::move(range->entries)
                          : std::vector<RangeEntry>{};
      }
      point.limited_us = limited_timer.seconds() * 1e6 / indexed_reps;
      // The page is the window's first kLimitedRange entries.
      const auto full = client.range(client.keywrite()).from(from).to(to).run();
      if (page.size() != kLimitedRange || !full.ok() ||
          full->entries.size() < kLimitedRange ||
          !std::equal(page.begin(), page.end(), full->entries.begin())) {
        std::fprintf(stderr,
                     "section (f): the .limit(%llu) page is not the window's "
                     "first entries\n",
                     static_cast<unsigned long long>(kLimitedRange));
        std::exit(1);
      }
    }

    const unsigned scan_reps = smoke ? 3 : 3;
    std::size_t scan_hits = 0;
    benchutil::WallTimer scan_timer;
    for (unsigned rep = 0; rep < scan_reps; ++rep) {
      scan_hits = 0;
      const auto values = client.keywrite().get_many(catalog);
      if (!values.ok()) continue;
      for (std::size_t i = 0; i < catalog.size(); ++i) {
        if ((*values)[i].has_value() &&
            !collector::index_key_less(catalog[i], from) &&
            !collector::index_key_less(to, catalog[i])) {
          ++scan_hits;
        }
      }
    }
    point.scan_us = scan_timer.seconds() * 1e6 / scan_reps;
    point.speedup = point.indexed_us > 0 ? point.scan_us / point.indexed_us
                                         : 0.0;

    // Both paths must agree on the window's membership — a fast wrong
    // answer is not a win.
    if (indexed_hits != scan_hits) {
      std::fprintf(stderr,
                   "section (f): indexed (%zu) and scan (%zu) hit counts "
                   "diverged at %.1f%% selectivity\n",
                   indexed_hits, scan_hits, sel_pct);
      std::exit(1);
    }

    std::printf("%7.1f%% %12llu %10.1fus %10.1fus %9.1fx\n", sel_pct,
                static_cast<unsigned long long>(point.window_keys),
                point.indexed_us, point.scan_us, point.speedup);
    if (point.limited_us > 0) {
      std::printf("%8s %12s %10.1fus %12s %9.1fx  (.limit(%llu) page)\n", "",
                  "", point.limited_us, "",
                  point.indexed_us / point.limited_us,
                  static_cast<unsigned long long>(kLimitedRange));
    }
    result.sweep.push_back(point);
  }
  return result;
}

// Machine-readable output for section (f); gated like the others via
// bench/check_regression.py against bench/baselines/BENCH_index.json.
void write_index_json(const IndexSweepResult& result) {
  FILE* json = std::fopen("BENCH_index.json", "w");
  if (!json) return;
  std::fprintf(json, "{\n  \"keys\": %llu,\n  \"sweep\": [\n",
               static_cast<unsigned long long>(result.keys));
  for (std::size_t i = 0; i < result.sweep.size(); ++i) {
    const IndexPoint& p = result.sweep[i];
    std::fprintf(json,
                 "    {\"selectivity_pct\": %.2f, \"window_keys\": %llu, "
                 "\"indexed_us\": %.2f, \"scan_us\": %.2f, "
                 "\"speedup\": %.3f, \"limited_us\": %.2f}%s\n",
                 p.selectivity_pct,
                 static_cast<unsigned long long>(p.window_keys),
                 p.indexed_us, p.scan_us, p.speedup, p.limited_us,
                 i + 1 < result.sweep.size() ? "," : "");
  }
  // Gate floors are the narrow-window speedups — the whole point of the
  // index — and the limit pushdown on the wide window: unlimited over
  // limited time. Ratios, not absolute rates, for hardware portability.
  const IndexPoint& pct10 = result.sweep.front();
  const IndexPoint& pct1 = result.sweep[result.sweep.size() - 2];
  const IndexPoint& low = result.sweep.back();
  std::fprintf(json,
               "  ],\n  \"gate\": {\n"
               "    \"indexed_speedup_1pct\": %.3f,\n"
               "    \"indexed_speedup_0p1pct\": %.3f,\n"
               "    \"limited_speedup_10pct\": %.3f\n  }\n}\n",
               pct1.speedup, low.speedup,
               pct10.limited_us > 0 ? pct10.indexed_us / pct10.limited_us
                                    : 0.0);
  std::fclose(json);
  std::printf("wrote BENCH_index.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  benchutil::print_header(
      "Figure 11 — Key-Write query performance",
      "(a) near-linear core scaling (4 cores: 7.1M q/s at N=2); "
      "(b) time dominated by CRC checksum + slot fetch");
  if (smoke) {
    // CI-sized: only the snapshot-tier sweeps, small store.
    const CacheSweepResult cache = run_snapshot_cache_sweep(true);
    const std::vector<DirtyPoint> dirty = run_dirty_ratio_sweep(true);
    const ZeroCopyResult zero_copy = run_zero_copy_sweep(true);
    write_bench_json(cache, dirty, zero_copy);
    write_index_json(run_index_sweep(true));
    return 0;
  }

  // Populate through the RDMA path.
  collector::RdmaService service;
  collector::KeyWriteSetup setup;
  setup.num_slots = kSlots;
  setup.value_bytes = 4;
  service.enable_keywrite(setup);
  rdma::ConnectRequest req;
  const auto accept = service.accept(req);
  translator::KeyWriteGeometry geo;
  geo.base_va = accept.regions[0].base_va;
  geo.rkey = accept.regions[0].rkey;
  geo.value_bytes = 4;
  geo.num_slots = kSlots;
  translator::KeyWriteEngine engine(geo);
  translator::RdmaCrafter crafter({}, accept.responder_qpn, 0);
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    proto::KeyWriteReport r;
    r.key = benchutil::mixed_key(i);
    r.redundancy = 4;
    common::put_u32(r.data, i);
    std::vector<translator::RdmaOp> ops;
    engine.translate(r, false, ops);
    for (auto& op : ops) service.nic().ingest(crafter.craft(op));
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("(a) query rate [queries/s] — %u hardware threads here\n",
              hw_threads);
  std::printf("%7s %12s %12s %12s %12s\n", "cores", "N=1", "N=2", "N=3",
              "N=4");
  for (unsigned cores : {1u, 2u, 4u, 8u, 16u, 32u}) {
    std::printf("%7u", cores);
    for (unsigned n = 1; n <= 4; ++n) {
      const std::uint64_t per_thread = 400000 / n / cores + 1;
      std::printf(" %12s",
                  benchutil::eng(run_queries(*service.keywrite(), cores, n,
                                             per_thread))
                      .c_str());
    }
    std::printf("\n");
  }

  // (b) breakdown: time the two phases separately (1M iterations each).
  std::printf("\n(b) per-query phase breakdown (N sweep):\n");
  std::printf("%4s %14s %14s %12s\n", "N", "checksum", "get slot(s)",
              "total");
  for (unsigned n = 1; n <= 4; ++n) {
    constexpr std::uint64_t kIters = 1000000;
    volatile std::uint32_t sink = 0;

    benchutil::WallTimer csum_timer;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      sink = service.keywrite()->compute_checksum(
          benchutil::mixed_key(i % kKeys));
    }
    const double csum_ns = csum_timer.seconds() * 1e9 / kIters;

    benchutil::WallTimer slot_timer;
    volatile const std::uint8_t* p = nullptr;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      for (unsigned replica = 0; replica < n; ++replica) {
        p = service.keywrite()
                ->fetch_slot(benchutil::mixed_key(i % kKeys),
                             static_cast<std::uint8_t>(replica))
                .data();
      }
    }
    // fetch_slot includes the slot-index CRC — the paper's "Get Slot".
    const double slot_ns = slot_timer.seconds() * 1e9 / kIters;
    (void)sink;
    (void)p;
    std::printf("%4u %12.0fns %12.0fns %10.0fns\n", n, csum_ns, slot_ns,
                csum_ns + slot_ns);
  }
  std::printf("\npaper: most time in CRC hashing (checksum + slot "
              "addresses); 4 cores = 7.1M q/s at N=2\n");

  const CacheSweepResult cache = run_snapshot_cache_sweep(false);
  const std::vector<DirtyPoint> dirty = run_dirty_ratio_sweep(false);
  const ZeroCopyResult zero_copy = run_zero_copy_sweep(false);
  write_bench_json(cache, dirty, zero_copy);
  write_index_json(run_index_sweep(false));
  return 0;
}
