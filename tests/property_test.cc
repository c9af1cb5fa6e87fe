// Property-based sweeps: the measured behaviour of the real data path
// must track the paper's closed-form analysis across the parameter
// grid. These are the strongest correctness checks in the suite — they
// tie the simulation (translator engines + RDMA + stores) to Appendix A.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>

#include "analysis/kw_bounds.h"
#include "collector/rdma_service.h"
#include "collector/runtime.h"
#include "common/crc.h"
#include "common/rng.h"
#include "dta/report_builders.h"
#include "translator/append_engine.h"
#include "translator/keyincrement_engine.h"
#include "translator/keywrite_engine.h"
#include "translator/postcard_cache.h"
#include "translator/rdma_crafter.h"

namespace dta {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;
using translator::RdmaOp;

TelemetryKey key_of(std::uint64_t id) {
  // CRC is an affine (and injective) map over GF(2): sequential counter
  // keys would traverse slots collision-free, which is *better* than the
  // uniform-hashing assumption of Appendix A. Real telemetry keys (flow
  // 5-tuples) look random, so mix the id first to match the analysis.
  std::uint64_t z = id + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  Bytes b;
  common::put_u64(b, z);
  return TelemetryKey::from(ByteSpan(b));
}

// ------------------------------------------------------------------------
// Key-Write: measured query success rate vs the analytic estimate, over
// (N, alpha). Writes a probe population, then alpha*M newer keys, then
// queries the probes. Mirrors the §6.5.2 experiment behind Figure 12.
// ------------------------------------------------------------------------

class KwSuccessSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, double>> {};

TEST_P(KwSuccessSweep, MeasuredSuccessTracksAnalysis) {
  const auto [redundancy, alpha] = GetParam();
  constexpr std::uint64_t kSlots = 1 << 16;
  constexpr int kProbes = 2000;

  collector::RdmaService service;
  collector::KeyWriteSetup setup;
  setup.num_slots = kSlots;
  setup.value_bytes = 4;
  service.enable_keywrite(setup);
  rdma::ConnectRequest req;
  req.start_psn = 0;
  const auto accept = service.accept(req);

  translator::KeyWriteGeometry geo;
  geo.base_va = accept.regions[0].base_va;
  geo.rkey = accept.regions[0].rkey;
  geo.value_bytes = 4;
  geo.num_slots = kSlots;
  translator::KeyWriteEngine engine(geo);
  translator::RdmaCrafter crafter({}, accept.responder_qpn, 0);

  auto write = [&](std::uint64_t id) {
    proto::KeyWriteReport r;
    r.key = key_of(id);
    r.redundancy = static_cast<std::uint8_t>(redundancy);
    common::put_u32(r.data, static_cast<std::uint32_t>(id));
    std::vector<RdmaOp> ops;
    engine.translate(r, false, ops);
    for (auto& op : ops) {
      service.nic().ingest(crafter.craft(op));
    }
  };

  // Probe population, then alpha*M newer distinct keys.
  for (std::uint64_t i = 0; i < kProbes; ++i) write(i);
  const auto newer = static_cast<std::uint64_t>(alpha * kSlots);
  for (std::uint64_t i = 0; i < newer; ++i) write(1000000 + i);

  int success = 0, wrong = 0;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    const auto result = service.keywrite()->query(
        key_of(i), static_cast<std::uint8_t>(redundancy));
    if (result.status == collector::QueryStatus::kHit) {
      if (common::load_u32(result.value.data()) == i) {
        ++success;
      } else {
        ++wrong;
      }
    }
  }

  const double measured = static_cast<double>(success) / kProbes;
  analysis::KwParams p;
  p.redundancy = redundancy;
  p.checksum_bits = 32;
  p.load_alpha = alpha;
  const double predicted = analysis::kw_success_rate_estimate(p);

  EXPECT_NEAR(measured, predicted, 0.05)
      << "N=" << redundancy << " alpha=" << alpha;
  // Wrong outputs are essentially impossible with 32-bit checksums.
  EXPECT_EQ(wrong, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KwSuccessSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(0.05, 0.1, 0.2, 0.5, 1.0)),
    [](const auto& info) {
      return "N" + std::to_string(std::get<0>(info.param)) + "_alpha" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

// ------------------------------------------------------------------------
// Postcarding: write/decode round trip across path lengths and
// redundancy. Every written path must decode exactly; no cross-flow
// contamination.
// ------------------------------------------------------------------------

class PostcardingSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(PostcardingSweep, PathsRoundTripExactly) {
  const auto [path_len, redundancy] = GetParam();

  collector::RdmaService service;
  collector::PostcardingSetup setup;
  setup.num_chunks = 1 << 14;
  setup.hops = 5;
  for (std::uint32_t v = 0; v < 2048; ++v) setup.value_space.push_back(v);
  service.enable_postcarding(setup);
  rdma::ConnectRequest req;
  const auto accept = service.accept(req);

  translator::PostcardingGeometry geo;
  geo.base_va = accept.regions[0].base_va;
  geo.rkey = accept.regions[0].rkey;
  geo.hops = 5;
  geo.num_chunks = setup.num_chunks;
  translator::PostcardCache cache(geo, 8192);
  translator::RdmaCrafter crafter({}, accept.responder_qpn, 0);

  constexpr int kFlows = 300;
  for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
    std::vector<RdmaOp> ops;
    for (std::uint8_t hop = 0; hop < path_len; ++hop) {
      proto::PostcardReport r;
      r.key = key_of(flow);
      r.hop = hop;
      r.path_len = static_cast<std::uint8_t>(path_len);
      r.redundancy = static_cast<std::uint8_t>(redundancy);
      r.value = (flow * 7 + hop) % 2048;
      cache.ingest(r, ops);
    }
    for (auto& op : ops) service.nic().ingest(crafter.craft(op));
  }

  int exact = 0;
  for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
    const auto result = service.postcarding()->query(
        key_of(flow), static_cast<std::uint8_t>(redundancy));
    if (!result.found) continue;
    ASSERT_EQ(result.hop_values.size(), path_len) << "flow " << flow;
    bool ok = true;
    for (std::uint8_t hop = 0; hop < path_len; ++hop) {
      if (result.hop_values[hop] != (flow * 7 + hop) % 2048) ok = false;
    }
    if (ok) ++exact;
  }
  // Low load factor: nearly all flows must decode, and none incorrectly.
  EXPECT_GE(exact, kFlows - 4)
      << "path_len=" << path_len << " N=" << redundancy;
}

INSTANTIATE_TEST_SUITE_P(Grid, PostcardingSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u,
                                                              5u),
                                            ::testing::Values(1u, 2u, 3u)),
                         [](const auto& info) {
                           return "len" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_N" +
                                  std::to_string(std::get<1>(info.param));
                         });

// ------------------------------------------------------------------------
// Append: ring-buffer integrity across (batch, list length) — every
// entry written must be read back in order across multiple wraps.
// ------------------------------------------------------------------------

class AppendWrapSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(AppendWrapSweep, OrderPreservedAcrossWraps) {
  const auto [batch, list_entries] = GetParam();

  collector::RdmaService service;
  collector::AppendSetup setup;
  setup.num_lists = 2;
  setup.entries_per_list = list_entries;
  setup.entry_bytes = 4;
  service.enable_append(setup);
  rdma::ConnectRequest req;
  const auto accept = service.accept(req);

  translator::AppendGeometry geo;
  geo.base_va = accept.regions[0].base_va;
  geo.rkey = accept.regions[0].rkey;
  geo.num_lists = 2;
  geo.entries_per_list = list_entries;
  geo.entry_bytes = 4;
  translator::AppendEngine engine(geo, batch);
  translator::RdmaCrafter crafter({}, accept.responder_qpn, 0);

  // Write 2.5 list-lengths of entries; consume while writing so the
  // tail keeps up (the paper's CPU polls faster than collection, §6.7.1).
  const std::uint64_t total = list_entries * 5 / 2;
  std::uint64_t produced = 0, consumed = 0;
  auto* store = service.append();

  for (std::uint64_t i = 0; i < total; ++i) {
    proto::AppendReport r;
    r.list_id = 1;
    r.entry_size = 4;
    common::put_u32(r.entries.emplace_back(), static_cast<std::uint32_t>(i));
    std::vector<RdmaOp> ops;
    engine.ingest(r, false, ops);
    for (auto& op : ops) service.nic().ingest(crafter.craft(op));
    produced = (i / batch) * batch;  // entries committed to memory

    while (consumed + batch <= produced) {
      ASSERT_EQ(common::load_u32(store->poll(1).data()), consumed)
          << "batch=" << batch << " list=" << list_entries;
      ++consumed;
    }
  }
  EXPECT_GT(consumed, list_entries);  // we actually wrapped
}

INSTANTIATE_TEST_SUITE_P(Grid, AppendWrapSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u,
                                                              16u),
                                            ::testing::Values(64u, 256u,
                                                              1024u)),
                         [](const auto& info) {
                           return "b" + std::to_string(std::get<0>(info.param)) +
                                  "_L" + std::to_string(std::get<1>(info.param));
                         });

// ------------------------------------------------------------------------
// Key-Increment: CMS overestimate property under heavy collision load.
// ------------------------------------------------------------------------

class KiCmsSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(KiCmsSweep, EstimateAlwaysAtLeastTruth) {
  const unsigned redundancy = GetParam();
  constexpr std::uint64_t kSlots = 512;  // tiny: force collisions

  collector::RdmaService service;
  collector::KeyIncrementSetup setup;
  setup.num_slots = kSlots;
  service.enable_keyincrement(setup);
  rdma::ConnectRequest req;
  const auto accept = service.accept(req);

  translator::KeyIncrementGeometry geo;
  geo.base_va = accept.regions[0].base_va;
  geo.rkey = accept.regions[0].rkey;
  geo.num_slots = kSlots;
  translator::KeyIncrementEngine engine(geo);
  translator::RdmaCrafter crafter({}, accept.responder_qpn, 0);

  common::Rng rng(common::test_seed(redundancy));
  std::vector<std::uint64_t> truth(400, 0);
  for (int step = 0; step < 5000; ++step) {
    const auto id = rng.next_below(truth.size());
    const std::uint64_t delta = 1 + rng.next_below(9);
    truth[id] += delta;

    proto::KeyIncrementReport r;
    r.key = key_of(id);
    r.redundancy = static_cast<std::uint8_t>(redundancy);
    r.counter = delta;
    std::vector<RdmaOp> ops;
    engine.translate(r, ops);
    for (auto& op : ops) service.nic().ingest(crafter.craft(op));
  }

  double total_overestimate = 0;
  for (std::uint64_t id = 0; id < truth.size(); ++id) {
    const std::uint64_t est = service.keyincrement()->query(
        key_of(id), static_cast<std::uint8_t>(redundancy));
    ASSERT_GE(est, truth[id]) << "CMS underestimated key " << id;
    total_overestimate += static_cast<double>(est - truth[id]);
  }
  // More rows shrink the expected overestimate (CMS property) — with
  // N=4 the average error must be small relative to total mass.
  if (redundancy == 4) {
    const double avg_err = total_overestimate / truth.size();
    double mass = 0;
    for (auto t : truth) mass += static_cast<double>(t);
    EXPECT_LT(avg_err, mass * 2.0 / kSlots * 3.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, KiCmsSweep, ::testing::Values(1u, 2u, 4u));

// ------------------------------------------------------------------------
// Snapshot generations: across arbitrary interleavings of ingest
// batches, per-shard flushes and snapshot requests, the shard
// generation is monotonic (strictly increasing whenever new reports are
// committed), a cached snapshot's generation never exceeds its shard's,
// and the cache serves the identical snapshot iff nothing was submitted
// since it was taken.
// ------------------------------------------------------------------------

class GenerationSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(GenerationSweep, MonotonicGenerationsAndCacheNeverAhead) {
  const unsigned seed = GetParam();
  constexpr std::uint32_t kShards = 2;

  collector::CollectorRuntimeConfig config;
  config.num_shards = kShards;
  config.thread_mode = collector::ThreadMode::kInline;  // deterministic
  config.op_batch_size = 4;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 12;
  kw.value_bytes = 4;
  config.keywrite = kw;
  collector::CollectorRuntime runtime(config);

  common::Rng rng(common::test_seed(seed));
  std::uint64_t next_id = 0;
  std::uint64_t last_generation[kShards] = {0, 0};
  std::uint64_t covered_submits[kShards] = {0, 0};
  std::shared_ptr<const collector::StoreSnapshot> last_snap[kShards];

  auto check_monotonic = [&] {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const std::uint64_t g = runtime.shard(s).generation();
      EXPECT_GE(g, last_generation[s]) << "generation went backwards";
      last_generation[s] = g;
      if (const auto cached = runtime.snapshot_cache().peek(s)) {
        EXPECT_LE(cached->generation(), g)
            << "cached snapshot ahead of its shard";
      }
    }
  };

  for (int step = 0; step < 400; ++step) {
    switch (rng.next_below(3)) {
      case 0: {  // a burst of ingest batches
        const auto burst = 1 + rng.next_below(8);
        for (std::uint64_t i = 0; i < burst; ++i) {
          proto::KeyWriteReport r;
          r.key = key_of(next_id);
          r.redundancy = 1;
          common::put_u32(r.data, static_cast<std::uint32_t>(next_id));
          ++next_id;
          runtime.submit(reports::wrap(std::move(r)));
        }
        break;
      }
      case 1: {  // per-shard flush barrier
        runtime.flush_shard(
            static_cast<std::uint32_t>(rng.next_below(kShards)));
        break;
      }
      case 2: {  // snapshot request through the cache
        const auto s = static_cast<std::uint32_t>(rng.next_below(kShards));
        const std::uint64_t submitted = runtime.pipeline().submitted(s);
        const auto snap = runtime.snapshot_shard(s);
        EXPECT_LE(snap->generation(), runtime.shard(s).generation());
        if (last_snap[s]) {
          if (submitted == covered_submits[s]) {
            // Nothing new: the cache must serve the very same copy.
            EXPECT_EQ(snap.get(), last_snap[s].get());
          } else {
            // New reports (redundancy-1 Key-Write: always >= 1 op) were
            // committed by the refresh barrier: strictly newer stamp.
            EXPECT_GT(snap->generation(), last_snap[s]->generation());
          }
        }
        last_snap[s] = snap;
        covered_submits[s] = submitted;
        break;
      }
    }
    check_monotonic();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenerationSweep,
                         ::testing::Values(1u, 7u, 21u, 99u, 1234u, 77777u));

// ------------------------------------------------------------------------
// Incremental snapshot refresh: across randomized op batches over all
// four store types, the chunk-patched cached snapshot must stay byte-
// identical to a fresh full copy — including when held snapshots force
// the copy-on-write clone path. This is the correctness oracle for the
// dirty-chunk tracker + SnapshotCache::refresh patch path.
// ------------------------------------------------------------------------

class IncrementalSnapshotSweep : public ::testing::TestWithParam<unsigned> {};

void run_incremental_sweep(unsigned seed, std::uint32_t chunk_bytes) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = collector::ThreadMode::kInline;  // deterministic
  config.op_batch_size = 4;
  config.snapshot_chunk_bytes = chunk_bytes;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 12;
  kw.value_bytes = 4;
  config.keywrite = kw;
  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;
  collector::AppendSetup ap;
  ap.num_lists = 4;
  ap.entries_per_list = 256;
  ap.entry_bytes = 4;
  config.append = ap;
  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 10;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 256; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  collector::CollectorRuntime runtime(config);

  const auto identical = [](const rdma::MemoryRegion* a,
                            const rdma::MemoryRegion* b, const char* what) {
    ASSERT_EQ(a == nullptr, b == nullptr) << what;
    if (!a) return;
    ASSERT_EQ(a->length(), b->length()) << what;
    EXPECT_EQ(std::memcmp(a->data(), b->data(), a->length()), 0)
        << what << " diverged from the full-copy reference";
  };

  common::Rng rng(common::test_seed(seed));
  std::uint64_t next_id = 0;
  bool ever_pinned = false;
  std::vector<std::shared_ptr<const collector::StoreSnapshot>> pinned;

  for (int step = 0; step < 250; ++step) {
    switch (rng.next_below(5)) {
      case 0: {  // Key-Write burst
        const auto burst = 1 + rng.next_below(6);
        for (std::uint64_t i = 0; i < burst; ++i) {
          proto::KeyWriteReport r;
          r.key = key_of(next_id++);
          r.redundancy = static_cast<std::uint8_t>(1 + rng.next_below(3));
          common::put_u32(r.data, static_cast<std::uint32_t>(next_id));
          runtime.submit(reports::wrap(std::move(r)));
        }
        break;
      }
      case 1: {  // Key-Increment (FETCH_ADD extents)
        proto::KeyIncrementReport r;
        r.key = key_of(rng.next_below(64));
        r.redundancy = 2;
        r.counter = 1 + rng.next_below(100);
        runtime.submit(reports::wrap(std::move(r)));
        break;
      }
      case 2: {  // Postcarding (chunk writes via the postcard cache)
        const std::uint64_t flow = rng.next_below(64);
        for (std::uint8_t hop = 0; hop < 5; ++hop) {
          proto::PostcardReport r;
          r.key = key_of(1000 + flow);
          r.hop = hop;
          r.path_len = 5;
          r.redundancy = 1;
          r.value = static_cast<std::uint32_t>(rng.next_below(256));
          runtime.submit(reports::wrap(r));
        }
        break;
      }
      case 3: {  // Append entries (ring writes, wrap included)
        proto::AppendReport r;
        r.list_id = static_cast<std::uint32_t>(rng.next_below(4));
        r.entry_size = 4;
        const auto entries = 1 + rng.next_below(8);
        for (std::uint64_t i = 0; i < entries; ++i) {
          common::put_u32(r.entries.emplace_back(),
                          static_cast<std::uint32_t>(next_id++));
        }
        runtime.submit(reports::wrap(std::move(r)));
        break;
      }
      case 4: {  // flush barrier (drains postcard rows + append batches)
        runtime.flush();
        break;
      }
    }

    if (rng.next_below(4) == 0) {
      const auto cached = runtime.snapshot_shard(0);
      const auto reference = runtime.snapshot_shard_fresh(0);
      EXPECT_EQ(cached->generation(), reference->generation());
      identical(cached->keywrite_mem(), reference->keywrite_mem(),
                "keywrite");
      identical(cached->postcarding_mem(), reference->postcarding_mem(),
                "postcarding");
      identical(cached->append_mem(), reference->append_mem(), "append");
      identical(cached->keyincrement_mem(), reference->keyincrement_mem(),
                "keyincrement");
      // Hold some snapshots across future refreshes: a pinned reader
      // must force the copy-on-write clone path, and the clone must be
      // just as byte-faithful.
      if (rng.next_below(3) == 0) {
        pinned.push_back(cached);
        ever_pinned = true;
      } else if (!pinned.empty() && rng.next_below(3) == 0) {
        pinned.erase(pinned.begin());
      }
    }
  }

  const auto stats = runtime.snapshot_cache().stats();
  EXPECT_GE(stats.incremental_refreshes, 1u)
      << "sweep never exercised the patch path";
  if (ever_pinned) {
    EXPECT_GE(stats.cow_clones, 1u)
        << "pinned snapshots never forced a copy-on-write clone";
  }
}

TEST_P(IncrementalSnapshotSweep, ByteIdenticalToFullCopy) {
  run_incremental_sweep(GetParam(), 256);  // small chunks: many ranges
}

TEST_P(IncrementalSnapshotSweep, ByteIdenticalToFullCopyAtDefaultChunk) {
  // The shipped granularity: one cache line per dirty bit, so the run
  // walk sees many single-chunk runs and runs that cross words.
  const std::uint32_t chunk_bytes =
      collector::CollectorRuntimeConfig{}.snapshot_chunk_bytes;
  ASSERT_EQ(chunk_bytes, 64u);
  run_incremental_sweep(GetParam(), chunk_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSnapshotSweep,
                         ::testing::Values(3u, 17u, 4242u, 90210u));

// ------------------------------------------------------------------------
// Hot-path equivalence: the interleaved multi-engine CRC is a pure
// optimization — observationally identical to the scalar calls it
// bypasses.
// ------------------------------------------------------------------------

class CrcMultiEquivalenceSweep : public ::testing::TestWithParam<unsigned> {};

// compute_multi is a bit-exact alias of one compute() per engine, for
// catalogue engines of every kind (the CRC32C one, whose compute() may
// run on the CPU instruction, included), across random message lengths
// and alignments (empty messages included).
TEST_P(CrcMultiEquivalenceSweep, MultiEngineMatchesScalarCalls) {
  common::Rng rng(common::test_seed(GetParam()));
  std::vector<std::uint8_t> pool(4096);
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng.next_below(256));

  const common::Crc32* engines[] = {
      &common::checksum_crc(), &common::value_crc(), &common::shard_crc(),
      &common::slot_crc(0),    &common::slot_crc(7), &common::hop_crc(3),
  };

  for (int round = 0; round < 50; ++round) {
    const std::size_t len = rng.next_below(65);
    const std::size_t off = rng.next_below(pool.size() - 64);
    const ByteSpan msg(pool.data() + off, len);
    std::uint32_t multi[6], single[6];
    common::Crc32::compute_multi(engines, 6, msg, multi);
    for (int e = 0; e < 6; ++e) single[e] = engines[e]->compute(msg);
    for (int e = 0; e < 6; ++e) EXPECT_EQ(multi[e], single[e]) << e;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrcMultiEquivalenceSweep,
                         ::testing::Values(2u, 19u, 7777u));

}  // namespace
}  // namespace dta
