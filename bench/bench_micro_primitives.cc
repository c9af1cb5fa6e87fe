// Microbenchmarks for the hot operations of the DTA data path: CRC
// hashing (byte-at-a-time reference vs slice-by-8 vs hardware CRC32C),
// the interleaved multi-engine hash, primitive translation, RoCE
// crafting, NIC verb execution (wire-parse vs direct), and store
// queries. These are the per-op costs the figure-level benches
// aggregate.
//
// Output: human-readable sections plus BENCH_crc.json — measured CRC /
// hash throughputs and a "gate" object of speedup ratios checked by
// bench/check_regression.py against bench/baselines/BENCH_crc.json.
// Ratios (not absolute rates) so the gate is robust to CI hardware.
//
// The index-fold section times ShardIndexBuilder on its own, the fold a
// shard worker runs per publish window, and writes BENCH_index_fold.json
// (absolute ns per key, ungated). The bench exits non-zero if a window
// that only rewrites present keys copies a leaf.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "collector/index_publisher.h"
#include "collector/rdma_service.h"
#include "collector/shard_index.h"
#include "common/crc.h"
#include "translator/append_engine.h"
#include "translator/crc_unit.h"
#include "translator/keywrite_engine.h"
#include "translator/postcard_cache.h"
#include "translator/rdma_crafter.h"

using namespace dta;

namespace {

// Shared rig so every benchmark runs against realistic geometry.
struct Rig {
  collector::RdmaService service;
  translator::KeyWriteGeometry kw_geo;
  translator::PostcardingGeometry pc_geo;
  translator::AppendGeometry ap_geo;
  std::uint32_t qpn = 0;

  Rig() {
    collector::KeyWriteSetup kw;
    kw.num_slots = 1 << 20;
    service.enable_keywrite(kw);
    collector::PostcardingSetup pc;
    pc.num_chunks = 1 << 16;
    for (std::uint32_t v = 0; v < 1024; ++v) pc.value_space.push_back(v);
    service.enable_postcarding(pc);
    collector::AppendSetup ap;
    ap.num_lists = 16;
    ap.entries_per_list = 1 << 16;
    service.enable_append(ap);
    rdma::ConnectRequest req;
    const auto accept = service.accept(req);
    qpn = accept.responder_qpn;
    for (const auto& region : accept.regions) {
      switch (region.kind) {
        case rdma::RegionKind::kKeyWrite:
          kw_geo = {region.base_va, region.rkey, region.param2,
                    (region.param1 & 0xFFFF) - 4};
          break;
        case rdma::RegionKind::kPostcarding:
          pc_geo.base_va = region.base_va;
          pc_geo.rkey = region.rkey;
          pc_geo.num_chunks = region.param2;
          pc_geo.hops = static_cast<std::uint8_t>(region.param1 >> 16);
          break;
        case rdma::RegionKind::kAppend:
          ap_geo.base_va = region.base_va;
          ap_geo.rkey = region.rkey;
          ap_geo.entry_bytes = region.param1;
          ap_geo.entries_per_list = region.param2 & 0xFFFFFFFFull;
          ap_geo.num_lists = static_cast<std::uint32_t>(region.param2 >> 32);
          break;
        default:
          break;
      }
    }
  }
};

Rig& rig() {
  static Rig instance;
  return instance;
}

// Keep results observable so the optimizer can't delete the loops.
volatile std::uint64_t g_sink = 0;
inline void sink(std::uint64_t v) { g_sink ^= v; }

// ---------------------------------------------------------------- CRC tier

// Steady-state CRC throughput (bytes/s) over a `size`-byte message,
// selecting the implementation with `bytewise`. Iteration count scales
// inversely with size so every point does comparable total work.
double crc_bytes_per_sec(const common::Crc32& engine, std::size_t size,
                         bool bytewise) {
  std::vector<std::uint8_t> buf(size);
  for (std::size_t i = 0; i < size; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const common::ByteSpan span(buf.data(), buf.size());
  const std::size_t iters = std::max<std::size_t>(2000, (8u << 20) / size);
  std::uint32_t state = engine.begin();
  benchutil::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    state = bytewise ? engine.update_bytewise(state, span)
                     : engine.update(state, span);
  }
  const double seconds = timer.seconds();
  sink(engine.finish(state));
  return static_cast<double>(iters) * size / seconds;
}

struct CrcRow {
  std::size_t size;
  double bytewise;  // reference, bytes/s
  double sliced;    // slice-by-8 software path (kChecksumPoly engine)
  double dispatch;  // runtime dispatch for kValuePoly (HW when available)
};

// One key under h1 + h0(0..7): per-engine compute() loop vs the
// single-pass compute_multi / key_hashes shape. Returns {sequential
// hashes/s, interleaved hashes/s}.
std::pair<double, double> crc_multi_rates() {
  const auto key = benchutil::mixed_key(42);
  constexpr unsigned kEngines = 9;  // h1 + 8 slot hashes
  const common::Crc32* engines[kEngines];
  engines[0] = &common::checksum_crc();
  for (unsigned i = 0; i < 8; ++i) engines[i + 1] = &common::slot_crc(i);
  std::uint32_t out[kEngines];
  const std::size_t rounds = 400000;

  benchutil::WallTimer timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (unsigned e = 0; e < kEngines; ++e) {
      out[e] = engines[e]->compute(key.span());
    }
    sink(out[kEngines - 1]);
  }
  const double sequential = static_cast<double>(rounds) * kEngines /
                            timer.seconds();

  timer.reset();
  for (std::size_t r = 0; r < rounds; ++r) {
    common::Crc32::compute_multi(engines, kEngines, key.span(), out);
    sink(out[kEngines - 1]);
  }
  const double multi = static_cast<double>(rounds) * kEngines /
                       timer.seconds();
  return {sequential, multi};
}

// ----------------------------------------------------- translate + execute

double bench_keywrite_translate(unsigned redundancy) {
  translator::KeyWriteEngine engine(rig().kw_geo);
  proto::KeyWriteReport r;
  r.key = benchutil::mixed_key(7);
  r.redundancy = static_cast<std::uint8_t>(redundancy);
  common::put_u32(r.data, 99);
  std::vector<translator::RdmaOp> ops;
  const std::size_t iters = 400000;
  benchutil::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    ops.clear();
    engine.translate(r, false, ops);
    sink(ops.size());
  }
  return iters / timer.seconds();
}

double bench_postcard_ingest() {
  translator::PostcardCache cache(rig().pc_geo, 32768);
  std::vector<translator::RdmaOp> ops;
  const std::size_t iters = 500000;
  std::uint64_t flow = 0;
  std::uint8_t hop = 0;
  benchutil::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    proto::PostcardReport r;
    r.key = benchutil::mixed_key(flow);
    r.hop = hop;
    r.path_len = 5;
    r.redundancy = 1;
    r.value = static_cast<std::uint32_t>(flow % 1024);
    cache.ingest(r, ops);
    ops.clear();
    if (++hop == 5) {
      hop = 0;
      ++flow;
    }
  }
  return iters / timer.seconds();
}

double bench_append_ingest(std::uint32_t batch) {
  translator::AppendEngine engine(rig().ap_geo, batch);
  proto::AppendReport r;
  r.list_id = 0;
  r.entry_size = 4;
  r.entries.push_back({1, 2, 3, 4});
  std::vector<translator::RdmaOp> ops;
  const std::size_t iters = 500000;
  benchutil::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    engine.ingest(r, false, ops);
    ops.clear();
  }
  return iters / timer.seconds();
}

double bench_roce_craft() {
  translator::RdmaCrafter crafter({}, rig().qpn, 0);
  translator::RdmaOp op;
  op.kind = translator::RdmaOp::Kind::kWrite;
  op.remote_va = rig().kw_geo.base_va;
  op.rkey = rig().kw_geo.rkey;
  op.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::size_t iters = 300000;
  benchutil::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    sink(crafter.craft(op).size());
  }
  return iters / timer.seconds();
}

// Wire-path verb execution: pre-crafted RoCE frames through
// Nic::ingest (UDP/BTH/RETH parse + ICRC + PSN tracking + execute).
double bench_nic_wire() {
  translator::RdmaCrafter crafter({}, rig().qpn, 0);
  translator::KeyWriteEngine engine(rig().kw_geo);
  std::vector<net::Packet> frames;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    proto::KeyWriteReport r;
    r.key = benchutil::mixed_key(i);
    r.redundancy = 1;
    common::put_u32(r.data, i);
    std::vector<translator::RdmaOp> ops;
    engine.translate(r, false, ops);
    frames.push_back(crafter.craft(ops[0]));
  }
  rig().service.qp()->to_rtr(0);
  const std::size_t iters = 200000;
  std::size_t i = 0;
  std::uint64_t executed = 0;
  benchutil::WallTimer timer;
  for (std::size_t n = 0; n < iters; ++n) {
    auto out = rig().service.nic().ingest(frames[i]);
    executed += out && out->responder.executed;
    if (++i == frames.size()) {
      i = 0;
      // Re-sync the responder for the next pass over the same PSNs.
      rig().service.qp()->to_rtr(0);
    }
  }
  const double rate = iters / timer.seconds();
  sink(executed);
  return rate;
}

// Direct-path verb execution: the same pre-translated ops through
// Nic::execute_write — no frame craft, no parse, no ICRC (the batched
// shard delivery path).
double bench_nic_direct() {
  translator::KeyWriteEngine engine(rig().kw_geo);
  std::vector<translator::RdmaOp> ops;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    proto::KeyWriteReport r;
    r.key = benchutil::mixed_key(i);
    r.redundancy = 1;
    common::put_u32(r.data, i);
    engine.translate(r, false, ops);
  }
  rig().service.qp()->to_rtr(0);
  const std::size_t iters = 200000;
  std::size_t i = 0;
  std::uint64_t executed = 0;
  benchutil::WallTimer timer;
  for (std::size_t n = 0; n < iters; ++n) {
    const auto& op = ops[i];
    auto out = rig().service.nic().execute_write(
        *rig().service.qp(), op.remote_va, op.rkey, op.payload, op.immediate);
    executed += out.responder.executed;
    if (++i == ops.size()) i = 0;
  }
  const double rate = iters / timer.seconds();
  sink(executed);
  return rate;
}

double bench_keywrite_query(unsigned redundancy) {
  static bool populated = false;
  if (!populated) {
    translator::KeyWriteEngine engine(rig().kw_geo);
    translator::RdmaCrafter crafter({}, rig().qpn, 1 << 20);
    rig().service.qp()->to_rtr(1 << 20);
    for (std::uint32_t i = 0; i < 100000; ++i) {
      proto::KeyWriteReport r;
      r.key = benchutil::mixed_key(i);
      r.redundancy = 2;
      common::put_u32(r.data, i);
      std::vector<translator::RdmaOp> ops;
      engine.translate(r, false, ops);
      for (auto& op : ops) rig().service.nic().ingest(crafter.craft(op));
    }
    populated = true;
  }
  const std::size_t iters = 200000;
  std::uint64_t found = 0;
  benchutil::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    const auto result = rig().service.keywrite()->query(
        benchutil::mixed_key(i % 100000),
        static_cast<std::uint8_t>(redundancy));
    found += result.value.size();
  }
  const double rate = iters / timer.seconds();
  sink(found);
  return rate;
}

double bench_append_poll() {
  auto* store = rig().service.append();
  const std::size_t iters = 1000000;
  benchutil::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    sink(store->poll(1).size());
  }
  return iters / timer.seconds();
}

// ---------------------------------------------------------- index fold

struct FoldResult {
  double build_ns_per_key = 0;
  double rewrite_ns_per_key = 0;
  std::uint64_t rewrite_leaf_copies = 0;
  std::size_t leaves = 0;
};

constexpr std::uint64_t kFoldKeys = 1u << 19;
constexpr std::size_t kFoldBatches = collector::IndexPublisher::kPublishBatch;
constexpr std::size_t kFoldKeysPerBatch = 8;
constexpr int kFoldRewriteWindows = 2000;

// A 2^19-key index at the publisher's leaf target (128), built
// from windows of 64 batches x 8 fresh mixed keys, then 2,000 windows of
// the same shape that rewrite present keys: the steady state of a
// Key-Write shard whose flows are all indexed. Windows are generated
// outside the timed apply.
FoldResult bench_index_fold() {
  collector::ShardIndexBuilder builder(
      collector::IndexPublisher::kTargetLeafEntries);
  std::vector<collector::IndexEntry> window;
  std::uint64_t generation = 0;
  auto fill = [&](auto&& next_id) {
    generation += kFoldBatches;
    window.clear();
    for (std::size_t k = 0; k < kFoldBatches * kFoldKeysPerBatch; ++k) {
      window.push_back(
          {benchutil::mixed_key(next_id()), collector::kIndexKeyWrite});
    }
  };
  constexpr double kWindowKeys = kFoldBatches * kFoldKeysPerBatch;

  FoldResult out;
  double seconds = 0;
  std::uint64_t id = 0;
  while (id < kFoldKeys) {
    fill([&] { return id++; });
    benchutil::WallTimer timer;
    builder.apply(generation, window);
    seconds += timer.seconds();
  }
  out.build_ns_per_key = seconds * 1e9 / static_cast<double>(kFoldKeys);

  common::Rng rng(benchutil::seed(0xF01Du));
  const std::uint64_t copies = builder.leaf_copies();
  seconds = 0;
  for (int w = 0; w < kFoldRewriteWindows; ++w) {
    fill([&] { return rng.next_below(kFoldKeys); });
    benchutil::WallTimer timer;
    builder.apply(generation, window);
    seconds += timer.seconds();
  }
  out.rewrite_ns_per_key = seconds * 1e9 / (kFoldRewriteWindows * kWindowKeys);
  out.rewrite_leaf_copies = builder.leaf_copies() - copies;
  out.leaves = builder.publish()->leaves().size();
  return out;
}

}  // namespace

int main() {
  benchutil::print_header(
      "Micro-primitives — per-op costs of the DTA hot path",
      "§5.2: every translator hash comes from the switch CRC engine; the "
      "software collector must make CRC + verb execution near-free");

  // -------------------------------------------------------------- CRC
  std::printf("\nCRC throughput (bytes/s) — byte-at-a-time reference vs "
              "slice-by-8 vs dispatched kValuePoly (%s):\n",
              common::value_crc().hardware_accelerated()
                  ? "hardware CRC32C"
                  : "no HW CRC32C; scalar slice-by-8 fallback");
  std::printf("%8s %12s %12s %12s %9s %9s\n", "bytes", "bytewise", "slice8",
              "dispatch", "s8/bw", "disp/bw");
  std::vector<CrcRow> rows;
  for (std::size_t size : {8u, 64u, 1024u, 8192u}) {
    CrcRow row;
    row.size = size;
    row.bytewise = crc_bytes_per_sec(common::checksum_crc(), size, true);
    row.sliced = crc_bytes_per_sec(common::checksum_crc(), size, false);
    row.dispatch = crc_bytes_per_sec(common::value_crc(), size, false);
    rows.push_back(row);
    std::printf("%8zu %12s %12s %12s %8.2fx %8.2fx\n", size,
                benchutil::eng(row.bytewise).c_str(),
                benchutil::eng(row.sliced).c_str(),
                benchutil::eng(row.dispatch).c_str(),
                row.sliced / row.bytewise, row.dispatch / row.bytewise);
  }
  const CrcRow& big = rows.back();
  const double slice8_speedup = big.sliced / big.bytewise;
  const double best_speedup =
      std::max(big.sliced, big.dispatch) / big.bytewise;

  const auto [seq_multi, multi] = crc_multi_rates();
  std::printf("\nInterleaved multi-engine hashing (one telemetry key, h1 + "
              "h0(0..7)):\n");
  std::printf("  compute_multi   %12s hashes/s vs %12s sequential (%5.2fx)\n",
              benchutil::eng(multi).c_str(), benchutil::eng(seq_multi).c_str(),
              multi / seq_multi);

  // ------------------------------------------------- translate/craft/exec
  std::printf("\nTranslation + crafting (ops/s):\n");
  for (unsigned n : {1u, 2u, 4u}) {
    std::printf("  keywrite translate N=%u   %12s\n", n,
                benchutil::eng(bench_keywrite_translate(n)).c_str());
  }
  std::printf("  postcard ingest          %12s\n",
              benchutil::eng(bench_postcard_ingest()).c_str());
  for (std::uint32_t b : {1u, 16u}) {
    std::printf("  append ingest batch=%-2u   %12s\n", b,
                benchutil::eng(bench_append_ingest(b)).c_str());
  }
  std::printf("  roce craft               %12s\n",
              benchutil::eng(bench_roce_craft()).c_str());

  const double wire = bench_nic_wire();
  const double direct = bench_nic_direct();
  std::printf("\nNIC verb execution (verbs/s):\n");
  std::printf("  wire path (craft upstream, parse+ICRC)  %12s\n",
              benchutil::eng(wire).c_str());
  std::printf("  direct path (shard delivery)            %12s  (%5.2fx)\n",
              benchutil::eng(direct).c_str(), direct / wire);

  std::printf("\nStore queries (ops/s):\n");
  for (unsigned n : {1u, 2u, 4u}) {
    std::printf("  keywrite query N=%u       %12s\n", n,
                benchutil::eng(bench_keywrite_query(n)).c_str());
  }
  std::printf("  append poll              %12s\n",
              benchutil::eng(bench_append_poll()).c_str());

  const FoldResult fold = bench_index_fold();
  std::printf("\nIndex fold (2^19 mixed keys, target 128, windows of %zu "
              "batches x %zu keys):\n",
              kFoldBatches, kFoldKeysPerBatch);
  std::printf("  build, first-time keys     %8.1f ns/key\n",
              fold.build_ns_per_key);
  std::printf("  rewrite, present keys      %8.1f ns/key  (%d windows, "
              "%llu leaf copies, %zu leaves)\n",
              fold.rewrite_ns_per_key, kFoldRewriteWindows,
              static_cast<unsigned long long>(fold.rewrite_leaf_copies),
              fold.leaves);
  if (FILE* fold_json = std::fopen("BENCH_index_fold.json", "w")) {
    std::fprintf(fold_json,
                 "{\n  \"keys\": %llu,\n  \"target_leaf_entries\": 128,\n"
                 "  \"window_keys\": %zu,\n  \"rewrite_windows\": %d,\n"
                 "  \"leaves\": %zu,\n  \"build_ns_per_key\": %.1f,\n"
                 "  \"rewrite_ns_per_key\": %.1f,\n"
                 "  \"rewrite_leaf_copies\": %llu\n}\n",
                 static_cast<unsigned long long>(kFoldKeys),
                 kFoldBatches * kFoldKeysPerBatch, kFoldRewriteWindows,
                 fold.leaves, fold.build_ns_per_key, fold.rewrite_ns_per_key,
                 static_cast<unsigned long long>(fold.rewrite_leaf_copies));
    std::fclose(fold_json);
    std::printf("\nwrote BENCH_index_fold.json\n");
  }

  // ------------------------------------------------------------- JSON
  FILE* json = std::fopen("BENCH_crc.json", "w");
  if (json) {
    std::fprintf(json, "{\n  \"crc\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(json,
                   "    {\"bytes\": %zu, \"bytewise_bps\": %.0f, "
                   "\"slice8_bps\": %.0f, \"dispatch_bps\": %.0f}%s\n",
                   rows[i].size, rows[i].bytewise, rows[i].sliced,
                   rows[i].dispatch, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"hw_crc32c\": %s,\n"
                 "  \"multi\": {\"sequential\": %.0f, \"interleaved\": %.0f},\n"
                 "  \"verb_exec\": {\"wire\": %.0f, \"direct\": %.0f},\n",
                 common::value_crc().hardware_accelerated() ? "true" : "false",
                 seq_multi, multi, wire, direct);
    // Gate only the ratios that are decisively large: the near-1x
    // interleave ratio (multi, reported above) jitters too much on
    // shared CI cores to be a reliable floor.
    std::fprintf(json,
                 "  \"gate\": {\n"
                 "    \"crc_speedup_slice8\": %.3f,\n"
                 "    \"crc_speedup_best\": %.3f,\n"
                 "    \"direct_exec_speedup\": %.3f\n"
                 "  }\n}\n",
                 slice8_speedup, best_speedup, direct / wire);
    std::fclose(json);
    std::printf("\nwrote BENCH_crc.json\n");
  }
  if (fold.rewrite_leaf_copies != 0) {
    std::fprintf(stderr,
                 "FAIL: windows of present keys copied %llu index leaves\n",
                 static_cast<unsigned long long>(fold.rewrite_leaf_copies));
    return 1;
  }
  return 0;
}
