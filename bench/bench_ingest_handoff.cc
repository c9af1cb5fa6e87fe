// Ingest handoff: what one report costs between Backend::submit and
// store memory, and how many heap blocks it takes on the way.
//
// Client::local with the pipeline bench's geometry (2 shards, 2^22
// Key-Write slots of 4-byte values, 64 Append lists, 5-hop postcards),
// fed Key-Write, Key-Increment, Postcard and Append rings and the
// pipeline bench's dc_trace_mix ring (all four primitives from a
// synthetic trace of 100K flows), each inline (the producer runs the
// shards) and threaded (two pinned shard workers, the producer on a
// third core). Each submit copies its report from the ring, as the
// pipeline bench's generator does. For each ring and mode it prints the
// producer's ns per submitted report, reports/s until every shard has
// drained, heap allocations per report (a counting global operator new)
// and backpressure waits (full-queue spins) per 1,000 reports, and
// writes them to BENCH_ingest.json in the working directory. Rates move
// with the host; no floor is committed for them.
//
//   ./build/bench_ingest_handoff [--smoke]
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "collector/runtime.h"
#include "dtalib/client.h"
#include "telemetry/trace.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line: inlined, they would show the compiler a malloc block
// reaching operator delete, or an operator new block reaching free(),
// which it warns of as a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}
// The array forms count through the ones above (a sanitizer runtime
// would otherwise serve them uncounted).
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete[](void* block) noexcept {
  ::operator delete(block);
}
[[gnu::noinline]] void operator delete[](void* block, std::size_t) noexcept {
  ::operator delete(block);
}

namespace dta {
namespace {

constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kLists = 64;
constexpr std::uint8_t kHops = 5;
constexpr std::uint32_t kPostcardValues = 4096;

// The first three CPUs this process may run on: two shard workers and
// the producer. Empty (nothing pinned) on a host with fewer.
std::vector<int> bench_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 3; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  if (cpus.size() < 3) cpus.clear();
  return cpus;
}

void pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

collector::CollectorRuntimeConfig geometry(collector::ThreadMode mode,
                                           const std::vector<int>& cpus) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = kShards;
  config.thread_mode = mode;
  if (!cpus.empty()) {
    config.pin_workers = true;
    config.worker_cores = {cpus[0], cpus[1]};
  }
  collector::KeyWriteSetup kw;
  kw.num_slots = std::uint64_t{1} << 22;
  kw.value_bytes = 4;
  config.keywrite = kw;
  config.keyincrement = collector::KeyIncrementSetup{};
  collector::AppendSetup ap;
  ap.num_lists = kLists;
  config.append = ap;
  collector::PostcardingSetup pc;
  pc.hops = kHops;
  for (std::uint32_t v = 0; v < kPostcardValues; ++v) {
    pc.value_space.push_back(v);
  }
  config.postcarding = pc;
  return config;
}

enum class Ring { kKeyWrite, kKeyIncrement, kPostcard, kAppend, kMix };

// `size` reports of one primitive on distinct well-mixed keys (a
// postcard flow reports each of its hops in turn, Append reports go to
// the lists round-robin), or the mix ring.
std::vector<proto::ParsedDta> make_ring(Ring kind, std::size_t size) {
  const std::uint64_t seed = benchutil::seed(0x1A6D0FFu);
  if (kind == Ring::kMix) {
    // The pipeline bench's dc_trace_mix inputs: Key-Write,
    // Key-Increment, Append and Postcard in turn over Zipf flows.
    telemetry::TraceConfig trace;
    trace.seed = seed;
    trace.num_flows = 100000;
    telemetry::TraceGenerator gen(trace);
    telemetry::ReportMix mix;
    mix.num_lists = kLists;
    mix.postcard_hops = kHops;
    mix.postcard_value_space = kPostcardValues;
    mix.redundancy = 2;
    return telemetry::synthesize_reports(
        gen, static_cast<std::uint32_t>(size), mix);
  }
  common::Rng rng(seed);
  std::vector<proto::ParsedDta> ring;
  ring.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    switch (kind) {
      case Ring::kKeyWrite:
        ring.push_back(reports::keywrite_u32(reports::mixed_key(i),
                                             rng.next_u32(), 2));
        break;
      case Ring::kKeyIncrement:
        ring.push_back(reports::keyincrement(reports::mixed_key(i), 1, 2));
        break;
      case Ring::kPostcard:
        ring.push_back(reports::postcard(
            reports::mixed_key(i / kHops), static_cast<std::uint8_t>(i % kHops),
            kHops,
            static_cast<std::uint32_t>(rng.next_below(kPostcardValues)), 2));
        break;
      default:
        ring.push_back(reports::append_u32(
            static_cast<std::uint32_t>(i % kLists), rng.next_u32()));
        break;
    }
  }
  return ring;
}

struct Case {
  const char* primitive = "";
  const char* mode = "";
  std::uint64_t reports = 0;
  double producer_ns_per_report = 0;
  double reports_per_s = 0;
  double allocations_per_report = 0;
  double backpressure_waits_per_kreport = 0;
  bool ok = true;
};

// Every submitted report delivered into store memory: each shard's
// worker (or, inline, the caller) drains its queue and flushes.
void drain(collector::CollectorRuntime& runtime) {
  for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
    runtime.flush_shard(s);
  }
}

Case run_case(const char* primitive, const std::vector<proto::ParsedDta>& ring,
              collector::ThreadMode mode, const std::vector<int>& cpus,
              int passes) {
  Case out;
  out.primitive = primitive;
  out.mode = mode == collector::ThreadMode::kInline ? "inline" : "threaded";
  Client client = Client::local(geometry(mode, cpus));
  collector::CollectorRuntime& runtime = *client.local_runtime();
  Backend& backend = client.backend();

  // One warm pass: keys indexed, batch and window buffers grown.
  for (const auto& report : ring) {
    out.ok = backend.submit(report, ReportOptions{}).ok() && out.ok;
  }
  drain(runtime);

  const std::uint64_t waits = runtime.pipeline().stats().backpressure_waits;
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed);
  benchutil::WallTimer timer;
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& report : ring) {
      out.ok = backend.submit(report, ReportOptions{}).ok() && out.ok;
    }
  }
  const double submit_s = timer.seconds();
  drain(runtime);
  const double total_s = timer.seconds();

  out.reports = ring.size() * static_cast<std::uint64_t>(passes);
  const auto n = static_cast<double>(out.reports);
  out.producer_ns_per_report = submit_s * 1e9 / n;
  out.reports_per_s = n / total_s;
  out.allocations_per_report =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations) /
      n;
  out.backpressure_waits_per_kreport =
      static_cast<double>(runtime.pipeline().stats().backpressure_waits -
                          waits) *
      1000.0 / n;
  return out;
}

}  // namespace
}  // namespace dta

int main(int argc, char** argv) {
  using namespace dta;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t ring_size =
      smoke ? std::size_t{1} << 16 : std::size_t{1} << 20;
  const int passes = smoke ? 2 : 4;

  benchutil::print_header(
      "Ingest handoff — cost and heap blocks per report, submit to store",
      "§1/Fig. 10: collection rate is reports absorbed per CPU; a report "
      "should take no allocation between the reporter and store memory");
  const std::vector<int> cpus = bench_cpus();
  if (!cpus.empty()) pin_self(cpus[2]);
  std::printf("%zu-report rings, %d timed passes, %s\n", ring_size, passes,
              cpus.empty() ? "unpinned (fewer than 3 CPUs)"
                           : "workers and producer pinned");
  std::printf("%-14s %-9s %12s %12s %12s %12s\n", "primitive", "mode",
              "producer ns", "reports/s", "allocs/rep", "waits/1k");

  std::vector<Case> cases;
  bool ok = true;
  const struct {
    const char* name;
    Ring kind;
  } primitives[] = {{"keywrite", Ring::kKeyWrite},
                    {"keyincrement", Ring::kKeyIncrement},
                    {"postcard", Ring::kPostcard},
                    {"append", Ring::kAppend},
                    {"mix", Ring::kMix}};
  for (const auto& primitive : primitives) {
    const std::vector<proto::ParsedDta> ring =
        make_ring(primitive.kind, ring_size);
    for (const auto mode :
         {collector::ThreadMode::kInline, collector::ThreadMode::kThreaded}) {
      const Case c = run_case(primitive.name, ring, mode, cpus, passes);
      std::printf("%-14s %-9s %12.1f %12s %12.4f %12.2f%s\n", c.primitive,
                  c.mode, c.producer_ns_per_report,
                  benchutil::eng(c.reports_per_s).c_str(),
                  c.allocations_per_report, c.backpressure_waits_per_kreport,
                  c.ok ? "" : "  (a submit failed)");
      ok = ok && c.ok;
      cases.push_back(c);
    }
  }

  if (FILE* json = std::fopen("BENCH_ingest.json", "w")) {
    std::fprintf(json, "{\n  \"ring_reports\": %zu,\n  \"passes\": %d,\n",
                 ring_size, passes);
    std::fprintf(json, "  \"pinned\": %s,\n  \"cases\": [\n",
                 cpus.empty() ? "false" : "true");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      std::fprintf(json,
                   "    {\"primitive\": \"%s\", \"mode\": \"%s\", "
                   "\"reports\": %llu, \"producer_ns_per_report\": %.1f, "
                   "\"reports_per_s\": %.0f, \"allocations_per_report\": "
                   "%.4f, \"backpressure_waits_per_kreport\": %.2f}%s\n",
                   c.primitive, c.mode,
                   static_cast<unsigned long long>(c.reports),
                   c.producer_ns_per_report, c.reports_per_s,
                   c.allocations_per_report,
                   c.backpressure_waits_per_kreport,
                   i + 1 < cases.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_ingest.json\n");
  }
  return ok ? 0 : 1;
}
