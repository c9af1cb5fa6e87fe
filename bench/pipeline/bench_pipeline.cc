// bench_pipeline — end-to-end collection and query benchmark of
// dta::Client on a 2-shard LocalBackend.
//
// One process runs one workload. It builds the workload's inputs from
// --seed, sets the Client up --setup-reps times (Client construction,
// preload, first snapshots; the median is setup_s), warms up, and then
// runs the timed phase: the main thread submits reports (closed loop,
// or open loop at a fixed rate) while one query thread issues the
// workload's queries open loop at a fixed rate, each timed from the
// moment it was due. Threads: generator, query thread and the two
// shard workers, each on its own CPU when there are four. After the
// timed phase the stores are flushed and checked against what the
// generator submitted.
//
// With --trace 1 the timed phase alternates untraced and traced
// one-second slices. A traced slice calls each layer's public entry
// point itself (validate_report -> admit_submit ->
// CollectorRuntime::submit for ingest; snapshot, index and resolve
// calls for queries) and records a span around every call in a
// preallocated per-thread buffer. The run reports per-layer costs, the
// tracing overhead, and how far the layer costs on the blocking path
// fall from the untraced slices' numbers.
//
// Output: one `name value unit` line per metric on stdout, and a result
// JSON (--out) that run.py stamps with the machine fingerprint. Exit
// code 3 when an output check fails, 2 on bad arguments.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "common/crc.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "dta/report_builders.h"
#include "dtalib/client.h"
#include "dtalib/query_core.h"
#include "telemetry/trace.h"

#ifndef DTA_BENCH_COMPILER
#define DTA_BENCH_COMPILER "unknown"
#endif
#ifndef DTA_BENCH_FLAGS
#define DTA_BENCH_FLAGS "unknown"
#endif

namespace {

using namespace dta;

// --- store geometry and workload constants -----------------------------------

constexpr std::uint32_t kShards = 2;
constexpr std::uint64_t kKeyWriteSlots = std::uint64_t{1} << 22;
constexpr std::uint32_t kLists = 64;
constexpr std::uint8_t kPostcardHops = 5;
constexpr std::uint32_t kPostcardValues = 4096;
constexpr std::uint8_t kRedundancy = 2;

constexpr std::size_t kRingReports = std::size_t{1} << 20;
constexpr std::uint32_t kTraceFlows = 100000;
constexpr std::size_t kDashboardKeys = 1000000;
constexpr std::size_t kRangeWindow = 1000;
constexpr std::uint64_t kRangeLimit = 256;
constexpr std::uint64_t kEventsMax = 256;
// Point probes read one of the last kRecentWindow reports submitted.
constexpr std::uint64_t kRecentWindow = 1024;
// Flows one monitoring-panel request reads.
constexpr std::size_t kPanelKeys = 64;

constexpr std::size_t kKeyWriteSample = 100000;
constexpr std::size_t kCounterSample = 10000;
constexpr std::size_t kRangeChecks = 16;
constexpr std::size_t kMaxReportedErrors = 8;

// Staleness budget of the panels on the saturating workloads: longer
// than any run, so they read the set-up snapshot and never refresh. (An
// exact-freshness read must quiesce a shard, and a shard whose queue a
// closed-loop producer keeps full can take seconds to drain.)
constexpr std::uint64_t kRunLongStalenessUs = 3600ull * 1000 * 1000;

// The timed phase is cut into windows of this length; the per-window
// rates and latencies show how steady a run was.
constexpr std::uint64_t kWindowNs = 500000000;
// The traced run alternates untraced and traced slices of this length,
// so both see the same machine.
constexpr double kTraceSliceSeconds = 1.0;

// A run whose generators fell further behind schedule than this
// measured the generator, not the system.
constexpr double kMaxLatenessUs = 1000.0;

enum class QueryKind {
  kPoint,         // one Key-Write get of a recently written key
  kPanel,         // Key-Write gets of kPanelKeys recent keys, one batch
  kCounterPanel,  // counter reads of kPanelKeys flows
  kDashboard,     // a range over a key window, then one list's new events
};
enum class Inputs { kIntRing, kTraceMix, kDashboard };

struct Workload {
  const char* name;
  Inputs inputs;
  double ingest_rate;  // reports/s; 0 = closed loop (saturating)
  double query_rate;   // query requests/s, open loop
  QueryKind query;
  std::uint64_t staleness_us;  // 0 = exact freshness
};

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"int_keywrite", Inputs::kIntRing, 0, 500, QueryKind::kPanel,
     kRunLongStalenessUs},
    {"dc_trace_mix", Inputs::kTraceMix, 0, 500, QueryKind::kCounterPanel,
     kRunLongStalenessUs},
    {"fresh_point_query", Inputs::kIntRing, 100000, 200, QueryKind::kPoint, 0},
    {"dashboard_range_events", Inputs::kDashboard, 50000, 500,
     QueryKind::kDashboard, 50000},
};

// The CPUs the process may run on, read before any thread is pinned.
// With at least four, each benchmark thread gets its own: the shard
// workers the first two, the generator the third, the query thread the
// fourth. Otherwise nothing is pinned.
std::vector<int> thread_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 4; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  if (cpus.size() < 4) cpus.clear();
  return cpus;
}

void pin_current_thread(const std::vector<int>& cpus, std::size_t slot) {
  if (slot >= cpus.size()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

constexpr std::size_t kGeneratorCpu = 2;
constexpr std::size_t kQueryCpu = 3;

collector::CollectorRuntimeConfig pipeline_config(
    collector::ThreadMode mode, const std::vector<int>& cpus) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = kShards;
  config.thread_mode = mode;
  if (!cpus.empty()) {
    config.pin_workers = true;
    config.worker_cores = {cpus[0], cpus[1]};
  }
  collector::KeyWriteSetup kw;
  kw.num_slots = kKeyWriteSlots;
  kw.value_bytes = 4;
  config.keywrite = kw;
  config.keyincrement = collector::KeyIncrementSetup{};
  collector::AppendSetup ap;
  ap.num_lists = kLists;
  config.append = ap;
  collector::PostcardingSetup pc;
  pc.hops = kPostcardHops;
  for (std::uint32_t v = 0; v < kPostcardValues; ++v) {
    pc.value_space.push_back(v);
  }
  config.postcarding = pc;
  return config;
}

// --- clocks and statistics ---------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Span timestamps. On x86 the time-stamp counter, whose read costs about
// half a steady_clock read, converted to steady_clock nanoseconds by a
// calibration against it; steady_clock itself elsewhere.
class SpanClock {
 public:
  SpanClock() : tick0_(ticks()), ns0_(now_ns()) {
#if defined(__x86_64__) || defined(__i386__)
    constexpr std::uint64_t kCalibrationNs = 20000000;
    std::uint64_t ns = ns0_;
    while ((ns = now_ns()) - ns0_ < kCalibrationNs) spin_pause();
    ns_per_tick_ = static_cast<double>(ns - ns0_) /
                   static_cast<double>(ticks() - tick0_);
#endif
  }

  static std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return now_ns();
#endif
  }
  // Nanoseconds in `t` ticks.
  std::uint64_t ns(std::uint64_t t) const {
    return static_cast<std::uint64_t>(static_cast<double>(t) * ns_per_tick_);
  }
  // The steady_clock reading at tick `t`.
  std::uint64_t steady_ns(std::uint64_t t) const { return ns0_ + ns(t - tick0_); }

 private:
  std::uint64_t tick0_;
  std::uint64_t ns0_;
  double ns_per_tick_ = 1.0;
};

// Mean cost of one span clock read, the unit every span pays twice.
double timer_overhead_ns() {
  constexpr int kReads = 1000000;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kReads; ++i) SpanClock::ticks();
  return static_cast<double>(now_ns() - t0) / kReads;
}

// Nearest-rank percentile of exact samples.
double percentile(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return static_cast<double>(samples[index]);
}

// Log-linear histogram of nanosecond values: exact below 128, then 64
// buckets per power of two (under 1.6% wide). Fixed size, so recording
// never allocates.
class Histogram {
 public:
  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++count_;
    sum_ += v;
  }
  std::uint64_t count() const { return count_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  // Value at quantile q, interpolated within the bucket that holds it.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(seen + counts_[i]) > rank) {
        const double within = (rank - static_cast<double>(seen) + 0.5) /
                              static_cast<double>(counts_[i]);
        return static_cast<double>(lower(i)) +
               within * static_cast<double>(width(i));
      }
      seen += counts_[i];
    }
    return 0.0;
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kBuckets = (65 - kSubBits) << kSubBits;

  static std::size_t index(std::uint64_t v) {
    if (v < (std::uint64_t{2} << kSubBits)) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return (static_cast<std::size_t>(shift) << kSubBits) +
           static_cast<std::size_t>(v >> shift);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < (std::size_t{2} << kSubBits)) return i;
    const std::size_t shift = (i >> kSubBits) - 1;
    return static_cast<std::uint64_t>((i & ((1u << kSubBits) - 1)) +
                                      (1u << kSubBits))
           << shift;
  }
  static std::uint64_t width(std::size_t i) {
    if (i < (std::size_t{2} << kSubBits)) return 1;
    return std::uint64_t{1} << ((i >> kSubBits) - 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

// --- tracing -----------------------------------------------------------------

// One span per public entry point the traced run calls. Roots are whole
// requests (one report submitted, one query request answered); every
// other stage is a child of the request that called it.
enum class Stage : std::uint8_t {
  kSubmit,
  kValidate,
  kAdmit,
  kCollectorSubmit,
  kQuery,
  kKeySnapshots,
  kMergeKeyWrite,
  kMergeCounter,
  kShardSnapshot,
  kIndexShard,
  kCandidates,
  kScan,
  kListSnapshot,
  kEventsRead,
  kCount
};
constexpr std::size_t kStages = static_cast<std::size_t>(Stage::kCount);

constexpr const char* kStageNames[kStages] = {
    "dtalib.submit",
    "dtalib.validate_report",
    "dtalib.admit_submit",
    "collector.submit",
    "dtalib.query",
    "dtalib.key_snapshots",
    "dtalib.merge_keywrite",
    "dtalib.merge_counter",
    "collector.snapshot_shard_bounded",
    "collector.index_shard",
    "dtalib.collect_range_candidates",
    "dtalib.scan_range_candidates",
    "dtalib.list_snapshot",
    "dtalib.events_read",
};

// Query stages that pin the state a query reads, and those that resolve
// the answer from it.
bool is_pin_stage(Stage s) {
  return s == Stage::kKeySnapshots || s == Stage::kShardSnapshot ||
         s == Stage::kIndexShard || s == Stage::kListSnapshot;
}

const char* stage_name(Stage s) {
  return kStageNames[static_cast<std::size_t>(s)];
}

// Per-thread span recorder. Every request is timed; the spans of one
// request in every `keep_every` (a power of two) are also kept, in a
// buffer reserved up front, for the Chrome trace file.
class Tracer {
 public:
  // Start and end are SpanClock ticks.
  struct Span {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t request = 0;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    Stage stage = Stage::kSubmit;
  };

  Tracer(std::uint32_t thread_id, const SpanClock& clock,
         std::size_t capacity, std::uint64_t keep_every)
      : thread_id_(thread_id), clock_(clock), keep_mask_(keep_every - 1) {
    spans_.reserve(capacity);
  }

  void begin(Stage root) {
    root_ = root;
    child_ns_ = 0;
    pin_ns_ = 0;
    request_ = (static_cast<std::uint64_t>(thread_id_) << 48) | requests_;
    keep_ = (requests_ & keep_mask_) == 0 &&
            spans_.size() + 16 <= spans_.capacity();
    ++requests_;
    if (keep_) {
      root_span_ = static_cast<std::int64_t>(spans_.size());
      spans_.push_back({0, 0, request_, -1, root});
    }
    start_ = SpanClock::ticks();
    if (keep_) spans_[static_cast<std::size_t>(root_span_)].start = start_;
  }

  // Runs fn() as a child span of the open request.
  template <typename F>
  decltype(auto) time(Stage stage, F&& fn) {
    const std::uint64_t t0 = SpanClock::ticks();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      fn();
      close(stage, t0, SpanClock::ticks());
    } else {
      auto result = fn();
      close(stage, t0, SpanClock::ticks());
      return result;
    }
  }

  void end() {
    const std::uint64_t t1 = SpanClock::ticks();
    const std::uint64_t duration = clock_.ns(t1 - start_);
    self_[static_cast<std::size_t>(root_)].add(duration - child_ns_);
    roots_[static_cast<std::size_t>(root_)].add(duration);
    if (root_ == Stage::kQuery) {
      pin_.add(pin_ns_);
      resolve_.add(child_ns_ - pin_ns_);
    }
    if (keep_) spans_[static_cast<std::size_t>(root_span_)].end = t1;
  }

  std::uint32_t thread_id() const { return thread_id_; }
  const SpanClock& clock() const { return clock_; }
  const std::vector<Span>& spans() const { return spans_; }
  // Self time of each span of `stage` (duration minus its children).
  const Histogram& self(Stage stage) const {
    return self_[static_cast<std::size_t>(stage)];
  }
  // Whole-request durations of roots of kind `stage`.
  const Histogram& root(Stage stage) const {
    return roots_[static_cast<std::size_t>(stage)];
  }
  // Per query request: time pinning state, time resolving.
  const Histogram& pin() const { return pin_; }
  const Histogram& resolve() const { return resolve_; }

 private:
  void close(Stage stage, std::uint64_t t0, std::uint64_t t1) {
    const std::uint64_t d = clock_.ns(t1 - t0);
    self_[static_cast<std::size_t>(stage)].add(d);
    child_ns_ += d;
    if (is_pin_stage(stage)) pin_ns_ += d;
    if (keep_) spans_.push_back({t0, t1, request_, root_span_, stage});
  }

  std::uint32_t thread_id_;
  SpanClock clock_;
  std::uint64_t keep_mask_;
  std::vector<Span> spans_;
  std::array<Histogram, kStages> self_{};
  std::array<Histogram, kStages> roots_{};
  Histogram pin_;
  Histogram resolve_;
  // The open request.
  Stage root_ = Stage::kSubmit;
  std::uint64_t start_ = 0;
  std::uint64_t child_ns_ = 0;
  std::uint64_t pin_ns_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t requests_ = 0;
  bool keep_ = false;
  std::int64_t root_span_ = -1;
};

// Chrome trace-event file ("X" events; args carry the request id and
// the parent span) of every kept span.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        std::uint64_t t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  std::uint64_t base = 0;  // global span id of the tracer's first span
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      if (s.end == 0) continue;  // a root still open when tracing stopped
      const char* name = stage_name(s.stage);
      const char* dot = std::strchr(name, '.');
      const std::string layer(name, dot ? static_cast<std::size_t>(dot - name)
                                        : std::strlen(name));
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"span\":%llu,\"request\":%llu,\"parent\":",
                   first ? "" : ",\n", name, layer.c_str(),
                   static_cast<double>(tracer->clock().steady_ns(s.start) -
                                       t0) /
                       1e3,
                   static_cast<double>(tracer->clock().ns(s.end - s.start)) /
                       1e3,
                   tracer->thread_id(),
                   static_cast<unsigned long long>(base + i),
                   static_cast<unsigned long long>(s.request));
      if (s.parent < 0) {
        std::fputs("null}}", f);
      } else {
        std::fprintf(f, "%llu}}",
                     static_cast<unsigned long long>(
                         base + static_cast<std::uint64_t>(s.parent)));
      }
      first = false;
    }
    base += spans.size();
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// --- inputs ------------------------------------------------------------------

std::uint32_t mix32(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint32_t>(x ^ (x >> 31));
}

// The value the generator writes for a ring slot on its pass-th trip
// round the ring: a different value every pass, so a stale read shows.
std::uint32_t pass_value(std::uint32_t base, std::uint64_t pass) {
  return base + static_cast<std::uint32_t>(pass) * 0x9E3779B9u;
}

// The entry the generator appends as the seq-th entry of `list`.
std::uint32_t entry_value(std::uint32_t list, std::uint64_t seq) {
  return mix32((static_cast<std::uint64_t>(list) << 40) ^ seq);
}

struct KeyHash {
  std::size_t operator()(const proto::TelemetryKey& key) const {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint8_t i = 0; i < key.length; ++i) {
      h = (h ^ key.bytes[i]) * 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

struct WorkloadInputs {
  // Reports the generator cycles through, in order.
  std::vector<proto::ParsedDta> ring;
  // Dashboard: keys written once in set-up, and the same keys in the
  // index's order, for range windows.
  std::vector<proto::TelemetryKey> preload;
  std::vector<std::uint32_t> preload_values;
  std::vector<proto::TelemetryKey> sorted_preload;
  // Keys the counter probes read.
  std::vector<proto::TelemetryKey> counter_keys;
};

WorkloadInputs make_inputs(const Workload& w, std::uint64_t seed) {
  WorkloadInputs in;
  in.ring.reserve(kRingReports);
  common::Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
  switch (w.inputs) {
    case Inputs::kIntRing:
      // INT postcards on distinct well-mixed flow keys.
      for (std::size_t i = 0; i < kRingReports; ++i) {
        in.ring.push_back(reports::keywrite_u32(
            reports::mixed_key((seed << 32) | i), rng.next_u32(),
            kRedundancy));
      }
      break;
    case Inputs::kTraceMix: {
      telemetry::TraceConfig trace;
      trace.seed = seed;
      trace.num_flows = kTraceFlows;
      telemetry::TraceGenerator gen(trace);
      telemetry::ReportMix mix;
      mix.num_lists = kLists;
      mix.postcard_hops = kPostcardHops;
      mix.postcard_value_space = kPostcardValues;
      mix.redundancy = kRedundancy;
      in.ring = telemetry::synthesize_reports(
          gen, static_cast<std::uint32_t>(kRingReports), mix);
      std::unordered_set<proto::TelemetryKey, KeyHash> seen;
      for (const auto& r : in.ring) {
        const auto* ki = std::get_if<proto::KeyIncrementReport>(&r.report);
        if (ki != nullptr && seen.insert(ki->key).second) {
          in.counter_keys.push_back(ki->key);
        }
      }
      break;
    }
    case Inputs::kDashboard:
      in.preload.reserve(kDashboardKeys);
      in.preload_values.reserve(kDashboardKeys);
      for (std::size_t i = 0; i < kDashboardKeys; ++i) {
        in.preload.push_back(
            reports::mixed_key((seed << 32) | (std::uint64_t{1} << 31) | i));
        in.preload_values.push_back(rng.next_u32());
      }
      in.sorted_preload = in.preload;
      std::sort(in.sorted_preload.begin(), in.sorted_preload.end(),
                collector::index_key_less);
      // Half Key-Write overwrites of preloaded keys, half Append events
      // round-robin over the lists.
      for (std::size_t i = 0; i < kRingReports; ++i) {
        if (i % 2 == 0) {
          in.ring.push_back(reports::keywrite_u32(
              in.preload[rng.next_below(kDashboardKeys)], rng.next_u32(),
              kRedundancy));
        } else {
          in.ring.push_back(reports::append_u32(
              static_cast<std::uint32_t>((i / 2) % kLists), 0));
        }
      }
      break;
  }
  return in;
}

// --- the benchmark -----------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  int setup_reps = 3;
  double warmup_seconds = 1.0;
  std::string out;
  std::string trace_out;
};

// Written by the query thread only, and aligned so it shares no cache
// line with the generator's counters.
struct alignas(64) QueryStats {
  std::vector<std::uint64_t> latency_ns;  // per request, from its due time
  std::vector<std::uint32_t> window;      // the window each request was due in
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;
  std::uint64_t results = 0;
  Histogram lateness_ns;
};

struct PhaseStats {
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::uint64_t reports = 0;
  std::uint64_t report_failures = 0;
  // Time the generator spent submitting (all of it in a closed loop).
  std::uint64_t producer_busy_ns = 0;
  Histogram ingest_lateness_ns;
  std::vector<double> window_rps;  // reports/s of each whole window
  QueryStats q;

  double ns_per_report() const {
    return reports ? static_cast<double>(producer_busy_ns) /
                         static_cast<double>(reports)
                   : 0.0;
  }
  double late_p99_us() const {
    return std::max(ingest_lateness_ns.quantile(0.99),
                    q.lateness_ns.quantile(0.99)) /
           1e3;
  }
};

// Public counters read behind a flush barrier.
struct Counters {
  collector::CollectorRuntimeStats ingest;
  std::vector<std::uint64_t> shard_reports;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t submitted = 0;
  collector::TranslationStats translation;
  collector::SnapshotCacheStats snapshots;
  collector::IndexPublisherStats index;
  std::uint64_t quiesces = 0;
};

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args),
        w_(*args.workload),
        in_(make_inputs(w_, args.seed)),
        budget_{0, w_.staleness_us},
        cpus_(thread_cpus()),
        cursors_(kLists, 0) {
    pin_current_thread(cpus_, kGeneratorCpu);
  }

  // Builds the Client and brings it to the state the timed phase starts
  // from. Returns the seconds it took.
  double setup() {
    client_.reset();
    history_ = History{};
    const std::uint64_t t0 = now_ns();
    client_.emplace(Client::local(
        pipeline_config(collector::ThreadMode::kThreaded, cpus_)));
    runtime_ = client_->local_runtime();
    Backend& backend = client_->backend();
    if (!in_.preload.empty()) {
      for (std::size_t i = 0; i < in_.preload.size(); ++i) {
        count_setup(backend.submit(
            reports::keywrite_u32(in_.preload[i], in_.preload_values[i],
                                  kRedundancy),
            ReportOptions{}));
      }
    } else {
      // One trip round the ring touches every table page the timed
      // phase writes.
      for (std::size_t i = 0; i < in_.ring.size(); ++i) {
        count_setup(backend.submit(next_report(), ReportOptions{}));
      }
    }
    count_setup(flush());
    for (std::uint32_t s = 0; s < runtime_->num_shards(); ++s) {
      const auto snap = runtime_->snapshot_shard(s);
      runtime_->index_shard(s, snap->generation());
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  void start_tracing() {
    const SpanClock clock;
    gen_tracer_.emplace(0, clock, 1 << 18, 1024);
    query_tracer_.emplace(1, clock, 1 << 18, 1);
  }

  // Runs the workload for `seconds`, adding to `out`; traced when
  // `trace` is set (after start_tracing()).
  void run_phase(double seconds, bool trace, PhaseStats& out) {
    out.q.latency_ns.reserve(out.q.latency_ns.size() +
                             static_cast<std::size_t>(seconds * w_.query_rate) +
                             16);
    Tracer* gen_tracer = trace ? &*gen_tracer_ : nullptr;
    Tracer* query_tracer = trace ? &*query_tracer_ : nullptr;
    const double cpu0 = cpu_seconds();
    const std::uint64_t t0 = now_ns();
    if (trace && phase_start_ns_ == 0) phase_start_ns_ = t0;
    const auto t_end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    const auto first_window = static_cast<std::uint32_t>(out.window_rps.size());
    {
      std::thread queries([&] {
        pin_current_thread(cpus_, kQueryCpu);
        query_loop(t0, t_end, first_window, query_tracer, out.q);
      });
      struct Joiner {
        std::thread& t;
        ~Joiner() { t.join(); }
      } joiner{queries};
      generate(t0, t_end, gen_tracer, out);
    }
    out.seconds += static_cast<double>(now_ns() - t0) / 1e9;
    out.cpu_s += cpu_seconds() - cpu0;
  }

  Counters counters() const {
    Counters c;
    const collector::CollectorRuntime& runtime = *runtime_;
    c.ingest = runtime.stats();
    for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
      c.shard_reports.push_back(runtime_->shard(s).stats().reports_in);
      c.quiesces += runtime.pipeline().quiesces(s);
    }
    c.backpressure_waits = runtime.pipeline().stats().backpressure_waits;
    c.submitted = runtime.pipeline().stats().submitted;
    c.translation = runtime.translation_stats();
    c.snapshots = runtime.snapshot_cache().stats();
    c.index = runtime.index_publisher().stats();
    return c;
  }

  // A flush delivers each list's partial Append batch as a short
  // write. After one, the list's batches no longer end on its ring
  // boundary, and the batch that crosses it overwrites the start of the
  // next list (translator::AppendEngine). Topping every list up to a
  // whole batch first keeps the flushes the benchmark issues from
  // misaligning the rings; the staleness budgets keep queries from
  // flushing a list that wraps within a run.
  Status flush() {
    const std::uint32_t batch =
        client_->backend().host_config().append_batch_size;
    for (std::uint32_t list = 0; history_.any_appends && list < kLists;
         ++list) {
      while (history_.appended[list] % batch != 0) {
        const std::uint32_t value =
            entry_value(list, history_.appended[list]++);
        if (auto status = client_->backend().submit(
                reports::append_u32(list, value), ReportOptions{});
            !status.ok()) {
          return status;
        }
      }
    }
    return client_->flush();
  }

  // End-of-run output checks; appends one message per failure.
  void check(std::vector<std::string>& errors, double& answer_frac) {
    check_keywrite(errors, answer_frac);
    if (!in_.counter_keys.empty()) check_counters(errors);
    if (history_.any_appends) check_events(errors);
    if (w_.query == QueryKind::kDashboard) check_ranges(errors);
    // Failures seen during set-up and the timed phases.
    errors.insert(errors.end(), run_errors_.begin(), run_errors_.end());
  }

  // Per-report cost of the ingest path in an inline-mode runtime, where
  // CollectorRuntime::submit runs the shard ingest on the caller.
  void inline_pass(double& route_ns, double& shard_ingest_ns) {
    collector::CollectorRuntime runtime(
        pipeline_config(collector::ThreadMode::kInline, cpus_));
    const std::size_t warm = in_.ring.size() / 4;
    const std::size_t timed = in_.ring.size() / 16;
    for (std::size_t i = 0; i < warm; ++i) runtime.submit(in_.ring[i]);
    std::uint64_t route_total = 0;
    std::uint64_t submit_total = 0;
    for (std::size_t i = warm; i < warm + timed; ++i) {
      proto::ParsedDta r = in_.ring[i];
      const std::uint64_t t0 = now_ns();
      runtime.shard_index_for(r);
      const std::uint64_t t1 = now_ns();
      runtime.submit(std::move(r));
      const std::uint64_t t2 = now_ns();
      route_total += t1 - t0;
      submit_total += t2 - t1;
    }
    runtime.stop();
    route_ns = static_cast<double>(route_total) / static_cast<double>(timed);
    shard_ingest_ns =
        static_cast<double>(submit_total) / static_cast<double>(timed) -
        route_ns;
  }

  std::uint64_t setup_failures() const { return setup_failures_; }
  const Tracer& gen_tracer() const { return *gen_tracer_; }
  const Tracer& query_tracer() const { return *query_tracer_; }
  std::uint64_t phase_start_ns() const { return phase_start_ns_; }

 private:
  // What the generator has submitted, for the end-of-run checks.
  struct History {
    std::uint64_t sent = 0;  // ring reports submitted
    std::array<std::uint64_t, kLists> appended{};
    bool any_appends = false;
  };

  struct QueryOutcome {
    bool failed = false;
    std::uint64_t results = 0;
  };

  void count_setup(const Status& status) {
    if (!status.ok()) {
      ++setup_failures_;
      note_error("set-up submit failed: " + status.to_string());
    }
  }

  void note_error(std::string message) {
    if (run_errors_.size() < kMaxReportedErrors) {
      run_errors_.push_back(std::move(message));
    }
  }

  // The next ring report, stamped with its pass and append sequence.
  proto::ParsedDta next_report() {
    const std::size_t slot = history_.sent % in_.ring.size();
    const std::uint64_t pass = history_.sent / in_.ring.size();
    proto::ParsedDta r = in_.ring[slot];
    if (auto* kw = std::get_if<proto::KeyWriteReport>(&r.report)) {
      common::store_u32(kw->data.data(),
                        pass_value(common::load_u32(kw->data.data()), pass));
    } else if (auto* ap = std::get_if<proto::AppendReport>(&r.report)) {
      common::store_u32(
          ap->entries[0].data(),
          entry_value(ap->list_id, history_.appended[ap->list_id]++));
      history_.any_appends = true;
    }
    ++history_.sent;
    published_sent_.store(history_.sent, std::memory_order_release);
    return r;
  }

  void submit_one(Tracer* tracer, PhaseStats& out) {
    ++out.reports;
    if (tracer == nullptr) {
      if (!client_->backend().submit(next_report(), ReportOptions{}).ok()) {
        ++out.report_failures;
      }
      return;
    }
    // The steps of LocalBackend::submit, one public call each, down to
    // its tenant stamp and its lock around the runtime's submit.
    Backend& backend = client_->backend();
    tracer->begin(Stage::kSubmit);
    proto::ParsedDta r = next_report();
    Status status = tracer->time(Stage::kValidate, [&] {
      return validate_report(r, runtime_->config(), backend.num_lists());
    });
    if (status.ok()) {
      const auto* ap = std::get_if<proto::AppendReport>(&r.report);
      const auto ops =
          ap ? static_cast<std::uint32_t>(ap->entries.size()) : 1u;
      status = tracer->time(Stage::kAdmit, [&] {
        return backend.tenants().admit_submit(kDefaultTenant, ops);
      });
    }
    if (status.ok()) {
      r.header.tenant = kDefaultTenant;
      tracer->time(Stage::kCollectorSubmit, [&] {
        MutexLock lock(traced_submit_mu_);
        runtime_->submit(std::move(r));
      });
    }
    tracer->end();
    if (!status.ok()) ++out.report_failures;
  }

  // Closes the window that `now` has passed the end of.
  struct WindowClock {
    std::uint64_t start;
    std::uint64_t reports_at_start = 0;
    void tick(std::uint64_t now, std::uint64_t reports, PhaseStats& out) {
      if (now - start < kWindowNs) return;
      out.window_rps.push_back(static_cast<double>(reports - reports_at_start) *
                               1e9 / static_cast<double>(now - start));
      start = now;
      reports_at_start = reports;
    }
  };

  void generate(std::uint64_t t0, std::uint64_t t_end, Tracer* tracer,
                PhaseStats& out) {
    WindowClock window{t0, out.reports};
    if (w_.ingest_rate <= 0) {
      // Closed loop: the next report goes out when the last submit
      // returns.
      for (;;) {
        for (int k = 0; k < 64; ++k) submit_one(tracer, out);
        const std::uint64_t now = now_ns();
        if (now >= t_end) break;
        window.tick(now, out.reports, out);
      }
      out.producer_busy_ns += now_ns() - t0;
      return;
    }
    // Open loop: report k is due at t0 + k * period.
    const double period_ns = 1e9 / w_.ingest_rate;
    std::uint64_t sent = 0;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= t_end) break;
      window.tick(now, out.reports, out);
      const auto due =
          static_cast<std::uint64_t>(static_cast<double>(now - t0) /
                                     period_ns) +
          1;
      if (sent >= due) {
        spin_pause();
        continue;
      }
      out.ingest_lateness_ns.add(
          now - t0 -
          static_cast<std::uint64_t>(static_cast<double>(sent) * period_ns));
      const std::uint64_t busy_start = now_ns();
      for (; sent < due; ++sent) submit_one(tracer, out);
      out.producer_busy_ns += now_ns() - busy_start;
    }
  }

  void query_loop(std::uint64_t t0, std::uint64_t t_end,
                  std::uint32_t first_window, Tracer* tracer,
                  QueryStats& out) {
    const double period_ns = 1e9 / w_.query_rate;
    QueryRequest request;
    for (std::uint64_t k = 0;; ++k) {
      const std::uint64_t due =
          t0 + static_cast<std::uint64_t>(static_cast<double>(k) * period_ns);
      if (due >= t_end) break;
      prepare_query(request);
      // Waits runnable, like the shard workers: with every core busy, a
      // sleeping thread can wake a millisecond late.
      std::uint64_t now = now_ns();
      if (now < due) {
        while ((now = now_ns()) < due) std::this_thread::yield();
        out.lateness_ns.add(now - due);
      }
      std::uint64_t done = 0;
      const QueryOutcome outcome = run_query(request, tracer, done);
      out.latency_ns.push_back(done - due);
      out.window.push_back(first_window +
                           static_cast<std::uint32_t>((due - t0) / kWindowNs));
      ++out.queries;
      out.results += outcome.results;
      if (outcome.failed) ++out.failures;
    }
  }

  // The key of one of the last kRecentWindow reports submitted (the
  // point and panel workloads cycle a ring of Key-Write reports).
  const proto::TelemetryKey& recent_key() {
    const std::uint64_t sent = published_sent_.load(std::memory_order_acquire);
    const std::uint64_t back = 1 + query_rng_.next_below(kRecentWindow);
    const std::uint64_t g = sent > back ? sent - back : 0;
    return std::get<proto::KeyWriteReport>(in_.ring[g % in_.ring.size()].report)
        .key;
  }

  // What one query request reads. It is chosen before the request is
  // due, so the choosing is not timed.
  struct QueryRequest {
    std::vector<proto::TelemetryKey> keys;  // point and panel reads
    std::size_t window = 0;  // dashboard: index of the range's first key
    std::uint32_t list = 0;  // dashboard: the list whose events are read
  };

  void prepare_query(QueryRequest& request) {
    request.keys.clear();
    switch (w_.query) {
      case QueryKind::kPoint:
        request.keys.push_back(recent_key());
        break;
      case QueryKind::kPanel:
        for (std::size_t i = 0; i < kPanelKeys; ++i) {
          request.keys.push_back(recent_key());
        }
        break;
      case QueryKind::kCounterPanel:
        for (std::size_t i = 0; i < kPanelKeys; ++i) {
          request.keys.push_back(
              in_.counter_keys[query_rng_.next_below(in_.counter_keys.size())]);
        }
        break;
      case QueryKind::kDashboard:
        request.window = query_rng_.next_below(in_.sorted_preload.size() -
                                               kRangeWindow + 1);
        request.list = next_list_++ % kLists;
        break;
    }
  }

  QueryOptions query_options() const {
    QueryOptions opts;
    if (w_.staleness_us > 0) opts.staleness = budget_;
    return opts;
  }

  // One query request; sets `done` to the time the answer was in hand
  // (before the answer is checked).
  QueryOutcome run_query(const QueryRequest& request, Tracer* tracer,
                         std::uint64_t& done) {
    switch (w_.query) {
      case QueryKind::kPoint:
        return point_query(request.keys.front(), tracer, done);
      case QueryKind::kPanel:
        return panel_query(request.keys, tracer, done);
      case QueryKind::kCounterPanel:
        return counter_panel_query(request.keys, tracer, done);
      case QueryKind::kDashboard:
        return dashboard_query(request, tracer, done);
    }
    return {};
  }

  static QueryOutcome outcome_of(StatusCode code) {
    QueryOutcome o;
    if (code == StatusCode::kOk) {
      o.results = 1;
    } else if (code != StatusCode::kNotFound) {
      o.failed = true;
    }
    return o;
  }

  QueryOutcome point_query(const proto::TelemetryKey& key, Tracer* tracer,
                           std::uint64_t& done) {
    const QueryOptions opts = query_options();
    if (tracer == nullptr) {
      const auto value = client_->keywrite().get_u32(key, opts);
      done = now_ns();
      return outcome_of(value.code());
    }
    // KeyWriteTable::get: snapshots of the key's shard, then the merge.
    tracer->begin(Stage::kQuery);
    auto snaps = tracer->time(Stage::kKeySnapshots, [&] {
      return client_->backend().key_snapshots(key, opts);
    });
    StatusCode code = snaps.code();
    if (snaps.ok()) {
      code = tracer
                 ->time(Stage::kMergeKeyWrite,
                        [&] {
                          return internal::merge_keywrite(*snaps, key, opts);
                        })
                 .code();
    }
    tracer->end();
    done = now_ns();
    return outcome_of(code);
  }

  // A monitoring panel: the values of kPanelKeys recently reported
  // flows, read as one batch.
  QueryOutcome panel_query(const std::vector<proto::TelemetryKey>& keys,
                           Tracer* tracer, std::uint64_t& done) {
    const QueryOptions opts = query_options();
    QueryOutcome o;
    if (tracer == nullptr) {
      const auto values = client_->keywrite().get_many(keys, opts);
      done = now_ns();
      o.failed = !values.ok();
      for (std::size_t i = 0; values.ok() && i < values->size(); ++i) {
        o.results += (*values)[i].has_value();
      }
      return o;
    }
    // KeyWriteTable::get_many: the batch's snapshot pins, then a merge
    // per key.
    tracer->begin(Stage::kQuery);
    auto batch = tracer->time(Stage::kKeySnapshots, [&] {
      return client_->backend().key_snapshots_batch(keys, opts);
    });
    if (batch.ok()) {
      o.results = tracer->time(Stage::kMergeKeyWrite, [&] {
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
          hits += internal::merge_keywrite((*batch)[i], keys[i], opts).ok();
        }
        return hits;
      });
    }
    tracer->end();
    done = now_ns();
    o.failed = !batch.ok();
    return o;
  }

  // A heavy-hitter panel: the counters of kPanelKeys flows, one
  // CounterTable::get each.
  QueryOutcome counter_panel_query(
      const std::vector<proto::TelemetryKey>& keys, Tracer* tracer,
      std::uint64_t& done) {
    const QueryOptions opts = query_options();
    QueryOutcome o;
    const auto count = [&o](StatusCode code) {
      const QueryOutcome one = outcome_of(code);
      o.results += one.results;
      o.failed = o.failed || one.failed;
    };
    if (tracer == nullptr) {
      const auto counters = client_->counters();
      for (const auto& key : keys) count(counters.get(key, opts).code());
      done = now_ns();
      return o;
    }
    // CounterTable::get per key: snapshots, then the Count-Min merge.
    tracer->begin(Stage::kQuery);
    std::vector<Expected<std::vector<Backend::SnapshotPtr>>> snaps;
    snaps.reserve(keys.size());
    tracer->time(Stage::kKeySnapshots, [&] {
      for (const auto& key : keys) {
        snaps.push_back(client_->backend().key_snapshots(key, opts));
      }
    });
    tracer->time(Stage::kMergeCounter, [&] {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        count(snaps[i].ok()
                  ? internal::merge_counter(*snaps[i], keys[i], opts).code()
                  : snaps[i].code());
      }
    });
    tracer->end();
    done = now_ns();
    return o;
  }

  // One dashboard refresh: a range over a 1000-key window, then the
  // next events of one list from where the dashboard last read it.
  QueryOutcome dashboard_query(const QueryRequest& request, Tracer* tracer,
                               std::uint64_t& done) {
    RangeSpec spec;
    spec.from = in_.sorted_preload[request.window];
    spec.to = in_.sorted_preload[request.window + kRangeWindow - 1];
    spec.limit = kRangeLimit;
    const std::uint32_t list = request.list;
    const std::uint64_t cursor = cursors_[list];
    const QueryOptions opts = query_options();
    Expected<RangeResult> range = Status(StatusCode::kUnsupported, "unset");
    Expected<EventBatch> events = Status(StatusCode::kUnsupported, "unset");
    if (tracer == nullptr) {
      range = client_->range(client_->keywrite())
                  .from(*spec.from)
                  .to(*spec.to)
                  .limit(kRangeLimit)
                  .freshness(budget_)
                  .run();
      events = client_->events(list)
                   .since(cursor)
                   .max(kEventsMax)
                   .freshness(budget_)
                   .run();
    } else {
      tracer->begin(Stage::kQuery);
      range = traced_range(*tracer, spec, opts);
      events = traced_events(*tracer, list, cursor, opts);
      tracer->end();
    }
    done = now_ns();
    QueryOutcome o;
    o.failed = !range.ok() || !events.ok();
    if (range.ok()) o.results += range->entries.size();
    if (events.ok()) {
      o.results += events->entries.size();
      check_event_batch(list, cursor, *events);
      cursors_[list] = events->next.position;
    }
    return o;
  }

  // LocalBackend::range_query, one public call per step.
  Expected<RangeResult> traced_range(Tracer& tracer, const RangeSpec& spec,
                                     const QueryOptions& opts) {
    Backend& backend = client_->backend();
    collector::CollectorRuntime& runtime = *runtime_;
    if (auto status = internal::range_precheck(backend, spec, opts);
        !status.ok()) {
      return status;
    }
    if (auto status = backend.tenants().admit_query(opts.tenant);
        !status.ok()) {
      return status;
    }
    const std::uint32_t n = runtime.num_shards();
    std::vector<Backend::SnapshotPtr> pinned(n);
    std::vector<std::shared_ptr<const collector::ShardIndexVersion>> indexes;
    const collector::SnapshotStalenessBudget& budget =
        opts.staleness ? *opts.staleness : runtime.staleness_budget();
    for (std::uint32_t s = 0; s < n; ++s) {
      pinned[s] = tracer.time(Stage::kShardSnapshot, [&] {
        return runtime.snapshot_shard_bounded(s, 0, budget);
      });
      indexes.push_back(tracer.time(Stage::kIndexShard, [&] {
        return runtime.index_shard(s, pinned[s]->generation());
      }));
    }
    const auto candidates = tracer.time(Stage::kCandidates, [&] {
      return internal::collect_range_candidates(indexes, spec);
    });
    return tracer.time(Stage::kScan, [&] {
      return internal::scan_range_candidates(
          candidates, spec.limit, [&](const proto::TelemetryKey& key) {
            const std::vector<Backend::SnapshotPtr> snaps{
                pinned[collector::shard_for_key(key, n)]};
            return internal::resolve_range_entry(snaps, key, spec, opts);
          });
    });
  }

  // Backend::events_query, one public call per step.
  Expected<EventBatch> traced_events(Tracer& tracer, std::uint32_t list,
                                     std::uint64_t cursor,
                                     const QueryOptions& opts) {
    auto slice = tracer.time(Stage::kListSnapshot, [&] {
      return client_->backend().list_snapshot(list, opts);
    });
    if (!slice.ok()) return slice.status();
    return tracer.time(Stage::kEventsRead, [&]() -> Expected<EventBatch> {
      const collector::StoreSnapshot& snap = *slice->snap;
      const std::uint64_t head = snap.append_head(slice->shard_list);
      if (cursor > head) {
        return Status(StatusCode::kOutOfRange, "event cursor past head");
      }
      const std::uint64_t capacity = snap.append_entries_per_list();
      const std::uint64_t oldest = head > capacity ? head - capacity : 0;
      const std::uint64_t start = std::max(cursor, oldest);
      const std::uint64_t count = std::min(kEventsMax, head - start);
      EventBatch batch;
      batch.dropped = start - cursor;
      batch.entries = snap.append_read_range(slice->shard_list, start, count);
      batch.next.position = start + count;
      batch.remaining = head - batch.next.position;
      return batch;
    });
  }

  // An event batch read from `cursor` holds consecutive positions, each
  // carrying the entry appended there.
  void check_event_batch(std::uint32_t list, std::uint64_t cursor,
                         const EventBatch& batch) {
    const std::uint64_t start = cursor + batch.dropped;
    if (batch.next.position != start + batch.entries.size()) {
      note_error("events of list " + std::to_string(list) +
                 ": cursor does not advance by the entries returned");
      return;
    }
    for (std::size_t k = 0; k < batch.entries.size(); ++k) {
      const common::Bytes& e = batch.entries[k];
      if (e.size() != 4 ||
          common::load_u32(e.data()) != entry_value(list, start + k)) {
        note_error("events of list " + std::to_string(list) + ": position " +
                   std::to_string(start + k) + " holds another entry");
        return;
      }
    }
  }

  // Key-Write gets return the last value written or kNotFound; the
  // share that answers is answer_frac.
  void check_keywrite(std::vector<std::string>& errors, double& answer_frac) {
    common::Rng rng(args_.seed ^ 0x5EEDu);
    // Sampled key -> (global index of its last write, value written).
    std::unordered_map<proto::TelemetryKey, std::pair<std::int64_t,
                                                      std::uint32_t>,
                       KeyHash>
        expected;
    if (!in_.preload.empty()) {
      for (std::size_t n = 0; n < kKeyWriteSample * 4 &&
                              expected.size() < kKeyWriteSample;
           ++n) {
        const std::size_t i = rng.next_below(in_.preload.size());
        expected.emplace(in_.preload[i], std::make_pair(std::int64_t{-1},
                                                        in_.preload_values[i]));
      }
    } else {
      for (std::size_t n = 0; n < kKeyWriteSample * 4 &&
                              expected.size() < kKeyWriteSample;
           ++n) {
        const auto& r = in_.ring[rng.next_below(in_.ring.size())];
        if (const auto* kw = std::get_if<proto::KeyWriteReport>(&r.report)) {
          expected.emplace(kw->key, std::make_pair(std::int64_t{-2}, 0u));
        }
      }
    }
    const std::uint64_t sent = history_.sent;
    const std::uint64_t size = in_.ring.size();
    for (std::uint64_t i = 0; i < size && i < sent; ++i) {
      const auto* kw = std::get_if<proto::KeyWriteReport>(&in_.ring[i].report);
      if (kw == nullptr) continue;
      auto it = expected.find(kw->key);
      if (it == expected.end()) continue;
      const std::uint64_t last = i + (sent - 1 - i) / size * size;
      if (static_cast<std::int64_t>(last) > it->second.first) {
        it->second = {static_cast<std::int64_t>(last),
                      pass_value(common::load_u32(kw->data.data()),
                                 last / size)};
      }
    }
    std::size_t answered = 0;
    std::size_t reported = 0;
    const auto table = client_->keywrite();
    for (const auto& [key, last] : expected) {
      const auto value = table.get_u32(key);
      if (value.ok() && last.first != -2 && *value == last.second) {
        ++answered;
      } else if (value.code() != StatusCode::kNotFound &&
                 reported++ < kMaxReportedErrors) {
        errors.push_back(
            "Key-Write get: " +
            (value.ok() ? "value " + std::to_string(*value) +
                              " is not the last written " +
                              std::to_string(last.second)
                        : value.status().to_string()));
      }
    }
    answer_frac = expected.empty() ? 0.0
                                   : static_cast<double>(answered) /
                                         static_cast<double>(expected.size());
  }

  // Count-Min estimates never fall below the true per-key sums.
  void check_counters(std::vector<std::string>& errors) {
    common::Rng rng(args_.seed ^ 0xC0FFEEu);
    std::unordered_map<proto::TelemetryKey, std::uint64_t, KeyHash> truth;
    for (std::size_t n = 0;
         n < kCounterSample * 4 && truth.size() < kCounterSample; ++n) {
      truth.emplace(
          in_.counter_keys[rng.next_below(in_.counter_keys.size())], 0);
    }
    const std::uint64_t sent = history_.sent;
    const std::uint64_t size = in_.ring.size();
    for (std::uint64_t i = 0; i < size && i < sent; ++i) {
      const auto* ki =
          std::get_if<proto::KeyIncrementReport>(&in_.ring[i].report);
      if (ki == nullptr) continue;
      auto it = truth.find(ki->key);
      if (it == truth.end()) continue;
      it->second += ki->counter * ((sent - 1 - i) / size + 1);
    }
    std::size_t reported = 0;
    const auto counters = client_->counters();
    for (const auto& [key, sum] : truth) {
      const auto estimate = counters.get(key);
      if ((!estimate.ok() || *estimate < sum) &&
          reported++ < kMaxReportedErrors) {
        errors.push_back(
            "counter estimate " +
            (estimate.ok() ? std::to_string(*estimate)
                           : estimate.status().to_string()) +
            " below the true sum " + std::to_string(sum));
      }
    }
  }

  // Every list's head equals the entries appended to it; reads from the
  // start and near the head hold the appended entries in order.
  void check_events(std::vector<std::string>& errors) {
    for (std::uint32_t list = 0; list < kLists; ++list) {
      const std::uint64_t appended = history_.appended[list];
      const auto oldest = client_->events(list).since(0).max(kEventsMax).run();
      if (!oldest.ok()) {
        errors.push_back("events of list " + std::to_string(list) + ": " +
                         oldest.status().to_string());
        continue;
      }
      if (oldest->next.position + oldest->remaining != appended) {
        errors.push_back("events of list " + std::to_string(list) +
                         ": head " +
                         std::to_string(oldest->next.position +
                                        oldest->remaining) +
                         " but " + std::to_string(appended) + " appended");
        continue;
      }
      const std::uint64_t from =
          appended - std::min<std::uint64_t>(appended, 1024);
      const auto tail = client_->events(list).since(from).max(4096).run();
      if (!tail.ok() || tail->dropped != 0 || tail->remaining != 0 ||
          tail->entries.size() != appended - from) {
        errors.push_back("events of list " + std::to_string(list) +
                         ": the last entries are not all readable");
        continue;
      }
      check_event_batch(list, 0, *oldest);
      check_event_batch(list, from, *tail);
    }
  }

  // Each range result equals a point-get sweep over the same window.
  void check_ranges(std::vector<std::string>& errors) {
    common::Rng rng(args_.seed ^ 0xA11CEu);
    const auto table = client_->keywrite();
    for (std::size_t n = 0; n < kRangeChecks; ++n) {
      const std::size_t first =
          rng.next_below(in_.sorted_preload.size() - kRangeWindow + 1);
      const auto& from = in_.sorted_preload[first];
      const auto& to = in_.sorted_preload[first + kRangeWindow - 1];
      const auto range =
          client_->range(table).from(from).to(to).limit(kRangeLimit).run();
      std::vector<RangeEntry> sweep;
      for (std::size_t i = first;
           i < first + kRangeWindow && sweep.size() < kRangeLimit; ++i) {
        const auto& key = in_.sorted_preload[i];
        auto value = table.get(key);
        if (value.ok()) sweep.push_back({key, std::move(value).value()});
      }
      if (!range.ok() || range->entries != sweep) {
        errors.push_back("range over window " + std::to_string(first) +
                         " differs from the point-get sweep");
      }
    }
  }

  const Args& args_;
  const Workload& w_;
  const WorkloadInputs in_;
  const collector::SnapshotStalenessBudget budget_;
  const std::vector<int> cpus_;
  std::optional<Client> client_;
  collector::CollectorRuntime* runtime_ = nullptr;  // client_'s runtime
  // Stands in for LocalBackend's submit lock on the traced path.
  Mutex traced_submit_mu_;
  History history_;
  // The generator's submit count, read by the query thread.
  alignas(64) std::atomic<std::uint64_t> published_sent_{0};
  // Query-thread state, carried across phases.
  alignas(64) common::Rng query_rng_{args_.seed ^ 0x9E3779B9u};
  std::vector<std::uint64_t> cursors_;
  std::uint32_t next_list_ = 0;
  std::optional<Tracer> gen_tracer_;
  std::optional<Tracer> query_tracer_;
  std::uint64_t phase_start_ns_ = 0;
  std::uint64_t setup_failures_ = 0;
  std::vector<std::string> run_errors_;
};

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// The median over windows: a stall or a slow stretch of the machine
// moves it less than it moves the mean.
double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) / 2;
}

std::vector<Metric> end_to_end_metrics(const PhaseStats& p, double answer_frac,
                                       double setup_s) {
  const double ingest_rps =
      p.window_rps.empty() ? ratio(static_cast<double>(p.reports), p.seconds)
                           : median(p.window_rps);
  return {
      {"ingest_rps", ingest_rps, "1/s"},
      {"query_p50_us", percentile(p.q.latency_ns, 0.50) / 1e3, "us"},
      {"answer_frac", answer_frac, "fraction"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(Bench& bench, const PhaseStats& plain,
                                      const PhaseStats& traced,
                                      const Counters& before,
                                      const Counters& after, double timer_ns,
                                      double route_ns, double shard_ingest_ns) {
  const Tracer& gen = bench.gen_tracer();
  const Tracer& q = bench.query_tracer();
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double reports_in =
      d(after.ingest.reports_in, before.ingest.reports_in);
  double max_shard = 0.0;
  double sum_shard = 0.0;
  for (std::size_t s = 0; s < after.shard_reports.size(); ++s) {
    const double r = d(after.shard_reports[s], before.shard_reports[s]);
    max_shard = std::max(max_shard, r);
    sum_shard += r;
  }
  const auto& sa = after.snapshots;
  const auto& sb = before.snapshots;
  const double served = d(sa.hits + sa.stale_hits, sb.hits + sb.stale_hits);
  const double misses = d(sa.misses, sb.misses);
  // The counters cover the untraced and the traced slices alike.
  const double queries =
      static_cast<double>(plain.q.queries + traced.q.queries);
  const auto& ta = after.translation;
  const auto& tb = before.translation;

  // The blocking path of a report is its root span, whose self times add
  // up to its duration; it is held against the untraced time per report
  // as it stands, tracing's own cost included.
  const double traced_report_ns = gen.root(Stage::kSubmit).mean();
  // Likewise for a query.
  const double query_path_ns = q.root(Stage::kQuery).quantile(0.5);
  const double plain_query_p50 = percentile(plain.q.latency_ns, 0.5);

  return {
      {"dtalib.submit_ns_p50", gen.root(Stage::kSubmit).quantile(0.50), "ns"},
      {"dtalib.submit_ns_p99", gen.root(Stage::kSubmit).quantile(0.99), "ns"},
      {"dtalib.submit_self_ns", gen.self(Stage::kSubmit).mean(), "ns"},
      {"dtalib.validate_ns", gen.self(Stage::kValidate).mean(), "ns"},
      {"dtalib.admit_ns", gen.self(Stage::kAdmit).mean(), "ns"},
      {"collector.submit_ns_p50",
       gen.self(Stage::kCollectorSubmit).quantile(0.50), "ns"},
      {"collector.submit_ns_p99",
       gen.self(Stage::kCollectorSubmit).quantile(0.99), "ns"},
      {"collector.route_ns", route_ns, "ns"},
      {"collector.shard_ingest_ns", shard_ingest_ns, "ns"},
      {"collector.backpressure_waits_per_kreport",
       1e3 * ratio(d(after.backpressure_waits, before.backpressure_waits),
                   d(after.submitted, before.submitted)),
       "count"},
      {"collector.shard_skew",
       ratio(max_shard, sum_shard / static_cast<double>(kShards)), "ratio"},
      {"collector.ops_per_doorbell",
       ratio(d(after.ingest.ops_batched, before.ingest.ops_batched),
             d(after.ingest.batch_flushes, before.ingest.batch_flushes)),
       "ratio"},
      {"collector.verbs_per_report",
       ratio(d(after.ingest.verbs_executed, before.ingest.verbs_executed),
             reports_in),
       "ratio"},
      {"collector.verbs_failed",
       d(after.ingest.verbs_failed, before.ingest.verbs_failed), "count"},
      {"translator.fetch_adds_per_report",
       ratio(d(ta.fetch_adds, tb.fetch_adds), reports_in), "ratio"},
      {"translator.postcard_write_ratio",
       ratio(d(ta.postcard_writes, tb.postcard_writes),
             d(ta.postcards_in, tb.postcards_in)),
       "ratio"},
      {"translator.append_write_ratio",
       ratio(d(ta.append_writes, tb.append_writes),
             d(ta.append_entries_in, tb.append_entries_in)),
       "ratio"},
      {"dtalib.query_ns_p50", q.root(Stage::kQuery).quantile(0.50), "ns"},
      {"dtalib.query_ns_p99", q.root(Stage::kQuery).quantile(0.99), "ns"},
      {"collector.pin_ns_p50", q.pin().quantile(0.50), "ns"},
      {"collector.pin_ns_p99", q.pin().quantile(0.99), "ns"},
      {"dtalib.resolve_ns_p50", q.resolve().quantile(0.50), "ns"},
      {"dtalib.resolve_ns_p99", q.resolve().quantile(0.99), "ns"},
      {"dtalib.results_per_query",
       ratio(static_cast<double>(plain.q.results + traced.q.results), queries),
       "count"},
      {"collector.snapshot_hit_ratio", ratio(served, served + misses),
       "ratio"},
      {"collector.refreshes_per_query", ratio(misses, queries), "ratio"},
      {"collector.full_refreshes", d(sa.full_refreshes, sb.full_refreshes),
       "count"},
      {"collector.cow_clones", d(sa.cow_clones, sb.cow_clones), "count"},
      {"collector.quiesce_bytes_per_refresh",
       ratio(d(sa.quiesce_bytes_copied, sb.quiesce_bytes_copied), misses),
       "bytes"},
      {"collector.quiesces", d(after.quiesces, before.quiesces), "count"},
      {"collector.index_publishes",
       d(after.index.publishes, before.index.publishes), "count"},
      {"collector.index_catchups_per_query",
       ratio(d(after.index.reader_catchups, before.index.reader_catchups),
             queries),
       "ratio"},
      {"process.cpu_s", plain.cpu_s, "s"},
      {"process.timer_overhead_ns", timer_ns, "ns"},
      {"process.trace_overhead_frac",
       ratio(traced.ns_per_report(), plain.ns_per_report()) - 1.0, "ratio"},
      {"process.ingest_reconcile_frac",
       ratio(traced_report_ns, plain.ns_per_report()) - 1.0, "ratio"},
      {"process.query_reconcile_frac",
       ratio(query_path_ns, plain_query_p50) - 1.0, "ratio"},
      {"gen.late_p99_us", std::max(plain.late_p99_us(), traced.late_p99_us()),
       "us"},
  };
}

// Per-stage self times of the traced run, the breakdown README.md
// explains how to read.
std::string self_time_table(const Bench& bench) {
  std::string json = "[";
  bool first = true;
  for (const Tracer* t : {&bench.gen_tracer(), &bench.query_tracer()}) {
    for (std::size_t i = 0; i < kStages; ++i) {
      const Histogram& h = t->self(static_cast<Stage>(i));
      if (h.count() == 0) continue;
      const double total_ms = h.mean() * static_cast<double>(h.count()) / 1e6;
      std::printf("self %-34s count %10llu mean_ns %12.1f p50_ns %12.1f "
                  "p99_ns %12.1f total_ms %10.1f\n",
                  kStageNames[i], static_cast<unsigned long long>(h.count()),
                  h.mean(), h.quantile(0.5), h.quantile(0.99), total_ms);
      char row[512];
      std::snprintf(row, sizeof(row),
                    "%s{\"stage\":\"%s\",\"count\":%llu,\"mean_ns\":%.17g,"
                    "\"p50_ns\":%.17g,\"p99_ns\":%.17g,\"total_ms\":%.17g}",
                    first ? "" : ",", kStageNames[i],
                    static_cast<unsigned long long>(h.count()), h.mean(),
                    h.quantile(0.5), h.quantile(0.99), total_ms);
      json += row;
      first = false;
    }
  }
  return json + "]";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

// How steady the run was: the rate of every window, the median query
// latency of every window, and the latency distribution.
std::string diagnostics_json(const PhaseStats& p) {
  std::vector<std::vector<std::uint64_t>> by_window;
  for (std::size_t i = 0; i < p.q.latency_ns.size(); ++i) {
    if (p.q.window[i] >= by_window.size()) by_window.resize(p.q.window[i] + 1);
    by_window[p.q.window[i]].push_back(p.q.latency_ns[i]);
  }
  std::vector<double> window_p50_us;
  for (const auto& w : by_window) {
    if (!w.empty()) window_p50_us.push_back(percentile(w, 0.5) / 1e3);
  }
  std::vector<double> quantiles_us;
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    quantiles_us.push_back(percentile(p.q.latency_ns, q) / 1e3);
  }
  return "{\"window_seconds\":" + std::to_string(kWindowNs / 1e9) +
         ",\"window_rps\":" + json_array(p.window_rps) +
         ",\"window_query_p50_us\":" + json_array(window_p50_us) +
         ",\"query_us_p50_p90_p95_p99_p999\":" + json_array(quantiles_us) + "}";
}

bool write_result(const Args& args, bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics,
                  const std::vector<std::string>& errors, double late_p99_us,
                  const std::string& self_times,
                  const std::string& diagnostics) {
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,",
               args.workload->name, static_cast<unsigned long long>(args.seed),
               args.seconds);
  std::fprintf(f, "\"trace\":%d,\"correct\":%s,\"attempted\":%llu,"
               "\"failed\":%llu,",
               args.trace ? 1 : 0, correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  std::fprintf(f, "\"valid\":%s,\"gen_late_p99_us\":%.17g,",
               late_p99_us <= kMaxLatenessUs ? "true" : "false", late_p99_us);
  std::fprintf(f, "\"build\":{\"compiler\":\"%s\",\"flags\":\"%s\","
               "\"hw_crc32c\":%s},",
               json_escape(DTA_BENCH_COMPILER).c_str(),
               json_escape(DTA_BENCH_FLAGS).c_str(),
               common::cpu_has_hw_crc32c() ? "true" : "false");
  std::fputs("\"metrics\":{", f);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                 i ? "," : "", metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit);
  }
  std::fputs("},\"errors\":[", f);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? "," : "", json_escape(errors[i]).c_str());
  }
  std::fprintf(f, "],\"self_times\":%s,\"diagnostics\":%s}\n",
               self_times.c_str(), diagnostics.c_str());
  return std::fclose(f) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_pipeline --workload W --out FILE [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--setup-reps N] [--warmup S]\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) return false;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--setup-reps") {
      args.setup_reps = std::atoi(value.c_str());
    } else if (flag == "--warmup") {
      args.warmup_seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return args.workload != nullptr && !args.out.empty() && args.seconds > 0 &&
         args.setup_reps > 0 && args.warmup_seconds >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  Bench bench(args);
  std::vector<double> setups;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    setups.push_back(bench.setup());
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups[setups.size() / 2];
  if (args.warmup_seconds > 0) {
    PhaseStats warmup;
    bench.run_phase(args.warmup_seconds, false, warmup);
  }

  const double timer_ns = timer_overhead_ns();
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = bench.setup_failures();
  double late_p99_us = 0.0;
  std::string self_times = "[]";
  std::string diagnostics = "{}";
  double answer_frac = 0.0;

  if (!args.trace) {
    PhaseStats p;
    bench.run_phase(args.seconds, false, p);
    if (!bench.flush().ok()) errors.push_back("flush failed");
    bench.check(errors, answer_frac);
    metrics = end_to_end_metrics(p, answer_frac, setup_s);
    attempted = p.reports + p.q.queries;
    failed += p.report_failures + p.q.failures;
    late_p99_us = p.late_p99_us();
    diagnostics = diagnostics_json(p);
  } else {
    if (!bench.flush().ok()) errors.push_back("flush failed");
    const Counters before = bench.counters();
    bench.start_tracing();
    PhaseStats plain;
    PhaseStats traced;
    for (double left = args.seconds; left > 1e-9;) {
      const double slice = std::min(kTraceSliceSeconds, left / 2);
      bench.run_phase(slice, false, plain);
      bench.run_phase(slice, true, traced);
      left -= 2 * slice;
    }
    if (!bench.flush().ok()) errors.push_back("flush failed");
    const Counters after = bench.counters();
    bench.check(errors, answer_frac);
    double route_ns = 0.0;
    double shard_ingest_ns = 0.0;
    bench.inline_pass(route_ns, shard_ingest_ns);
    metrics = per_layer_metrics(bench, plain, traced, before, after, timer_ns,
                                route_ns, shard_ingest_ns);
    attempted =
        plain.reports + plain.q.queries + traced.reports + traced.q.queries;
    failed += plain.report_failures + plain.q.failures +
              traced.report_failures + traced.q.failures;
    late_p99_us = std::max(plain.late_p99_us(), traced.late_p99_us());
    self_times = self_time_table(bench);
    diagnostics = diagnostics_json(plain);
    if (!args.trace_out.empty() &&
        !write_chrome_trace(args.trace_out,
                            {&bench.gen_tracer(), &bench.query_tracer()},
                            bench.phase_start_ns())) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!args.trace) std::printf("gen.late_p99_us %.17g us\n", late_p99_us);
  if (late_p99_us > kMaxLatenessUs) {
    std::fprintf(stderr,
                 "warning: generators ran %.1f us late at p99 (limit %.0f): "
                 "this run is invalid\n",
                 late_p99_us, kMaxLatenessUs);
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  const bool correct = errors.empty();
  if (!write_result(args, correct, attempted, failed, metrics, errors,
                    late_p99_us, self_times, diagnostics)) {
    std::fprintf(stderr, "could not write %s\n", args.out.c_str());
    return 2;
  }
  return correct ? 0 : 3;
}
