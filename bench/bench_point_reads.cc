// Point reads: what one budgeted read costs, stage by stage, while a
// saturating producer keeps ingest busy beside it.
//
// Client::local with the pipeline bench's geometry (2 shards, 2^22
// Key-Write slots of 4-byte values, Key-Increment, 64 Append lists,
// 5-hop postcards), threaded: the two shard workers on the first two
// CPUs, a Key-Write producer that keeps their queues full on the third,
// the query thread on the fourth. The query thread reads under the
// pipeline bench's panel budget (age only, longer than the run, so
// every read is served from the set-up snapshot) and times, per call:
//   admit_query    TenantRegistry::admit_query
//   shard_bounded  CollectorRuntime::snapshot_shard_bounded
//   key_snapshots  Backend::key_snapshots
//   merge_counter  internal::merge_counter over those snapshots
//   counter_get    CounterTable::get of another key (the three above,
//                  end to end)
//   get_many_64    KeyWriteTable::get_many of 64 keys
// one call of each per round, rounds paced kRoundGapNs apart so each
// read meets the caches ingest leaves behind, as the pipeline bench's
// open-loop queries do. It prints the median and p90 of each over all
// rounds, and the producer's reports/s to show ingest kept running, and
// writes them to BENCH_reads.json in the working directory. Times move
// with the host; no floor is committed for them.
//
//   ./build/bench_point_reads [--smoke]
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "collector/runtime.h"
#include "dtalib/client.h"
#include "dtalib/query_core.h"

namespace dta {
namespace {

constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kLists = 64;
constexpr std::uint8_t kHops = 5;
constexpr std::uint32_t kPostcardValues = 4096;
// Keys written at set-up, which the reads cycle through.
constexpr std::size_t kKeys = std::size_t{1} << 16;
constexpr std::size_t kPanelKeys = 64;
constexpr std::size_t kProducerRing = std::size_t{1} << 16;
constexpr std::uint64_t kRoundGapNs = 20000;
// The age bound of the pipeline bench's panel budget on its saturating
// workloads (the budget bounds no generation lag).
constexpr std::uint64_t kBudgetAgeUs = 3600ull * 1000 * 1000;

// The first four CPUs this process may run on: two shard workers, the
// producer and the query thread. Empty (nothing pinned) on a host with
// fewer.
std::vector<int> bench_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 4; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  if (cpus.size() < 4) cpus.clear();
  return cpus;
}

void pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

collector::CollectorRuntimeConfig geometry(const std::vector<int>& cpus) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = kShards;
  config.thread_mode = collector::ThreadMode::kThreaded;
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

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Stage {
  const char* name;
  std::vector<std::uint64_t> ns;
  double median = 0;
  double p90 = 0;
};

// Records the time since `start` in `stage`; returns the time now.
std::uint64_t lap(Stage& stage, std::uint64_t start) {
  const std::uint64_t now = now_ns();
  stage.ns.push_back(now - start);
  return now;
}

double percentile(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t at = std::min(
      samples.size() - 1, static_cast<std::size_t>(q * samples.size()));
  std::nth_element(samples.begin(), samples.begin() + at, samples.end());
  return static_cast<double>(samples[at]);
}

}  // namespace
}  // namespace dta

int main(int argc, char** argv) {
  using namespace dta;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t rounds = smoke ? 2000 : 20000;

  benchutil::print_header(
      "Point reads — per-stage cost of a budgeted read beside ingest",
      "§4/Alg. 2: a Key-Write read hashes the key, fetches N slots and "
      "votes; everything else a point read pays is bookkeeping");
  const std::vector<int> cpus = bench_cpus();
  if (!cpus.empty()) pin_self(cpus[3]);

  Client client = Client::local(geometry(cpus));
  collector::CollectorRuntime& runtime = *client.local_runtime();
  Backend& backend = client.backend();
  auto table = client.keywrite();
  auto counters = client.counters();
  bool ok = true;

  std::vector<proto::TelemetryKey> keys;
  keys.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back(reports::mixed_key(i));
    ok = table.put_u32(keys.back(), static_cast<std::uint32_t>(i)).ok() && ok;
    ok = counters.add(keys.back(), i + 1).ok() && ok;
  }
  ok = client.flush().ok() && ok;
  const collector::SnapshotStalenessBudget budget{0, kBudgetAgeUs};
  QueryOptions opts;
  opts.staleness = budget;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ok = runtime.snapshot_shard_bounded(s, 0, budget) != nullptr && ok;
  }

  // Fresh keys, so the producer never touches what the reads expect.
  std::vector<proto::ParsedDta> ring;
  ring.reserve(kProducerRing);
  common::Rng rng(benchutil::seed(0x9EAD5u));
  for (std::size_t i = 0; i < kProducerRing; ++i) {
    ring.push_back(reports::keywrite_u32(reports::mixed_key(kKeys + i),
                                         rng.next_u32(), 2));
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> producer_ok{true};
  std::thread producer([&] {
    if (!cpus.empty()) pin_self(cpus[2]);
    bool all_ok = true;
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed);
         i = (i + 1) % ring.size()) {
      all_ok = backend.submit(ring[i], ReportOptions{}).ok() && all_ok;
    }
    producer_ok.store(all_ok, std::memory_order_relaxed);
  });
  std::uint64_t submitted_before = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    submitted_before += runtime.pipeline().submitted(s);
  }
  const std::uint64_t run_start = now_ns();

  std::vector<Stage> stages = {{"admit_query", {}},
                               {"shard_bounded", {}},
                               {"key_snapshots", {}},
                               {"merge_counter", {}},
                               {"counter_get", {}},
                               {"get_many_64", {}}};
  for (Stage& stage : stages) stage.ns.reserve(rounds);
  std::vector<proto::TelemetryKey> panel(kPanelKeys);
  std::uint64_t next_round = now_ns();
  for (std::size_t round = 0; round < rounds; ++round) {
    std::uint64_t t = now_ns();
    while (t < next_round) t = now_ns();
    next_round += kRoundGapNs;
    // The pipeline's read and the end-to-end get take different keys,
    // so each meets cold slot lines.
    const proto::TelemetryKey& key = keys[(round * 7919) % kKeys];
    const proto::TelemetryKey& other = keys[(round * 7919 + 4099) % kKeys];
    const auto shard = static_cast<std::uint32_t>(round % kShards);
    for (std::size_t i = 0; i < kPanelKeys; ++i) {
      panel[i] = keys[(round * kPanelKeys + i * 131) % kKeys];
    }
    t = now_ns();
    ok = client.tenants().admit_query(0).ok() && ok;
    t = lap(stages[0], t);
    ok = runtime.snapshot_shard_bounded(shard, 0, budget) != nullptr && ok;
    t = lap(stages[1], t);
    const auto snaps = backend.key_snapshots(key, opts);
    t = lap(stages[2], t);
    ok = snaps.ok() && internal::merge_counter(*snaps, key, opts).ok() && ok;
    t = lap(stages[3], t);
    ok = counters.get(other, opts).ok() && ok;
    t = lap(stages[4], t);
    ok = table.get_many(panel, opts).ok() && ok;
    lap(stages[5], t);
  }

  const double run_s = static_cast<double>(now_ns() - run_start) / 1e9;
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  ok = producer_ok.load(std::memory_order_relaxed) && ok;
  std::uint64_t submitted_after = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    submitted_after += runtime.pipeline().submitted(s);
  }
  client.stop();
  const double producer_rps =
      static_cast<double>(submitted_after - submitted_before) / run_s;

  std::printf("%zu rounds %llu ns apart, %s; producer %s reports/s\n", rounds,
              static_cast<unsigned long long>(kRoundGapNs),
              cpus.empty() ? "unpinned (fewer than 4 CPUs)"
                           : "workers, producer and query thread pinned",
              benchutil::eng(producer_rps).c_str());
  std::printf("%-14s %12s %12s\n", "stage", "median ns", "p90 ns");
  for (Stage& stage : stages) {
    stage.median = percentile(stage.ns, 0.5);
    stage.p90 = percentile(stage.ns, 0.9);
    std::printf("%-14s %12.0f %12.0f\n", stage.name, stage.median, stage.p90);
  }
  if (!ok) std::printf("a read or submit failed\n");

  if (FILE* json = std::fopen("BENCH_reads.json", "w")) {
    std::fprintf(json,
                 "{\n  \"rounds\": %zu,\n  \"round_gap_ns\": %llu,\n"
                 "  \"pinned\": %s,\n  \"producer_reports_per_s\": %.0f,\n"
                 "  \"stages\": [\n",
                 rounds, static_cast<unsigned long long>(kRoundGapNs),
                 cpus.empty() ? "false" : "true", producer_rps);
    for (std::size_t i = 0; i < stages.size(); ++i) {
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"median_ns\": %.0f, "
                   "\"p90_ns\": %.0f}%s\n",
                   stages[i].name, stages[i].median, stages[i].p90,
                   i + 1 < stages.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_reads.json\n");
  }
  return ok ? 0 : 1;
}
