// Tenant isolation: noisy-neighbor submit latency under admission
// control (multi-tenant serving plane).
//
// One victim tenant submits a steady Key-Write workload while an
// aggressor tenant floods the same client from another thread at far
// beyond its quota. The aggressor sends full 255-entry Append reports,
// billed at 255 tokens each, and an admitted one holds the submit lock
// for all 255 entries' translation and verbs. Without quotas every
// aggressor report is admitted and serialized through the submit path
// ahead of the victim; with a token-bucket quota the aggressor is shed
// at admission (typed kResourceExhausted, before the submit lock) and
// the victim's latency distribution stays close to its solo baseline.
//
// Three phases, same victim workload each time:
//   solo                 — victim alone (the baseline distribution)
//   contended, no quota  — aggressor unregistered: unlimited admission
//   contended, quota     — aggressor capped; sheds never hold the lock
//
// Output: the printed table plus machine-readable BENCH_tenant.json;
// the bench-gate CI job floors quota_p99_gain (the victim's contended
// p99 without the quota over its contended p99 with it), so the
// isolation the quota buys cannot silently rot.
//
//   $ ./bench_tenant_isolation [--smoke]
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <variant>
#include <vector>

#include "bench_util.h"
#include "dta/report_builders.h"
#include "dtalib/client.h"

using namespace dta;

namespace {

constexpr TenantId kVictim = 1;
constexpr TenantId kAggressor = 2;
// Entries per aggressor Append report: the wire's 8-bit entry count.
constexpr std::uint32_t kFloodEntries = 255;

struct Phase {
  const char* name = "";
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t aggressor_admitted = 0;
  std::uint64_t aggressor_shed = 0;
};

Client make_client() {
  collector::CollectorRuntimeConfig config;
  config.num_shards = 2;
  config.thread_mode = collector::ThreadMode::kInline;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  config.keywrite = kw;
  collector::AppendSetup ap;
  ap.num_lists = 8;
  ap.entries_per_list = 4096;
  ap.entry_bytes = 4;
  config.append = ap;
  return Client::local(config);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto nth =
      samples.begin() +
      static_cast<std::ptrdiff_t>(p * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

// The victim's fixed workload: `ops` Key-Write submits, each timed
// individually. Returns the per-op latency samples in ns.
std::vector<double> run_victim(Client& client, std::uint64_t ops) {
  ReportOptions as_victim;
  as_victim.tenant = kVictim;
  auto table = client.keywrite();
  std::vector<double> samples;
  samples.reserve(ops);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto start = std::chrono::steady_clock::now();
    (void)table.put_u32(benchutil::mixed_key(i), static_cast<std::uint32_t>(i),
                        2, as_victim);
    samples.push_back(std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return samples;
}

// Floods 255-entry Append reports as the aggressor tenant until
// `stop` is raised. Each admitted report holds the submit lock while
// its entries are translated and executed; over quota the registry
// sheds before that lock, so a capped aggressor burns almost no victim
// time.
void run_aggressor(Client& client, std::atomic<bool>& stop) {
  ReportOptions as_aggressor;
  as_aggressor.tenant = kAggressor;
  proto::ParsedDta flood = reports::append_u32(0, 0);
  auto& entries = std::get<proto::AppendReport>(flood.report).entries;
  while (entries.size() < kFloodEntries) entries.push_back(entries.front());
  while (!stop.load(std::memory_order_relaxed)) {
    (void)client.backend().submit(flood, as_aggressor);
  }
}

Phase run_phase(const char* name, std::uint64_t ops, bool with_aggressor,
                bool with_quota) {
  Client client = make_client();
  client.tenants().register_tenant(kVictim, {});
  if (with_quota) {
    TenantConfig config;
    config.quota.submits_per_second = 50e3;
    config.quota.submit_burst = 512;
    client.tenants().register_tenant(kAggressor, config);
  }

  // Warm allocators and stores before measuring.
  (void)run_victim(client, ops / 10);

  std::atomic<bool> stop{false};
  std::thread aggressor;
  if (with_aggressor) {
    aggressor = std::thread([&] { run_aggressor(client, stop); });
  }
  const auto samples = run_victim(client, ops);
  stop.store(true);
  if (aggressor.joinable()) aggressor.join();

  Phase phase;
  phase.name = name;
  phase.p50_ns = percentile(samples, 0.50);
  phase.p99_ns = percentile(samples, 0.99);
  const auto counters = client.tenants().counters(kAggressor);
  phase.aggressor_admitted = counters.submits_admitted;
  phase.aggressor_shed = counters.submits_shed;
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::uint64_t ops = smoke ? 30000 : 200000;

  benchutil::print_header(
      "Tenant isolation — noisy neighbor vs per-tenant quotas",
      "translator-style token buckets at the serving plane (§5.2 NACK "
      "semantics as typed kResourceExhausted) keep one tenant's flood "
      "from inflating another's tail latency");

  const Phase solo = run_phase("solo", ops, false, false);
  const Phase unprotected =
      run_phase("contended, no quota", ops, true, false);
  const Phase protected_ =
      run_phase("contended, quota", ops, true, true);

  std::printf("victim Key-Write submit latency (%llu ops/phase; aggressor "
              "columns count ops, one per Append entry):\n",
              static_cast<unsigned long long>(ops));
  std::printf("%22s %12s %12s %14s %14s\n", "phase", "p50 ns", "p99 ns",
              "aggr admitted", "aggr shed");
  for (const Phase* phase : {&solo, &unprotected, &protected_}) {
    std::printf("%22s %12.0f %12.0f %14llu %14llu\n", phase->name,
                phase->p50_ns, phase->p99_ns,
                static_cast<unsigned long long>(phase->aggressor_admitted),
                static_cast<unsigned long long>(phase->aggressor_shed));
  }

  const double quota_p99_gain =
      protected_.p99_ns > 0 ? unprotected.p99_ns / protected_.p99_ns : 0.0;
  const std::uint64_t aggressor_total =
      protected_.aggressor_admitted + protected_.aggressor_shed;
  const double shed_fraction =
      aggressor_total > 0 ? static_cast<double>(protected_.aggressor_shed) /
                                static_cast<double>(aggressor_total)
                          : 0.0;
  std::printf("\nvictim contended p99, no quota / quota: %.2fx (solo p99 "
              "%.0f ns); quota shed %.1f%% of the flood\n",
              quota_p99_gain, solo.p99_ns, 100.0 * shed_fraction);

  FILE* json = std::fopen("BENCH_tenant.json", "w");
  if (json) {
    std::fprintf(json, "{\n  \"phases\": [\n");
    const Phase* phases[] = {&solo, &unprotected, &protected_};
    for (std::size_t i = 0; i < 3; ++i) {
      const Phase& p = *phases[i];
      std::fprintf(json,
                   "    {\"phase\": \"%s\", \"p50_ns\": %.0f, "
                   "\"p99_ns\": %.0f, \"aggressor_admitted\": %llu, "
                   "\"aggressor_shed\": %llu}%s\n",
                   p.name, p.p50_ns, p.p99_ns,
                   static_cast<unsigned long long>(p.aggressor_admitted),
                   static_cast<unsigned long long>(p.aggressor_shed),
                   i + 1 < 3 ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"gate\": {\n"
                 "    \"quota_p99_gain\": %.4f,\n"
                 "    \"aggressor_shed_fraction\": %.4f\n"
                 "  }\n}\n",
                 quota_p99_gain, shed_fraction);
    std::fclose(json);
    std::printf("wrote BENCH_tenant.json\n");
  }
  return 0;
}
