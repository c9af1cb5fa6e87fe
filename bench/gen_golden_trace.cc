// Regenerates the committed golden traces under tests/data/.
//
//   gen_golden_trace [out_dir]        (default: tests/data; created
//                                      when missing)
//
// Fixtures are deterministic — synthesized from the traffic model with
// fixed seeds and logical timestamps, recorded through a ReplayBackend
// over Client::local's one-host backend — so regeneration is
// byte-stable: rerunning this
// tool must produce bit-identical files until the trace format or the
// workload definition changes, and a diff on the fixtures is a
// meaningful review artifact.
//
//   conformance_600.dtatrace  all four primitives, 3 tenants, the
//                             backend-conformance workload (seed 42)
//   keywrite_2k.dtatrace      Key-Write only, matched to the fig10
//                             bench geometry (--replay smoke input)
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "dtalib/replay_backend.h"
#include "telemetry/trace.h"
#include "tests/backend_fixtures.h"

namespace {

using namespace dta;

int write_fixture(ReplayBackend& recorder,
                  const std::vector<proto::ParsedDta>& workload,
                  const std::string& path) {
  for (std::size_t i = 0; i < workload.size(); ++i) {
    ReportOptions opts;
    opts.tenant = static_cast<TenantId>(i % 3);
    const Status status = recorder.submit(workload[i], opts);
    if (!status.ok()) {
      std::fprintf(stderr, "submit %zu rejected: %s\n", i,
                   status.to_string().c_str());
      return 1;
    }
  }
  (void)recorder.flush();
  if (const Status status = recorder.write_trace(path); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("%s: %llu records, %zu bytes\n", path.c_str(),
              static_cast<unsigned long long>(recorder.recorded()),
              recorder.serialize_trace().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "tests/data";
  std::error_code error;
  std::filesystem::create_directories(out_dir, error);
  if (error) {
    std::fprintf(stderr, "%s: %s\n", out_dir.c_str(), error.message().c_str());
    return 1;
  }

  {
    ReplayBackend recorder(dta::testing::make_local_backend(
        dta::testing::conformance_host_config()));
    if (int rc = write_fixture(recorder, dta::testing::conformance_workload(600),
                               out_dir + "/conformance_600.dtatrace")) {
      return rc;
    }
  }

  {
    // Key-Write only, against the fig10 bench geometry (1M slots, 4B
    // values) so the bench --replay path ingests it unmodified.
    collector::CollectorRuntimeConfig config;
    config.num_shards = 1;
    config.thread_mode = collector::ThreadMode::kInline;
    collector::KeyWriteSetup kw;
    kw.num_slots = 1 << 20;
    kw.value_bytes = 4;
    config.keywrite = kw;

    telemetry::TraceConfig trace;
    trace.seed = 7;
    trace.num_flows = 4096;
    telemetry::TraceGenerator gen(trace);
    telemetry::ReportMix mix;
    mix.keyincrement = false;  // Key-Write only
    ReplayBackend recorder(dta::testing::make_local_backend(config));
    if (int rc = write_fixture(recorder,
                               telemetry::synthesize_reports(gen, 2000, mix),
                               out_dir + "/keywrite_2k.dtatrace")) {
      return rc;
    }
  }
  return 0;
}
