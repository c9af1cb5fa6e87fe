// Writer-job tests for the ingest pipeline: a job runs on the shard's
// worker after every report submitted before its post; inline and
// stopped pipelines run it on the caller; a stop() racing a post never
// hangs and runs the job exactly once; jobs on two shards interleave
// with a producer that keeps submitting and flushing; two posters on
// one shard take turns; post-stop jobs and post-stop submits never
// overlap. Run under TSan, these check the request/ack handshake's
// ordering as well as its result.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "collector/ingest_pipeline.h"
#include "dta/report_builders.h"

namespace dta::collector {
namespace {

using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint64_t id) {
  std::uint64_t z = id * 0x9E3779B97F4A7C15ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  Bytes b;
  common::put_u64(b, z);
  return TelemetryKey::from(common::ByteSpan(b));
}

// Shards and the pipeline over them, wired like CollectorRuntime does
// minus the snapshot and index tiers. Reports route by key.
struct Lanes {
  Lanes(ThreadMode mode, std::uint32_t num_shards) {
    ShardConfig config;
    config.op_batch_size = 4;
    KeyWriteSetup kw;
    kw.num_slots = 1 << 12;
    kw.value_bytes = 4;
    config.keywrite = kw;
    std::vector<CollectorShard*> raw;
    for (std::uint32_t i = 0; i < num_shards; ++i) {
      shards.push_back(std::make_unique<CollectorShard>(i, config));
      raw.push_back(shards.back().get());
    }
    IngestPipelineConfig pc;
    pc.thread_mode = mode;
    pipeline = std::make_unique<IngestPipeline>(std::move(raw), pc);
  }

  // Submits report `id` to `shard`.
  void submit(std::uint32_t shard, std::uint64_t id) {
    pipeline->submit(shard, reports::keywrite_u32(key_of(id), 1));
  }

  std::vector<std::unique_ptr<CollectorShard>> shards;
  std::unique_ptr<IngestPipeline> pipeline;
};

// What one job saw: the thread it ran on and the shard's ingest count.
struct JobRecord {
  std::thread::id thread;
  std::uint64_t reports_in = 0;
};

JobRecord run_recording_job(Lanes& lanes, std::uint32_t shard) {
  JobRecord record;
  auto job = [&]() noexcept {
    record.thread = std::this_thread::get_id();
    record.reports_in = lanes.shards[shard]->stats().reports_in;
  };
  lanes.pipeline->run_writer_job(shard, job);
  return record;
}

TEST(IngestPipeline, JobRunsOnWorkerAfterEarlierSubmits) {
  Lanes lanes(ThreadMode::kThreaded, 1);
  std::uint64_t submitted = 0;
  std::thread::id worker;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 100; ++i) lanes.submit(0, submitted++);
    const JobRecord record = run_recording_job(lanes, 0);
    EXPECT_NE(record.thread, std::this_thread::get_id()) << "round " << round;
    if (round == 0) worker = record.thread;
    EXPECT_EQ(record.thread, worker) << "jobs must run on the one worker";
    EXPECT_EQ(record.reports_in, submitted) << "round " << round;
  }
  EXPECT_EQ(lanes.pipeline->quiesces(0), 5u);
  lanes.pipeline->stop();
}

TEST(IngestPipeline, InlineAndStoppedJobsRunOnCaller) {
  Lanes inline_lanes(ThreadMode::kInline, 1);
  for (std::uint64_t id = 0; id < 10; ++id) inline_lanes.submit(0, id);
  JobRecord record = run_recording_job(inline_lanes, 0);
  EXPECT_EQ(record.thread, std::this_thread::get_id());
  EXPECT_EQ(record.reports_in, 10u);
  EXPECT_EQ(inline_lanes.pipeline->quiesces(0), 1u);

  Lanes threaded(ThreadMode::kThreaded, 1);
  for (std::uint64_t id = 0; id < 10; ++id) threaded.submit(0, id);
  threaded.pipeline->stop();
  // Post-stop submits ingest on the caller; the job still sees them.
  threaded.submit(0, 10);
  record = run_recording_job(threaded, 0);
  EXPECT_EQ(record.thread, std::this_thread::get_id());
  EXPECT_EQ(record.reports_in, 11u);
  EXPECT_EQ(threaded.pipeline->quiesces(0), 1u);
}

TEST(IngestPipeline, StopRacingPostRunsJobExactlyOnce) {
  // The poster takes the lane lock either before stop(), and the
  // worker runs the job ahead of its exit request, or after stop() has
  // joined the worker, and runs the job itself. Either way the job must
  // run once, never zero times (a hang) or twice.
  for (int iteration = 0; iteration < 200; ++iteration) {
    Lanes lanes(ThreadMode::kThreaded, 1);
    for (std::uint64_t id = 0; id < 8; ++id) lanes.submit(0, id);
    std::atomic<int> runs{0};
    std::uint64_t seen = 0;
    std::thread poster([&lanes, &runs, &seen] {
      auto job = [&]() noexcept {
        runs.fetch_add(1, std::memory_order_relaxed);
        seen = lanes.shards[0]->stats().reports_in;
      };
      lanes.pipeline->run_writer_job(0, job);
    });
    if (iteration % 2 == 0) std::this_thread::yield();
    lanes.pipeline->stop();
    poster.join();
    ASSERT_EQ(runs.load(), 1) << "iteration " << iteration;
    EXPECT_EQ(seen, 8u) << "iteration " << iteration;
  }
}

TEST(IngestPipeline, JobsOnTwoShardsBesideSubmitsAndFlushes) {
  static constexpr int kJobs = 300;
  Lanes lanes(ThreadMode::kThreaded, 2);
  std::atomic<bool> done{false};
  std::thread producer([&lanes, &done] {
    std::uint64_t id = 0;
    while (!done.load(std::memory_order_acquire)) {
      lanes.submit(static_cast<std::uint32_t>(id % 2), id);
      if (++id % 64 == 0) lanes.pipeline->flush();
    }
  });
  std::vector<std::thread> posters;
  std::vector<std::thread::id> job_threads(2);
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    posters.emplace_back([&lanes, &job_threads, shard] {
      for (int j = 0; j < kJobs; ++j) {
        // A report counted here was pushed before the post, so the job
        // must find it ingested.
        const std::uint64_t floor = lanes.pipeline->submitted(shard);
        const JobRecord record = run_recording_job(lanes, shard);
        EXPECT_GE(record.reports_in, floor) << "shard " << shard;
        if (j == 0) job_threads[shard] = record.thread;
        EXPECT_EQ(record.thread, job_threads[shard]) << "shard " << shard;
      }
    });
  }
  for (auto& poster : posters) poster.join();
  done.store(true, std::memory_order_release);
  producer.join();
  EXPECT_NE(job_threads[0], job_threads[1]) << "each shard has its worker";
  EXPECT_EQ(lanes.pipeline->quiesces(0), std::uint64_t{kJobs});
  EXPECT_EQ(lanes.pipeline->quiesces(1), std::uint64_t{kJobs});
  lanes.pipeline->stop();
}

TEST(IngestPipeline, TwoPostersOnOneShardTakeTurns) {
  // Two posters share one lane with no lock of their own, beside a
  // producer that submits and flushes: each job must run once, after
  // every report counted before its post.
  static constexpr int kJobs = 2000;
  Lanes lanes(ThreadMode::kThreaded, 1);
  std::atomic<bool> done{false};
  std::thread producer([&lanes, &done] {
    std::uint64_t id = 0;
    while (!done.load(std::memory_order_acquire)) {
      lanes.submit(0, id);
      if (++id % 64 == 0) lanes.pipeline->flush();
    }
  });
  std::vector<std::vector<int>> runs(2, std::vector<int>(kJobs, 0));
  std::vector<int> stale(2, 0);
  std::vector<std::thread> posters;
  for (int p = 0; p < 2; ++p) {
    posters.emplace_back([&lanes, &runs, &stale, p] {
      for (int j = 0; j < kJobs; ++j) {
        const std::uint64_t floor = lanes.pipeline->submitted(0);
        std::uint64_t seen = 0;
        auto job = [&]() noexcept {
          ++runs[p][j];
          seen = lanes.shards[0]->stats().reports_in;
        };
        lanes.pipeline->run_writer_job(0, job);
        if (seen < floor) ++stale[p];
      }
    });
  }
  for (auto& poster : posters) poster.join();
  done.store(true, std::memory_order_release);
  producer.join();
  int not_once = 0;
  for (const auto& poster_runs : runs) {
    for (int count : poster_runs) not_once += count != 1 ? 1 : 0;
  }
  EXPECT_EQ(not_once, 0) << "jobs that did not run exactly once";
  EXPECT_EQ(stale[0] + stale[1], 0) << "jobs that missed an earlier submit";
  EXPECT_EQ(lanes.pipeline->quiesces(0), std::uint64_t{2 * kJobs});
  lanes.pipeline->stop();
}

TEST(IngestPipeline, PostStopJobsBesidePostStopSubmits) {
  // After stop(), submit() ingests on the control thread and a job runs
  // on its poster's thread; the lane lock must keep the two apart.
  // Under TSan, an overlap shows as a race in CollectorShard::ingest.
  static constexpr int kJobs = 200;
  static constexpr std::uint64_t kReports = 20000;
  Lanes lanes(ThreadMode::kThreaded, 1);
  lanes.pipeline->stop();
  std::atomic<bool> submitting{false};
  std::atomic<int> runs{0};
  std::thread poster([&lanes, &submitting, &runs] {
    while (!submitting.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (int j = 0; j < kJobs; ++j) {
      const std::uint64_t floor = lanes.pipeline->submitted(0);
      std::uint64_t seen = 0;
      auto job = [&]() noexcept {
        runs.fetch_add(1, std::memory_order_relaxed);
        seen = lanes.shards[0]->stats().reports_in;
      };
      lanes.pipeline->run_writer_job(0, job);
      EXPECT_GE(seen, floor) << "job " << j;
    }
  });
  submitting.store(true, std::memory_order_release);
  for (std::uint64_t id = 0; id < kReports; ++id) lanes.submit(0, id);
  poster.join();
  EXPECT_EQ(runs.load(), kJobs);
  EXPECT_EQ(lanes.pipeline->quiesces(0), std::uint64_t{kJobs});
  lanes.pipeline->flush();
  EXPECT_EQ(lanes.shards[0]->stats().reports_in, kReports);
}

}  // namespace
}  // namespace dta::collector
