// Report fan-in for the sharded collector runtime.
//
// One bounded SPSC queue per shard. The submitting thread (the single
// producer) routes each report to its owning shard's queue; a worker
// thread per shard drains its queue and drives the shard's translate +
// batch + deliver path. On a single-core host — or when determinism
// matters more than parallelism — the pipeline runs inline: submit()
// executes the shard ingest directly and the queues stay unused.
//
// A worker stays a batch behind its producer. Each pass ingests the
// reports queued when it began, in their slots; after a pass of fewer
// than 32 reports the worker waits up to 16us before it reads the
// queue again. A worker that took each report as it landed would pull
// the queue's head_ line and the next slots' lines off the producer's
// core on nearly every push, and the producer would pay those misses
// per report. The wait reads only the lane's request counters and
// stop_, and ends at once on a flush, a writer job or stop(), so none
// of them waits longer. stop_, which every worker reads on every pass,
// has a cache line of its own: beside the stats the producer writes on
// every submit, it would cost each worker a miss per submit, and the
// producer a miss per worker pass.
//
// Workers can optionally be pinned to cores (pin_workers +
// worker_cores): shard workers otherwise float across cores, losing
// cache locality with their shard's store memory. Pinning is applied
// from the constructor via the native thread handle, so no stat is
// written from worker threads, and before the constructor returns, so
// no report, flush or writer job reaches a worker before its pinning.
// That also places the store memory: the pinned worker is the first
// writer of its shard's regions, so each page faults in on the
// worker's NUMA node.
//
// Threading contract: submit()/flush()/stop() must be called from one
// thread. Shard stores must only be read behind a barrier:
//   * flush()/flush_shard() — queue drained, translator aggregation
//     state written back, and the release/acquire handshake on the
//     flush counters publishes the worker's store writes to the caller;
//   * run_writer_job() — the form the snapshot tier uses while the
//     producer keeps submitting: the shard's writer (its worker, or the
//     caller when inline or stopped) drains, flushes and runs the job
//     between two drain passes, so the job reads store memory on the
//     core that wrote it and no batch races it. Jobs on one shard must
//     be serialized by the caller (SnapshotCache's per-shard mutex does
//     this); jobs on different shards may overlap, and may be posted
//     from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "collector/shard.h"
#include "common/lifetime_annotations.h"
#include "common/spsc_queue.h"
#include "dta/wire.h"

namespace dta::collector {

enum class ThreadMode : std::uint8_t {
  kAuto,      // threads iff the host has more than one core
  kInline,    // synchronous, deterministic
  kThreaded,  // one worker per shard
};

struct IngestPipelineConfig {
  std::uint32_t queue_capacity = 4096;  // per shard, entries
  ThreadMode thread_mode = ThreadMode::kAuto;
  // CPU affinity for shard workers. When pin_workers is set, worker i is
  // pinned to worker_cores[i] (or core i when the list is shorter;
  // threaded mode only). No-op when unset or on platforms without
  // thread affinity.
  bool pin_workers = false;
  std::vector<int> worker_cores;
};

struct IngestPipelineStats {
  std::uint64_t submitted = 0;
  std::uint64_t backpressure_waits = 0;  // full-queue spins on submit
  std::uint32_t workers_pinned = 0;      // affinity calls that succeeded
};

class IngestPipeline {
 public:
  IngestPipeline(std::vector<CollectorShard*> shards,
                 IngestPipelineConfig config);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  // Hands one report to shard `shard`. Blocks (spin + yield) while that
  // shard's queue is full — reports are never silently dropped here; the
  // wire-side rate limiter is where DTA sheds load.
  void submit(std::uint32_t shard, proto::ParsedDta parsed);

  // Barrier: every submitted report is processed and every shard's
  // translator-side aggregation state is flushed before this returns.
  void flush();

  // Same barrier, restricted to one shard: that shard's queue is
  // drained and its aggregation state flushed; other shards keep
  // running.
  void flush_shard(std::uint32_t shard);

  // Runs `job()` as shard `shard`'s writer and returns once it has run.
  // The worker drains every report submitted before the call, flushes
  // the shard's aggregation state, runs the job between two drain
  // passes and acks; inline or stopped pipelines flush and run it on
  // the caller. Either way the job sees every report submitted before
  // the call and nothing else writes the shard while it runs. Posting
  // allocates nothing (the worker calls back through a pointer to
  // `job`); the job must not throw. Callers serialize jobs per shard;
  // see the threading contract above. stop() may race a post: the job
  // still runs exactly once.
  template <typename Job>
  void run_writer_job(std::uint32_t shard, Job& job) {
    post_job(shard, [](void* arg) noexcept { (*static_cast<Job*>(arg))(); },
             &job);
  }

  // Count of reports ever submitted to shard `shard` (readable from any
  // thread; the snapshot cache's read-your-submits stamp).
  std::uint64_t submitted(std::uint32_t shard) const;

  // Count of writer jobs ever run on shard `shard` (any mode, including
  // the inline and post-stop fallbacks). Bounded-staleness serving is
  // asserted against this: a snapshot served within budget must not
  // have run a job.
  std::uint64_t quiesces(std::uint32_t shard) const;

  // Drains, flushes and joins the workers. Idempotent; the destructor
  // calls it.
  void stop();

  bool threaded() const { return threaded_; }
  const IngestPipelineStats& stats() const DTA_LIFETIMEBOUND {
    return stats_;
  }

 private:
  struct ShardLane {
    explicit ShardLane(std::uint32_t capacity) : queue(capacity) {}
    common::SpscQueue<proto::ParsedDta> queue;
    std::thread worker;
    // The producer, its one writer, bumps `submitted` on every push,
    // while a waiting worker polls the request counters below in a
    // loop: on one cache line the two would trade it back and forth on
    // every report.
    alignas(64) std::atomic<std::uint64_t> submitted{0};
    alignas(64) std::atomic<std::uint64_t> flushes_requested{0};
    std::atomic<std::uint64_t> flushes_done{0};
    // Writer-job handshake: the poster stores the job, bumps
    // jobs_requested (counting every job, in every mode) and waits for
    // jobs_done; the worker runs the job after its drain + flush and
    // acks. The job fields are published by the request's release.
    void (*job_fn)(void*) noexcept = nullptr;
    void* job_arg = nullptr;
    std::atomic<std::uint64_t> jobs_requested{0};
    std::atomic<std::uint64_t> jobs_done{0};
    // Set by the worker right before it returns (it can never write
    // store memory again): the poster's escape hatch when stop() races
    // a job the worker exited without seeing.
    std::atomic<bool> worker_done{false};
  };

  void worker_loop(std::uint32_t shard);
  void post_job(std::uint32_t shard, void (*fn)(void*) noexcept, void* arg);
  std::uint64_t request_flush(std::uint32_t shard);
  void await_flush(std::uint32_t shard, std::uint64_t target);

  std::vector<CollectorShard*> shards_;
  std::vector<std::unique_ptr<ShardLane>> lanes_;
  // Alone on its line: read by every worker on every pass, and next to
  // stats_ it would move between cores on every submit.
  alignas(64) std::atomic<bool> stop_{false};
  alignas(64) bool threaded_ = false;
  // Flipped only after the workers are joined, so cross-thread readers
  // (the snapshot path) that observe it can safely touch shard state
  // from the calling thread.
  std::atomic<bool> stopped_{false};
  IngestPipelineStats stats_;
};

}  // namespace dta::collector
