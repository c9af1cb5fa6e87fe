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
// per report. The wait reads only the lane's request counter and ends
// at once when a request is posted, so no request waits longer.
//
// Each lane answers one request at a time. A poster takes the lane's
// post_mu, writes an optional job and an exit bit, raises `requested`
// and waits for `done`. The worker re-drains, flushes the shard, runs
// the job if there is one, acks, and returns if the exit bit was set.
// With no worker (inline, or after stop()) the poster flushes and runs
// the job itself, still under post_mu. flush_shard() is a request with
// no job, flush() one per lane in turn, run_writer_job() a request
// with a job, and stop() each lane's last request: it joins the worker
// under post_mu, so a post finds either a live worker or none.
//
// Workers can optionally be pinned to cores (pin_workers +
// worker_cores): shard workers otherwise float across cores, losing
// cache locality with their shard's store memory. Pinning is applied
// from the constructor via the native thread handle, so no stat is
// written from worker threads, and before the constructor returns, so
// no report or request reaches a worker before its pinning. That also
// places the store memory: the pinned worker is the first writer of
// its shard's regions, so each page faults in on the worker's NUMA
// node.
//
// Threading contract: submit()/flush()/stop() must be called from one
// thread, the control thread. Shard stores must only be read behind a
// request:
//   * flush()/flush_shard() — queue drained, translator aggregation
//     state written back, and the ack's release publishes the worker's
//     store writes to the caller;
//   * run_writer_job() — the form the snapshot tier uses while the
//     producer keeps submitting: the shard's writer (its worker, or the
//     poster when inline or stopped) drains, flushes and runs the job
//     between two drain passes, so the job reads store memory on the
//     core that wrote it and no batch races it. Jobs may be posted from
//     any thread; posters on one lane take turns at its post_mu.
// After stop(), submit() ingests on the control thread under the
// lane's post_mu, so it never races a job another thread posts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "collector/shard.h"
#include "common/lifetime_annotations.h"
#include "common/spsc_queue.h"
#include "common/thread_annotations.h"
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
  // `job`); the job must not throw. Any thread may post; posters on one
  // shard take turns, and stop() may race a post: each job runs exactly
  // once.
  template <typename Job>
  void run_writer_job(std::uint32_t shard, Job& job) {
    post(shard, [](void* arg) noexcept { (*static_cast<Job*>(arg))(); }, &job,
         /*exit=*/false);
  }

  // Count of reports ever submitted to shard `shard` (readable from any
  // thread; the snapshot cache's read-your-submits stamp).
  std::uint64_t submitted(std::uint32_t shard) const;

  // Count of writer jobs ever run on shard `shard` (any mode, including
  // the inline and post-stop fallbacks). Bounded-staleness serving is
  // asserted against this: a snapshot served within budget must not
  // have run a job.
  std::uint64_t quiesces(std::uint32_t shard) const;

  // Drains, flushes and joins the workers, one lane at a time.
  // Idempotent; the destructor calls it.
  void stop();

  bool threaded() const { return threaded_; }
  const IngestPipelineStats& stats() const DTA_LIFETIMEBOUND {
    return stats_;
  }

 private:
  struct ShardLane {
    explicit ShardLane(std::uint32_t capacity) : queue(capacity) {}
    common::SpscQueue<proto::ParsedDta> queue;
    // The producer, its one writer, bumps `submitted` on every push,
    // while a waiting worker polls `requested` below in a loop: on one
    // cache line the two would trade it back and forth on every report.
    alignas(64) std::atomic<std::uint64_t> submitted{0};
    // One request at a time: a poster holds post_mu from writing the
    // request to reading its ack. The request fields are published to
    // the worker by `requested`'s release, and the worker's reads of
    // them end before its ack.
    alignas(64) Mutex post_mu;
    void (*job_fn)(void*) noexcept = nullptr;
    void* job_arg = nullptr;
    bool exit = false;
    std::atomic<std::uint64_t> requested{0};
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> quiesces{0};  // writer jobs, any mode
    // Joined by stop() under post_mu; never started when inline.
    std::thread worker DTA_GUARDED_BY(post_mu);
  };

  void worker_loop(std::uint32_t shard);
  // The one request path: flush, writer job (fn != nullptr) and stop
  // (exit) all post here.
  void post(std::uint32_t shard, void (*fn)(void*) noexcept, void* arg,
            bool exit);

  std::vector<CollectorShard*> shards_;
  std::vector<std::unique_ptr<ShardLane>> lanes_;
  // Read by submit() on every report, beside the stats it writes; off
  // the line posters read lanes_ from.
  alignas(64) bool threaded_ = false;
  bool stopped_ = false;  // control thread only
  IngestPipelineStats stats_;
};

}  // namespace dta::collector
