#include "collector/ingest_pipeline.h"

#include <chrono>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dta::collector {

namespace {

// A pass that ran fewer reports than this leaves the worker right
// behind the producer: a worker that takes each report as it lands
// pulls head_ and the next slots' lines (its prefetchers run ahead of
// its reads) off the producer's core on nearly every push. After such
// a pass the worker waits up to kBackOff before it reads the queue
// again, so the next pass finds a batch: at 2M reports/s per shard,
// about 30 reports.
constexpr std::size_t kShortPass = 32;
// Bounded by time, not by a count of pause instructions: one pause
// takes ~15 ns on one x86 generation and about ten times that on
// another.
constexpr std::chrono::microseconds kBackOff{16};

// The spin-wait hint: yields the core's pipeline to its sibling thread
// and slows the loop's reads of the request counters.
void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Pins `worker` to `core`, from the spawning thread (no cross-thread
// stat writes). Returns true on success; silently a no-op off-Linux.
bool pin_thread(std::thread& worker, int core) {
#if defined(__linux__)
  if (core < 0 || core >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core), &set);
  return pthread_setaffinity_np(worker.native_handle(), sizeof(set), &set) ==
         0;
#else
  (void)worker;
  (void)core;
  return false;
#endif
}

}  // namespace

IngestPipeline::IngestPipeline(std::vector<CollectorShard*> shards,
                               IngestPipelineConfig config)
    : shards_(std::move(shards)) {
  switch (config.thread_mode) {
    case ThreadMode::kInline:
      threaded_ = false;
      break;
    case ThreadMode::kThreaded:
      threaded_ = true;
      break;
    case ThreadMode::kAuto:
      threaded_ = std::thread::hardware_concurrency() > 1;
      break;
  }
  lanes_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    lanes_.push_back(std::make_unique<ShardLane>(config.queue_capacity));
  }
  if (threaded_) {
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
      lanes_[i]->worker = std::thread([this, i] { worker_loop(i); });
      if (config.pin_workers) {
        const int core = i < config.worker_cores.size()
                             ? config.worker_cores[i]
                             : static_cast<int>(i);
        if (pin_thread(lanes_[i]->worker, core)) ++stats_.workers_pinned;
      }
    }
  }
}

IngestPipeline::~IngestPipeline() { stop(); }

void IngestPipeline::submit(std::uint32_t shard, proto::ParsedDta parsed) {
  ++stats_.submitted;
  ShardLane& lane = *lanes_[shard];
  if (!threaded_ || stopped_.load(std::memory_order_acquire)) {
    // Inline mode — or post-stop, when no worker would ever drain the
    // queue; ingest on the caller thread rather than losing the report.
    shards_[shard]->ingest(parsed);
  } else {
    while (!lane.queue.try_push(std::move(parsed))) {
      ++stats_.backpressure_waits;
      std::this_thread::yield();
    }
  }
  // Counted only once the report is enqueued (or inline-ingested): the
  // snapshot cache stamps covers_seq from this counter, and a stamp
  // must never claim a report a concurrent writer job's drain could not yet
  // have observed. The producer is its one writer, so a plain store
  // does what a locked increment would.
  lane.submitted.store(lane.submitted.load(std::memory_order_relaxed) + 1,
                       std::memory_order_release);
}

std::uint64_t IngestPipeline::submitted(std::uint32_t shard) const {
  return lanes_[shard]->submitted.load(std::memory_order_acquire);
}

std::uint64_t IngestPipeline::quiesces(std::uint32_t shard) const {
  return lanes_[shard]->jobs_requested.load(std::memory_order_relaxed);
}

std::uint64_t IngestPipeline::request_flush(std::uint32_t shard) {
  return lanes_[shard]->flushes_requested.fetch_add(
             1, std::memory_order_acq_rel) +
         1;
}

void IngestPipeline::await_flush(std::uint32_t shard, std::uint64_t target) {
  while (lanes_[shard]->flushes_done.load(std::memory_order_acquire) <
         target) {
    std::this_thread::yield();
  }
}

void IngestPipeline::flush() {
  if (!threaded_ || stopped_.load(std::memory_order_acquire)) {
    // Inline mode — or workers already joined by stop(), in which case
    // flushing on the caller thread is safe and the only option.
    for (CollectorShard* shard : shards_) shard->flush();
    return;
  }
  // Ask every worker for one flush, then wait for all acknowledgements.
  // Workers only flush once their queue is empty, so everything
  // submitted before this call is processed first. A lane's request
  // count, read back, covers the request made here: only a concurrent
  // flush_shard can have raised it since, and a later flush's ack
  // covers this one.
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) request_flush(i);
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    await_flush(i,
                lanes_[i]->flushes_requested.load(std::memory_order_acquire));
  }
}

void IngestPipeline::flush_shard(std::uint32_t shard) {
  if (!threaded_ || stopped_.load(std::memory_order_acquire)) {
    shards_[shard]->flush();
    return;
  }
  await_flush(shard, request_flush(shard));
}

void IngestPipeline::post_job(std::uint32_t shard, void (*fn)(void*) noexcept,
                              void* arg) {
  ShardLane& lane = *lanes_[shard];
  if (!threaded_ || stopped_.load(std::memory_order_acquire)) {
    // Single-threaded contract: the caller is the only thread touching
    // the shard, so it is the writer.
    lane.jobs_requested.fetch_add(1, std::memory_order_relaxed);
    shards_[shard]->flush();
    fn(arg);
    return;
  }
  lane.job_fn = fn;
  lane.job_arg = arg;
  const std::uint64_t target =
      lane.jobs_requested.fetch_add(1, std::memory_order_acq_rel) + 1;
  while (lane.jobs_done.load(std::memory_order_acquire) < target) {
    if (lane.worker_done.load(std::memory_order_acquire)) {
      // stop() raced the post. The worker can never write again, and
      // its acks precede worker_done, so this re-read tells whether it
      // ran the job before exiting; if not, the caller runs it.
      if (lane.jobs_done.load(std::memory_order_acquire) < target) {
        shards_[shard]->flush();
        fn(arg);
      }
      return;
    }
    std::this_thread::yield();
  }
}

void IngestPipeline::stop() {
  if (stopped_.load(std::memory_order_acquire)) return;
  if (threaded_) {
    stop_.store(true, std::memory_order_release);
    for (auto& lane : lanes_) {
      if (lane->worker.joinable()) lane->worker.join();
    }
  } else {
    for (CollectorShard* shard : shards_) shard->flush();
  }
  // Published only after the join: a cross-thread reader that observes
  // stopped_ may touch shard state from its own thread, so no worker
  // can still be running.
  stopped_.store(true, std::memory_order_release);
}

void IngestPipeline::worker_loop(std::uint32_t shard) {
  ShardLane& lane = *lanes_[shard];
  CollectorShard* target = shards_[shard];
  // Ingests, in their slots, the reports queued when the pass began,
  // and returns how many. The bound keeps a producer that refills the
  // queue as fast as it drains from starving flush and job requests.
  // It loses nothing a request waits for: those reports were pushed
  // before the request's counter was bumped, so a pass started after
  // observing the request reads a head_ that counts them.
  const auto drain = [&lane, target] {
    return lane.queue.consume(
        [target](const proto::ParsedDta& parsed) { target->ingest(parsed); });
  };
  // The back-off after a short pass: waits up to kBackOff, reading only
  // the lane's request counters and stop_, and returns false at once
  // when a flush, a writer job or stop() waits on the worker.
  const auto back_off = [this, &lane] {
    const auto until = std::chrono::steady_clock::now() + kBackOff;
    do {
      if (lane.flushes_done.load(std::memory_order_relaxed) <
              lane.flushes_requested.load(std::memory_order_relaxed) ||
          lane.jobs_done.load(std::memory_order_relaxed) <
              lane.jobs_requested.load(std::memory_order_relaxed) ||
          stop_.load(std::memory_order_relaxed)) {
        return false;
      }
      cpu_relax();
    } while (std::chrono::steady_clock::now() < until);
    return true;
  };
  for (;;) {
    const std::size_t ran = drain();
    bool answered = false;
    // Honour flush requests. The producer pushes before it increments
    // flushes_requested, so anything submitted before the flush() call
    // is visible to the re-drain below once the increment is observed
    // — the barrier can never skip a queued report. The producer is
    // parked inside flush() until the ack, so nothing new races in
    // between the re-drain and the ack.
    const std::uint64_t requested =
        lane.flushes_requested.load(std::memory_order_acquire);
    if (lane.flushes_done.load(std::memory_order_relaxed) < requested) {
      drain();
      target->flush();
      lane.flushes_done.store(requested, std::memory_order_release);
      answered = true;
    }
    // Honour a writer job the same way: drain + flush (the job must see
    // everything submitted before its post), run it, ack. The poster
    // waits for the ack and posts serially, so one job is outstanding
    // at most, and the ack's release publishes the job's writes.
    const std::uint64_t jobs =
        lane.jobs_requested.load(std::memory_order_acquire);
    if (lane.jobs_done.load(std::memory_order_relaxed) < jobs) {
      drain();
      target->flush();
      lane.job_fn(lane.job_arg);
      lane.jobs_done.store(jobs, std::memory_order_release);
      answered = true;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Exit only once fully quiet: queue drained, every flush and job
      // request honoured. A job posted past this check is caught by the
      // poster's worker_done fallback in post_job.
      if (lane.queue.empty() &&
          lane.flushes_done.load(std::memory_order_relaxed) >=
              lane.flushes_requested.load(std::memory_order_acquire) &&
          lane.jobs_done.load(std::memory_order_relaxed) >=
              lane.jobs_requested.load(std::memory_order_acquire)) {
        target->flush();  // final drain of aggregation state
        lane.worker_done.store(true, std::memory_order_release);
        return;
      }
      continue;
    }
    // An idle worker also yields, so a worker that shares its core
    // does not hold it between reports.
    if (!answered && ran < kShortPass && back_off() && ran == 0) {
      std::this_thread::yield();
    }
  }
}

}  // namespace dta::collector
