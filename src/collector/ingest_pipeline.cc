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
// and slows the loop's reads of the request counter.
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
  if (!threaded_) {
    shards_[shard]->ingest(parsed);
  } else if (stopped_) {
    // No worker will ever drain the queue: ingest on the caller rather
    // than lose the report, holding the lane lock so that no writer job
    // posted from another thread runs meanwhile.
    MutexLock lock(lane.post_mu);
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
  return lanes_[shard]->quiesces.load(std::memory_order_relaxed);
}

void IngestPipeline::flush() {
  // Lane by lane: the other workers keep draining while the caller
  // waits on an earlier one.
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) flush_shard(i);
}

void IngestPipeline::flush_shard(std::uint32_t shard) {
  post(shard, nullptr, nullptr, /*exit=*/false);
}

void IngestPipeline::post(std::uint32_t shard, void (*fn)(void*) noexcept,
                          void* arg, bool exit) {
  ShardLane& lane = *lanes_[shard];
  MutexLock lock(lane.post_mu);
  if (fn != nullptr) lane.quiesces.fetch_add(1, std::memory_order_relaxed);
  if (!lane.worker.joinable()) {
    // Inline (one thread drives the shard) or stopped (post-stop submits
    // take this lock too): the caller is the shard's writer.
    shards_[shard]->flush();
    if (fn != nullptr) fn(arg);
    return;
  }
  lane.job_fn = fn;
  lane.job_arg = arg;
  lane.exit = exit;
  const std::uint64_t target =
      lane.requested.load(std::memory_order_relaxed) + 1;
  lane.requested.store(target, std::memory_order_release);
  while (lane.done.load(std::memory_order_acquire) < target) {
    std::this_thread::yield();
  }
  if (exit) lane.worker.join();
}

void IngestPipeline::stop() {
  if (stopped_) return;
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    post(i, nullptr, nullptr, /*exit=*/true);
  }
  stopped_ = true;
}

void IngestPipeline::worker_loop(std::uint32_t shard) {
  ShardLane& lane = *lanes_[shard];
  CollectorShard* target = shards_[shard];
  // Ingests, in their slots, the reports queued when the pass began,
  // and returns how many. The bound keeps a producer that refills the
  // queue as fast as it drains from starving requests. It loses nothing
  // a request waits for: those reports were pushed before `requested`
  // was raised, so a pass started after observing the request reads a
  // head_ that counts them.
  const auto drain = [&lane, target] {
    return lane.queue.consume(
        [target](const proto::ParsedDta& parsed) { target->ingest(parsed); });
  };
  // The worker is `done`'s one writer, so it keeps the last ack here.
  std::uint64_t acked = 0;
  // The back-off after a short pass: waits up to kBackOff, reading only
  // `requested`, and returns false at once when a request waits.
  const auto back_off = [&lane, &acked] {
    const auto until = std::chrono::steady_clock::now() + kBackOff;
    do {
      if (lane.requested.load(std::memory_order_relaxed) != acked) {
        return false;
      }
      cpu_relax();
    } while (std::chrono::steady_clock::now() < until);
    return true;
  };
  for (;;) {
    const std::size_t ran = drain();
    const std::uint64_t requested =
        lane.requested.load(std::memory_order_acquire);
    if (requested != acked) {
      // The re-drain covers every report submitted before the post (see
      // drain); the poster waits for the ack, so the job runs between
      // two drain passes, and the ack's release publishes its writes.
      drain();
      target->flush();
      if (lane.job_fn != nullptr) lane.job_fn(lane.job_arg);
      const bool exit = lane.exit;
      acked = requested;
      lane.done.store(acked, std::memory_order_release);
      // stop() posts from the producer's thread, so its re-drain left
      // the queue empty.
      if (exit) return;
      continue;
    }
    // An idle worker also yields, so a worker that shares its core
    // does not hold it between reports.
    if (ran < kShortPass && back_off() && ran == 0) {
      std::this_thread::yield();
    }
  }
}

}  // namespace dta::collector
