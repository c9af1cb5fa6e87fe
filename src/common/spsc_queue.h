// Bounded single-producer / single-consumer queue.
//
// The collector runtime feeds each shard worker from one of these: the
// dispatcher thread is the only producer and the shard's worker the only
// consumer, so a lock-free ring with acquire/release indices suffices.
// Capacity is rounded up to a power of two; a full queue rejects the
// push (the caller decides whether to spin, drop, or backpressure —
// mirroring the translator's rate-limiter choice on the wire side).
//
// The consumer takes items in place, a pass at a time: consume(f) reads
// head_ once, runs f on each item queued when the call began, still in
// its slot, and publishes tail_ every kTailBatch slots and once at the
// end. A pass costs one read of the producer's line, and the producer
// sees the consumer's line move once per kTailBatch items, not per item;
// the mid-pass stores hand slots back before a long pass ends. An item
// pushed during a pass waits for the next one.
//
// Nothing is moved out of a slot: a consumed item stays there until the
// producer's next push into that slot move-assigns over it, or the
// queue is destroyed. So the producer's thread (or the thread that
// destroys the queue) releases what an item owns, never the consumer,
// and a heap block is freed on the core that allocated it. A slot keeps
// its consumed item's blocks until then: at most capacity() items.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dta::common {

template <typename T>
class SpscQueue {
 public:
  // Slots a consume pass runs between two tail_ publications.
  static constexpr std::size_t kTailBatch = 64;

  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side. Returns false when full. Overwriting a slot releases
  // the item the consumer left there.
  bool try_push(T&& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_seen_ > mask_) {
      tail_seen_ = tail_.load(std::memory_order_acquire);
      if (head - tail_seen_ > mask_) return false;
    }
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Runs f(const T&) on each item queued when the call
  // began, oldest first, and returns how many ran.
  template <typename F>
  std::size_t consume(F&& f) {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t begin = tail_.load(std::memory_order_relaxed);
    for (std::size_t tail = begin; tail != head;) {
      f(static_cast<const T&>(slots_[tail & mask_]));
      if (++tail == head || (tail - begin) % kTailBatch == 0) {
        tail_.store(tail, std::memory_order_release);
      }
    }
    return head - begin;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  // Indices grow monotonically; the mask maps them into the ring. Each
  // index gets a cache line of its own, and the read-mostly slot vector
  // + mask get a third: the producer dereferences the slot pointer on
  // every push, so it must not share tail_'s line (every consumer-side
  // tail_ store would otherwise bounce the producer's line too). The
  // producer also keeps tail_ as last read, on head_'s line, and
  // re-reads the shared one only when that copy says full: a stale copy
  // only understates the room, and a near-empty queue no longer costs
  // the producer a miss on tail_'s line per push.
  alignas(64) std::atomic<std::size_t> head_{0};  // next write (producer)
  std::size_t tail_seen_ = 0;                      // producer's copy
  alignas(64) std::atomic<std::size_t> tail_{0};  // next read (consumer)
  alignas(64) std::vector<T> slots_;
  std::size_t mask_ = 0;
};

}  // namespace dta::common
