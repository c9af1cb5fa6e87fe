// Bounded single-producer / single-consumer queue.
//
// The collector runtime feeds each shard worker from one of these: the
// dispatcher thread is the only producer and the shard's worker the only
// consumer, so a lock-free ring with acquire/release indices suffices.
// Capacity is rounded up to a power of two; a full queue rejects the
// push (the caller decides whether to spin, drop, or backpressure —
// mirroring the translator's rate-limiter choice on the wire side).
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
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side. Returns false when full.
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

  // Consumer side. Returns false when empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_seen_) {
      head_seen_ = head_.load(std::memory_order_acquire);
      if (tail == head_seen_) return false;
    }
    out = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t size() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  // Indices grow monotonically; the mask maps them into the ring. Each
  // index gets a cache line of its own, and the read-mostly slot vector
  // + mask get a third: the producer dereferences the slot pointer on
  // every push, so it must not share tail_'s line (every consumer-side
  // tail_ store would otherwise bounce the producer's line too). Each
  // side also keeps the other's index as last read, on its own line,
  // and re-reads the shared one only when that copy says full (or
  // empty): a stale copy only understates the room (or the items), and
  // a near-empty queue no longer costs the producer a miss on tail_'s
  // line per push.
  alignas(64) std::atomic<std::size_t> head_{0};  // next write (producer)
  std::size_t tail_seen_ = 0;                      // producer's copy
  alignas(64) std::atomic<std::size_t> tail_{0};  // next read (consumer)
  std::size_t head_seen_ = 0;                      // consumer's copy
  alignas(64) std::vector<T> slots_;
  std::size_t mask_ = 0;
};

}  // namespace dta::common
