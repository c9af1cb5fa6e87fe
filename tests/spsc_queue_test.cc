// The shard lanes' single-producer / single-consumer queue: capacity
// rounding, a full queue refusing a push, FIFO order across wraps, a
// consume pass bounded by what was queued when it began, slots handed
// back to the producer in the middle of a long pass, every item
// released exactly once (by the push that overwrites its slot or by the
// queue's destructor, never by the consumer), and a two-thread stress
// run that TSan checks for the index handshake.
#include "common/spsc_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace dta::common {
namespace {

// Drains `queue` in one pass into a vector.
template <typename T>
std::vector<T> consume_all(SpscQueue<T>& queue) {
  std::vector<T> out;
  queue.consume([&out](const T& item) { out.push_back(item); });
  return out;
}

TEST(SpscQueue, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(0).capacity(), 1u);
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscQueue<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscQueue<int>(65).capacity(), 128u);
  EXPECT_EQ(SpscQueue<int>(4096).capacity(), 4096u);
}

TEST(SpscQueue, FullQueueRejectsAPush) {
  SpscQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(int{i}));
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(consume_all(queue), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(queue.try_push(4));
  EXPECT_EQ(consume_all(queue), std::vector<int>{4});
}

TEST(SpscQueue, FifoOrderOverManyWraps) {
  SpscQueue<std::uint64_t> queue(8);
  std::uint64_t pushed = 0;
  std::uint64_t consumed = 0;
  bool in_order = true;
  // Bursts of 1..8 items, so the ring wraps at every offset.
  for (int round = 0; round < 1000; ++round) {
    const int burst = 1 + round % 8;
    for (int i = 0; i < burst; ++i) ASSERT_TRUE(queue.try_push(pushed++));
    const std::size_t ran = queue.consume([&](const std::uint64_t& item) {
      in_order = in_order && item == consumed;
      ++consumed;
    });
    EXPECT_EQ(ran, static_cast<std::size_t>(burst));
  }
  EXPECT_TRUE(in_order);
  EXPECT_EQ(consumed, pushed);
  EXPECT_EQ(queue.consume([](const std::uint64_t&) {}), 0u);
}

TEST(SpscQueue, ConsumeRunsOnlyWhatWasQueuedWhenItBegan) {
  SpscQueue<int> queue(16);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.try_push(int{i}));
  std::vector<int> seen;
  // Each call pushes one more item; none of them joins this pass.
  const std::size_t ran = queue.consume([&](const int& item) {
    seen.push_back(item);
    EXPECT_TRUE(queue.try_push(item + 10));
  });
  EXPECT_EQ(ran, 3u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(consume_all(queue), (std::vector<int>{10, 11, 12}));
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, SlotsFreedMidPassLetTheProducerPushBeforeThePassEnds) {
  constexpr std::size_t kBatch = SpscQueue<int>::kTailBatch;
  SpscQueue<int> queue(2 * kBatch);
  for (std::size_t i = 0; i < 2 * kBatch; ++i) {
    ASSERT_TRUE(queue.try_push(static_cast<int>(i)));
  }
  // The callback tries one push per item: the ring stays full until the
  // pass hands back its first kBatch slots, then every push fits.
  std::vector<bool> pushed;
  queue.consume([&](const int& item) {
    pushed.push_back(queue.try_push(item + 1000));
  });
  ASSERT_EQ(pushed.size(), 2 * kBatch);
  for (std::size_t i = 0; i < 2 * kBatch; ++i) {
    EXPECT_EQ(pushed[i], i >= kBatch) << "item " << i;
  }
  const std::vector<int> next = consume_all(queue);
  ASSERT_EQ(next.size(), kBatch);
  EXPECT_EQ(next.front(), static_cast<int>(kBatch) + 1000);
  EXPECT_EQ(next.back(), static_cast<int>(2 * kBatch) - 1 + 1000);
}

// How many times each id was released: overwritten by a move-assignment
// or destroyed while it still held its id. A moved-from item holds none.
std::vector<int> g_releases;

struct Tracked {
  int id = -1;

  Tracked() = default;
  explicit Tracked(int id_in) : id(id_in) {}
  Tracked(Tracked&& other) noexcept : id(std::exchange(other.id, -1)) {}
  Tracked& operator=(Tracked&& other) noexcept {
    release();
    id = std::exchange(other.id, -1);
    return *this;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { release(); }

  void release() {
    if (id >= 0) ++g_releases[static_cast<std::size_t>(id)];
  }
};

int released_total() {
  int total = 0;
  for (const int count : g_releases) total += count;
  return total;
}

TEST(SpscQueue, EachItemIsReleasedOnceByTheOverwriteOrTheDestructor) {
  constexpr int kItems = 40;
  g_releases.assign(kItems, 0);
  {
    SpscQueue<Tracked> queue(8);
    int next = 0;
    // Fill the ring and consume it: the consumer reads the items in
    // their slots and releases none of them.
    for (; next < 8; ++next) ASSERT_TRUE(queue.try_push(Tracked(next)));
    std::vector<int> seen;
    queue.consume([&seen](const Tracked& item) { seen.push_back(item.id); });
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(released_total(), 0);
    // The next push overwrites slot 0 and releases item 0 there.
    ASSERT_TRUE(queue.try_push(Tracked(next++)));
    EXPECT_EQ(g_releases[0], 1);
    EXPECT_EQ(released_total(), 1);
    // Many more wraps, some left queued at the end. A refused push
    // leaves the item with its caller.
    for (; next < kItems; ++next) {
      Tracked item(next);
      while (!queue.try_push(std::move(item))) {
        queue.consume([](const Tracked&) {});
      }
    }
    EXPECT_EQ(released_total(), kItems - 8);
  }
  // The destructor releases what the slots still hold: the last ring's
  // worth, consumed or not.
  for (int id = 0; id < kItems; ++id) {
    EXPECT_EQ(g_releases[static_cast<std::size_t>(id)], 1) << "item " << id;
  }
}

TEST(SpscQueue, TwoThreadsPassEverySequenceNumberInOrder) {
  constexpr std::uint64_t kItems = std::uint64_t{1} << 20;
  SpscQueue<std::uint64_t> queue(64);
  std::thread producer([&queue] {
    for (std::uint64_t seq = 0; seq < kItems; ++seq) {
      while (!queue.try_push(std::uint64_t{seq})) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t out_of_order = 0;
  while (expected < kItems) {
    const std::size_t ran = queue.consume([&](const std::uint64_t& seq) {
      out_of_order += seq != expected;
      ++expected;
    });
    if (ran == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(expected, kItems);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace dta::common
