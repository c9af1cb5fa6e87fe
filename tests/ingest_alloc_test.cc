// Allocation counts of the ingest path, from Backend::submit to store
// memory: a global operator new counts every block the process takes.
//
// Once warm (keys indexed, batch and window buffers grown, tenant rows
// made), a Key-Write report whose value fits in place, a Key-Increment
// report and a Postcard report take no block between submit and store
// memory, inline and with shard workers. The one block the span may
// take is the index's: each publish makes one ShardIndexVersion, and a
// window that only rewrites indexed keys makes nothing else. A value
// one byte past the in-place capacity takes exactly one block, and a
// wire Key-Write report whose value fits in place decodes without one.
// A Client::flush takes no block either.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "collector/runtime.h"
#include "dta/report_builders.h"
#include "dta/wire.h"
#include "dtalib/client.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line: inlined, they would show the compiler a malloc block
// reaching operator delete, or an operator new block reaching free(),
// which it warns of as a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}
// The array forms count through the ones above (a sanitizer runtime
// would otherwise serve them uncounted).
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete[](void* block) noexcept {
  ::operator delete(block);
}
[[gnu::noinline]] void operator delete[](void* block, std::size_t) noexcept {
  ::operator delete(block);
}

namespace dta {
namespace {

// Passes enough for every shard's index window to fold a few times, so
// the window has grown to the most keys a fold ever holds.
constexpr std::uint32_t kKeys = 512;
constexpr int kWarmPasses = 8;

collector::CollectorRuntimeConfig config(collector::ThreadMode mode,
                                         std::uint32_t value_bytes) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = 2;
  config.thread_mode = mode;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = value_bytes;
  config.keywrite = kw;
  collector::KeyIncrementSetup ki;
  ki.num_slots = 1 << 14;
  config.keyincrement = ki;
  collector::PostcardingSetup pc;
  pc.num_chunks = 1 << 14;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 64; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  return config;
}

struct Counted {
  std::uint64_t allocations = 0;
  std::uint64_t publishes = 0;
  std::uint64_t reports = 0;
  bool all_ok = true;
};

class IngestAllocTest
    : public ::testing::TestWithParam<collector::ThreadMode> {
 protected:
  // Runs `pass` (which submits one pass of reports and returns how many,
  // or 0 on a failed submit) kWarmPasses times, then once more counted:
  // the blocks taken and the index versions published from the first
  // submit until every shard has drained, flushed and delivered.
  template <typename Pass>
  Counted measure(std::uint32_t value_bytes, Pass&& pass) {
    Client client = Client::local(config(GetParam(), value_bytes));
    collector::CollectorRuntime& runtime = *client.local_runtime();
    Counted out;
    for (int warm = 0; warm < kWarmPasses; ++warm) {
      out.all_ok = pass(client) != 0 && out.all_ok;
      drain(runtime);
    }
    const std::uint64_t publishes =
        runtime.index_publisher().stats().publishes;
    const std::uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed);
    out.reports = pass(client);
    drain(runtime);
    out.allocations =
        g_allocations.load(std::memory_order_relaxed) - allocations;
    out.publishes = runtime.index_publisher().stats().publishes - publishes;
    out.all_ok = out.reports != 0 && out.all_ok;
    return out;
  }

  // The shard barrier that allocates nothing itself: each worker (or
  // the caller, inline) drains its queue, flushes its engines and
  // delivers the last batch.
  static void drain(collector::CollectorRuntime& runtime) {
    for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
      runtime.flush_shard(s);
    }
  }

  // Keys and values are made before any counted span.
  const std::vector<proto::TelemetryKey> keys_ = [] {
    std::vector<proto::TelemetryKey> keys;
    for (std::uint32_t i = 0; i < kKeys; ++i) {
      keys.push_back(reports::mixed_key(i));
    }
    return keys;
  }();
};

// One Key-Write report per key, `value` as the value.
auto keywrite_pass(const std::vector<proto::TelemetryKey>& keys,
                   const common::Bytes& value) {
  return [&keys, &value](Client& client) -> std::uint64_t {
    auto table = client.keywrite();
    for (const auto& key : keys) {
      if (!table.put(key, common::ByteSpan(value)).ok()) return 0;
    }
    return keys.size();
  };
}

TEST_P(IngestAllocTest, KeyWriteReportsTakeNoBlockBeyondIndexPublishes) {
  const common::Bytes value(20, 0x5A);  // an INT path of 5 switch ids
  const Counted counted = measure(20, keywrite_pass(keys_, value));
  ASSERT_TRUE(counted.all_ok);
  EXPECT_EQ(counted.reports, kKeys);
  EXPECT_LE(counted.allocations, counted.publishes);
}

TEST_P(IngestAllocTest, KeyIncrementReportsTakeNoBlockBeyondIndexPublishes) {
  const Counted counted = measure(4, [this](Client& client) -> std::uint64_t {
    auto counters = client.counters();
    for (const auto& key : keys_) {
      if (!counters.add(key, 3).ok()) return 0;
    }
    return keys_.size();
  });
  ASSERT_TRUE(counted.all_ok);
  EXPECT_EQ(counted.reports, kKeys);
  EXPECT_LE(counted.allocations, counted.publishes);
}

TEST_P(IngestAllocTest, PostcardReportsTakeNoBlockBeyondIndexPublishes) {
  const Counted counted = measure(4, [this](Client& client) -> std::uint64_t {
    auto postcards = client.postcards();
    for (const auto& key : keys_) {
      for (std::uint8_t hop = 0; hop < 5; ++hop) {
        if (!postcards.report(key, hop, /*path_len=*/5, hop * 7u).ok()) {
          return 0;
        }
      }
    }
    return keys_.size() * 5;
  });
  ASSERT_TRUE(counted.all_ok);
  EXPECT_EQ(counted.reports, kKeys * 5);
  EXPECT_LE(counted.allocations, counted.publishes);
}

TEST_P(IngestAllocTest, ValueOnePastInPlaceTakesExactlyOneBlock) {
  const common::Bytes value(proto::kKeyWriteInPlaceBytes + 1, 0x5A);
  const Counted counted = measure(32, keywrite_pass(keys_, value));
  ASSERT_TRUE(counted.all_ok);
  EXPECT_EQ(counted.allocations - counted.publishes, counted.reports);
}

TEST_P(IngestAllocTest, FlushTakesNoBlock) {
  Client client = Client::local(config(GetParam(), 4));
  auto counters = client.counters();
  for (const auto& key : keys_) ASSERT_TRUE(counters.add(key, 1).ok());
  ASSERT_TRUE(client.flush().ok());

  bool all_ok = true;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 16; ++i) all_ok = client.flush().ok() && all_ok;
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, IngestAllocTest,
    ::testing::Values(collector::ThreadMode::kInline,
                      collector::ThreadMode::kThreaded),
    [](const ::testing::TestParamInfo<collector::ThreadMode>& info) {
      return info.param == collector::ThreadMode::kInline ? "Inline"
                                                          : "Threaded";
    });

TEST(IngestAlloc, DecodingAnInPlaceKeyWriteValueTakesNoBlock) {
  proto::KeyWriteReport report;
  report.key = reports::u32_key(7);
  report.data.resize(proto::kKeyWriteInPlaceBytes, 0x3C);
  const common::Bytes wire =
      proto::encode_dta_payload(proto::DtaHeader{}, report);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto parsed = proto::decode_dta_payload(common::ByteSpan(wire));
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(allocations, 0u);
  const auto* decoded = std::get_if<proto::KeyWriteReport>(&parsed->report);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->data == report.data);
}

}  // namespace
}  // namespace dta
