#include "common/crc.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

namespace dta::common {
namespace {

ByteSpan span_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32, KnownVectorIeee) {
  // The canonical check value: CRC-32("123456789") = 0xCBF43926.
  Crc32 crc(kChecksumPoly);
  EXPECT_EQ(crc.compute(span_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, KnownVectorCastagnoli) {
  // CRC-32C("123456789") = 0xE3069283.
  Crc32 crc(kValuePoly);
  EXPECT_EQ(crc.compute(span_of("123456789")), 0xE3069283u);
}

TEST(Crc32, EmptyInputIsZero) {
  Crc32 crc(kChecksumPoly);
  EXPECT_EQ(crc.compute({}), 0u);  // init ^ xor_out with no data
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Crc32 crc(kChecksumPoly);
  const std::string msg = "direct telemetry access";
  std::uint32_t state = crc.begin();
  state = crc.update(state, span_of(msg.substr(0, 7)));
  state = crc.update(state, span_of(msg.substr(7)));
  EXPECT_EQ(crc.finish(state), crc.compute(span_of(msg)));
}

TEST(Crc32, DifferentPolynomialsDiffer) {
  const std::string msg = "flow-key-0001";
  std::set<std::uint32_t> hashes;
  for (unsigned i = 0; i < kSlotPolys.size(); ++i) {
    hashes.insert(slot_crc(i).compute(span_of(msg)));
  }
  // All 8 slot hash functions must produce distinct values for a
  // representative key (they act as independent hash functions).
  EXPECT_EQ(hashes.size(), kSlotPolys.size());
}

TEST(Crc32, HopChecksumsIndependent) {
  const std::string key = "some-5-tuple!";
  std::set<std::uint32_t> hashes;
  for (unsigned hop = 0; hop < 8; ++hop) {
    hashes.insert(hop_crc(hop).compute(span_of(key)));
  }
  EXPECT_EQ(hashes.size(), 8u);
}

TEST(Crc32, SingleBitChangesHash) {
  Crc32 crc(kChecksumPoly);
  Bytes a(16, 0);
  Bytes b = a;
  b[7] ^= 0x01;
  EXPECT_NE(crc.compute(ByteSpan(a)), crc.compute(ByteSpan(b)));
}

TEST(Crc32, SlotHashesLookUniform) {
  // Bucket 10K sequential keys into 16 buckets per hash function and
  // check no bucket deviates more than 30% from the mean — a coarse
  // uniformity guard for the slot-index functions.
  constexpr int kKeys = 10000;
  constexpr int kBuckets = 16;
  for (unsigned fn = 0; fn < 4; ++fn) {
    int counts[kBuckets] = {};
    for (int i = 0; i < kKeys; ++i) {
      Bytes key;
      put_u32(key, static_cast<std::uint32_t>(i));
      counts[slot_crc(fn).compute(ByteSpan(key)) % kBuckets]++;
    }
    for (int c : counts) {
      EXPECT_GT(c, kKeys / kBuckets * 0.7) << "hash fn " << fn;
      EXPECT_LT(c, kKeys / kBuckets * 1.3) << "hash fn " << fn;
    }
  }
}

TEST(Crc32, SharedEnginesAreStable) {
  Bytes key = {1, 2, 3};
  const std::uint32_t first = checksum_crc().compute(ByteSpan(key));
  EXPECT_EQ(checksum_crc().compute(ByteSpan(key)), first);
}

// -- Equivalence fuzzing: the slice-by-8 and hardware fast paths must be
// byte-identical to the byte-at-a-time reference for every catalogue
// polynomial, across random lengths, alignments and split points. ------

std::vector<const Crc32*> catalogue_engines() {
  std::vector<const Crc32*> engines = {&checksum_crc(), &value_crc(),
                                       &shard_crc()};
  for (unsigned i = 0; i < kSlotPolys.size(); ++i) engines.push_back(&slot_crc(i));
  for (unsigned i = 0; i < kHopPolys.size(); ++i) engines.push_back(&hop_crc(i));
  return engines;
}

std::uint32_t reference_compute(const Crc32& crc, ByteSpan data) {
  return crc.finish(crc.update_bytewise(crc.begin(), data));
}

TEST(Crc32, SlicedAndHwMatchReferenceFuzz) {
  std::mt19937 rng(0xDA7A0701u);
  // A shared pool bigger than any message, so sub-spans at random
  // offsets exercise every alignment of the 8-byte folding loop.
  Bytes pool(8192);
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng());
  const auto engines = catalogue_engines();
  std::uniform_int_distribution<std::size_t> len_dist(0, 1500);
  std::uniform_int_distribution<std::size_t> off_dist(0, 63);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t len = len_dist(rng);
    const std::size_t off = off_dist(rng);
    const ByteSpan msg(pool.data() + off, len);
    const auto& crc = *engines[iter % engines.size()];
    EXPECT_EQ(crc.compute(msg), reference_compute(crc, msg))
        << "poly=0x" << std::hex << crc.polynomial() << " len=" << std::dec
        << len << " off=" << off;
  }
}

TEST(Crc32, IncrementalSplitPointsMatchFuzz) {
  std::mt19937 rng(0xDA7A0702u);
  Bytes pool(4096);
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng());
  const auto engines = catalogue_engines();
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len = rng() % 1024;
    const ByteSpan msg(pool.data() + (rng() % 16), len);
    const auto& crc = *engines[iter % engines.size()];
    // Feed the message through update() in random-sized chunks: every
    // split point must land on the same digest as one-shot compute().
    std::uint32_t state = crc.begin();
    std::size_t pos = 0;
    while (pos < len) {
      const std::size_t chunk = std::min<std::size_t>(1 + rng() % 33, len - pos);
      state = crc.update(state, msg.subspan(pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(crc.finish(state), crc.compute(msg))
        << "poly=0x" << std::hex << crc.polynomial();
  }
}

TEST(Crc32, HardwareDispatchOnlyForValuePoly) {
  EXPECT_FALSE(checksum_crc().hardware_accelerated());
  EXPECT_FALSE(shard_crc().hardware_accelerated());
#if defined(DTA_DISABLE_HW_CRC)
  EXPECT_FALSE(value_crc().hardware_accelerated());
  EXPECT_FALSE(cpu_has_hw_crc32c());
#else
  EXPECT_EQ(value_crc().hardware_accelerated(), cpu_has_hw_crc32c());
#endif
}

TEST(Crc32, MultiEngineMatchesPerEngine) {
  std::mt19937 rng(0xDA7A0704u);
  Bytes pool(4096);
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng());
  const auto engines = catalogue_engines();
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t count = 1 + rng() % engines.size();
    const ByteSpan msg(pool.data() + rng() % 32, rng() % 512);
    std::vector<std::uint32_t> multi(count, 0);
    Crc32::compute_multi(engines.data(), count, msg, multi.data());
    for (std::size_t e = 0; e < count; ++e) {
      ASSERT_EQ(multi[e], engines[e]->compute(msg));
    }
  }
}

#if GTEST_HAS_DEATH_TEST
TEST(Crc32DeathTest, OutOfRangeReplicaAborts) {
  // The `< 8` contract is enforced, not silently wrapped: index 8 must
  // not alias engine 0.
  EXPECT_DEATH(slot_crc(8), "range|contract");
  EXPECT_DEATH(hop_crc(9), "range|contract");
}
#endif

}  // namespace
}  // namespace dta::common
