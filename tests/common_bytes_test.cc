#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/small_bytes.h"

namespace dta::common {
namespace {

TEST(Bytes, PutReadRoundTripU16) {
  Bytes b;
  put_u16(b, 0xBEEF);
  ASSERT_EQ(b.size(), 2u);
  Cursor cur((ByteSpan(b)));
  EXPECT_EQ(cur.u16(), 0xBEEF);
  EXPECT_TRUE(cur.ok());
}

TEST(Bytes, PutReadRoundTripU32) {
  Bytes b;
  put_u32(b, 0xDEADBEEF);
  Cursor cur((ByteSpan(b)));
  EXPECT_EQ(cur.u32(), 0xDEADBEEFu);
}

TEST(Bytes, PutReadRoundTripU64) {
  Bytes b;
  put_u64(b, 0x0123456789ABCDEFull);
  Cursor cur((ByteSpan(b)));
  EXPECT_EQ(cur.u64(), 0x0123456789ABCDEFull);
}

TEST(Bytes, BigEndianLayout) {
  Bytes b;
  put_u32(b, 0x01020304);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[1], 0x02);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x04);
}

TEST(Bytes, CursorOverrunSetsNotOk) {
  Bytes b = {1, 2};
  Cursor cur((ByteSpan(b)));
  cur.u32();  // needs 4 bytes, only 2 available
  EXPECT_FALSE(cur.ok());
}

TEST(Bytes, CursorOverrunReturnsZero) {
  Bytes b = {0xFF};
  Cursor cur((ByteSpan(b)));
  EXPECT_EQ(cur.u16(), 0u);
}

TEST(Bytes, CursorStaysNotOkAfterOverrun) {
  Bytes b = {1};
  Cursor cur((ByteSpan(b)));
  cur.u32();
  EXPECT_FALSE(cur.ok());
  // Even a fitting read must not resurrect the cursor.
  EXPECT_EQ(cur.u8(), 0u);
  EXPECT_FALSE(cur.ok());
}

TEST(Bytes, CursorBytesSubspan) {
  Bytes b = {1, 2, 3, 4, 5};
  Cursor cur((ByteSpan(b)));
  cur.skip(1);
  ByteSpan s = cur.bytes(3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(cur.remaining(), 1u);
}

TEST(Bytes, InPlaceU32RoundTrip) {
  std::uint8_t buf[4];
  store_u32(buf, 0xCAFEBABE);
  EXPECT_EQ(load_u32(buf), 0xCAFEBABEu);
}

TEST(Bytes, InPlaceU64RoundTrip) {
  std::uint8_t buf[8];
  store_u64(buf, 0x1122334455667788ull);
  EXPECT_EQ(load_u64(buf), 0x1122334455667788ull);
}

TEST(Bytes, ToHex) {
  Bytes b = {0x00, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(ByteSpan(b)), "00abff");
}

TEST(Bytes, PutBytesAppends) {
  Bytes a = {1, 2};
  Bytes b = {3, 4};
  put_bytes(a, ByteSpan(b));
  EXPECT_EQ(a, (Bytes{1, 2, 3, 4}));
}

// --------------------------------------------------------- SmallBytes

// The instantiation Key-Write reports carry.
using Small = SmallBytes<24>;
constexpr std::size_t kN = Small::kInPlace;

// Bytes 1, 2, ..., n (mod 256).
Bytes pattern(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i + 1);
  return out;
}

Small small_of(std::size_t n) {
  const Bytes bytes = pattern(n);
  Small out;
  out.assign(bytes.begin(), bytes.end());
  return out;
}

Bytes bytes_of(const Small& s) { return Bytes(s.begin(), s.end()); }

// Whether the contents sit inside the object rather than in a block.
bool in_place(const Small& s) {
  const auto* self = reinterpret_cast<const std::uint8_t*>(&s);
  return s.data() >= self && s.data() < self + sizeof s;
}

TEST(SmallBytes, LengthsAcrossTheInPlaceBoundary) {
  // 0, N, N+1 and one past the wire's 255-byte value length, each built
  // four ways: assign, byte by byte, resize with a fill, and appends.
  for (const std::size_t n : {std::size_t{0}, kN, kN + 1, std::size_t{256}}) {
    SCOPED_TRACE(::testing::Message() << "length " << n);
    const Bytes want = pattern(n);

    const Small assigned = small_of(n);
    Small pushed;
    for (std::uint8_t b : want) pushed.push_back(b);
    Small filled;
    filled.resize(n, 0x5A);
    Small appended;
    appended.insert(appended.end(), want.begin(), want.begin() + n / 2);
    appended.insert(appended.end(), want.begin() + n / 2, want.end());

    for (const Small* s : {&assigned, &std::as_const(pushed),
                           &std::as_const(appended)}) {
      EXPECT_EQ(s->size(), n);
      EXPECT_EQ(s->empty(), n == 0);
      EXPECT_EQ(bytes_of(*s), want);
      EXPECT_EQ(in_place(*s), n <= kN);
      EXPECT_GE(s->capacity(), n);
    }
    EXPECT_EQ(bytes_of(filled), Bytes(n, 0x5A));
    EXPECT_EQ(in_place(filled), n <= kN);
    if (n > 0) {
      EXPECT_EQ(assigned[n - 1], want[n - 1]);
      EXPECT_EQ(ByteSpan(assigned).back(), want[n - 1]);
    }
  }
}

TEST(SmallBytes, ShrinkingBackFitsInPlaceAndKeepsThePrefix) {
  Small s = small_of(256);
  ASSERT_FALSE(in_place(s));
  s.resize(kN + 1);
  EXPECT_FALSE(in_place(s));
  EXPECT_EQ(bytes_of(s), pattern(kN + 1));
  s.resize(kN);
  EXPECT_TRUE(in_place(s));
  EXPECT_EQ(bytes_of(s), pattern(kN));
  // Growing again zero-fills past the kept bytes.
  s.resize(kN + 3);
  Bytes want = pattern(kN);
  want.resize(kN + 3, 0);
  EXPECT_EQ(bytes_of(s), want);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(in_place(s));
}

TEST(SmallBytes, CopyMoveAndAssignAcrossForms) {
  // Every pair of in-place and heap forms, as source and destination.
  const std::size_t lengths[] = {0, 3, kN, kN + 1, 256};
  for (const std::size_t from : lengths) {
    for (const std::size_t to : lengths) {
      SCOPED_TRACE(::testing::Message() << from << " -> " << to);
      const Bytes want = pattern(from);

      const Small source = small_of(from);
      const Small copied(source);
      EXPECT_EQ(bytes_of(copied), want);
      EXPECT_EQ(bytes_of(source), want);
      EXPECT_EQ(in_place(copied), from <= kN);

      Small moving = small_of(from);
      const Small moved(std::move(moving));
      EXPECT_EQ(bytes_of(moved), want);
      EXPECT_TRUE(moving.empty());  // NOLINT(bugprone-use-after-move)

      Small copy_assigned = small_of(to);
      copy_assigned = source;
      EXPECT_EQ(bytes_of(copy_assigned), want);
      EXPECT_EQ(in_place(copy_assigned), from <= kN);

      Small move_assigned = small_of(to);
      Small donor = small_of(from);
      move_assigned = std::move(donor);
      EXPECT_EQ(bytes_of(move_assigned), want);
      EXPECT_TRUE(donor.empty());  // NOLINT(bugprone-use-after-move)
      // A moved-from string is usable again.
      donor.push_back(7);
      EXPECT_EQ(bytes_of(donor), Bytes{7});
    }
  }
}

TEST(SmallBytes, SelfAssignmentKeepsTheContents) {
  for (const std::size_t n : {std::size_t{5}, std::size_t{256}}) {
    Small s = small_of(n);
    Small& alias = s;
    s = alias;
    EXPECT_EQ(bytes_of(s), pattern(n));
    s = std::move(alias);
    EXPECT_EQ(bytes_of(s), pattern(n));
  }
}

TEST(SmallBytes, EqualityAcrossForms) {
  const Small inline_n = small_of(kN);
  Small heap_n1 = small_of(kN + 1);
  EXPECT_FALSE(inline_n == heap_n1);  // same prefix, one byte longer
  EXPECT_FALSE(heap_n1 == inline_n);
  // The heap string cut back to N bytes equals the in-place one.
  heap_n1.resize(kN);
  EXPECT_TRUE(heap_n1 == inline_n);
  // Two heap strings, built differently.
  Small grown;
  for (std::uint8_t b : pattern(256)) grown.push_back(b);
  EXPECT_TRUE(grown == small_of(256));
  grown[255] ^= 1;
  EXPECT_FALSE(grown == small_of(256));
  EXPECT_TRUE(Small{} == small_of(0));
  EXPECT_TRUE((Small{1, 2, 3}) == small_of(3));
}

TEST(SmallBytes, BigEndianWritersAndSpans) {
  Small s;
  put_u32(s, 0xDEADBEEF);
  put_u64(s, 0x0123456789ABCDEFull);
  ASSERT_EQ(s.size(), 12u);
  Cursor cur((ByteSpan(s)));
  EXPECT_EQ(cur.u32(), 0xDEADBEEFu);
  EXPECT_EQ(cur.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(cur.ok());
}

TEST(SmallBytes, LengthBeyondTheSizeFieldThrows) {
  Small s = small_of(3);
  EXPECT_THROW(s.resize(Small::max_size() + 1), std::length_error);
  EXPECT_EQ(bytes_of(s), pattern(3));
}

}  // namespace
}  // namespace dta::common
