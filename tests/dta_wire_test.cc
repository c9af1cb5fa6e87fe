#include "dta/wire.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dta::proto {
namespace {

using common::ByteSpan;
using common::Bytes;

TelemetryKey key_of(std::initializer_list<std::uint8_t> bytes) {
  Bytes b(bytes);
  return TelemetryKey::from(ByteSpan(b));
}

TEST(DtaHeader, RoundTrip) {
  DtaHeader h;
  h.opcode = PrimitiveOp::kPostcard;
  h.immediate = true;
  Bytes buf;
  h.encode(buf);
  ASSERT_EQ(buf.size(), DtaHeader::kSize);
  common::Cursor cur((ByteSpan(buf)));
  auto d = DtaHeader::decode(cur);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->opcode, PrimitiveOp::kPostcard);
  EXPECT_TRUE(d->immediate);
}

TEST(DtaHeader, RejectsWrongVersion) {
  Bytes buf = {9, 1, 0, 0};
  common::Cursor cur((ByteSpan(buf)));
  EXPECT_FALSE(DtaHeader::decode(cur));
}

TEST(KeyWrite, FullRoundTrip) {
  KeyWriteReport r;
  r.key = key_of({1, 2, 3, 4, 5});
  r.redundancy = 3;
  r.data = {0xAA, 0xBB, 0xCC, 0xDD};

  const Bytes payload = encode_dta_payload(DtaHeader{}, r);
  auto parsed = decode_dta_payload(ByteSpan(payload));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->header.opcode, PrimitiveOp::kKeyWrite);
  const auto& back = std::get<KeyWriteReport>(parsed->report);
  EXPECT_EQ(back.key, r.key);
  EXPECT_EQ(back.redundancy, 3);
  EXPECT_EQ(back.data, r.data);
}

TEST(KeyWrite, RejectsZeroRedundancy) {
  KeyWriteReport r;
  r.key = key_of({1});
  r.redundancy = 0;
  const Bytes payload = encode_dta_payload(DtaHeader{}, r);
  EXPECT_FALSE(decode_dta_payload(ByteSpan(payload)));
}

TEST(KeyIncrement, FullRoundTrip) {
  KeyIncrementReport r;
  r.key = key_of({9, 9, 9, 9});
  r.redundancy = 2;
  r.counter = 123456789ull;
  const Bytes payload = encode_dta_payload(DtaHeader{}, r);
  auto parsed = decode_dta_payload(ByteSpan(payload));
  ASSERT_TRUE(parsed);
  const auto& back = std::get<KeyIncrementReport>(parsed->report);
  EXPECT_EQ(back.counter, 123456789ull);
}

TEST(Postcard, FullRoundTrip) {
  PostcardReport r;
  r.key = key_of({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13});
  r.hop = 3;
  r.path_len = 5;
  r.redundancy = 2;
  r.value = 0x00012345;
  const Bytes payload = encode_dta_payload(DtaHeader{}, r);
  auto parsed = decode_dta_payload(ByteSpan(payload));
  ASSERT_TRUE(parsed);
  const auto& back = std::get<PostcardReport>(parsed->report);
  EXPECT_EQ(back.hop, 3);
  EXPECT_EQ(back.path_len, 5);
  EXPECT_EQ(back.value, 0x00012345u);
}

TEST(Append, SingleEntryRoundTrip) {
  AppendReport r;
  r.list_id = 42;
  r.entry_size = 4;
  r.entries.push_back({1, 2, 3, 4});
  const Bytes payload = encode_dta_payload(DtaHeader{}, r);
  auto parsed = decode_dta_payload(ByteSpan(payload));
  ASSERT_TRUE(parsed);
  const auto& back = std::get<AppendReport>(parsed->report);
  EXPECT_EQ(back.list_id, 42u);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0], (Bytes{1, 2, 3, 4}));
}

TEST(Append, MultiEntryPacking) {
  AppendReport r;
  r.list_id = 7;
  r.entry_size = 18;
  for (int i = 0; i < 5; ++i) {
    r.entries.push_back(Bytes(18, static_cast<std::uint8_t>(i)));
  }
  const Bytes payload = encode_dta_payload(DtaHeader{}, r);
  auto parsed = decode_dta_payload(ByteSpan(payload));
  ASSERT_TRUE(parsed);
  const auto& back = std::get<AppendReport>(parsed->report);
  ASSERT_EQ(back.entries.size(), 5u);
  EXPECT_EQ(back.entries[4][0], 4);
}

TEST(Append, ShortEntriesZeroPadded) {
  AppendReport r;
  r.entry_size = 8;
  r.entries.push_back({0xFF});  // 1 byte, padded to 8 on the wire
  const Bytes payload = encode_dta_payload(DtaHeader{}, r);
  auto parsed = decode_dta_payload(ByteSpan(payload));
  ASSERT_TRUE(parsed);
  const auto& back = std::get<AppendReport>(parsed->report);
  ASSERT_EQ(back.entries[0].size(), 8u);
  EXPECT_EQ(back.entries[0][0], 0xFF);
  EXPECT_EQ(back.entries[0][7], 0);
}

TEST(Nack, RoundTrip) {
  NackReport r;
  r.dropped_op = PrimitiveOp::kAppend;
  r.dropped_count = 16;
  r.retry_after_us = 1500;
  const Bytes payload = encode_dta_payload(DtaHeader{}, r);
  auto parsed = decode_dta_payload(ByteSpan(payload));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->header.opcode, PrimitiveOp::kNack);
  const auto& back = std::get<NackReport>(parsed->report);
  EXPECT_EQ(back.dropped_count, 16u);
  EXPECT_EQ(back.retry_after_us, 1500u);
}

TEST(Decode, RejectsTruncatedPayloads) {
  KeyWriteReport r;
  r.key = key_of({1, 2, 3, 4, 5, 6, 7, 8});
  r.data.resize(20, 0xAB);
  Bytes payload = encode_dta_payload(DtaHeader{}, r);
  for (std::size_t cut = 1; cut < payload.size(); ++cut) {
    Bytes truncated(payload.begin(), payload.begin() + cut);
    EXPECT_FALSE(decode_dta_payload(ByteSpan(truncated))) << "cut=" << cut;
  }
}

TEST(Decode, RejectsUnknownOpcode) {
  Bytes buf = {kDtaVersion, 0x50, 0, 0, 1, 2, 3};
  EXPECT_FALSE(decode_dta_payload(ByteSpan(buf)));
}

TEST(TelemetryKey, TruncatesAt16) {
  Bytes big(32, 7);
  TelemetryKey k = TelemetryKey::from(ByteSpan(big));
  EXPECT_EQ(k.length, 16);
}

TEST(HeaderOpcode, FollowsVariantNotCaller) {
  // encode_dta_payload must fix up a mismatched header opcode.
  DtaHeader h;
  h.opcode = PrimitiveOp::kKeyWrite;
  AppendReport r;
  r.entry_size = 4;
  r.entries.push_back({1, 2, 3, 4});
  auto parsed = decode_dta_payload(ByteSpan(encode_dta_payload(h, r)));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->header.opcode, PrimitiveOp::kAppend);
}

// Property test: random reports of every primitive survive a round trip.
class WireFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzTest, RandomReportsRoundTrip) {
  common::Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    const auto kind = rng.next_below(4);
    Report report;
    switch (kind) {
      case 0: {
        KeyWriteReport r;
        Bytes kb(rng.next_below(16) + 1);
        for (auto& b : kb) b = static_cast<std::uint8_t>(rng.next_u64());
        r.key = TelemetryKey::from(ByteSpan(kb));
        r.redundancy = static_cast<std::uint8_t>(1 + rng.next_below(8));
        r.data.resize(rng.next_below(64));
        for (auto& b : r.data) b = static_cast<std::uint8_t>(rng.next_u64());
        report = r;
        break;
      }
      case 1: {
        KeyIncrementReport r;
        Bytes kb(rng.next_below(16) + 1, 3);
        r.key = TelemetryKey::from(ByteSpan(kb));
        r.redundancy = static_cast<std::uint8_t>(1 + rng.next_below(8));
        r.counter = rng.next_u64();
        report = r;
        break;
      }
      case 2: {
        PostcardReport r;
        Bytes kb(13, static_cast<std::uint8_t>(rng.next_u64()));
        r.key = TelemetryKey::from(ByteSpan(kb));
        r.hop = static_cast<std::uint8_t>(rng.next_below(8));
        r.path_len = static_cast<std::uint8_t>(rng.next_below(9));
        r.redundancy = static_cast<std::uint8_t>(1 + rng.next_below(4));
        r.value = rng.next_u32();
        report = r;
        break;
      }
      default: {
        AppendReport r;
        r.list_id = rng.next_u32();
        r.entry_size = static_cast<std::uint8_t>(1 + rng.next_below(32));
        const auto n = 1 + rng.next_below(8);
        for (std::uint64_t i = 0; i < n; ++i) {
          r.entries.push_back(
              Bytes(r.entry_size, static_cast<std::uint8_t>(i)));
        }
        report = r;
        break;
      }
    }
    const Bytes payload = encode_dta_payload(DtaHeader{}, report);
    auto parsed = decode_dta_payload(ByteSpan(payload));
    ASSERT_TRUE(parsed) << "iter " << iter << " kind " << kind;
    const Bytes re = encode_dta_payload(parsed->header, parsed->report);
    EXPECT_EQ(re, payload) << "re-encode mismatch, kind " << kind;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dta::proto
