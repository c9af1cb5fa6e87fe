#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "rdma/memory_region.h"
#include "rdma/queue_pair.h"

namespace dta::rdma {
namespace {

using common::ByteSpan;
using common::Bytes;

class QpTest : public ::testing::Test {
 protected:
  QpTest() : qp_(0x20, &pd_) {
    mr_ = pd_.register_region(4096, kRemoteWrite | kRemoteAtomic);
    qp_.to_init();
    qp_.to_rtr(100);
  }

  Bytes make_write(std::uint32_t psn, std::uint64_t va, const Bytes& payload,
                   std::uint32_t qpn = 0x20) {
    Bth bth;
    bth.opcode = Opcode::kWriteOnly;
    bth.dest_qpn = qpn;
    bth.psn = psn;
    Reth reth;
    reth.virtual_addr = va;
    reth.rkey = mr_->rkey();
    reth.dma_length = static_cast<std::uint32_t>(payload.size());
    return build_roce_datagram(bth, &reth, nullptr, nullptr, nullptr,
                               ByteSpan(payload));
  }

  Bytes make_fetch_add(std::uint32_t psn, std::uint64_t va,
                       std::uint64_t add) {
    Bth bth;
    bth.opcode = Opcode::kFetchAdd;
    bth.dest_qpn = 0x20;
    bth.psn = psn;
    AtomicEth eth;
    eth.virtual_addr = va;
    eth.rkey = mr_->rkey();
    eth.swap_add = add;
    return build_roce_datagram(bth, nullptr, &eth, nullptr, nullptr, {});
  }

  ProtectionDomain pd_;
  MemoryRegion* mr_ = nullptr;
  QueuePair qp_;
};

TEST_F(QpTest, WriteLandsInMemory) {
  const Bytes payload = {0xAA, 0xBB, 0xCC, 0xDD};
  auto r = qp_.process(ByteSpan(make_write(100, mr_->base_va() + 8, payload)));
  EXPECT_TRUE(r.executed);
  EXPECT_EQ(mr_->data()[8], 0xAA);
  EXPECT_EQ(mr_->data()[11], 0xDD);
  EXPECT_EQ(qp_.counters().writes_executed, 1u);
  EXPECT_EQ(qp_.counters().bytes_written, 4u);
}

TEST_F(QpTest, SequentialPsnsExecute) {
  for (std::uint32_t i = 0; i < 10; ++i) {
    auto r = qp_.process(
        ByteSpan(make_write(100 + i, mr_->base_va(), Bytes{1})));
    EXPECT_TRUE(r.executed) << "psn " << 100 + i;
  }
  EXPECT_EQ(qp_.expected_psn(), 110u);
}

TEST_F(QpTest, OutOfOrderPsnNaks) {
  // Skip PSN 100: a future PSN must be NAK'd and not executed.
  auto r = qp_.process(ByteSpan(make_write(105, mr_->base_va(), Bytes{1})));
  EXPECT_FALSE(r.executed);
  ASSERT_TRUE(r.ack);
  EXPECT_EQ(r.ack->syndrome, AethSyndrome::kPsnSeqNak);
  EXPECT_EQ(qp_.counters().psn_naks, 1u);
  EXPECT_EQ(qp_.expected_psn(), 100u);  // unchanged
}

TEST_F(QpTest, DuplicatePsnAckedNotReExecuted) {
  qp_.process(ByteSpan(make_write(100, mr_->base_va(), Bytes{0x11})));
  // Same PSN again with different data: must be treated as duplicate.
  auto r = qp_.process(ByteSpan(make_write(100, mr_->base_va(), Bytes{0x99})));
  EXPECT_FALSE(r.executed);
  ASSERT_TRUE(r.ack);
  EXPECT_EQ(r.ack->syndrome, AethSyndrome::kAck);
  EXPECT_EQ(mr_->data()[0], 0x11);  // original data intact
}

TEST_F(QpTest, FetchAddReturnsOriginalAndAdds) {
  common::store_u64(mr_->data(), 40);
  auto r = qp_.process(ByteSpan(make_fetch_add(100, mr_->base_va(), 2)));
  EXPECT_TRUE(r.executed);
  ASSERT_TRUE(r.atomic_original);
  EXPECT_EQ(*r.atomic_original, 40u);
  EXPECT_EQ(common::load_u64(mr_->data()), 42u);
  EXPECT_EQ(qp_.counters().atomics_executed, 1u);
}

TEST_F(QpTest, FetchAddRequiresAlignment) {
  auto r = qp_.process(ByteSpan(make_fetch_add(100, mr_->base_va() + 3, 1)));
  EXPECT_FALSE(r.executed);
  ASSERT_TRUE(r.ack);
  EXPECT_EQ(r.ack->syndrome, AethSyndrome::kRemoteAccessNak);
}

TEST_F(QpTest, OutOfBoundsWriteNaksAndErrorsQp) {
  auto r = qp_.process(
      ByteSpan(make_write(100, mr_->base_va() + 4094, Bytes(8, 1))));
  EXPECT_FALSE(r.executed);
  ASSERT_TRUE(r.ack);
  EXPECT_EQ(r.ack->syndrome, AethSyndrome::kRemoteAccessNak);
  EXPECT_EQ(qp_.state(), QpState::kError);
}

TEST_F(QpTest, WrongRkeyNaks) {
  Bth bth;
  bth.opcode = Opcode::kWriteOnly;
  bth.dest_qpn = 0x20;
  bth.psn = 100;
  Reth reth;
  reth.virtual_addr = mr_->base_va();
  reth.rkey = 0xDEAD;
  reth.dma_length = 1;
  const Bytes payload = {1};
  auto r = qp_.process(ByteSpan(build_roce_datagram(
      bth, &reth, nullptr, nullptr, nullptr, ByteSpan(payload))));
  EXPECT_FALSE(r.executed);
  EXPECT_EQ(qp_.counters().access_naks, 1u);
}

TEST_F(QpTest, DmaLengthMismatchNaks) {
  Bth bth;
  bth.opcode = Opcode::kWriteOnly;
  bth.dest_qpn = 0x20;
  bth.psn = 100;
  Reth reth;
  reth.virtual_addr = mr_->base_va();
  reth.rkey = mr_->rkey();
  reth.dma_length = 16;  // but only 4 bytes of payload
  const Bytes payload = {1, 2, 3, 4};
  auto r = qp_.process(ByteSpan(build_roce_datagram(
      bth, &reth, nullptr, nullptr, nullptr, ByteSpan(payload))));
  EXPECT_FALSE(r.executed);
}

TEST_F(QpTest, CorruptIcrcSilentlyDropped) {
  Bytes dgram = make_write(100, mr_->base_va(), Bytes{5});
  dgram[dgram.size() - 1] ^= 1;
  auto r = qp_.process(ByteSpan(dgram));
  EXPECT_FALSE(r.executed);
  EXPECT_FALSE(r.ack);
  EXPECT_EQ(qp_.counters().icrc_drops, 1u);
}

TEST_F(QpTest, WrongQpnIgnored) {
  auto r = qp_.process(ByteSpan(make_write(100, mr_->base_va(), Bytes{5},
                                           /*qpn=*/0x99)));
  EXPECT_FALSE(r.executed);
  EXPECT_FALSE(r.ack);
}

TEST_F(QpTest, SendDeliversToReceiveQueue) {
  Bth bth;
  bth.opcode = Opcode::kSendOnly;
  bth.dest_qpn = 0x20;
  bth.psn = 100;
  const Bytes payload = {7, 7, 7};
  auto r = qp_.process(ByteSpan(build_roce_datagram(
      bth, nullptr, nullptr, nullptr, nullptr, ByteSpan(payload))));
  EXPECT_TRUE(r.executed);
  auto rx = qp_.poll_receive();
  ASSERT_TRUE(rx);
  EXPECT_EQ(*rx, payload);
  EXPECT_FALSE(qp_.poll_receive());
}

TEST_F(QpTest, WriteWithImmediateRaisesCompletion) {
  Bth bth;
  bth.opcode = Opcode::kWriteOnlyImm;
  bth.dest_qpn = 0x20;
  bth.psn = 100;
  Reth reth;
  reth.virtual_addr = mr_->base_va();
  reth.rkey = mr_->rkey();
  reth.dma_length = 2;
  const std::uint32_t imm = 0x77;
  const Bytes payload = {1, 2};
  qp_.process(ByteSpan(build_roce_datagram(bth, &reth, nullptr, &imm, nullptr,
                                           ByteSpan(payload))));
  auto c = qp_.poll_completion();
  ASSERT_TRUE(c);
  ASSERT_TRUE(c->immediate);
  EXPECT_EQ(*c->immediate, 0x77u);
  EXPECT_EQ(qp_.counters().immediates, 1u);
}

TEST_F(QpTest, PlainWriteRaisesNoCompletion) {
  qp_.process(ByteSpan(make_write(100, mr_->base_va(), Bytes{1})));
  EXPECT_FALSE(qp_.poll_completion());
}

TEST_F(QpTest, NotRtrIgnoresPackets) {
  QueuePair fresh(0x30, &pd_);
  auto r = fresh.process(ByteSpan(make_write(0, mr_->base_va(), Bytes{1})));
  EXPECT_FALSE(r.executed);
}

// One verb stream — WRITEs, WRITEs with immediate, FETCH_ADDs and, on
// some seeds, an out-of-bounds WRITE that errors the QP — run as frames
// on one QP and as direct calls on another, each over its own
// identically laid-out domain. The wire adds only its own checks, so
// both sides leave identical memory, counters, completions and ACK/NAK
// MSNs, and both ignore every verb after the error.
TEST(QpDifferential, WireAndDirectExecutionAgree) {
  struct Side {
    Side() : mr(pd.register_region(4096, kRemoteWrite | kRemoteAtomic)),
             qp(0x20, &pd) {
      qp.to_init();
      qp.to_rtr(100);
    }
    ProtectionDomain pd;
    MemoryRegion* mr;
    QueuePair qp;
  };
  constexpr std::uint32_t kVerbs = 96;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(common::test_seed(seed));
    Side wire;
    Side direct;
    ASSERT_EQ(wire.mr->base_va(), direct.mr->base_va());
    ASSERT_EQ(wire.mr->rkey(), direct.mr->rkey());
    const std::uint64_t base = wire.mr->base_va();
    const std::uint32_t rkey = wire.mr->rkey();
    const std::uint32_t error_at = seed % 2 == 0 ? kVerbs - 16 : kVerbs;

    for (std::uint32_t i = 0; i < kVerbs; ++i) {
      Bth bth;
      bth.dest_qpn = 0x20;
      bth.psn = 100 + i;
      const std::uint64_t kind = i == error_at ? 3 : rng.next_below(3);
      ResponderResult from_wire;
      ResponderResult from_direct;
      if (kind == 2) {
        AtomicEth eth;
        eth.virtual_addr = base + 8 * rng.next_below(4096 / 8);
        eth.rkey = rkey;
        eth.swap_add = rng.next_u64();
        bth.opcode = Opcode::kFetchAdd;
        from_wire = wire.qp.process(ByteSpan(
            build_roce_datagram(bth, nullptr, &eth, nullptr, nullptr, {})));
        from_direct = direct.qp.execute_fetch_add(eth.virtual_addr, rkey,
                                                  eth.swap_add);
      } else {
        Bytes payload(1 + rng.next_below(64));
        for (auto& byte : payload) {
          byte = static_cast<std::uint8_t>(rng.next_u32());
        }
        Reth reth;
        reth.rkey = rkey;
        reth.dma_length = static_cast<std::uint32_t>(payload.size());
        // kind 3 starts inside the region and runs past its end.
        reth.virtual_addr =
            kind == 3 ? base + 4096 - payload.size() / 2
                      : base + rng.next_below(4096 - payload.size() + 1);
        const std::uint32_t imm = rng.next_u32();
        const bool with_imm = kind == 1;
        bth.opcode = with_imm ? Opcode::kWriteOnlyImm : Opcode::kWriteOnly;
        from_wire = wire.qp.process(ByteSpan(
            build_roce_datagram(bth, &reth, nullptr, with_imm ? &imm : nullptr,
                                nullptr, ByteSpan(payload))));
        from_direct = direct.qp.execute_write(
            reth.virtual_addr, rkey, ByteSpan(payload),
            with_imm ? std::optional<std::uint32_t>(imm) : std::nullopt);
      }
      SCOPED_TRACE("verb " + std::to_string(i));
      EXPECT_EQ(from_wire.executed, from_direct.executed);
      EXPECT_EQ(from_wire.executed, i < error_at);
      EXPECT_EQ(from_wire.atomic_original, from_direct.atomic_original);
      ASSERT_EQ(from_wire.ack.has_value(), from_direct.ack.has_value());
      if (from_wire.ack) {
        EXPECT_EQ(from_wire.ack->syndrome, from_direct.ack->syndrome);
        EXPECT_EQ(from_wire.ack->msn, from_direct.ack->msn);
      }
    }

    EXPECT_EQ(std::memcmp(wire.mr->data(), direct.mr->data(), 4096), 0);
    EXPECT_EQ(wire.qp.state(), direct.qp.state());
    EXPECT_EQ(wire.qp.state(),
              error_at < kVerbs ? QpState::kError : QpState::kReadyToReceive);
    const QpCounters& a = wire.qp.counters();
    const QpCounters& b = direct.qp.counters();
    EXPECT_EQ(a.writes_executed, b.writes_executed);
    EXPECT_EQ(a.atomics_executed, b.atomics_executed);
    EXPECT_EQ(a.sends_delivered, b.sends_delivered);
    EXPECT_EQ(a.bytes_written, b.bytes_written);
    EXPECT_EQ(a.psn_naks, b.psn_naks);
    EXPECT_EQ(a.access_naks, b.access_naks);
    EXPECT_EQ(a.icrc_drops, b.icrc_drops);
    EXPECT_EQ(a.immediates, b.immediates);
    EXPECT_GT(a.immediates, 0u);
    EXPECT_GT(a.atomics_executed, 0u);
    while (true) {
      const auto from_wire = wire.qp.poll_completion();
      const auto from_direct = direct.qp.poll_completion();
      ASSERT_EQ(from_wire.has_value(), from_direct.has_value());
      if (!from_wire) break;
      EXPECT_EQ(from_wire->opcode, from_direct->opcode);
      EXPECT_EQ(from_wire->byte_len, from_direct->byte_len);
      EXPECT_EQ(from_wire->immediate, from_direct->immediate);
    }
  }
}

TEST(ProtectionDomain, RegionsDoNotAlias) {
  ProtectionDomain pd;
  MemoryRegion* a = pd.register_region(1000, kRemoteWrite);
  MemoryRegion* b = pd.register_region(1000, kRemoteWrite);
  EXPECT_NE(a->rkey(), b->rkey());
  EXPECT_GE(b->base_va(), a->base_va() + 1000);
  EXPECT_TRUE(a->contains(a->base_va(), 1000));
  EXPECT_FALSE(a->contains(a->base_va() + 999, 2));
  EXPECT_EQ(pd.find(a->rkey()), a);
  EXPECT_EQ(pd.find(0xFFFF), nullptr);
}

TEST(MemoryRegion, OverflowGuard) {
  ProtectionDomain pd;
  MemoryRegion* mr = pd.register_region(64, kRemoteWrite);
  EXPECT_FALSE(mr->contains(~0ull - 4, 16));
}

}  // namespace
}  // namespace dta::rdma
