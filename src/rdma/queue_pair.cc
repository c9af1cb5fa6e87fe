#include "rdma/queue_pair.h"

#include <cstring>

#include "common/bytes.h"

namespace dta::rdma {

QueuePair::QueuePair(std::uint32_t qpn, ProtectionDomain* pd)
    : qpn_(qpn), pd_(pd) {}

ResponderResult QueuePair::nak(AethSyndrome syndrome) {
  ResponderResult r;
  Aeth aeth;
  aeth.syndrome = syndrome;
  aeth.msn = msn_;
  r.ack = aeth;
  if (syndrome == AethSyndrome::kPsnSeqNak) ++counters_.psn_naks;
  if (syndrome == AethSyndrome::kRemoteAccessNak) ++counters_.access_naks;
  return r;
}

ResponderResult QueuePair::process(common::ByteSpan roce_datagram) {
  ResponderResult result;
  if (state_ != QpState::kReadyToReceive) return result;

  auto view = parse_roce_datagram(roce_datagram);
  if (!view) return result;
  if (!view->icrc_ok) {
    ++counters_.icrc_drops;
    return result;  // silently dropped, like corrupt frames on real HCAs
  }
  if (view->bth.dest_qpn != qpn_) return result;

  // Strict PSN check: RC responders NAK anything that is not the expected
  // sequence number. (We treat "older" PSNs as duplicates and ACK them
  // without re-execution, matching RC duplicate handling.)
  const std::uint32_t psn = view->bth.psn;
  if (psn != expected_psn_) {
    const std::uint32_t behind = (expected_psn_ - psn) & 0xFFFFFF;
    if (behind > 0 && behind < 0x800000) {
      // Duplicate of an already-executed packet: ACK, do not execute.
      ResponderResult dup;
      Aeth aeth;
      aeth.syndrome = AethSyndrome::kAck;
      aeth.msn = msn_;
      dup.ack = aeth;
      return dup;
    }
    return nak(AethSyndrome::kPsnSeqNak);
  }

  // The verbs themselves run through the direct executors; the wire
  // adds only header presence, the RETH's DMA length and the PSN.
  switch (view->bth.opcode) {
    case Opcode::kWriteOnly:
    case Opcode::kWriteOnlyImm:
      if (!view->reth) return nak(AethSyndrome::kRemoteAccessNak);
      if (view->payload.size() != view->reth->dma_length) {
        state_ = QpState::kError;  // RC QPs error out on access violations
        return nak(AethSyndrome::kRemoteAccessNak);
      }
      result = execute_write(view->reth->virtual_addr, view->reth->rkey,
                             view->payload, view->immediate);
      break;
    case Opcode::kFetchAdd:
      if (!view->atomic) return nak(AethSyndrome::kRemoteAccessNak);
      result = execute_fetch_add(view->atomic->virtual_addr,
                                 view->atomic->rkey, view->atomic->swap_add);
      break;
    case Opcode::kSendOnly:
    case Opcode::kSendOnlyImm: {
      receive_queue_.emplace_back(view->payload.begin(), view->payload.end());
      ++counters_.sends_delivered;
      if (view->immediate) ++counters_.immediates;
      completions_.push_back(
          Completion{view->bth.opcode,
                     static_cast<std::uint32_t>(view->payload.size()),
                     view->immediate});
      ++msn_;
      result.executed = true;
      break;
    }
    default:
      return result;  // unsupported opcode: ignore
  }
  if (!result.executed) return result;

  expected_psn_ = (expected_psn_ + 1) & 0xFFFFFF;
  if (view->bth.ack_request) {
    Aeth aeth;
    aeth.syndrome = AethSyndrome::kAck;
    aeth.msn = msn_;
    result.ack = aeth;
  }
  return result;
}

ResponderResult QueuePair::execute_write(std::uint64_t va, std::uint32_t rkey,
                                         common::ByteSpan payload,
                                         std::optional<std::uint32_t> immediate) {
  ResponderResult result;
  if (state_ != QpState::kReadyToReceive) return result;
  MemoryRegion* mr = pd_->find(rkey);
  const std::size_t len = payload.size();
  if (!mr || !(mr->access() & kRemoteWrite) || !mr->contains(va, len)) {
    state_ = QpState::kError;  // RC QPs error out on access violations
    return nak(AethSyndrome::kRemoteAccessNak);
  }
  // The DMA: this is the entire collector-side cost of a DTA report.
  std::memcpy(mr->at(va), payload.data(), len);
  ++counters_.writes_executed;
  counters_.bytes_written += len;
  if (immediate) {
    ++counters_.immediates;
    completions_.push_back(Completion{Opcode::kWriteOnlyImm,
                                      static_cast<std::uint32_t>(len),
                                      immediate});
  }
  ++msn_;
  result.executed = true;
  return result;
}

ResponderResult QueuePair::execute_fetch_add(std::uint64_t va,
                                             std::uint32_t rkey,
                                             std::uint64_t add_value) {
  ResponderResult result;
  if (state_ != QpState::kReadyToReceive) return result;
  MemoryRegion* mr = pd_->find(rkey);
  if (!mr || !(mr->access() & kRemoteAtomic) || !mr->contains(va, 8) ||
      (va & 0x7) != 0) {
    state_ = QpState::kError;
    return nak(AethSyndrome::kRemoteAccessNak);
  }
  std::uint8_t* p = mr->at(va);
  const std::uint64_t original = common::load_u64(p);
  common::store_u64(p, original + add_value);
  result.atomic_original = original;
  ++counters_.atomics_executed;
  ++msn_;
  result.executed = true;
  // Atomics always return their original value in an ACK, wire or not.
  Aeth aeth;
  aeth.syndrome = AethSyndrome::kAck;
  aeth.msn = msn_;
  result.ack = aeth;
  return result;
}

std::optional<Completion> QueuePair::poll_completion() {
  if (completions_.empty()) return std::nullopt;
  Completion c = completions_.front();
  completions_.pop_front();
  return c;
}

std::optional<common::Bytes> QueuePair::poll_receive() {
  if (receive_queue_.empty()) return std::nullopt;
  common::Bytes b = std::move(receive_queue_.front());
  receive_queue_.pop_front();
  return b;
}

}  // namespace dta::rdma
