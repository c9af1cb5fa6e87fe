// Reliable-Connection queue pair (responder side).
//
// Models the parts of RC semantics that shape DTA's design:
//   * strict PSN sequencing — RDMA "imposes the assumption that every
//     packet received at the collector has a strictly sequential ID"
//     (paper §3): an out-of-order PSN triggers a NAK and the packet is
//     dropped, which is exactly why many switches cannot share one QP
//     and why the translator tracks PSNs centrally;
//   * RDMA WRITE execution into registered memory (rkey + VA bounds
//     checks, Remote Access NAK on violation);
//   * FETCH_ADD atomics (64-bit, per the IBTA spec);
//   * SEND delivery into a receive queue (used by the collector service
//     to advertise primitive metadata to the translator);
//   * immediate data raising a completion event (DTA's `immediate` flag).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "rdma/memory_region.h"
#include "rdma/roce.h"

namespace dta::rdma {

enum class QpState : std::uint8_t { kReset, kInit, kReadyToReceive, kError };

struct QpCounters {
  std::uint64_t writes_executed = 0;
  std::uint64_t atomics_executed = 0;
  std::uint64_t sends_delivered = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t psn_naks = 0;
  std::uint64_t access_naks = 0;
  std::uint64_t icrc_drops = 0;
  std::uint64_t immediates = 0;
};

struct Completion {
  Opcode opcode;
  std::uint32_t byte_len = 0;
  std::optional<std::uint32_t> immediate;
};

// Result of processing one inbound packet on the responder.
struct ResponderResult {
  bool executed = false;
  std::optional<Aeth> ack;          // ACK or NAK to send back (if requested)
  std::optional<std::uint64_t> atomic_original;  // FETCH_ADD return value
};

class QueuePair {
 public:
  QueuePair(std::uint32_t qpn, ProtectionDomain* pd);

  std::uint32_t qpn() const { return qpn_; }
  QpState state() const { return state_; }

  // Transitions modeled after the ibv_modify_qp ladder.
  void to_init() { state_ = QpState::kInit; }
  void to_rtr(std::uint32_t start_psn) {
    expected_psn_ = start_psn & 0xFFFFFF;
    state_ = QpState::kReadyToReceive;
  }

  // Responder path: parse one RoCE datagram and apply the wire's own
  // checks (ICRC, QPN, PSN sequencing, RETH/AtomicETH presence, the
  // RETH's DMA length, the ACK request), then execute it: WRITE and
  // FETCH_ADD through execute_write / execute_fetch_add below.
  ResponderResult process(common::ByteSpan roce_datagram);

  // Direct-execution path ("doorbell" fast path): one verb's rkey,
  // access and bounds checks, memory effect, counters, completion and
  // MSN — the executor process() itself runs — with no frame to parse,
  // no ICRC and no PSN. Used by the in-process collector shard, whose
  // translator and responder share an address space, so serializing
  // each verb through a crafted RoCE frame only to re-parse it is pure
  // overhead. PSN state is untouched, so direct verbs never disturb the
  // PSN stream of frames that arrive on the wire.
  ResponderResult execute_write(std::uint64_t va, std::uint32_t rkey,
                                common::ByteSpan payload,
                                std::optional<std::uint32_t> immediate);
  ResponderResult execute_fetch_add(std::uint64_t va, std::uint32_t rkey,
                                    std::uint64_t add_value);

  // Completion queue for SENDs / immediates (polled by the collector CPU).
  std::optional<Completion> poll_completion();
  std::size_t pending_completions() const { return completions_.size(); }

  // Receive-queue payload bytes for SENDs (metadata advertisement).
  std::optional<common::Bytes> poll_receive();

  const QpCounters& counters() const { return counters_; }
  std::uint32_t expected_psn() const { return expected_psn_; }

 private:
  ResponderResult nak(AethSyndrome syndrome);

  std::uint32_t qpn_;
  ProtectionDomain* pd_;
  QpState state_ = QpState::kReset;
  std::uint32_t expected_psn_ = 0;
  std::uint32_t msn_ = 0;
  QpCounters counters_;
  std::deque<Completion> completions_;
  std::deque<common::Bytes> receive_queue_;
};

}  // namespace dta::rdma
