// RoCEv2 generation at the translator.
//
// Turns primitive-engine output (RdmaOp descriptors) into complete
// Ethernet frames carrying RoCEv2 datagrams toward the collector NIC,
// tracking the queue pair's packet sequence number ("SRAM storage for
// the queue pair packet sequence numbers, and the task of crafting
// RoCEv2 headers", paper §5.2). Handles PSN resynchronization when the
// collector NAKs (queue-pair resync of §5.2).
#pragma once

#include <cstdint>
#include <optional>

#include "common/small_bytes.h"
#include "net/headers.h"
#include "net/packet.h"
#include "rdma/roce.h"

namespace dta::translator {

// A verb the primitive engines want executed on the collector. Its body
// stays in place up to 64 bytes: a Key-Write slot of a value up to 60
// bytes, a postcard chunk of up to 16 hops, a default Append batch (16
// entries of 4 bytes). A longer body takes one heap block.
struct RdmaOp {
  enum class Kind : std::uint8_t { kWrite, kFetchAdd, kSend };
  Kind kind = Kind::kWrite;
  std::uint64_t remote_va = 0;
  std::uint32_t rkey = 0;
  common::SmallBytes<64> payload;  // WRITE / SEND body
  std::uint64_t add_value = 0;     // FETCH_ADD addend
  std::optional<std::uint32_t> immediate;
};

struct CrafterEndpoints {
  net::MacAddr translator_mac{{0x02, 0, 0, 0, 0, 0x71}};
  net::MacAddr collector_mac{{0x02, 0, 0, 0, 0, 0xC0}};
  std::uint32_t translator_ip = 0x0A000071;  // 10.0.0.113
  std::uint32_t collector_ip = 0x0A0000C0;   // 10.0.0.192
  std::uint16_t src_port = 49152;            // RoCE flow label
};

class RdmaCrafter {
 public:
  RdmaCrafter(CrafterEndpoints endpoints, std::uint32_t dest_qpn,
              std::uint32_t start_psn);

  // Builds the full Ethernet frame for one op and advances the PSN.
  net::Packet craft(const RdmaOp& op);

  // Called with ACK/NAK feedback from the collector. On a PSN-sequence
  // NAK the crafter resynchronizes its next PSN to what the responder
  // expects (derived from the NAK'd MSN).
  void handle_ack(const rdma::Aeth& aeth, std::uint32_t expected_psn);

  std::uint32_t next_psn() const { return next_psn_; }
  std::uint64_t ops_crafted() const { return ops_crafted_; }
  std::uint64_t resyncs() const { return resyncs_; }

 private:
  CrafterEndpoints ep_;
  std::uint32_t dest_qpn_;
  std::uint32_t next_psn_;
  std::uint64_t ops_crafted_ = 0;
  std::uint64_t resyncs_ = 0;
};

}  // namespace dta::translator
