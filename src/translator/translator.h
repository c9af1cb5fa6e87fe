// The DTA translator (paper §3, §5.2, Figure 6).
//
// The last-hop switch in front of the collector. Receives DTA reports
// (UDP port 40050), translates them with the per-primitive engines, and
// emits RoCEv2 frames toward the collector NIC. Non-DTA traffic is
// forwarded untouched (the "User Traffic / Forwarder" path of Figure 6).
//
// Pipeline paths (Figure 6): Key-Write and Key-Increment go through the
// multicast replication + CRC hashing + RoCE crafting path; Postcarding
// goes through the SRAM aggregation cache; Append goes through the
// batching registers and per-list head-pointer trackers; everything is
// subject to the RDMA rate limiter before emission. The engines are one
// EngineSet, the same set each CollectorShard translates with.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dta/wire.h"
#include "net/headers.h"
#include "net/packet.h"
#include "rdma/cm.h"
#include "translator/engine_set.h"
#include "translator/rate_limiter.h"
#include "translator/rdma_crafter.h"

namespace dta::translator {

struct TranslatorConfig {
  CrafterEndpoints endpoints;
  std::uint32_t postcard_cache_slots = 32768;  // 32K, per §5.2
  std::uint32_t append_batch_size = 16;
  RateLimiterParams rate_limiter;
  bool rate_limiting_enabled = false;  // benches enable explicitly
};

struct TranslatorStats {
  std::uint64_t frames_in = 0;
  std::uint64_t dta_reports_in = 0;
  std::uint64_t user_frames_forwarded = 0;
  std::uint64_t malformed_dropped = 0;
  std::uint64_t rdma_frames_out = 0;
  std::uint64_t rate_limited_drops = 0;
  std::uint64_t nacks_sent = 0;
};

class Translator {
 public:
  // Sinks: RoCE frames toward the collector; NACK frames back toward the
  // reporter; user traffic to the forwarding pipeline.
  using FrameSink = std::function<void(net::Packet&&)>;

  Translator(TranslatorConfig config, std::uint32_t dest_qpn,
             std::uint32_t start_psn, const rdma::ConnectAccept& accept);

  void set_rdma_sink(FrameSink sink) { rdma_sink_ = std::move(sink); }
  void set_nack_sink(FrameSink sink) { nack_sink_ = std::move(sink); }
  void set_forward_sink(FrameSink sink) { forward_sink_ = std::move(sink); }

  // Processes one inbound frame at virtual time `now`.
  void ingest(net::Packet&& frame, common::VirtualNs now);

  // Convenience for tests/benches: hand a parsed report directly to the
  // primitive engines (skips the UDP/DTA parse).
  void ingest_report(const proto::ParsedDta& parsed, common::VirtualNs now,
                     std::uint32_t reporter_ip = 0);

  // ACK/NAK feedback from the collector NIC (PSN resynchronization).
  void handle_ack(const rdma::Aeth& aeth, std::uint32_t responder_expected_psn);

  // Drains the postcard cache and append batch buffers.
  void flush(common::VirtualNs now);

  const TranslatorStats& stats() const { return stats_; }
  const EngineSet& engines() const { return engines_; }
  const RdmaCrafter& crafter() const { return crafter_; }

 private:
  void emit_ops(std::vector<RdmaOp>& ops, proto::PrimitiveOp op,
                common::VirtualNs now, std::uint32_t reporter_ip);
  void send_nack(const proto::NackReport& nack, std::uint32_t reporter_ip);

  TranslatorConfig config_;
  RdmaCrafter crafter_;
  RateLimiter rate_limiter_;
  EngineSet engines_;
  FrameSink rdma_sink_;
  FrameSink nack_sink_;
  FrameSink forward_sink_;
  TranslatorStats stats_;
};

}  // namespace dta::translator
