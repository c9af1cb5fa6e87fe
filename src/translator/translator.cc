#include "translator/translator.h"

namespace dta::translator {

Translator::Translator(TranslatorConfig config, std::uint32_t dest_qpn,
                       std::uint32_t start_psn,
                       const rdma::ConnectAccept& accept)
    : config_(config),
      crafter_(config.endpoints, dest_qpn, start_psn),
      rate_limiter_(config.rate_limiter),
      // The collector tells the translator where each primitive's
      // structure lives (§5.3 "advertise primitive-specific metadata to
      // the translator").
      engines_(accept, config.postcard_cache_slots, config.append_batch_size) {}

void Translator::emit_ops(std::vector<RdmaOp>& ops, proto::PrimitiveOp op,
                          common::VirtualNs now, std::uint32_t reporter_ip) {
  if (ops.empty()) return;
  const auto count = static_cast<std::uint32_t>(ops.size());
  if (config_.rate_limiting_enabled && !rate_limiter_.admit(now, count)) {
    stats_.rate_limited_drops += ops.size();
    // The shed is never silent: the NACK carries the bucket's refill
    // horizon back to the reporter as a retry-after hint.
    if (auto nack = rate_limiter_.make_nack(
            op, count, rate_limiter_.retry_after_ns(now, count))) {
      send_nack(*nack, reporter_ip);
    }
    ops.clear();
    return;
  }
  for (auto& rdma_op : ops) {
    net::Packet frame = crafter_.craft(rdma_op);
    frame.arrival_ns = now;
    ++stats_.rdma_frames_out;
    if (rdma_sink_) rdma_sink_(std::move(frame));
  }
  ops.clear();
}

void Translator::send_nack(const proto::NackReport& nack,
                           std::uint32_t reporter_ip) {
  ++stats_.nacks_sent;
  if (!nack_sink_) return;
  proto::DtaHeader hdr;
  hdr.opcode = proto::PrimitiveOp::kNack;
  const common::Bytes payload = proto::encode_dta_payload(hdr, nack);
  net::Packet frame(net::build_udp_frame(
      config_.endpoints.collector_mac /* back out the ingress port */,
      config_.endpoints.translator_mac, config_.endpoints.translator_ip,
      reporter_ip, net::kDtaUdpPort, net::kDtaUdpPort,
      common::ByteSpan(payload)));
  nack_sink_(std::move(frame));
}

void Translator::ingest_report(const proto::ParsedDta& parsed,
                               common::VirtualNs now,
                               std::uint32_t reporter_ip) {
  ++stats_.dta_reports_in;
  std::vector<RdmaOp> ops;
  const EngineSet::Translated translated = engines_.translate(parsed, ops);
  emit_ops(ops, translated.op, now, reporter_ip);
}

void Translator::ingest(net::Packet&& frame, common::VirtualNs now) {
  ++stats_.frames_in;

  auto udp = net::parse_udp_frame(frame.span());
  if (!udp || udp->udp.dst_port != net::kDtaUdpPort) {
    // Not DTA: regular user traffic, forward unchanged ("Forwarder").
    ++stats_.user_frames_forwarded;
    if (forward_sink_) forward_sink_(std::move(frame));
    return;
  }

  const common::ByteSpan payload =
      frame.span().subspan(udp->payload_offset, udp->payload_length);
  auto parsed = proto::decode_dta_payload(payload);
  if (!parsed) {
    ++stats_.malformed_dropped;
    return;
  }
  ingest_report(*parsed, now, udp->ip.src_ip);
}

void Translator::handle_ack(const rdma::Aeth& aeth,
                            std::uint32_t responder_expected_psn) {
  crafter_.handle_ack(aeth, responder_expected_psn);
}

void Translator::flush(common::VirtualNs now) {
  std::vector<RdmaOp> ops;
  engines_.flush_postcards(ops);
  emit_ops(ops, proto::PrimitiveOp::kPostcard, now, 0);
  engines_.flush_appends(ops);
  emit_ops(ops, proto::PrimitiveOp::kAppend, now, 0);
}

}  // namespace dta::translator
