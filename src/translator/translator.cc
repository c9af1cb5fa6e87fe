#include "translator/translator.h"

namespace dta::translator {

Translator::Translator(TranslatorConfig config, std::uint32_t dest_qpn,
                       std::uint32_t start_psn,
                       const rdma::ConnectAccept& accept)
    : config_(config),
      crafter_(config.endpoints, dest_qpn, start_psn),
      rate_limiter_(config.rate_limiter) {
  for (const auto& [tenant, params] : config_.tenant_rate_limits) {
    rate_limiter_.set_tenant_params(tenant, params);
  }
  // Instantiate one engine per advertised memory region: the collector
  // tells the translator where each primitive's structure lives (§5.3
  // "advertise primitive-specific metadata to the translator").
  for (const auto& region : accept.regions) {
    switch (region.kind) {
      case rdma::RegionKind::kKeyWrite:
        keywrite_ = std::make_unique<KeyWriteEngine>(
            KeyWriteGeometry::from_advert(region));
        break;
      case rdma::RegionKind::kKeyIncrement:
        keyincrement_ = std::make_unique<KeyIncrementEngine>(
            KeyIncrementGeometry::from_advert(region));
        break;
      case rdma::RegionKind::kPostcarding:
        postcarding_ = std::make_unique<PostcardCache>(
            PostcardingGeometry::from_advert(region),
            config_.postcard_cache_slots);
        break;
      case rdma::RegionKind::kAppend:
        append_ = std::make_unique<AppendEngine>(
            AppendGeometry::from_advert(region), config_.append_batch_size);
        break;
    }
  }
}

void Translator::emit_ops(std::vector<RdmaOp>& ops, proto::PrimitiveOp op,
                          common::VirtualNs now, std::uint32_t reporter_ip) {
  if (ops.empty()) return;
  const TenantId tenant = config_.tenant_of_reporter
                              ? config_.tenant_of_reporter(reporter_ip)
                              : kDefaultTenant;
  const auto count = static_cast<std::uint32_t>(ops.size());
  if (config_.rate_limiting_enabled &&
      !rate_limiter_.admit(tenant, now, count)) {
    stats_.rate_limited_drops += ops.size();
    // The shed is never silent: the NACK carries the bucket's refill
    // horizon back to the reporter as a retry-after hint.
    if (auto nack = rate_limiter_.make_nack(
            tenant, op, count,
            rate_limiter_.retry_after_ns(tenant, now, count))) {
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
  const bool immediate = parsed.header.immediate;
  std::vector<RdmaOp> ops;
  proto::PrimitiveOp op = proto::PrimitiveOp::kNack;

  // Dispatch on the report variant itself: the header opcode is wire
  // metadata and may not be populated on the direct (in-process) path.
  std::visit(
      [&](const auto& report) {
        using T = std::decay_t<decltype(report)>;
        if constexpr (std::is_same_v<T, proto::KeyWriteReport>) {
          op = proto::PrimitiveOp::kKeyWrite;
          if (keywrite_) keywrite_->translate(report, immediate, ops);
        } else if constexpr (std::is_same_v<T, proto::KeyIncrementReport>) {
          op = proto::PrimitiveOp::kKeyIncrement;
          if (keyincrement_) keyincrement_->translate(report, ops);
        } else if constexpr (std::is_same_v<T, proto::PostcardReport>) {
          op = proto::PrimitiveOp::kPostcard;
          if (postcarding_) postcarding_->ingest(report, ops);
        } else if constexpr (std::is_same_v<T, proto::AppendReport>) {
          op = proto::PrimitiveOp::kAppend;
          if (append_) append_->ingest(report, immediate, ops);
        }
        // NACKs terminate at reporters, not translators.
      },
      parsed.report);

  emit_ops(ops, op, now, reporter_ip);
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
  if (postcarding_) {
    postcarding_->flush_all(ops);
    emit_ops(ops, proto::PrimitiveOp::kPostcard, now, 0);
  }
  if (append_) {
    append_->flush_all(ops);
    emit_ops(ops, proto::PrimitiveOp::kAppend, now, 0);
  }
}

}  // namespace dta::translator
