#include "dtalib/fabric.h"

namespace dta {

Fabric::Fabric(FabricConfig config)
    : config_(std::move(config)), service_(config_.nic) {
  if (config_.keywrite) service_.enable_keywrite(*config_.keywrite);
  if (config_.postcarding) service_.enable_postcarding(*config_.postcarding);
  if (config_.append) service_.enable_append(*config_.append);
  if (config_.keyincrement) {
    service_.enable_keyincrement(*config_.keyincrement);
  }

  // CM handshake: the translator's control plane connects to the
  // collector service and learns the region layout.
  rdma::ConnectRequest request;
  request.requester_qpn = 0x70;
  request.start_psn = 0x1000;
  const rdma::ConnectAccept accept = service_.accept(request);

  translator_ = std::make_unique<translator::Translator>(
      config_.translator, accept.responder_qpn, accept.start_psn, accept);

  // Links.
  reporter_link_ = std::make_unique<net::Link>(config_.reporter_link);
  rdma_link_ = std::make_unique<net::Link>(config_.rdma_link);

  // Wire: reporter link delivers into the translator...
  reporter_link_->set_sink([this](net::Packet&& pkt) {
    translator_->ingest(std::move(pkt), pkt.arrival_ns);
  });
  // ...the translator's RoCE frames ride the RDMA link...
  translator_->set_rdma_sink([this](net::Packet&& pkt) {
    rdma_link_->transmit(std::move(pkt), clock_.now());
  });
  // ...which delivers into the collector NIC. (The fabric clock is NOT
  // ratcheted to the arrival time: propagation delay is pipelined
  // latency, not occupancy, and must not gate the send rate.) ACK/NAK
  // feedback resynchronizes the translator's PSN tracker.
  rdma_link_->set_sink([this](net::Packet&& pkt) {
    const auto outcome = service_.nic().ingest(pkt);
    if (outcome && outcome->responder.ack) {
      translator_->handle_ack(*outcome->responder.ack,
                              service_.qp()->expected_psn());
    }
  });
  // Congestion NACKs route back to the reporter they were addressed to,
  // where they surface as typed backpressure (take_backpressure()).
  // Previously the sink was left unwired and sheds were silent.
  translator_->set_nack_sink([this](net::Packet&& pkt) {
    auto udp = net::parse_udp_frame(pkt.span());
    if (!udp) return;
    auto parsed = proto::decode_dta_payload(
        pkt.span().subspan(udp->payload_offset, udp->payload_length));
    if (!parsed) return;
    const auto* nack = std::get_if<proto::NackReport>(&parsed->report);
    if (!nack) return;
    const std::uint32_t idx = udp->ip.dst_ip - 0x0A000001;
    if (idx < reporters_.size()) reporters_[idx]->handle_nack(*nack);
  });

  for (std::uint32_t i = 0; i < config_.num_reporters; ++i) {
    reporter::ReporterConfig rc;
    rc.ip = 0x0A000001 + i;
    rc.src_port = static_cast<std::uint16_t>(51000 + i);
    reporters_.push_back(std::make_unique<reporter::Reporter>(rc));
  }
}

Fabric::~Fabric() = default;

void Fabric::report(const proto::Report& report, std::uint32_t reporter_idx,
                    bool immediate) {
  net::Packet frame = reporters_[reporter_idx]->make_frame(report, immediate);
  reporter_link_->transmit(std::move(frame), clock_.now());
  // The next report cannot start serializing before this one left the
  // reporter's wire: advance the clock to the link's busy horizon (its
  // serializer only — propagation is pipelined).
  clock_.advance_to(reporter_link_->busy_until());
}

void Fabric::report_direct(const proto::ParsedDta& parsed) {
  translator_->ingest_report(parsed, clock_.now());
}

void Fabric::flush() { translator_->flush(clock_.now()); }

std::optional<rdma::Completion> Fabric::poll_event() {
  return service_.qp()->poll_completion();
}

std::uint64_t Fabric::verbs_executed() const {
  const rdma::QpCounters& qp = service_.qp()->counters();
  return qp.writes_executed + qp.atomics_executed + qp.sends_delivered;
}

double Fabric::modeled_verbs_per_sec() const {
  // One message slot per datagram the RDMA link delivered.
  const rdma::Nic& nic = service_.nic();
  return nic.modeled_verbs_per_sec(nic.counters().datagrams_in);
}

}  // namespace dta
