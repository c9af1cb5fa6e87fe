#include "rdma/nic.h"

#include <algorithm>

namespace dta::rdma {

Nic::Nic(NicParams params)
    : params_(params), message_unit_(params.base_message_rate) {}

QueuePair* Nic::create_qp() {
  auto qp = std::make_unique<QueuePair>(next_qpn_++, &pd_);
  QueuePair* raw = qp.get();
  qps_[raw->qpn()] = std::move(qp);
  return raw;
}

QueuePair* Nic::find_qp(std::uint32_t qpn) {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}

double Nic::effective_message_rate() const {
  const auto n = static_cast<std::uint32_t>(qps_.size());
  if (n <= params_.qp_cache_size) return params_.base_message_rate;
  if (n >= params_.qp_saturation) {
    return params_.base_message_rate / params_.max_qp_slowdown;
  }
  // Linear interpolation of the slowdown factor between cache size and
  // saturation, matching the shape reported by Kalia et al.
  const double span = static_cast<double>(params_.qp_saturation -
                                          params_.qp_cache_size);
  const double frac = static_cast<double>(n - params_.qp_cache_size) / span;
  const double slowdown = 1.0 + frac * (params_.max_qp_slowdown - 1.0);
  return params_.base_message_rate / slowdown;
}

// Defined before its callers in this file, so the direct doorbells
// inline it.
Nic::Outcome Nic::account(const QueuePair& qp, common::VirtualNs arrival_ns,
                          const ResponderResult& responder) {
  // Message-rate accounting: one slot per verb, slowed by QP pressure.
  const double rate = effective_message_rate();
  const auto cost = static_cast<common::VirtualNs>(1e9 / std::max(rate, 1.0));
  Outcome out;
  out.completed_at = message_unit_.schedule(arrival_ns, cost);
  out.qpn = qp.qpn();
  out.responder = responder;
  if (responder.ack) {
    if (responder.ack->syndrome == AethSyndrome::kAck) {
      ++counters_.acks_emitted;
    } else {
      ++counters_.naks_emitted;
    }
  }
  return out;
}

std::optional<Nic::Outcome> Nic::ingest(const net::Packet& frame) {
  ++counters_.datagrams_in;

  auto udp = net::parse_udp_frame(frame.span());
  if (!udp || udp->udp.dst_port != net::kRoceUdpPort) {
    ++counters_.datagrams_dropped;
    return std::nullopt;
  }
  const common::ByteSpan datagram =
      frame.span().subspan(udp->payload_offset, udp->payload_length);

  // Peek the BTH to route to the right QP.
  common::Cursor cur(datagram);
  auto bth = Bth::decode(cur);
  if (!bth) {
    ++counters_.datagrams_dropped;
    return std::nullopt;
  }
  QueuePair* qp = find_qp(bth->dest_qpn);
  if (!qp) {
    ++counters_.datagrams_dropped;
    return std::nullopt;
  }

  return account(*qp, frame.arrival_ns, qp->process(datagram));
}

Nic::Outcome Nic::execute_write(QueuePair& qp, std::uint64_t va,
                                std::uint32_t rkey, common::ByteSpan payload,
                                std::optional<std::uint32_t> immediate,
                                common::VirtualNs arrival_ns) {
  return account(qp, arrival_ns,
                 qp.execute_write(va, rkey, payload, immediate));
}

Nic::Outcome Nic::execute_fetch_add(QueuePair& qp, std::uint64_t va,
                                    std::uint32_t rkey,
                                    std::uint64_t add_value,
                                    common::VirtualNs arrival_ns) {
  return account(qp, arrival_ns, qp.execute_fetch_add(va, rkey, add_value));
}

double Nic::modeled_verbs_per_sec(std::uint64_t verbs) const {
  const common::VirtualNs busy = message_unit_.free_at();
  if (busy == 0 || verbs == 0) return 0.0;
  return static_cast<double>(verbs) * 1e9 / static_cast<double>(busy);
}

}  // namespace dta::rdma
