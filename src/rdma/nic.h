// RDMA NIC model (the collector's BlueField-2 in the paper).
//
// Owns the protection domain and queue pairs, demultiplexes inbound
// RoCEv2-over-UDP frames to QPs, and — crucially for reproducing the
// paper's throughput shapes — models the NIC's *message rate* bottleneck:
// "Our base performance is bounded by the RDMA message rate of the NIC,
// which is the current collection bottleneck in our system" (§6.7).
//
// Two effects are modeled:
//   * a fixed messages/second ceiling (each verb costs one message slot
//     regardless of payload size, until the link byte-rate binds);
//   * message-rate degradation as the number of active QPs grows beyond
//     the NIC's QP cache (up to ~5x, per Kalia et al. [36]/FaRM [15] as
//     cited in §3) — this is the experiment behind DTA's single-writer
//     translator design, and we expose it for the ablation bench.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/time_model.h"
#include "net/headers.h"
#include "net/packet.h"
#include "rdma/queue_pair.h"

namespace dta::rdma {

struct NicParams {
  double base_message_rate = 105e6;  // verbs/sec, BlueField-2 class
  double link_gbps = 100.0;
  // QP scaling: full speed up to `qp_cache_size` QPs, degrading linearly
  // to `base/max_qp_slowdown` at `qp_saturation` QPs and beyond.
  std::uint32_t qp_cache_size = 32;
  std::uint32_t qp_saturation = 2048;
  double max_qp_slowdown = 5.0;
};

struct NicCounters {
  std::uint64_t datagrams_in = 0;
  std::uint64_t datagrams_dropped = 0;  // non-RoCE / unknown QP
  std::uint64_t acks_emitted = 0;
  std::uint64_t naks_emitted = 0;
};

class Nic {
 public:
  explicit Nic(NicParams params = {});

  ProtectionDomain& pd() { return pd_; }
  const ProtectionDomain& pd() const { return pd_; }

  QueuePair* create_qp();
  QueuePair* find_qp(std::uint32_t qpn);
  std::size_t qp_count() const { return qps_.size(); }

  // Effective message rate given the current QP count (see NicParams).
  double effective_message_rate() const;

  // Processes one inbound Ethernet frame carrying RoCEv2. Advances the
  // NIC's virtual-time message unit; the returned completion time is the
  // virtual instant the verb has been applied to host memory. Returns
  // std::nullopt if the frame was not executable RoCE.
  struct Outcome {
    common::VirtualNs completed_at = 0;
    ResponderResult responder;
    std::uint32_t qpn = 0;
  };
  std::optional<Outcome> ingest(const net::Packet& frame);

  // Direct-execution doorbells: run one verb on `qp` without a wire
  // frame (no UDP/BTH decode, no ICRC, no PSN — see
  // QueuePair::execute_*). Message-rate accounting is identical to
  // ingest(): each verb costs one message slot at the effective rate,
  // so modeled throughput readouts cannot tell the two paths apart.
  // `datagrams_in` is NOT bumped (nothing arrived on the wire); ACK/NAK
  // counters mirror the wire path.
  Outcome execute_write(QueuePair& qp, std::uint64_t va, std::uint32_t rkey,
                        common::ByteSpan payload,
                        std::optional<std::uint32_t> immediate,
                        common::VirtualNs arrival_ns = 0);
  Outcome execute_fetch_add(QueuePair& qp, std::uint64_t va,
                            std::uint32_t rkey, std::uint64_t add_value,
                            common::VirtualNs arrival_ns = 0);

  const NicCounters& counters() const { return counters_; }
  common::VirtualNs busy_until() const { return message_unit_.free_at(); }

  // Virtual time at which the NIC could next accept work (for modeled
  // throughput readouts in the benches).
  double modeled_verbs_per_sec(std::uint64_t verbs) const;

 private:
  // The step every verb shares, wire or direct: one message slot at the
  // effective rate from `arrival_ns`, and the ACK/NAK counters.
  Outcome account(const QueuePair& qp, common::VirtualNs arrival_ns,
                  const ResponderResult& responder);

  NicParams params_;
  ProtectionDomain pd_;
  std::unordered_map<std::uint32_t, std::unique_ptr<QueuePair>> qps_;
  std::uint32_t next_qpn_ = 0x11;
  common::RateLimitedResource message_unit_;
  NicCounters counters_;
};

}  // namespace dta::rdma
