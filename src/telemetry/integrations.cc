#include "telemetry/integrations.h"

namespace dta::telemetry {

using proto::TelemetryKey;

// ---------------------------------------------------------------------- PINT

std::uint8_t PintReport::redundancy_of(std::uint32_t packet_id,
                                       std::uint8_t max_redundancy) {
  // f(pktID): a cheap invariant mix; higher redundancy is rarer
  // (geometric-ish), which is how PINT amortizes coverage over packets.
  std::uint32_t h = packet_id * 0x9E3779B9u;
  h ^= h >> 16;
  std::uint8_t n = 1;
  while (n < max_redundancy && (h & 1)) {
    h >>= 1;
    ++n;
  }
  return n;
}

proto::KeyWriteReport PintReport::to_dta(std::uint8_t max_redundancy) const {
  proto::KeyWriteReport r;
  const auto kb = flow.to_bytes();
  r.key = TelemetryKey::from(common::ByteSpan(kb.data(), kb.size()));
  r.redundancy = redundancy_of(packet_id, max_redundancy);
  r.data.push_back(digest);  // 1B value — PINT's whole point
  return r;
}

// -------------------------------------------------------------------- Sonata

proto::KeyWriteReport SonataQueryResult::to_dta(
    std::uint8_t redundancy) const {
  proto::KeyWriteReport r;
  common::Bytes kb;
  common::put_u32(kb, query_id);
  r.key = TelemetryKey::from(common::ByteSpan(kb));
  r.redundancy = redundancy;
  r.data.assign(result.begin(), result.end());
  return r;
}

proto::AppendReport SonataRawTuple::to_dta(
    std::uint32_t lists_per_query) const {
  proto::AppendReport r;
  r.list_id = query_id * lists_per_query;
  r.entry_size = 17;  // 13B tuple + 4B feature
  proto::AppendEntry& e = r.entries.emplace_back();
  const auto kb = flow.to_bytes();
  common::put_bytes(e, common::ByteSpan(kb.data(), kb.size()));
  common::put_u32(e, feature);
  return r;
}

// -------------------------------------------------------------------- dShark

std::uint32_t DSharkSummary::grouper_of(std::uint32_t num_groupers) const {
  // All observation points of the same packet must pick the same
  // grouper: hash only packet-invariant fields.
  std::uint64_t h = net::flow_hash64(flow);
  h ^= (static_cast<std::uint64_t>(ip_id) << 32) | tcp_seq;
  h *= 0x2545F4914F6CDD1Dull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h % (num_groupers == 0 ? 1 : num_groupers));
}

proto::AppendReport DSharkSummary::to_dta(std::uint32_t num_groupers) const {
  proto::AppendReport r;
  r.list_id = grouper_of(num_groupers);
  r.entry_size = kEntryBytes;
  proto::AppendEntry& e = r.entries.emplace_back();
  const auto kb = flow.to_bytes();
  common::put_bytes(e, common::ByteSpan(kb.data(), kb.size()));
  common::put_u32(e, ip_id);
  common::put_u32(e, tcp_seq);
  common::put_u8(e, observer);
  return r;
}

// ---------------------------------------------------------------- PacketScope

proto::KeyWriteReport PacketScopeTraversal::to_dta(
    std::uint8_t redundancy) const {
  proto::KeyWriteReport r;
  // Key = <switchID, 5-tuple>: 4 + 13 = 17B > 16, so the switch ID is
  // folded into the tuple hash tail the way PacketScope's own key
  // compaction does: 4B switch + first 12B of the tuple digest.
  common::Bytes kb;
  common::put_u32(kb, switch_id);
  const std::uint64_t digest = net::flow_hash64(flow);
  common::put_u64(kb, digest);
  common::put_u32(kb, static_cast<std::uint32_t>(digest >> 53) |
                          (flow.protocol << 11));
  r.key = TelemetryKey::from(common::ByteSpan(kb));
  r.redundancy = redundancy;
  common::put_u32(r.data, ingress_port);
  common::put_u32(r.data, egress_port);
  common::put_u32(r.data, queue_id);
  return r;
}

proto::AppendReport PacketScopePipelineLoss::to_dta(
    std::uint32_t list_id) const {
  proto::AppendReport r;
  r.list_id = list_id;
  r.entry_size = kEntryBytes;
  proto::AppendEntry& e = r.entries.emplace_back();
  common::put_u32(e, switch_id);
  common::put_u8(e, pipeline_stage);
  common::put_u8(e, drop_table);
  common::put_u64(e, flow_digest);
  return r;
}

// --------------------------------------------------------- Trajectory Sampling

proto::PostcardReport TrajectoryLabel::to_dta(std::uint8_t redundancy) const {
  proto::PostcardReport r;
  common::Bytes kb;
  common::put_u32(kb, packet_hash);
  r.key = TelemetryKey::from(common::ByteSpan(kb));
  r.hop = hop;
  r.path_len = path_len;
  r.redundancy = redundancy;
  r.value = label;
  return r;
}

}  // namespace dta::telemetry
