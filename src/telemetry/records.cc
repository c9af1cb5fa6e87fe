#include "telemetry/records.h"

#include <algorithm>
#include <cmath>

namespace dta::telemetry {

using proto::TelemetryKey;

proto::PostcardReport IntPostcard::to_dta(std::uint8_t redundancy) const {
  proto::PostcardReport r;
  const auto kb = flow.to_bytes();
  r.key = TelemetryKey::from(common::ByteSpan(kb.data(), kb.size()));
  r.hop = hop;
  r.path_len = path_len;
  r.redundancy = redundancy;
  r.value = value;
  return r;
}

proto::KeyWriteReport IntPathTrace::to_dta(std::uint8_t redundancy) const {
  proto::KeyWriteReport r;
  const auto kb = flow.to_bytes();
  r.key = TelemetryKey::from(common::ByteSpan(kb.data(), kb.size()));
  r.redundancy = redundancy;
  // 5 x 4B switch IDs; shorter paths are zero-padded so the value width
  // is fixed (the store's slot geometry is fixed at setup time).
  for (std::size_t i = 0; i < 5; ++i) {
    const std::uint32_t id = i < switch_ids.size() ? switch_ids[i] : 0;
    common::put_u32(r.data, id);
  }
  return r;
}

proto::AppendReport MarpleFlowlet::to_dta(std::uint32_t list_id) const {
  proto::AppendReport r;
  r.list_id = list_id;
  r.entry_size = 17;  // 13B flow + 4B packet count
  proto::AppendEntry& e = r.entries.emplace_back();
  const auto kb = flow.to_bytes();
  common::put_bytes(e, common::ByteSpan(kb.data(), kb.size()));
  common::put_u32(e, packets);
  return r;
}

proto::KeyWriteReport MarpleTcpTimeout::to_dta(std::uint8_t redundancy) const {
  proto::KeyWriteReport r;
  const auto kb = flow.to_bytes();
  r.key = TelemetryKey::from(common::ByteSpan(kb.data(), kb.size()));
  r.redundancy = redundancy;
  common::put_u32(r.data, timeouts);
  return r;
}

proto::AppendReport MarpleLossyFlow::to_dta(std::uint32_t base_list,
                                            std::uint32_t num_ranges) const {
  proto::AppendReport r;
  // Loss-rate ranges are logarithmic: [0.1%,1%), [1%,10%), [10%,100%), ...
  double rate = std::clamp(loss_rate, 1e-4, 1.0);
  const double log_pos = std::log10(rate) + 4.0;  // 0 at 0.01%
  auto range = static_cast<std::uint32_t>(log_pos);
  if (range >= num_ranges) range = num_ranges - 1;
  r.list_id = base_list + range;
  r.entry_size = 13;  // 13B flow 5-tuple
  proto::AppendEntry& e = r.entries.emplace_back();
  const auto kb = flow.to_bytes();
  common::put_bytes(e, common::ByteSpan(kb.data(), kb.size()));
  return r;
}

NetSeerLossEvent NetSeerLossEvent::from_entry(common::ByteSpan entry) {
  NetSeerLossEvent ev{};
  if (entry.size() < 18) return ev;
  ev.flow = net::FiveTuple::from_bytes(entry.subspan(0, 13));
  ev.packet_seq = common::load_u32(entry.data() + 13);
  ev.reason = entry[17];
  return ev;
}

proto::AppendReport NetSeerLossEvent::to_dta(std::uint32_t list_id) const {
  proto::AppendReport r;
  r.list_id = list_id;
  r.entry_size = 18;  // 13B flow + 4B seq + 1B reason
  proto::AppendEntry& e = r.entries.emplace_back();
  const auto kb = flow.to_bytes();
  common::put_bytes(e, common::ByteSpan(kb.data(), kb.size()));
  common::put_u32(e, packet_seq);
  common::put_u8(e, reason);
  return r;
}

proto::KeyIncrementReport MarpleHostCounter::to_dta(
    std::uint8_t redundancy) const {
  proto::KeyIncrementReport r;
  common::Bytes kb;
  common::put_u32(kb, src_ip);
  r.key = TelemetryKey::from(common::ByteSpan(kb));
  r.redundancy = redundancy;
  r.counter = count;
  return r;
}

proto::KeyIncrementReport TurboFlowRecord::to_dta(
    std::uint8_t redundancy) const {
  proto::KeyIncrementReport r;
  const auto kb = flow.to_bytes();
  r.key = TelemetryKey::from(common::ByteSpan(kb.data(), kb.size()));
  r.redundancy = redundancy;
  r.counter = packets;
  return r;
}

}  // namespace dta::telemetry
