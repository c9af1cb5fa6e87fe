#include "translator/collector_selector.h"

#include "common/shard_math.h"

namespace dta::translator {

CollectorSelector::CollectorSelector(PartitionPolicy policy,
                                     std::uint32_t num_collectors,
                                     std::uint32_t shards_per_host)
    : policy_(policy),
      num_collectors_(num_collectors == 0 ? 1 : num_collectors),
      shards_per_host_(shards_per_host == 0 ? 1 : shards_per_host) {}

std::uint32_t CollectorSelector::host_hash(
    const proto::TelemetryKey& key) const {
  // The host tier uses a CRC engine independent of both the intra-host
  // shard selector and the slot/checksum hashes (common/shard_math.h),
  // so the two routing levels compose without correlation.
  return common::host_of_key(key.span(), num_collectors_);
}

std::optional<std::uint32_t> CollectorSelector::owner_host(
    const proto::TelemetryKey& key) const {
  if (policy_ != PartitionPolicy::kByKeyHash) return std::nullopt;
  return host_hash(key);
}

std::optional<std::uint32_t> CollectorSelector::owner_host_of_list(
    std::uint32_t list_id) const {
  if (policy_ != PartitionPolicy::kByKeyHash) return std::nullopt;
  return common::list_partition(list_id, num_collectors_);
}

std::uint32_t CollectorSelector::shard_within_host(
    const proto::TelemetryKey& key) const {
  return common::shard_of_key(key.span(), shards_per_host_);
}

std::uint32_t CollectorSelector::shard_within_host_of_list(
    std::uint32_t host_local_list) const {
  return common::list_partition(host_local_list, shards_per_host_);
}

std::uint32_t CollectorSelector::host_local_list(std::uint32_t list_id) const {
  // Only kByKeyHash partitions the list space across hosts; the other
  // policies leave every host with the full (global) id space, so the
  // fold would alias distinct lists onto one local id.
  if (policy_ != PartitionPolicy::kByKeyHash) return list_id;
  return common::list_local_id(list_id, num_collectors_);
}

HostRange CollectorSelector::route(const proto::Report& report,
                                   std::uint32_t dst_ip) const {
  switch (policy_) {
    case PartitionPolicy::kByDestinationIp:
      return {dst_ip % num_collectors_, 1};
    case PartitionPolicy::kReplicate:
      return {0, num_collectors_};
    case PartitionPolicy::kByKeyHash:
      break;
  }
  const std::uint32_t host = std::visit(
      [&](const auto& r) -> std::uint32_t {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, proto::KeyWriteReport> ||
                      std::is_same_v<T, proto::KeyIncrementReport> ||
                      std::is_same_v<T, proto::PostcardReport>) {
          return host_hash(r.key);
        } else if constexpr (std::is_same_v<T, proto::AppendReport>) {
          // Lists partition whole: a list's entries must stay
          // contiguous on one collector.
          return common::list_partition(r.list_id, num_collectors_);
        } else {
          return 0;  // NACKs etc.: default collector
        }
      },
      report);
  return {host, 1};
}

}  // namespace dta::translator
