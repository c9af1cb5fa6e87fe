// Multi-collector support (paper §7 "Supporting Multiple Collectors").
//
// "It is beneficial to enable collection at multiple servers for
// scalability or resiliency. DTA can be deployed alongside multiple
// collectors and permit easy partitioning of reports based on the IP
// and DTA headers."
//
// The selector is the translator-side partitioning function. Three
// policies cover the deployment patterns the paper sketches:
//   * kByDestinationIp — the reporter already addressed a specific
//     collector (per-primitive collector IPs, §5.1's controller tables);
//   * kByKeyHash — key-partitioned scale-out: every collector owns a
//     shard of the key space, so queries know where to look;
//   * kReplicate — resiliency: every report goes to all collectors
//     (redundant collection survives a collector failure).
// Append reports partition by list id so each list stays contiguous on
// one collector. One collector is the one-partition case of every
// policy.
//
// Two-level placement: when each collector host runs a sharded
// CollectorRuntime, route() picks the host and nothing else; the host's
// CollectorRuntime::submit places the report on a shard by key CRC
// (common/shard_math.h). shard_within_host() is the query side's copy
// of that decision, so every policy composes with intra-host sharding.
//
// The selector is an immutable value: routing counts nothing (each
// host's reports_in already counts what it received) and is safe to
// call from any thread.
#pragma once

#include <cstdint>
#include <optional>

#include "dta/wire.h"

namespace dta::translator {

enum class PartitionPolicy : std::uint8_t {
  kByDestinationIp,
  kByKeyHash,
  kReplicate,
};

// The hosts a report reaches: [first, first + count). Every host under
// kReplicate, exactly one otherwise.
struct HostRange {
  std::uint32_t first = 0;
  std::uint32_t count = 1;
};

class CollectorSelector {
 public:
  CollectorSelector(PartitionPolicy policy, std::uint32_t num_collectors,
                    std::uint32_t shards_per_host = 1);

  // The collectors the report must reach. `dst_ip` is the report's IP
  // destination, used by kByDestinationIp (maps IPs round-robin onto
  // the collector set).
  HostRange route(const proto::Report& report, std::uint32_t dst_ip) const;

  // --- probes for the query path --------------------------------------------
  // The host that owns a key/list, when the policy determines one
  // (kByKeyHash); nullopt when ownership is not derivable from the
  // report alone (kReplicate: any live host; kByDestinationIp: the
  // reporter's addressing, not the key, chose the host).
  std::optional<std::uint32_t> owner_host(const proto::TelemetryKey& key) const;
  std::optional<std::uint32_t> owner_host_of_list(std::uint32_t list_id) const;

  // Intra-host placement (always key/list-determined): the shard the
  // host's CollectorRuntime::submit put the report on.
  std::uint32_t shard_within_host(const proto::TelemetryKey& key) const;
  std::uint32_t shard_within_host_of_list(std::uint32_t host_local_list) const;

  // The host-local id of a global Append list: folded by the host count
  // under kByKeyHash (lists partition across hosts), unchanged otherwise
  // (every host holds the full list space).
  std::uint32_t host_local_list(std::uint32_t list_id) const;

  PartitionPolicy policy() const { return policy_; }
  std::uint32_t num_collectors() const { return num_collectors_; }
  std::uint32_t shards_per_host() const { return shards_per_host_; }

 private:
  std::uint32_t host_hash(const proto::TelemetryKey& key) const;

  PartitionPolicy policy_;
  std::uint32_t num_collectors_;
  std::uint32_t shards_per_host_;
};

}  // namespace dta::translator
