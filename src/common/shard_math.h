// Shared routing math for the two-level collection hierarchy.
//
// DTA scales collection along two independent dimensions: across
// collector *hosts* (paper §7 "Supporting Multiple Collectors") and
// across *shards* inside one host (each shard owns a NIC message unit).
// Both tiers use the same fold: keys hash to a partition with a CRC
// engine, Append lists stripe round-robin by list id and fold the global
// id to a partition-local one. Every component that routes — the
// translator-side CollectorSelector (host tier), CollectorRuntime::submit
// (shard tier) and the query path that finds a key again — must agree
// on these functions, so they live here and nowhere else.
//
// The two key hashes are drawn from distinct CRC polynomials
// (kHopPolys[7] for the host tier, kShardPoly for the shard tier, both
// disjoint from the slot/checksum set) so that host choice, shard choice
// and in-store slot placement are pairwise uncorrelated: a correlated
// pair would funnel one host's keys onto one of its shards.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/crc.h"

namespace dta::common {

// Inter-host tier: which collector host owns a key.
inline std::uint32_t host_of_key(ByteSpan key, std::uint32_t num_hosts) {
  if (num_hosts <= 1) return 0;
  return hop_crc(7).compute(key) % num_hosts;
}

// Intra-host tier: which shard of a host owns a key (shard_of, from
// crc.h, uses the dedicated kShardPoly engine). Re-exposed here so both
// tiers read as one unit.
inline std::uint32_t shard_of_key(ByteSpan key, std::uint32_t num_shards) {
  return shard_of(key, num_shards);
}

// Append lists stripe round-robin at either tier; a list lives whole on
// one partition (entries of one list must stay contiguous).
inline std::uint32_t list_partition(std::uint32_t list_id,
                                    std::uint32_t num_partitions) {
  return num_partitions <= 1 ? 0 : list_id % num_partitions;
}

// Folds a global list id to the partition-local id space. Applying the
// fold once per tier (first by host count, then by shard count) keeps
// local ids dense at every level, so store capacity divides evenly.
inline std::uint32_t list_local_id(std::uint32_t list_id,
                                   std::uint32_t num_partitions) {
  return num_partitions <= 1 ? list_id : list_id / num_partitions;
}

}  // namespace dta::common
