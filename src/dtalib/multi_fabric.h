// Multi-collector deployment (paper §7 "Supporting Multiple Collectors").
//
// A MultiFabric runs several collectors behind one translator-side
// partitioning function (translator::CollectorSelector). Each collector
// has its own NIC, queue pair and store geometry; the translator holds
// one RDMA connection (and PSN tracker) per collector — which is cheap,
// since QP state lives only at the translator, never at reporters.
//
// Scale-out: under kByKeyHash every collector owns a shard of the key
// space and the aggregate NIC message rate grows with the collector
// count. Resiliency: under kReplicate a query can be answered by any
// surviving collector.
//
// Tiering: MultiFabric is the *wire-fidelity* tier — every collector is
// a full Fabric (UDP encapsulation, links, CM handshake, ACK/NAK), with
// one single-service collector per host. For cluster-scale deployments
// (N hosts x M shards, async queries, replica failover) use
// dta::ClusterRuntime, which drives the sharded CollectorRuntime behind
// the same selector this class routes with.
#pragma once

#include <memory>
#include <vector>

#include "dtalib/fabric.h"
#include "translator/collector_selector.h"

namespace dta {

struct MultiFabricConfig {
  FabricConfig base;  // per-collector store geometry and link params
  std::uint32_t num_collectors = 2;
  translator::PartitionPolicy policy =
      translator::PartitionPolicy::kByKeyHash;
};

class MultiFabric {
 public:
  explicit MultiFabric(MultiFabricConfig config);

  // Routes the report to its collector(s) through the partitioning
  // function, then pushes it through that collector's fabric.
  void report(const proto::Report& report);

  // Which collector owns this report's key under the current policy
  // (so queries go to the right shard).
  std::uint32_t shard_of(const proto::Report& report) const;

  // Queries against a specific collector's stores.
  collector::Collector& collector(std::uint32_t idx) {
    return fabrics_[idx]->collector();
  }
  Fabric& fabric(std::uint32_t idx) { return *fabrics_[idx]; }
  std::uint32_t num_collectors() const {
    return static_cast<std::uint32_t>(fabrics_.size());
  }

  // Simulates a collector failure (kReplicate resiliency tests): the
  // collector stops receiving, but its stores stay readable.
  void fail_collector(std::uint32_t idx) { failed_[idx] = true; }
  bool is_failed(std::uint32_t idx) const { return failed_[idx]; }

  // Aggregate modeled NIC message capacity across live collectors.
  double aggregate_message_rate() const;

 private:
  MultiFabricConfig config_;
  const translator::CollectorSelector selector_;
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  std::vector<bool> failed_;
};

}  // namespace dta
