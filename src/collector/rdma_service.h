// Collector RDMA service (paper §5.3).
//
// "The collector is written ... using standard Infiniband RDMA
// libraries, and has support for per-primitive memory structures and
// querying the reported telemetry data. The collector can host several
// primitives in parallel using unique RDMA_CM ports, and advertise
// primitive-specific metadata to the translator using RDMA-Send packets."
//
// This class plays the ibverbs side: it allocates and registers the
// per-primitive memory regions on the NIC, answers the translator's
// connect request with the region advertisements, and constructs the
// query stores over the registered memory.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "collector/append_store.h"
#include "collector/keyincrement_store.h"
#include "collector/keywrite_store.h"
#include "collector/postcarding_store.h"
#include "rdma/cm.h"
#include "rdma/nic.h"

namespace dta::collector {

struct KeyWriteSetup {
  std::uint64_t num_slots = 1 << 20;
  std::uint32_t value_bytes = 4;
  std::uint32_t checksum_bits = 32;  // b; see Appendix A.5's ablation
};

struct PostcardingSetup {
  std::uint64_t num_chunks = 1 << 17;
  std::uint8_t hops = 5;
  std::vector<std::uint32_t> value_space;  // V; required for querying
};

struct AppendSetup {
  std::uint32_t num_lists = 255;  // the prototype's evaluation count
  std::uint64_t entries_per_list = 1 << 16;
  std::uint32_t entry_bytes = 4;
};

struct KeyIncrementSetup {
  std::uint64_t num_slots = 1 << 20;
};

class RdmaService {
 public:
  explicit RdmaService(rdma::NicParams nic_params = {});

  // Primitive setup: registers memory and constructs the query store.
  // Call any subset before accept(); each may be called once.
  void enable_keywrite(const KeyWriteSetup& setup);
  void enable_postcarding(const PostcardingSetup& setup);
  void enable_append(const AppendSetup& setup);
  void enable_keyincrement(const KeyIncrementSetup& setup);

  // CM handshake: consumes the translator's request, brings up the QP,
  // and returns the accept carrying all region advertisements.
  rdma::ConnectAccept accept(const rdma::ConnectRequest& request);

  rdma::Nic& nic() { return nic_; }
  const rdma::Nic& nic() const { return nic_; }
  rdma::QueuePair* qp() { return qp_; }
  const rdma::QueuePair* qp() const { return qp_; }

  KeyWriteStore* keywrite() { return keywrite_.get(); }
  PostcardingStore* postcarding() { return postcarding_.get(); }
  AppendStore* append() { return append_.get(); }
  KeyIncrementStore* keyincrement() { return keyincrement_.get(); }
  const KeyWriteStore* keywrite() const { return keywrite_.get(); }
  const PostcardingStore* postcarding() const { return postcarding_.get(); }
  const AppendStore* append() const { return append_.get(); }
  const KeyIncrementStore* keyincrement() const { return keyincrement_.get(); }

  // The setups the stores were built from (StoreSnapshot reconstructs
  // equivalent stores over copied memory from these).
  const std::optional<KeyWriteSetup>& keywrite_setup() const {
    return kw_setup_;
  }
  const std::optional<PostcardingSetup>& postcarding_setup() const {
    return pc_setup_;
  }
  const std::optional<AppendSetup>& append_setup() const { return ap_setup_; }
  const std::optional<KeyIncrementSetup>& keyincrement_setup() const {
    return ki_setup_;
  }

  // Raw regions (tests want to inspect memory directly).
  rdma::MemoryRegion* keywrite_region() { return kw_region_; }
  rdma::MemoryRegion* postcarding_region() { return pc_region_; }
  rdma::MemoryRegion* append_region() { return ap_region_; }
  rdma::MemoryRegion* keyincrement_region() { return ki_region_; }
  const rdma::MemoryRegion* keywrite_region() const { return kw_region_; }
  const rdma::MemoryRegion* postcarding_region() const { return pc_region_; }
  const rdma::MemoryRegion* append_region() const { return ap_region_; }
  const rdma::MemoryRegion* keyincrement_region() const { return ki_region_; }

 private:
  rdma::Nic nic_;
  rdma::QueuePair* qp_ = nullptr;
  std::vector<rdma::RegionAdvert> adverts_;

  rdma::MemoryRegion* kw_region_ = nullptr;
  rdma::MemoryRegion* pc_region_ = nullptr;
  rdma::MemoryRegion* ap_region_ = nullptr;
  rdma::MemoryRegion* ki_region_ = nullptr;

  std::unique_ptr<KeyWriteStore> keywrite_;
  std::unique_ptr<PostcardingStore> postcarding_;
  std::unique_ptr<AppendStore> append_;
  std::unique_ptr<KeyIncrementStore> keyincrement_;

  std::optional<KeyWriteSetup> kw_setup_;
  std::optional<PostcardingSetup> pc_setup_;
  std::optional<AppendSetup> ap_setup_;
  std::optional<KeyIncrementSetup> ki_setup_;
};

}  // namespace dta::collector
