#include "collector/snapshot.h"

#include <algorithm>
#include <cstring>

#include "collector/dirty_tracker.h"

namespace dta::collector {

namespace {

// A zeroed region with the live one's base VA and rkey, so the store
// arithmetic (base + slot * slot_size) carries over unchanged. It asks
// for huge pages when the live one was advised, before any copy touches
// it. The live region's flag is fixed at registration and safe to read
// while the shard ingests: its pinned worker is its first writer, and
// nothing remaps it. The copy's pages land where their own first writer
// runs: the worker for a refresh, the reader for a clone.
std::unique_ptr<rdma::MemoryRegion> region_like(
    const rdma::MemoryRegion* live) {
  return std::make_unique<rdma::MemoryRegion>(
      live->base_va(), live->length(), live->rkey(), live->access(),
      live->hugepage_advised());
}

}  // namespace

StoreSnapshot::StoreSnapshot(Unfilled, const RdmaService& service) {
  if (service.keywrite()) {
    const KeyWriteSetup& setup = *service.keywrite_setup();
    kw_mem_ = region_like(service.keywrite_region());
    keywrite_ = std::make_unique<KeyWriteStore>(
        kw_mem_.get(), service.keywrite()->num_slots(), setup.value_bytes,
        setup.checksum_bits);
  }
  if (service.postcarding()) {
    const PostcardingSetup& setup = *service.postcarding_setup();
    pc_mem_ = region_like(service.postcarding_region());
    postcarding_ = std::make_unique<PostcardingStore>(
        pc_mem_.get(), service.postcarding()->num_chunks(),
        service.postcarding()->hops(), setup.value_space);
  }
  if (service.append()) {
    const AppendStore& live = *service.append();
    ap_mem_ = region_like(service.append_region());
    append_ = std::make_unique<AppendStore>(ap_mem_.get(), live.num_lists(),
                                            live.entries_per_list(),
                                            live.entry_bytes());
    append_heads_.assign(live.num_lists(), 0);
  }
  if (service.keyincrement()) {
    ki_mem_ = region_like(service.keyincrement_region());
    keyincrement_ = std::make_unique<KeyIncrementStore>(
        ki_mem_.get(), service.keyincrement()->num_slots());
  }
}

StoreSnapshot::StoreSnapshot(const RdmaService& service,
                             std::uint64_t generation)
    : StoreSnapshot(Unfilled{}, service) {
  refresh_from(service, generation, nullptr);
}

std::shared_ptr<StoreSnapshot> StoreSnapshot::allocate(
    const RdmaService& service) {
  // Not make_shared: the shell constructor is private.
  return std::shared_ptr<StoreSnapshot>(new StoreSnapshot(Unfilled{}, service));
}

std::shared_ptr<StoreSnapshot> StoreSnapshot::clone(
    const RdmaService& service) const {
  std::shared_ptr<StoreSnapshot> out = allocate(service);
  const auto copy = [](rdma::MemoryRegion* dst, const rdma::MemoryRegion* src) {
    if (dst) std::memcpy(dst->data(), src->data(), src->length());
  };
  copy(out->kw_mem_.get(), kw_mem_.get());
  copy(out->pc_mem_.get(), pc_mem_.get());
  copy(out->ap_mem_.get(), ap_mem_.get());
  copy(out->ki_mem_.get(), ki_mem_.get());
  out->append_heads_ = append_heads_;
  out->generation_ = generation_;
  return out;
}

std::uint64_t StoreSnapshot::refresh_from(const RdmaService& service,
                                          std::uint64_t generation,
                                          const DirtyTracker* dirty) {
  std::uint64_t copied = 0;
  const auto patch = [&](rdma::MemoryRegion* dst,
                         const rdma::MemoryRegion* live) {
    if (!dst || !live) return;
    if (!dirty || dst->length() != live->length()) {
      // min() guards the mismatch branch itself: if the geometry
      // invariant ever breaks, degrade to a short copy, not a heap
      // overflow.
      const std::size_t length = std::min(dst->length(), live->length());
      std::memcpy(dst->data(), live->data(), length);
      copied += length;
      return;
    }
    dirty->for_each_dirty_range(
        live, [&](std::uint64_t offset, std::uint64_t length) {
          std::memcpy(dst->data() + offset, live->data() + offset, length);
          copied += length;
        });
  };
  patch(kw_mem_.get(), service.keywrite_region());
  patch(pc_mem_.get(), service.postcarding_region());
  patch(ap_mem_.get(), service.append_region());
  patch(ki_mem_.get(), service.keyincrement_region());
  generation_ = generation;
  return copied;
}

KeyWriteQueryResult StoreSnapshot::keywrite_query(
    const proto::TelemetryKey& key, std::uint8_t redundancy,
    std::uint8_t consensus_threshold) const {
  if (!keywrite_) return {};
  return keywrite_->query(key, redundancy, consensus_threshold);
}

KeyWriteViewResult StoreSnapshot::keywrite_query_view(
    const proto::TelemetryKey& key, std::uint8_t redundancy,
    std::uint8_t consensus_threshold) const {
  if (!keywrite_) return {};
  return keywrite_->query_view(key, redundancy, consensus_threshold);
}

PostcardingQueryResult StoreSnapshot::postcarding_query(
    const proto::TelemetryKey& key, std::uint8_t redundancy) const {
  if (!postcarding_) return {};
  return postcarding_->query(key, redundancy);
}

std::uint64_t StoreSnapshot::append_entries_per_list() const {
  return append_ ? append_->entries_per_list() : 0;
}

std::vector<common::Bytes> StoreSnapshot::append_read_range(
    std::uint32_t local_list, std::uint64_t start_entry,
    std::uint64_t count) const {
  std::vector<common::Bytes> out;
  if (!append_ || local_list >= append_->num_lists()) return out;
  const std::uint64_t per_list = append_->entries_per_list();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto [offset, length] =
        append_->entry_byte_range(local_list, (start_entry + i) % per_list);
    const std::uint8_t* data = ap_mem_->data() + offset;
    out.emplace_back(data, data + length);
  }
  return out;
}

}  // namespace dta::collector
