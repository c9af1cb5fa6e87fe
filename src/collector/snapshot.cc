#include "collector/snapshot.h"

#include <algorithm>
#include <cstring>

#include "collector/dirty_tracker.h"

namespace dta::collector {

namespace {

// A zeroed region with the live one's base VA and rkey, so the store
// arithmetic (base + slot * slot_size) carries over unchanged. It asks
// for huge pages when the live regions did, before any copy touches it.
std::unique_ptr<rdma::MemoryRegion> region_like(const rdma::MemoryRegion* live,
                                                bool hugepages) {
  return std::make_unique<rdma::MemoryRegion>(
      live->base_va(), live->length(), live->rkey(), live->access(),
      hugepages);
}

}  // namespace

StoreSnapshot::StoreSnapshot(Unfilled, const RdmaService& service) {
  // The domain's hint, not the live regions' advice flags: a pinned
  // worker's first-touch pass rewrites those while this may run.
  const bool huge = service.nic().pd().hugepage_hint();
  if (service.keywrite()) {
    const KeyWriteSetup& setup = *service.keywrite_setup();
    kw_mem_ = region_like(service.keywrite_region(), huge);
    keywrite_ = std::make_unique<KeyWriteStore>(
        kw_mem_.get(), service.keywrite()->num_slots(), setup.value_bytes,
        setup.checksum_bits);
  }
  if (service.postcarding()) {
    const PostcardingSetup& setup = *service.postcarding_setup();
    pc_mem_ = region_like(service.postcarding_region(), huge);
    postcarding_ = std::make_unique<PostcardingStore>(
        pc_mem_.get(), service.postcarding()->num_chunks(),
        service.postcarding()->hops(), setup.value_space);
  }
  if (service.append()) {
    const AppendStore& live = *service.append();
    ap_mem_ = region_like(service.append_region(), huge);
    append_ = std::make_unique<AppendStore>(ap_mem_.get(), live.num_lists(),
                                            live.entries_per_list(),
                                            live.entry_bytes());
    append_heads_.assign(live.num_lists(), 0);
  }
  if (service.keyincrement()) {
    ki_mem_ = region_like(service.keyincrement_region(), huge);
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
  if (append_) {
    for (std::uint32_t list = 0; list < append_->num_lists(); ++list) {
      out->append_->set_tail(list, append_->tail(list));
    }
  }
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
  if (append_ && service.append()) {
    // Freeze the polling positions: snapshot reads start where the live
    // consumers stood at refresh time.
    const AppendStore& live = *service.append();
    for (std::uint32_t list = 0; list < live.num_lists(); ++list) {
      append_->set_tail(list, live.tail(list));
    }
  }
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

std::vector<common::Bytes> StoreSnapshot::append_read(
    std::uint32_t local_list, std::uint64_t count) const {
  std::vector<common::Bytes> out;
  if (!append_ || local_list >= append_->num_lists()) return out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    // poll() advances the snapshot's private tail; the live store's
    // consumer positions are untouched.
    const common::ByteSpan entry = append_->poll(local_list);
    out.emplace_back(entry.begin(), entry.end());
  }
  return out;
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

std::vector<common::ByteSpan> StoreSnapshot::append_read_views(
    std::uint32_t local_list, std::uint64_t count) const {
  std::vector<common::ByteSpan> out;
  if (!append_ || local_list >= append_->num_lists()) return out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    // Same private-tail walk as append_read, minus the per-entry copy:
    // the spans point straight into the snapshot's ring memory.
    out.push_back(append_->poll(local_list));
  }
  return out;
}

}  // namespace dta::collector
