#include "collector/snapshot.h"

#include <algorithm>
#include <cstring>

#include "collector/dirty_tracker.h"

namespace dta::collector {

std::unique_ptr<rdma::MemoryRegion> StoreSnapshot::copy_region(
    const rdma::MemoryRegion* src) {
  // Same base VA and rkey as the live region: the store arithmetic
  // (base + slot * slot_size) carries over unchanged. A copy of an
  // advised region is advised too, before the memcpy first touches it.
  auto copy = std::make_unique<rdma::MemoryRegion>(
      src->base_va(), src->length(), src->rkey(), src->access(),
      src->hugepage_advised());
  std::memcpy(copy->data(), src->data(), src->length());
  return copy;
}

StoreSnapshot::StoreSnapshot(const RdmaService& service,
                             std::uint64_t generation)
    : generation_(generation) {
  if (service.keywrite()) {
    const KeyWriteSetup& setup = *service.keywrite_setup();
    kw_mem_ = copy_region(service.keywrite_region());
    keywrite_ = std::make_unique<KeyWriteStore>(
        kw_mem_.get(), service.keywrite()->num_slots(), setup.value_bytes,
        setup.checksum_bits);
  }
  if (service.postcarding()) {
    const PostcardingSetup& setup = *service.postcarding_setup();
    pc_mem_ = copy_region(service.postcarding_region());
    postcarding_ = std::make_unique<PostcardingStore>(
        pc_mem_.get(), service.postcarding()->num_chunks(),
        service.postcarding()->hops(), setup.value_space);
  }
  if (service.append()) {
    const AppendStore& live = *service.append();
    ap_mem_ = copy_region(service.append_region());
    append_ = std::make_unique<AppendStore>(ap_mem_.get(), live.num_lists(),
                                            live.entries_per_list(),
                                            live.entry_bytes());
    // Freeze the polling positions: snapshot reads start where the live
    // consumers stood at snapshot time.
    for (std::uint32_t list = 0; list < live.num_lists(); ++list) {
      append_->set_tail(list, live.tail(list));
    }
  }
  if (service.keyincrement()) {
    ki_mem_ = copy_region(service.keyincrement_region());
    keyincrement_ = std::make_unique<KeyIncrementStore>(
        ki_mem_.get(), service.keyincrement()->num_slots());
  }
}

std::unique_ptr<StoreSnapshot> StoreSnapshot::clone(
    const RdmaService& service) const {
  // Not make_unique: the shell constructor is private.
  std::unique_ptr<StoreSnapshot> out(new StoreSnapshot(generation_));
  if (keywrite_) {
    const KeyWriteSetup& setup = *service.keywrite_setup();
    out->kw_mem_ = out->copy_region(kw_mem_.get());
    out->keywrite_ = std::make_unique<KeyWriteStore>(
        out->kw_mem_.get(), keywrite_->num_slots(), setup.value_bytes,
        setup.checksum_bits);
  }
  if (postcarding_) {
    const PostcardingSetup& setup = *service.postcarding_setup();
    out->pc_mem_ = out->copy_region(pc_mem_.get());
    out->postcarding_ = std::make_unique<PostcardingStore>(
        out->pc_mem_.get(), postcarding_->num_chunks(), postcarding_->hops(),
        setup.value_space);
  }
  if (append_) {
    out->ap_mem_ = out->copy_region(ap_mem_.get());
    out->append_ = std::make_unique<AppendStore>(
        out->ap_mem_.get(), append_->num_lists(), append_->entries_per_list(),
        append_->entry_bytes());
    for (std::uint32_t list = 0; list < append_->num_lists(); ++list) {
      out->append_->set_tail(list, append_->tail(list));
    }
  }
  if (keyincrement_) {
    out->ki_mem_ = out->copy_region(ki_mem_.get());
    out->keyincrement_ = std::make_unique<KeyIncrementStore>(
        out->ki_mem_.get(), keyincrement_->num_slots());
  }
  out->append_heads_ = append_heads_;
  return out;
}

std::uint64_t StoreSnapshot::refresh_from(const RdmaService& service,
                                          std::uint64_t generation,
                                          const DirtyTracker& dirty,
                                          bool full_copy) {
  std::uint64_t copied = 0;
  const auto patch = [&](rdma::MemoryRegion* dst,
                         const rdma::MemoryRegion* live) {
    if (!dst || !live) return;
    if (full_copy || dst->length() != live->length()) {
      // min() guards the mismatch branch itself: if the geometry
      // invariant ever breaks, degrade to a short copy, not a heap
      // overflow.
      const std::size_t length = std::min(dst->length(), live->length());
      std::memcpy(dst->data(), live->data(), length);
      copied += length;
      return;
    }
    dirty.for_each_dirty_range(
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
    // Re-freeze the polling positions at refresh time, exactly like the
    // full-copy constructor does.
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
