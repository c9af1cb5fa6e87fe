// Registered memory regions.
//
// Models ibv_reg_mr: a collector-side buffer exposed for remote access
// under an rkey. The paper allocates all RDMA-registered memory on 1 GiB
// huge pages; our regions are single contiguous anonymous mappings,
// which gives the same flat virtual-address arithmetic the translator
// relies on (base + slot * slot_size). A region registered under the
// domain's huge-page hint is mapped 2 MiB-aligned and advised onto
// transparent huge pages before its first byte is written, so the
// kernel backs it with 2 MiB pages (with THP in madvise mode, memory
// already touched stays on 4 KiB pages whatever it is advised later).
// Snapshot copies of such a region are mapped and advised the same way.
//
// NUMA placement: on a multi-socket collector the NIC DMAs into host
// memory and the shard worker polls it, so a region landing on the
// wrong node pays a cross-socket hop on every access. Regions therefore
// carry a NUMA node hint. Placement is two-phase, matching how the
// runtime learns worker placement:
//   1. allocation-time: ProtectionDomain::set_node_hint makes every
//      subsequently registered region ask the kernel (mbind with
//      MPOL_MF_MOVE, best-effort) to place its pages on that node;
//   2. first-touch fallback: after pin_workers has placed the shard
//      worker, the worker calls first_touch_rebind() to remap and
//      touch the buffer from its own (now pinned) thread, so the
//      default local-allocation policy lands the pages on its node.
// Both degrade to no-ops on hosts without NUMA support; the hint is
// still recorded so deployments can audit intended placement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"

namespace dta::rdma {

// Host NUMA topology (Linux sysfs; 1 node / node 0 fallback elsewhere).
int numa_node_count();
// The NUMA node owning `core`, or -1 when the topology is unknown.
int numa_node_of_core(int core);

enum AccessFlags : std::uint32_t {
  kRemoteWrite = 1u << 0,
  kRemoteRead = 1u << 1,
  kRemoteAtomic = 1u << 2,
};

class MemoryRegion {
 public:
  // The buffer is fresh anonymous memory, zeroed and not yet touched.
  // With `hugepages` it is asked onto transparent huge pages (see
  // hugepage_advised) before anything writes it: under THP's madvise
  // mode a page is backed by whatever size it faults in at, so advice
  // given after the first write leaves the buffer on 4 KiB pages.
  MemoryRegion(std::uint64_t base_va, std::size_t length, std::uint32_t rkey,
               std::uint32_t access, bool hugepages = false);
  ~MemoryRegion();
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  std::uint64_t base_va() const { return base_va_; }
  std::size_t length() const { return length_; }
  std::uint32_t rkey() const { return rkey_; }
  std::uint32_t access() const { return access_; }

  bool contains(std::uint64_t va, std::size_t len) const {
    return va >= base_va_ && va + len <= base_va_ + length_ &&
           va + len >= va;  // overflow guard
  }

  // Host-side (collector CPU) view of the memory.
  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }

  std::uint8_t* at(std::uint64_t va) { return data_ + (va - base_va_); }
  const std::uint8_t* at(std::uint64_t va) const {
    return data_ + (va - base_va_);
  }

  // Write-prefetch hint for the cache lines holding the first and last
  // byte of [va, va + len): starts the fetch now, changes no byte, and
  // does nothing for an extent outside the region. The shard's delivery
  // loop issues one per verb of a batch before executing any of them,
  // so the batch's store misses overlap instead of queuing.
  void prefetch_for_write(std::uint64_t va, std::size_t len) const {
    if (len == 0 || !contains(va, len)) return;
    const std::uint8_t* first = at(va);
    __builtin_prefetch(first, /*rw=*/1);
    __builtin_prefetch(first + len - 1, /*rw=*/1);
  }

  void zero();

  // The node this region is intended to live on (-1: unplaced).
  int numa_node() const { return numa_node_; }
  // Whether the kernel accepted an mbind for this region — placement is
  // already done, so the first-touch fallback can skip it.
  bool node_bound() const { return node_bound_; }

  // Records `node` as this region's placement and asks the kernel to
  // move the buffer's page-aligned interior there (Linux mbind with
  // MPOL_MF_MOVE). Returns whether the kernel accepted; the hint is
  // recorded either way. No-op off-Linux or for node < 0.
  bool bind_to_node(int node);

  // Whether the kernel accepted the huge-page advice for the current
  // buffer (see the constructor). The paper allocates all
  // RDMA-registered memory on huge pages; for our anonymous buffers
  // transparent huge pages are the closest honest equivalent — fewer
  // TLB misses on the NIC-write + query hot path. A buffer asked for
  // them that spans at least 2 MiB starts 2 MiB-aligned, and its whole
  // 2 MiB-aligned interior is advised (the ragged tail stays on base
  // pages). Best-effort: false for smaller buffers, non-Linux hosts or
  // THP-disabled kernels; the region works identically either way.
  bool hugepage_advised() const { return hugepage_advised_; }

  // First-touch fallback: moves the contents into a fresh buffer (advised
  // like the old one before the copy touches it), which faults every
  // page from the calling thread so default NUMA policy places the pages
  // on the caller's node, then asks the kernel to migrate them there
  // explicitly too (bind_to_node). Contents are preserved. Call only
  // while no other thread accesses the region (the shard worker does
  // this once, right after pinning, before it ingests anything).
  void first_touch_rebind();

 private:
  // Maps a fresh buffer of length_ bytes into data_, aligned and advised
  // when `hugepages` asks for it and the buffer spans a huge page.
  void map_buffer(bool hugepages);

  std::uint64_t base_va_;
  std::uint32_t rkey_;
  std::uint32_t access_;
  int numa_node_ = -1;
  bool node_bound_ = false;
  bool hugepage_advised_ = false;
  std::size_t length_;
  std::uint8_t* data_ = nullptr;
  // The mapping data_ lies in: alignment slack included, unmapped whole.
  void* mapping_ = nullptr;
  std::size_t mapping_bytes_ = 0;
};

// The protection domain owns regions and hands out rkeys, like ibv_pd.
class ProtectionDomain {
 public:
  // Registers a region of `length` bytes; the virtual base address is
  // assigned by the domain (contiguous 4 KiB-aligned carve-outs from a
  // fake address space, so distinct regions never alias).
  MemoryRegion* register_region(std::size_t length, std::uint32_t access);

  MemoryRegion* find(std::uint32_t rkey);
  const MemoryRegion* find(std::uint32_t rkey) const;

  std::size_t region_count() const { return regions_.size(); }

  // NUMA placement hint applied to subsequently registered regions
  // (-1: none). Set before the enable_* calls allocate store memory.
  void set_node_hint(int node) { node_hint_ = node; }
  int node_hint() const { return node_hint_; }

  // Huge-page hint: subsequently registered regions are mapped asking
  // for transparent huge pages (see MemoryRegion's constructor). Set
  // before the enable_* calls, like the node hint.
  void set_hugepage_hint(bool on) { hugepage_hint_ = on; }
  bool hugepage_hint() const { return hugepage_hint_; }

 private:
  std::uint64_t next_va_ = 0x100000000000ull;  // arbitrary high VA
  std::uint32_t next_rkey_ = 0x1000;
  int node_hint_ = -1;
  bool hugepage_hint_ = false;
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
};

}  // namespace dta::rdma
