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
// NUMA placement: nothing here decides it. A shard's live regions are
// written only by the thread that executes its verbs — its worker, which
// the ingest pipeline pins before any report reaches it (inline, the
// submitting thread) — and by nothing before that: the mapping is fresh
// and the stores do not initialise it. So the kernel's default local
// allocation faults each page onto that thread's node at its first
// write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"

namespace dta::rdma {

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

  // Whether the kernel accepted the huge-page advice for the buffer
  // (see the constructor); fixed once constructed. The paper allocates all
  // RDMA-registered memory on huge pages; for our anonymous buffers
  // transparent huge pages are the closest honest equivalent — fewer
  // TLB misses on the NIC-write + query hot path. A buffer asked for
  // them that spans at least 2 MiB starts 2 MiB-aligned, and its whole
  // 2 MiB-aligned interior is advised (the ragged tail stays on base
  // pages). Best-effort: false for smaller buffers, non-Linux hosts or
  // THP-disabled kernels; the region works identically either way.
  bool hugepage_advised() const { return hugepage_advised_; }

 private:
  std::uint64_t base_va_;
  std::uint32_t rkey_;
  std::uint32_t access_;
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

  // Huge-page hint: subsequently registered regions are mapped asking
  // for transparent huge pages (see MemoryRegion's constructor). Set
  // before the enable_* calls allocate store memory.
  void set_hugepage_hint(bool on) { hugepage_hint_ = on; }

 private:
  std::uint64_t next_va_ = 0x100000000000ull;  // arbitrary high VA
  std::uint32_t next_rkey_ = 0x1000;
  bool hugepage_hint_ = false;
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
};

}  // namespace dta::rdma
