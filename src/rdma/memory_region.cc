#include "rdma/memory_region.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace dta::rdma {

MemoryRegion::MemoryRegion(std::uint64_t base_va, std::size_t length,
                           std::uint32_t rkey, std::uint32_t access,
                           bool hugepages)
    : base_va_(base_va), rkey_(rkey), access_(access), length_(length) {
  constexpr std::size_t kHuge = std::size_t{2} << 20;
  // A zero-length region still gets a real (one-page) buffer, so data()
  // is never null.
  const std::size_t bytes = std::max<std::size_t>(length_, 1);
  const bool huge = hugepages && length_ >= kHuge;
#if defined(__linux__)
  // Mapped directly rather than taken from the heap: the pages are
  // fresh, so none is faulted before the advice below (or before its
  // first writer), and they read as zero without being written. A
  // huge-page buffer maps 2 MiB of slack to start on a 2 MiB boundary;
  // the slack is never touched.
  mapping_bytes_ = bytes + (huge ? kHuge : 0);
  mapping_ = mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping_ == MAP_FAILED) {
    mapping_ = nullptr;
    throw std::bad_alloc();
  }
  auto start = reinterpret_cast<std::uintptr_t>(mapping_);
  if (huge) start = (start + kHuge - 1) & ~std::uintptr_t{kHuge - 1};
  data_ = reinterpret_cast<std::uint8_t*>(start);
#if defined(MADV_HUGEPAGE)
  // The whole huge pages inside the buffer; the ragged tail stays on
  // base pages, so the advice never faults memory past length().
  if (huge && madvise(data_, length_ & ~(kHuge - 1), MADV_HUGEPAGE) == 0) {
    hugepage_advised_ = true;
  }
#endif
#else
  (void)huge;
  mapping_bytes_ = bytes;
  mapping_ = std::calloc(bytes, 1);
  if (mapping_ == nullptr) throw std::bad_alloc();
  data_ = static_cast<std::uint8_t*>(mapping_);
#endif
}

MemoryRegion::~MemoryRegion() {
#if defined(__linux__)
  munmap(mapping_, mapping_bytes_);
#else
  std::free(mapping_);
#endif
}

void MemoryRegion::zero() { std::memset(data_, 0, length_); }

MemoryRegion* ProtectionDomain::register_region(std::size_t length,
                                                std::uint32_t access) {
  const std::uint64_t va = next_va_;
  // Advance the fake address space, 4 KiB aligned, with a guard page.
  const std::uint64_t aligned = (length + 0xFFFull) & ~0xFFFull;
  next_va_ += aligned + 0x1000;
  auto region = std::make_unique<MemoryRegion>(va, length, next_rkey_++,
                                               access, hugepage_hint_);
  regions_.push_back(std::move(region));
  return regions_.back().get();
}

MemoryRegion* ProtectionDomain::find(std::uint32_t rkey) {
  for (auto& r : regions_) {
    if (r->rkey() == rkey) return r.get();
  }
  return nullptr;
}

const MemoryRegion* ProtectionDomain::find(std::uint32_t rkey) const {
  for (const auto& r : regions_) {
    if (r->rkey() == rkey) return r.get();
  }
  return nullptr;
}

}  // namespace dta::rdma
