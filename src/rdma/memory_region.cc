#include "rdma/memory_region.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__linux__)
#include <sched.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#endif

namespace dta::rdma {

namespace {

#if defined(__linux__)
// Parses a sysfs cpulist ("0-3,8-11") into per-core node assignments.
void assign_cpulist(const std::string& cpulist, int node,
                    std::vector<int>& core_to_node) {
  std::stringstream stream(cpulist);
  std::string range;
  while (std::getline(stream, range, ',')) {
    if (range.empty()) continue;
    int lo = 0, hi = 0;
    const auto dash = range.find('-');
    lo = std::atoi(range.c_str());
    hi = dash == std::string::npos ? lo : std::atoi(range.c_str() + dash + 1);
    for (int core = lo; core >= 0 && core <= hi; ++core) {
      if (core >= static_cast<int>(core_to_node.size())) {
        core_to_node.resize(core + 1, -1);
      }
      core_to_node[core] = node;
    }
  }
}
#endif

// core -> node map read from sysfs once; empty when unavailable.
struct NumaTopology {
  int nodes = 1;
  std::vector<int> core_to_node;

  NumaTopology() {
#if defined(__linux__)
    int node_count = 0;
    for (int node = 0;; ++node) {
      std::ifstream cpulist("/sys/devices/system/node/node" +
                            std::to_string(node) + "/cpulist");
      if (!cpulist.is_open()) break;
      std::string list;
      std::getline(cpulist, list);
      assign_cpulist(list, node, core_to_node);
      ++node_count;
    }
    if (node_count > 0) nodes = node_count;
#endif
  }
};

const NumaTopology& topology() {
  static const NumaTopology topo;
  return topo;
}

void release_buffer(void* mapping, std::size_t bytes) {
  if (mapping == nullptr) return;
#if defined(__linux__)
  munmap(mapping, bytes);
#else
  (void)bytes;
  std::free(mapping);
#endif
}

}  // namespace

int numa_node_count() { return topology().nodes; }

int numa_node_of_core(int core) {
  const auto& map = topology().core_to_node;
  if (core < 0 || core >= static_cast<int>(map.size())) return -1;
  return map[core];
}

MemoryRegion::MemoryRegion(std::uint64_t base_va, std::size_t length,
                           std::uint32_t rkey, std::uint32_t access,
                           bool hugepages)
    : base_va_(base_va), rkey_(rkey), access_(access), length_(length) {
  map_buffer(hugepages);
}

MemoryRegion::~MemoryRegion() { release_buffer(mapping_, mapping_bytes_); }

void MemoryRegion::map_buffer(bool hugepages) {
  constexpr std::size_t kHuge = std::size_t{2} << 20;
  // A zero-length region still gets a real (one-page) buffer, so data()
  // is never null.
  const std::size_t bytes = std::max<std::size_t>(length_, 1);
  const bool huge = hugepages && length_ >= kHuge;
  hugepage_advised_ = false;
#if defined(__linux__)
  // Mapped directly rather than taken from the heap: the pages are
  // fresh, so none is faulted before the advice below, and they read as
  // zero without being written. A huge-page buffer maps 2 MiB of slack
  // to start on a 2 MiB boundary; the slack is never touched.
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

void MemoryRegion::zero() { std::memset(data_, 0, length_); }

bool MemoryRegion::bind_to_node(int node) {
  if (node < 0) return false;
  numa_node_ = node;
#if defined(__linux__) && defined(SYS_mbind)
  // Raw mbind (libnuma may be absent): move the buffer's whole pages (a
  // partial last page is left where it is); MPOL_BIND + MPOL_MF_MOVE
  // also migrates pages already touched by the allocating thread.
  if (node >= 64) return false;  // single-word nodemask covers real hosts
  const long page_size = sysconf(_SC_PAGESIZE);
  const auto kPage =
      page_size > 0 ? static_cast<std::uintptr_t>(page_size) : 4096u;
  const auto start = reinterpret_cast<std::uintptr_t>(data_);
  const std::uintptr_t lo = (start + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t hi = (start + length_) & ~(kPage - 1);
  if (lo >= hi) return false;
  unsigned long nodemask = 1ul << node;
  constexpr int kMpolBind = 2;       // MPOL_BIND
  constexpr unsigned kMpolMfMove = 2;  // MPOL_MF_MOVE
  node_bound_ = syscall(SYS_mbind, lo, hi - lo, kMpolBind, &nodemask,
                        sizeof(nodemask) * 8 + 1, kMpolMfMove) == 0;
  return node_bound_;
#else
  return false;
#endif
}

void MemoryRegion::first_touch_rebind() {
  // The copy touches every page of the new buffer from the calling
  // thread, so first-touch policy allocates them on its node; the new
  // buffer is advised (when the old one was) before that first touch.
  const std::uint8_t* old_data = data_;
  void* const old_mapping = mapping_;
  const std::size_t old_mapping_bytes = mapping_bytes_;
  map_buffer(hugepage_advised_);
  std::memcpy(data_, old_data, length_);
  release_buffer(old_mapping, old_mapping_bytes);
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    const int node = numa_node_of_core(cpu);
    // First-touch only places never-faulted pages. Follow up with an
    // explicit migrate of the new buffer so the placement (and its
    // bookkeeping) is real, not assumed.
    if (node >= 0) bind_to_node(node);
  }
#endif
}

MemoryRegion* ProtectionDomain::register_region(std::size_t length,
                                                std::uint32_t access) {
  const std::uint64_t va = next_va_;
  // Advance the fake address space, 4 KiB aligned, with a guard page.
  const std::uint64_t aligned = (length + 0xFFFull) & ~0xFFFull;
  next_va_ += aligned + 0x1000;
  auto region = std::make_unique<MemoryRegion>(va, length, next_rkey_++,
                                               access, hugepage_hint_);
  if (node_hint_ >= 0) region->bind_to_node(node_hint_);
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
