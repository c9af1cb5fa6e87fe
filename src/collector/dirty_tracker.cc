#include "collector/dirty_tracker.h"

#include <algorithm>

namespace dta::collector {

namespace {

// Smallest power of two >= max(value, 64).
std::uint32_t round_chunk(std::uint32_t value) {
  std::uint32_t chunk = 64;
  while (chunk < value && chunk < (1u << 30)) chunk <<= 1;
  return chunk;
}

std::uint32_t log2_of(std::uint32_t pow2) {
  std::uint32_t shift = 0;
  while ((1u << shift) < pow2) ++shift;
  return shift;
}

}  // namespace

DirtyTracker::DirtyTracker(std::uint32_t chunk_bytes, double full_copy_ratio)
    : chunk_bytes_(round_chunk(chunk_bytes)),
      chunk_shift_(log2_of(chunk_bytes_)),
      full_copy_ratio_(full_copy_ratio) {}

void DirtyTracker::track(const rdma::MemoryRegion* region) {
  if (!region || region->length() == 0) return;
  Tracked tracked;
  tracked.region = region;
  tracked.num_chunks =
      (region->length() + chunk_bytes_ - 1) >> chunk_shift_;
  tracked.bits.assign((tracked.num_chunks + 63) / 64, 0);
  tracked_bytes_ += region->length();
  tracked_chunks_ += tracked.num_chunks;
  tracked_.push_back(std::move(tracked));
  cap_ = static_cast<std::uint64_t>(std::clamp(full_copy_ratio_, 0.0, 1.0) *
                                    static_cast<double>(tracked_chunks_));
  // No list can outgrow its region or the cap, so marks never allocate.
  // Reserved pages stay untouched until a mark writes them.
  for (Tracked& t : tracked_) t.list.reserve(std::min(t.num_chunks, cap_));
}

DirtyTracker::Tracked* DirtyTracker::find(std::uint64_t va, std::size_t len) {
  for (Tracked& tracked : tracked_) {
    if (tracked.region->contains(va, len)) return &tracked;
  }
  return nullptr;
}

const DirtyTracker::Tracked* DirtyTracker::find_region(
    const rdma::MemoryRegion* region) const {
  for (const Tracked& tracked : tracked_) {
    if (tracked.region == region) return &tracked;
  }
  return nullptr;
}

void DirtyTracker::mark(std::uint64_t va, std::size_t len) {
  if (len == 0) return;
  ++stats_.marks;
  stats_.bytes_marked += len;
  if (saturated_) return;  // already a full copy; skip the bit work
  Tracked* tracked = find(va, len);
  if (!tracked) {
    // A write we cannot attribute: degrade to full copy, never to a
    // missed patch.
    mark_all();
    return;
  }
  const std::uint64_t base = tracked->region->base_va();
  const std::uint64_t first = (va - base) >> chunk_shift_;
  const std::uint64_t last = (va - base + len - 1) >> chunk_shift_;
  for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
    const std::uint64_t mask = 1ull << (chunk & 63);
    std::uint64_t& word = tracked->bits[chunk >> 6];
    if (word & mask) continue;
    if (listed_ == cap_) {
      mark_all();
      return;
    }
    word |= mask;
    tracked->list.push_back(static_cast<std::uint32_t>(chunk));
    ++listed_;
  }
}

void DirtyTracker::mark_all() {
  saturated_ = true;
  ++stats_.saturations;
}

void DirtyTracker::clear() {
  saturated_ = false;
  listed_ = 0;
  // Every set bit is listed (a saturating mark sets no bit), so zeroing
  // the listed chunks' words clears the bitmap.
  for (Tracked& tracked : tracked_) {
    for (const std::uint32_t chunk : tracked.list) tracked.bits[chunk >> 6] = 0;
    tracked.list.clear();
  }
}

std::uint64_t DirtyTracker::dirty_bytes() const {
  if (saturated_) return tracked_bytes_;
  std::uint64_t total = 0;
  for (const Tracked& tracked : tracked_) {
    total += std::min<std::uint64_t>(tracked.list.size() << chunk_shift_,
                                     tracked.region->length());
  }
  return total;
}

double DirtyTracker::dirty_ratio() const {
  if (tracked_bytes_ == 0) return 0.0;
  return static_cast<double>(dirty_bytes()) /
         static_cast<double>(tracked_bytes_);
}

std::vector<DirtyTracker::Range> DirtyTracker::dirty_ranges(
    const rdma::MemoryRegion* region) const {
  std::vector<Range> runs;
  for_each_dirty_range(region, [&](std::uint64_t offset, std::uint64_t len) {
    runs.emplace_back(offset, len);
  });
  std::sort(runs.begin(), runs.end());
  std::vector<Range> ranges;
  for (const Range& run : runs) {
    if (!ranges.empty() &&
        ranges.back().first + ranges.back().second == run.first) {
      ranges.back().second += run.second;
    } else {
      ranges.push_back(run);
    }
  }
  return ranges;
}

}  // namespace dta::collector
