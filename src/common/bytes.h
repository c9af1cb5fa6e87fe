// Byte-order aware serialization helpers shared by every wire format in
// the project (Ethernet/IPv4/UDP, RoCEv2 and the DTA protocol itself).
//
// All multi-byte fields on the wire are big-endian (network order), per
// the conventions of the protocols we model.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/lifetime_annotations.h"

namespace dta::common {

using Bytes = std::vector<std::uint8_t>;

// Minimal std::span stand-in (the project builds as C++17). Only the
// operations the wire formats need: pointer+size views, subspan, and
// implicit construction from any contiguous container.
template <typename T>
class Span;

namespace internal {
// Excludes Span itself from the container-converting constructor (like
// std::span's range constructor): span-to-span copies must go through
// the plain copy constructor, which carries no lifetimebound — a span
// does not borrow from another span object, only from the underlying
// container.
template <typename C>
struct IsSpan : std::false_type {};
template <typename U>
struct IsSpan<Span<U>> : std::true_type {};
}  // namespace internal

template <typename T>
class Span {
 public:
  using element_type = T;
  using value_type = std::remove_cv_t<T>;
  using iterator = T*;

  constexpr Span() noexcept = default;
  constexpr Span(T* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  // A span borrows the container it is built from: lifetimebound turns
  // a span bound to a temporary (dead at the end of the statement) into
  // a clang compile error instead of a dangling read.
  template <typename C,
            typename = std::enable_if_t<
                !internal::IsSpan<std::remove_cv_t<C>>::value &&
                std::is_convertible_v<decltype(std::declval<C&>().data()),
                                      T*>>>
  constexpr Span(C& container DTA_LIFETIMEBOUND)  // NOLINT: implicit
      : data_(container.data()), size_(container.size()) {}

  template <typename C,
            typename = std::enable_if_t<
                !internal::IsSpan<std::remove_cv_t<C>>::value &&
                std::is_convertible_v<decltype(std::declval<const C&>().data()),
                                      T*>>>
  constexpr Span(const C& container DTA_LIFETIMEBOUND)  // NOLINT: implicit
      : data_(container.data()), size_(container.size()) {}

  // Span-of-U to span-of-const-U (no borrow from the other span object,
  // so no lifetimebound: both alias the same underlying container).
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  constexpr Span(const Span<U>& other) noexcept  // NOLINT: implicit
      : data_(other.data()), size_(other.size()) {}

  constexpr T* data() const noexcept { return data_; }
  constexpr std::size_t size() const noexcept { return size_; }
  constexpr bool empty() const noexcept { return size_ == 0; }
  constexpr T& operator[](std::size_t i) const { return data_[i]; }
  constexpr T* begin() const noexcept { return data_; }
  constexpr T* end() const noexcept { return data_ + size_; }
  constexpr T& front() const { return data_[0]; }
  constexpr T& back() const { return data_[size_ - 1]; }

  constexpr Span subspan(std::size_t offset) const {
    return {data_ + offset, size_ - offset};
  }
  constexpr Span subspan(std::size_t offset, std::size_t count) const {
    return {data_ + offset, count};
  }
  constexpr Span first(std::size_t count) const { return {data_, count}; }
  constexpr Span last(std::size_t count) const {
    return {data_ + (size_ - count), count};
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

using ByteSpan = Span<const std::uint8_t>;
using MutByteSpan = Span<std::uint8_t>;

// -- Big-endian primitive writers -------------------------------------------
//
// Each appends to any byte container with push_back and end-insert:
// Bytes, or a SmallBytes (common/small_bytes.h).

template <typename Out>
void put_u8(Out& out, std::uint8_t v) {
  out.push_back(v);
}

template <typename Out>
void put_u16(Out& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

template <typename Out>
void put_u32(Out& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

template <typename Out>
void put_u64(Out& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

template <typename Out>
void put_bytes(Out& out, ByteSpan data) {
  out.insert(out.end(), data.begin(), data.end());
}

// -- Big-endian primitive readers --------------------------------------------
//
// A Cursor walks a received buffer; `ok()` turns false on any overrun so a
// parser can finish the walk and check validity once at the end (this is
// the usual branch-light parsing style in packet pipelines).

class Cursor {
 public:
  explicit Cursor(ByteSpan data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() {
    if (!ensure(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    if (!ensure(4)) return 0;
    std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                      (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                      (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                      static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t hi = u32();
    std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }

  ByteSpan bytes(std::size_t n) {
    if (!ensure(n)) return {};
    ByteSpan s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  void skip(std::size_t n) {
    if (ensure(n)) pos_ += n;
  }

 private:
  bool ensure(std::size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return ok_;
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// -- In-place big-endian accessors (for writing into registered memory) -----

inline std::uint32_t load_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(load_u32(p)) << 32) | load_u32(p + 4);
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v >> 32));
  store_u32(p + 4, static_cast<std::uint32_t>(v));
}

// Hex dump used in diagnostics and golden tests.
std::string to_hex(ByteSpan data);

}  // namespace dta::common
