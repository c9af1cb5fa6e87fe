// A byte string that keeps short contents inside the object.
//
// SmallBytes<N> holds up to N bytes in place and moves to one heap block
// beyond that, so the values the hot path carries (a 20-byte INT value,
// a Key-Write slot, a postcard chunk) cross from producer to shard
// worker and into store memory with no allocation. It offers the subset
// of common::Bytes the tree uses: data/size, iteration, indexing,
// push_back, resize, assign, insert at the end and equality; a Span
// views it like any contiguous container.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace dta::common {

template <std::size_t N>
class SmallBytes {
  // The heap form keeps its block's pointer and capacity in the bytes
  // the in-place form uses.
  struct Heap {
    std::uint8_t* data;
    std::size_t capacity;
  };
  static_assert(N >= sizeof(Heap), "the in-place bytes must hold a Heap");

 public:
  using value_type = std::uint8_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  // Bytes held without a heap block.
  static constexpr std::size_t kInPlace = N;

  SmallBytes() = default;
  SmallBytes(std::initializer_list<std::uint8_t> bytes) {
    assign(bytes.begin(), bytes.end());
  }
  SmallBytes(const SmallBytes& other) { assign(other.begin(), other.end()); }
  // A move takes the block (or copies the in-place bytes) and leaves
  // `other` empty.
  SmallBytes(SmallBytes&& other) noexcept { take(other); }
  SmallBytes& operator=(const SmallBytes& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallBytes& operator=(SmallBytes&& other) noexcept {
    if (this != &other) {
      clear();
      take(other);
    }
    return *this;
  }
  ~SmallBytes() { clear(); }

  std::uint8_t* data() { return on_heap() ? heap().data : bytes_; }
  const std::uint8_t* data() const {
    return on_heap() ? heap().data : bytes_;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return on_heap() ? heap().capacity : N; }
  static constexpr std::size_t max_size() {
    return std::numeric_limits<std::uint32_t>::max();
  }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  std::uint8_t& operator[](std::size_t i) { return data()[i]; }
  const std::uint8_t& operator[](std::size_t i) const { return data()[i]; }

  void clear() { set_size(0); }

  void push_back(std::uint8_t byte) {
    const std::size_t at = size_;
    set_size(at + 1)[at] = byte;
  }

  void resize(std::size_t n, std::uint8_t fill = 0) {
    const std::size_t at = size_;
    std::uint8_t* bytes = set_size(n);
    if (n > at) std::fill(bytes + at, bytes + n, fill);
  }

  // As with std::vector, the range must not lie in this string.
  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    // Keeps a heap block that holds n; otherwise starts from empty, so
    // the old bytes are not copied.
    if (n <= N || n > capacity()) clear();
    std::copy(first, last, set_size(n));
  }

  // Appends [first, last): `pos` must be end(), and, as with std::vector,
  // the range must not lie in this string.
  template <typename It>
  iterator insert(const_iterator pos, It first, It last) {
    assert(pos == end() && "SmallBytes only appends");
    (void)pos;
    const std::size_t at = size_;
    std::uint8_t* bytes =
        set_size(at + static_cast<std::size_t>(std::distance(first, last)));
    std::copy(first, last, bytes + at);
    return bytes + at;
  }

  friend bool operator==(const SmallBytes& a, const SmallBytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  // The form follows the size alone: in place up to N bytes, on the
  // heap beyond.
  bool on_heap() const { return size_ > N; }
  Heap heap() const {
    Heap h;
    std::memcpy(&h, bytes_, sizeof h);
    return h;
  }

  // Sets the size to n, keeping the first min(n, size()) bytes, and
  // returns data(): back in place once n fits, and into a new block of
  // at least twice the capacity when n outgrows the current one. (The
  // pointer comes from the branch that chose the form, so the compiler
  // never sees an n-byte write into the in-place bytes.)
  std::uint8_t* set_size(std::size_t n) {
    if (n > max_size()) throw std::length_error("SmallBytes: too long");
    if (n <= N) {
      if (on_heap()) {
        const Heap h = heap();
        std::memcpy(bytes_, h.data, n);
        delete[] h.data;
      }
      size_ = static_cast<std::uint32_t>(n);
      return bytes_;
    }
    Heap h = on_heap() ? heap() : Heap{nullptr, N};
    if (n > h.capacity) {
      const std::size_t grown_capacity = std::max(n, 2 * h.capacity);
      const Heap grown{new std::uint8_t[grown_capacity], grown_capacity};
      std::memcpy(grown.data, on_heap() ? h.data : bytes_, size_);
      delete[] h.data;
      std::memcpy(bytes_, &grown, sizeof grown);
      h = grown;
    }
    size_ = static_cast<std::uint32_t>(n);
    return h.data;
  }

  void take(SmallBytes& other) noexcept {
    size_ = other.size_;
    std::memcpy(bytes_, other.bytes_, N);
    other.size_ = 0;
  }

  std::uint32_t size_ = 0;
  // Zeroed at construction so every byte a move copies is initialized.
  std::uint8_t bytes_[N] = {};
};

}  // namespace dta::common
