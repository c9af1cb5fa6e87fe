// A vector that keeps its first elements inside the object.
//
// SmallVector<T, N> holds up to N elements in place and moves them to
// one heap block beyond that, so a short list (an Append report's one
// entry) is built, copied from a ring, pushed and overwritten with no
// allocation. It offers the subset of std::vector the tree uses: size,
// iteration, indexing, front, push_back, emplace_back, reserve and
// clear. As with std::vector, clear() keeps the capacity; the block is
// freed when the vector is destroyed or moved over.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace dta::common {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(N >= 1, "a SmallVector holds at least one element in place");
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growth moves elements without a way back");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "operator new aligns blocks to max_align_t");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  // Not defaulted: in_place_'s constructor would delete it.
  SmallVector() {}
  SmallVector(const SmallVector& other) { append_copies(other); }
  // A move takes the block (or moves the in-place elements) and leaves
  // `other` empty.
  SmallVector(SmallVector&& other) noexcept { take(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      append_copies(other);
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~SmallVector() { release(); }

  T* data() { return on_heap() ? heap_ : in_place_; }
  const T* data() const { return on_heap() ? heap_ : in_place_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      // Built before the move: `args` may name an element of this
      // vector.
      T value(std::forward<Args>(args)...);
      reserve(2 * std::size_t{capacity_});
      return *new (data() + size_++) T(std::move(value));
    }
    T* slot = new (data() + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  // Moves the elements into one block of n when n exceeds the capacity.
  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("SmallVector: too long");
    }
    T* block = static_cast<T*>(::operator new(n * sizeof(T)));
    T* old = data();
    std::uninitialized_move_n(old, size_, block);
    std::destroy_n(old, size_);
    if (on_heap()) ::operator delete(old);
    heap_ = block;
    capacity_ = static_cast<std::uint32_t>(n);
  }

  void clear() {
    std::destroy_n(data(), size_);
    size_ = 0;
  }

 private:
  bool on_heap() const { return capacity_ > N; }

  void append_copies(const SmallVector& other) {
    reserve(other.size_);
    for (const T& value : other) emplace_back(value);
  }

  // Back to empty and in place.
  void release() {
    clear();
    if (on_heap()) ::operator delete(heap_);
    capacity_ = N;
  }

  // Requires this vector empty and in place.
  void take(SmallVector& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.capacity_ = N;
    } else {
      std::uninitialized_move_n(other.in_place_, other.size_, in_place_);
      std::destroy_n(other.in_place_, other.size_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  // The elements sit in in_place_ while capacity_ is N and in heap_'s
  // block beyond; either way only the first size_ are constructed.
  union {
    T* heap_ = nullptr;
    T in_place_[N];
  };
};

}  // namespace dta::common
