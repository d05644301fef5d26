// exec::ScratchVec — a growable typed array over recycled Arena buffers.
//
// The front-end (parser, binarizer, leftist transform, canonicalizer,
// sequential sweep) used to build its working set out of fresh std::vectors
// on every request; at serving sizes the allocator traffic dominates the
// work. ScratchVec gives those passes the std::vector surface they need —
// push_back / operator[] / assign / spans — while drawing storage from an
// exec::Arena, so a steady-state request reuses the previous request's
// buffers instead of touching the heap (Arena::Stats::fresh_allocs counts
// the exceptions; the front-end regression test pins it at zero on warm
// requests).
//
// Elements must be trivially copyable and trivially destructible (growth is a memcpy between size classes; the
// destructor just returns the buffer). Same lifetime rules as every arena
// loan: the arena outlives the vector, one thread only.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>

#include "exec/arena.hpp"
#include "util/check.hpp"

namespace copath::exec {

template <typename T>
class ScratchVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= alignof(std::max_align_t));

 public:
  using value_type = T;

  explicit ScratchVec(Arena& arena) : arena_(&arena) {}
  ScratchVec(Arena& arena, std::size_t n, T init = T{}) : arena_(&arena) {
    assign(n, init);
  }

  ScratchVec(const ScratchVec&) = delete;
  ScratchVec& operator=(const ScratchVec&) = delete;
  ScratchVec(ScratchVec&& other) noexcept
      : arena_(other.arena_), buf_(other.buf_), size_(other.size_) {
    other.arena_ = nullptr;
    other.buf_ = Arena::Buffer{};
    other.size_ = 0;
  }
  ScratchVec& operator=(ScratchVec&&) = delete;

  ~ScratchVec() {
    if (arena_ != nullptr) arena_->release(buf_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const {
    return buf_.capacity / sizeof(T);
  }

  [[nodiscard]] T* data() { return reinterpret_cast<T*>(buf_.data); }
  [[nodiscard]] const T* data() const {
    return reinterpret_cast<const T*>(buf_.data);
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    COPATH_DCHECK(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    COPATH_DCHECK(i < size_);
    return data()[i];
  }
  [[nodiscard]] T& back() {
    COPATH_DCHECK(size_ > 0);
    return data()[size_ - 1];
  }
  [[nodiscard]] T& front() {
    COPATH_DCHECK(size_ > 0);
    return data()[0];
  }

  [[nodiscard]] std::span<T> span() { return {data(), size_}; }
  [[nodiscard]] std::span<const T> span() const { return {data(), size_}; }

  void reserve(std::size_t n) {
    if (n > capacity()) grow_to(n);
  }

  void push_back(T value) {
    if (size_ == capacity()) grow_to(size_ + 1);
    data()[size_++] = value;
  }

  void pop_back() {
    COPATH_DCHECK(size_ > 0);
    --size_;
  }

  void clear() { size_ = 0; }

  /// Sets the size to exactly n, filling every slot with `value`.
  void assign(std::size_t n, T value) {
    resize_for_overwrite(n);
    for (std::size_t i = 0; i < n; ++i) data()[i] = value;
  }

  /// Sets the size to exactly n, leaving the slots uninitialized: only for
  /// passes that write every slot before reading any (the binarizer's
  /// output arrays, the leftist leaf counts).
  void resize_for_overwrite(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  /// Grows (never shrinks) to size n; new slots are filled with `value`.
  void resize(std::size_t n, T value = T{}) {
    if (n <= size_) {
      size_ = n;
      return;
    }
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data()[i] = value;
    size_ = n;
  }

 private:
  void grow_to(std::size_t n) {
    // Size classes are pow2, so requesting max(2x, n) keeps growth
    // amortized-constant while landing on the same recycled classes.
    const std::size_t want =
        n * sizeof(T) > buf_.capacity * 2 ? n * sizeof(T)
                                          : buf_.capacity * 2;
    Arena::Buffer next = arena_->acquire(want < sizeof(T) ? sizeof(T) : want);
    if (size_ != 0) std::memcpy(next.data, buf_.data, size_ * sizeof(T));
    arena_->release(buf_);
    buf_ = next;
  }

  Arena* arena_;
  Arena::Buffer buf_{};
  std::size_t size_ = 0;
};

}  // namespace copath::exec
