// exec::Arena — the scratch-buffer pool behind exec::ScratchVec.
//
// The host front-end (parser, binarizer, leftist transform, canonicalizer)
// and the sequential solve kernel build a typed working set on every
// request, and at serving sizes the allocator cost dominates: each fresh
// std::vector of a few hundred KB is an mmap plus a page-fault sweep. The
// arena replaces those with recycled raw buffers:
//
//  * Requests are rounded up to power-of-two size classes, so arrays of
//    slightly-different lengths (n, 2n-1, ...) collapse onto a handful of
//    classes and recycle across passes and — when the arena is shared —
//    whole solves.
//  * acquire/release are plain free-list pushes; after the first request of
//    a given size the steady state performs zero heap allocations (the
//    front-end tests and Service::Stats::arena_fresh_allocs watch this).
//  * The arena owns every byte it ever allocated; release just returns a
//    buffer to the free list, so destruction order of loans is arbitrary
//    and nothing leaks even when a solve throws midway.
//
// Lifetime rules (DESIGN.md §7): an arena must outlive every loan carved
// from it, and it is deliberately NOT thread-safe — loans are taken and
// returned only on the thread driving the solve, so a lock would buy
// nothing. Use for_this_thread() to share one arena across the solves a
// worker thread performs; never pass one arena to two threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"
#include "util/math.hpp"

namespace copath::exec {

class Arena {
 public:
  struct Stats {
    std::uint64_t acquires = 0;      // total buffer requests served
    std::uint64_t reuses = 0;        // served from the free list
    std::uint64_t fresh_allocs = 0;  // served by a new heap allocation
    std::uint64_t bytes_reserved = 0;  // capacity owned (live + free)
    std::uint64_t outstanding = 0;     // buffers currently acquired
  };

  /// A loan from the pool. `capacity` is the rounded size-class, at least
  /// the requested byte count; alignment is operator new[]'s fundamental
  /// alignment (>= alignof(std::max_align_t)).
  struct Buffer {
    std::byte* data = nullptr;
    std::size_t capacity = 0;
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { COPATH_DCHECK(stats_.outstanding == 0); }

  [[nodiscard]] Buffer acquire(std::size_t bytes) {
    const std::size_t cls = size_class(bytes);
    ++stats_.acquires;
    ++stats_.outstanding;
    for (std::size_t i = free_.size(); i-- > 0;) {
      if (free_[i].capacity == cls) {
        const Buffer b = free_[i];
        free_[i] = free_.back();
        free_.pop_back();
        ++stats_.reuses;
        return b;
      }
    }
    // for_overwrite: the borrower fills the buffer itself — a
    // value-initializing new[] would memset the whole class first.
    owned_.push_back(std::make_unique_for_overwrite<std::byte[]>(cls));
    ++stats_.fresh_allocs;
    stats_.bytes_reserved += cls;
    return Buffer{owned_.back().get(), cls};
  }

  void release(Buffer b) {
    if (b.data == nullptr) return;
    COPATH_DCHECK(stats_.outstanding > 0);
    --stats_.outstanding;
    free_.push_back(b);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// The calling thread's private arena: one per solving thread, reused
  /// across every solve that thread performs (Service workers, solve_batch
  /// pool workers, the sequential solve kernel).
  static Arena& for_this_thread() {
    thread_local Arena arena;
    return arena;
  }

 private:
  /// Power-of-two classes with a 256-byte floor: many near-equal lengths
  /// share classes, and tiny arrays all land in one bucket.
  static std::size_t size_class(std::size_t bytes) {
    return util::next_pow2(bytes < 256 ? 256 : bytes);
  }

  std::vector<std::unique_ptr<std::byte[]>> owned_;
  std::vector<Buffer> free_;
  Stats stats_{};
};

}  // namespace copath::exec
