// exec::Arena — the scratch-buffer pool behind exec::Native arrays.
//
// The pipeline allocates hundreds of typed scratch arrays per solve (every
// par/ primitive and every pipeline stage builds its working set fresh), and
// at serving sizes the allocator cost dominates: each fresh std::vector of a
// few hundred KB is an mmap plus a page-fault sweep. The arena replaces
// those with recycled raw buffers:
//
//  * Requests are rounded up to power-of-two size classes, so arrays of the
//    pipeline's slightly-different lengths (n, 2n-1, tour length, bracket
//    total, ...) collapse onto a handful of classes and recycle across
//    stages, repair rounds, and — when the arena is shared — whole solves.
//  * acquire/release are plain free-list pushes; after the first solve of a
//    given size the steady state performs zero heap allocations for
//    executor arrays (tests/exec_test.cpp asserts this).
//  * The arena owns every byte it ever allocated; release just returns a
//    buffer to the free list, so destruction order of arrays is arbitrary
//    and nothing leaks even when a solve throws mid-stage.
//
// Lifetime rules (DESIGN.md §7): an arena must outlive every array carved
// from it, and it is deliberately NOT thread-safe — executor arrays are
// created and destroyed only on the thread driving the solve (step/pfor
// bodies never allocate), so a lock would buy nothing. Use for_this_thread()
// to share one arena across the solves a worker thread performs; never pass
// one arena to two threads.
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
    // for_overwrite: the Array constructor fills the buffer immediately —
    // a value-initializing new[] would memset the whole class first.
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

  /// Drops every free buffer (memory pressure valve). Outstanding buffers
  /// are unaffected but their classes will re-allocate on next acquire.
  void trim() {
    COPATH_CHECK_MSG(stats_.outstanding == 0,
                     "Arena::trim with live arrays outstanding");
    free_.clear();
    owned_.clear();
    stats_.bytes_reserved = 0;
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
  /// Power-of-two classes with a 256-byte floor: the pipeline's many
  /// near-equal lengths share classes, and tiny arrays (block sums,
  /// tournament levels) all land in one bucket.
  static std::size_t size_class(std::size_t bytes) {
    return util::next_pow2(bytes < 256 ? 256 : bytes);
  }

  std::vector<std::unique_ptr<std::byte[]>> owned_;
  std::vector<Buffer> free_;
  Stats stats_{};
};

}  // namespace copath::exec
