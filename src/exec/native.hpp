// exec::Native — the production executor: the same step/pfor programs the
// checked PRAM simulator certifies, run at memory speed.
//
// Storage is a recycled arena buffer per array (exec/arena.hpp); get/put
// are direct loads and stores (bounds-checked only in debug builds); there
// is no conflict metadata, no write buffering, and no per-element
// accounting. `pfor` and `step` run the body over a util::ThreadPool in one
// Brent-blocked pass — one contiguous block per worker — with a sequential
// fast path when the phase is smaller than `Config::grain` (forking threads
// for a few hundred elements costs more than the loop).
//
// Beyond the per-phase grain, Native opts into the par/ primitives' *native
// shortcuts* (exec::native_shortcuts_v): a primitive over n items may
// replace its whole phase program with a one-pass host loop when
// `sequential_ok(stage, n)` holds — always when the pool has one worker,
// and below the per-stage grain table (Config::grains) otherwise. Shortcut
// outputs are value-identical to the phase program's (every primitive's
// output is uniquely determined by its input); the differential suites
// enforce it.
//
// Soundness: Native may only run step bodies that are EREW-clean — no cell
// touched by two processors in a phase, no processor reading a cell after
// writing it. The CheckedPram executor *proves* that property for every
// program in this library (the test suite runs them under Policy::EREW), and
// for such programs direct writes are race-free and value-identical to the
// simulator's deferred-write semantics. Programs relying on concurrent-write
// resolution (CRCW) or on the end-of-step barrier for cross-processor
// visibility are outside the contract.
//
// Stats semantics (see DESIGN.md): Native counts phases, not the paper's
// cost model. Each step/blocked_step charges 1 step and `procs` work; pfor
// charges the Brent bound ceil(items / processors()) steps and `items`
// work; a shortcut host pass charges 1 step and `items` work. Blocked-step
// bodies' per-processor cost returns are ignored, and reads/writes stay 0
// (nothing is instrumented). Use CheckedPram when the simulated step/work
// counts are the point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/arena.hpp"
#include "exec/exec.hpp"
#include "pram/stats.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace copath::exec {

class Native {
 public:
  /// Per-primitive sequential cutoffs: a primitive over n items takes its
  /// one-pass host fast path when n <= the stage's grain (and always when
  /// the pool has a single worker). Defaults come from the per-stage
  /// measurements in DESIGN.md §7; 0 disables the shortcut for that stage
  /// (tests use this to force the phase-structured path).
  struct Grains {
    std::size_t scan = 1 << 16;
    std::size_t rank = 1 << 17;
    std::size_t brackets = 1 << 16;
    std::size_t euler = 1 << 15;
    std::size_t contract = 1 << 15;

    [[nodiscard]] std::size_t of(Stage s) const {
      switch (s) {
        case Stage::Scan: return scan;
        case Stage::Rank: return rank;
        case Stage::Brackets: return brackets;
        case Stage::Euler: return euler;
        case Stage::Contract: return contract;
      }
      return 0;
    }

    /// All shortcuts off — the pure phase-structured program.
    [[nodiscard]] static Grains none() { return Grains{0, 0, 0, 0, 0}; }
  };

  struct Config {
    /// Worker threads (1 = sequential, no threads spawned; 0 = hardware
    /// concurrency).
    std::size_t workers = 1;
    /// Virtual processor count reported to the blocked primitives (selects
    /// their block counts) and used for the Brent step accounting; 0 means
    /// "one block per worker", the natural native schedule.
    std::size_t processors = 0;
    /// Phases smaller than this run sequentially on the calling thread.
    std::size_t grain = 2048;
    /// Per-primitive sequential cutoffs (see above).
    Grains grains{};
    /// Scratch allocator for executor arrays. nullptr = executor-private
    /// arena (buffers recycle across the stages of one solve). Pass
    /// Arena::for_this_thread() to recycle across every solve this thread
    /// performs; the arena must outlive every array created through it and
    /// must not be shared between threads.
    Arena* arena = nullptr;
    /// Cooperative cancellation token; nullptr = never cancelled.
    /// Borrowed — must outlive the executor. Pool chunks poll it and bail
    /// early; the coordinator throws util::CancelledError at the next
    /// phase end, before any dependent stage can read the partial scratch
    /// a bailed phase left behind. Disarmed cost: one nullptr test per
    /// phase plus a masked counter test per ~512 loop iterations.
    util::CancelToken* cancel = nullptr;
  };

  /// Per-processor context. Carries only identity — Native arrays do not
  /// consult it, so access compiles down to the raw indexing.
  class Ctx {
   public:
    [[nodiscard]] std::uint64_t proc() const { return proc_; }
    [[nodiscard]] std::size_t worker() const { return worker_; }

   private:
    friend class Native;
    explicit Ctx(std::size_t worker) : worker_(worker) {}
    std::uint64_t proc_ = 0;
    std::size_t worker_;
  };

  template <typename T>
  class Array {
    // Arena buffers are raw recycled bytes; anything fancier than a
    // trivially-copyable element would need real construction/destruction
    // bookkeeping the executor deliberately does not do.
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= alignof(std::max_align_t));

   public:
    using value_type = T;

    Array(Native& ex, std::size_t n, T init = T{})
        : buf_(ex.arena().acquire(n * sizeof(T))), size_(n), ex_(&ex) {
      data_ = reinterpret_cast<T*>(buf_.data);
      std::uninitialized_fill_n(data_, n, init);
      ex.add_cells(static_cast<std::int64_t>(n));
    }
    Array(Native& ex, const std::vector<T>& data)
        : buf_(ex.arena().acquire(data.size() * sizeof(T))),
          size_(data.size()),
          ex_(&ex) {
      data_ = reinterpret_cast<T*>(buf_.data);
      std::uninitialized_copy_n(data.data(), size_, data_);
      ex.add_cells(static_cast<std::int64_t>(size_));
    }

    Array(Array&& other) noexcept
        : buf_(other.buf_),
          data_(other.data_),
          size_(other.size_),
          ex_(other.ex_) {
      other.ex_ = nullptr;
      other.buf_ = Arena::Buffer{};
    }
    Array(const Array&) = delete;
    Array& operator=(const Array&) = delete;
    Array& operator=(Array&&) = delete;

    ~Array() {
      if (ex_ != nullptr) {
        ex_->add_cells(-static_cast<std::int64_t>(size_));
        ex_->arena().release(buf_);
      }
    }

    [[nodiscard]] std::size_t size() const { return size_; }

    // --- Step access: direct loads/stores ------------------------------

    [[nodiscard]] T get(Ctx&, std::size_t i) const {
      COPATH_DCHECK(i < size_);
      return data_[i];
    }
    void put(Ctx&, std::size_t i, T value) {
      COPATH_DCHECK(i < size_);
      data_[i] = std::move(value);
    }

    // --- Host access (same surface as pram::Array) ---------------------

    [[nodiscard]] const T& host(std::size_t i) const {
      COPATH_DCHECK(i < size_);
      return data_[i];
    }
    [[nodiscard]] T& host(std::size_t i) {
      COPATH_DCHECK(i < size_);
      return data_[i];
    }
    [[nodiscard]] std::span<const T> host_span() const {
      return {data_, size_};
    }
    [[nodiscard]] std::span<T> host_span() { return {data_, size_}; }
    [[nodiscard]] std::vector<T> to_vector() const {
      return {data_, data_ + size_};
    }

   private:
    Arena::Buffer buf_;
    T* data_ = nullptr;
    std::size_t size_;
    Native* ex_;
  };

  Native() : Native(Config{}) {}
  explicit Native(Config cfg)
      : grain_(cfg.grain == 0 ? 1 : cfg.grain),
        grains_(cfg.grains),
        arena_(cfg.arena),
        cancel_(cfg.cancel),
        pool_(cfg.workers == 0 ? util::ThreadPool::default_workers()
                               : cfg.workers) {
    processors_ = cfg.processors == 0 ? pool_.workers() : cfg.processors;
    if (arena_ == nullptr) {
      owned_arena_ = std::make_unique<Arena>();
      arena_ = owned_arena_.get();
    }
  }

  Native(const Native&) = delete;
  Native& operator=(const Native&) = delete;

  [[nodiscard]] std::size_t workers() const { return pool_.workers(); }

  /// Blocks-per-phase budget for the blocked primitives (mirrors
  /// pram::Machine::processors; 0 never occurs — it resolves at
  /// construction).
  [[nodiscard]] std::size_t processors() const { return processors_; }
  void set_processors(std::size_t p) {
    processors_ = p == 0 ? pool_.workers() : p;
  }

  [[nodiscard]] const pram::Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = pram::Stats{}; }

  /// The scratch allocator executor arrays draw from (shared or private —
  /// see Config::arena).
  [[nodiscard]] Arena& arena() { return *arena_; }

  /// True when a primitive over n items should take its one-pass host
  /// fast path: always on a single-worker pool (the phase machinery can
  /// only lose there), below the per-stage grain otherwise.
  [[nodiscard]] bool sequential_ok(Stage s, std::size_t n) const {
    return pool_.workers() == 1 || n <= grains_.of(s);
  }

  /// Stats charge for a shortcut host pass over `items` elements: one
  /// step, `items` work, on one processor. Doubles as a cancellation
  /// checkpoint: the pass is skipped entirely when the token has tripped.
  void charge_host_pass(std::size_t items) {
    cancel_checkpoint();
    charge(1, items, 1);
  }

  /// Cancellation checkpoint: heartbeats the attached token and throws
  /// util::CancelledError when it has tripped (deadline or explicit).
  /// Called at every phase end and, via the pipeline's stage hook, at
  /// every stage boundary — always on the coordinator thread, so the
  /// throw unwinds through Solver::solve's error path with executor
  /// arrays destroyed (arena buffers released) along the way. A nullptr
  /// test when no token is attached.
  void cancel_checkpoint() {
    if (cancel_ != nullptr) cancel_->checkpoint();
  }

  /// One parallel phase: body(ctx, p) for every p in [0, procs). Bodies
  /// must be EREW-clean (see the header comment); writes are visible
  /// immediately, and the call returns only when every processor finished.
  template <typename Body>
  void step(std::size_t procs, Body&& body) {
    if (procs == 0) return;
    charge(1, procs, procs);
    run(procs, std::forward<Body>(body));
    cancel_checkpoint();
  }

  /// Blocked phase: each processor handles a whole block of work, so the
  /// grain fast path (which counts *indices*, not work) does not apply —
  /// any multi-block phase goes to the pool. The per-processor cost
  /// returned by the body is ignored (Native stats count phases).
  template <typename Body>
  void blocked_step(std::size_t procs, Body&& body) {
    if (procs == 0) return;
    charge(1, procs, procs);
    run_blocked(procs, [&body](Ctx& c, std::size_t p) { (void)body(c, p); });
    cancel_checkpoint();
  }

  /// Brent-scheduled loop: body(ctx, i) for every i in [0, items), in one
  /// pass over the pool (the chunking *is* the Brent schedule — there are
  /// no intermediate barriers, which EREW-clean bodies cannot observe).
  template <typename Body>
  void pfor(std::size_t items, Body&& body) {
    if (items == 0) return;
    // Brent accounting: the schedule never runs more than processors()
    // logical processors per charged step.
    charge(pfor_steps(items), items, std::min(items, processors_));
    run(items, std::forward<Body>(body));
    cancel_checkpoint();
  }

  /// Brent bound pfor(items) is charged: ceil(items / processors()).
  [[nodiscard]] std::size_t pfor_steps(std::size_t items) const {
    return items == 0 ? 0 : util::ceil_div(items, processors_);
  }

 private:
  template <typename T>
  friend class Array;

  void add_cells(std::int64_t delta) {
    stats_.cells = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(stats_.cells) + delta);
  }

  void charge(std::uint64_t steps, std::uint64_t work,
              std::uint64_t procs) {
    stats_.steps += steps;
    stats_.work += work;
    if (procs > stats_.max_processors) stats_.max_processors = procs;
  }

  template <typename Body>
  void run(std::size_t count, Body&& body) {
    if (count < grain_ || pool_.workers() == 1) {
      run_inline(count, body);
      return;
    }
    run_pool(count, body);
  }

  /// Blocked phases skip the grain check: `count` is the number of blocks,
  /// each worth ~n/count elements of sequential work.
  template <typename Body>
  void run_blocked(std::size_t count, Body&& body) {
    if (count < 2 || pool_.workers() == 1) {
      run_inline(count, body);
      return;
    }
    run_pool(count, body);
  }

  /// Loop iterations between cancellation polls inside a phase. Small
  /// enough that a tripped token stops a huge pfor within microseconds,
  /// large enough that the masked test is noise against any real body.
  static constexpr std::size_t kPollMask = 511;

  template <typename Body>
  void run_inline(std::size_t count, Body& body) {
    Ctx ctx(0);
    if (cancel_ == nullptr) {
      for (std::size_t p = 0; p < count; ++p) {
        ctx.proc_ = p;
        body(ctx, p);
      }
      return;
    }
    // Armed: poll mid-phase so even a single-worker (inline) phase
    // heartbeats, enforces its deadline, and stops early. The bail is a
    // plain return — the phase-end cancel_checkpoint() turns it into the
    // structured throw.
    for (std::size_t p = 0; p < count; ++p) {
      if ((p & kPollMask) == 0 && cancel_->poll()) return;
      ctx.proc_ = p;
      body(ctx, p);
    }
  }

  template <typename Body>
  void run_pool(std::size_t count, Body& body) {
    util::CancelToken* cancel = cancel_;
    if (cancel == nullptr) {
      pool_.parallel_blocks(
          0, count,
          [&body](std::size_t worker, std::size_t lo, std::size_t hi) {
            Ctx ctx(worker);
            for (std::size_t p = lo; p < hi; ++p) {
              ctx.proc_ = p;
              body(ctx, p);
            }
          });
      return;
    }
    // Armed: each chunk polls every kPollMask+1 iterations and bails by
    // early return — never by throwing, which would terminate the process
    // (util::ThreadPool's contract). poll() also heartbeats, so a long
    // phase making progress is never mistaken for a stuck one by the
    // Service watchdog.
    pool_.parallel_blocks(
        0, count,
        [&body, cancel](std::size_t worker, std::size_t lo, std::size_t hi) {
          Ctx ctx(worker);
          for (std::size_t p = lo; p < hi; ++p) {
            if (((p - lo) & kPollMask) == 0 && cancel->poll()) return;
            ctx.proc_ = p;
            body(ctx, p);
          }
        });
  }

  std::size_t processors_;
  std::size_t grain_;
  Grains grains_;
  Arena* arena_;
  util::CancelToken* cancel_ = nullptr;
  std::unique_ptr<Arena> owned_arena_;
  util::ThreadPool pool_;
  pram::Stats stats_{};
};

template <>
struct Traits<Native> {
  using Ctx = Native::Ctx;
  template <typename T>
  using Array = Native::Array<T>;

  template <typename T, typename... Args>
  static Array<T> make(Native& ex, Args&&... args) {
    return Array<T>(ex, std::forward<Args>(args)...);
  }
};

template <>
inline constexpr bool native_shortcuts_v<Native> = true;

static_assert(Executor<Native>);

}  // namespace copath::exec
