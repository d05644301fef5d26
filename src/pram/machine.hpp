// The PRAM machine: step-synchronous execution of virtual processors over a
// conflict-checked shared memory.
//
// Model mapping (paper -> simulator):
//   * A PRAM step = one Machine::step() call. Every virtual processor runs
//     the supplied body once; all reads observe the memory state from the
//     beginning of the step because writes are buffered and committed at
//     the end-of-step barrier (deferred-write semantics).
//   * Time  = number of steps, Work = sum of active processors per step
//     (see pram/stats.hpp).
//   * The EREW / CREW / CRCW access disciplines are *enforced*: an illegal
//     concurrent access raises PramViolation at the end of the step. This is
//     how the test suite proves the path cover pipeline really is an EREW
//     algorithm, not just a parallel-looking one.
//   * Machine::pfor(n, body) Brent-schedules n data items onto the machine's
//     configured processor count P in ceil(n/P) steps — exactly the
//     "n / log n processors, O(log n) time per sweep" scheduling the paper's
//     primitives use.
//
// Physical execution is one host thread: a step runs its virtual processors
// in order 0, 1, ..., procs - 1 on the calling thread. Host threads are not
// part of the PRAM model, and splitting steps across them made the pipeline
// slower, not faster (DESIGN.md §2 has the measurements).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pram/policy.hpp"
#include "pram/stats.hpp"
#include "util/check.hpp"

namespace copath::pram {

class Machine;

namespace detail {

/// Type-erased base for shared-memory arrays; the machine keeps a registry
/// of live arrays so it can commit their buffered writes at step end.
class ArrayBase {
 public:
  ArrayBase(const ArrayBase&) = delete;
  ArrayBase& operator=(const ArrayBase&) = delete;

 protected:
  explicit ArrayBase(Machine& machine);
  ArrayBase(ArrayBase&& other) noexcept;
  virtual ~ArrayBase();

  Machine* machine_;
  std::size_t slot_ = 0;

 private:
  friend class copath::pram::Machine;
  /// Applies buffered writes for the finished step. Returns the number of
  /// write records committed.
  virtual std::uint64_t commit_pending(Policy policy) = 0;
};

/// Packed access stamp: high bits = step id, low 25 bits = processor id + 1
/// (0 means "never accessed"). Used by the conflict detector.
inline constexpr int kProcBits = 25;
inline constexpr std::uint64_t kProcMask = (1ull << kProcBits) - 1;

inline constexpr std::uint64_t pack_stamp(std::uint64_t step,
                                          std::uint64_t proc) {
  return (step << kProcBits) | (proc + 1);
}
inline constexpr std::uint64_t stamp_step(std::uint64_t s) {
  return s >> kProcBits;
}
inline constexpr std::uint64_t stamp_proc(std::uint64_t s) {
  return s & kProcMask;  // proc + 1; 0 = none
}

}  // namespace detail

/// Per-processor execution context handed to step bodies. Grants access to
/// shared memory (through Array::get/put) and identifies the processor.
class Ctx {
 public:
  /// Virtual processor id within the current step, 0-based.
  [[nodiscard]] std::uint64_t proc() const { return proc_; }

 private:
  friend class Machine;
  template <typename T>
  friend class Array;

  Ctx() = default;

  std::uint64_t proc_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

class Machine {
 public:
  struct Config {
    /// Access discipline to enforce.
    Policy policy = Policy::EREW;
    /// Default virtual processor count used by pfor(); 0 means "one
    /// processor per item" (maximum parallelism, used by unit tests).
    std::size_t processors = 0;
  };

  Machine();  // EREW, maximally parallel pfor
  explicit Machine(Config cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] Policy policy() const { return policy_; }
  [[nodiscard]] bool checked() const { return policy_ != Policy::Unchecked; }
  [[nodiscard]] std::uint64_t current_step() const { return step_id_; }

  /// Virtual processors used by pfor (the paper sets this to n / log2 n).
  [[nodiscard]] std::size_t processors() const { return processors_; }
  void set_processors(std::size_t p) { processors_ = p; }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Executes one synchronous PRAM step with `procs` active processors.
  /// `body(ctx, p)` runs once for each processor p in [0, procs). All reads
  /// see pre-step memory; writes commit at the end-of-step barrier. Throws
  /// PramViolation if the access discipline was violated.
  template <typename Body>
  void step(std::size_t procs, Body&& body) {
    if (procs == 0) return;
    COPATH_CHECK_MSG(procs <= detail::kProcMask,
                     "too many processors for one step: " << procs);
    ++step_id_;
    stats_.steps += 1;
    stats_.work += procs;
    if (procs > stats_.max_processors) stats_.max_processors = procs;
    Ctx ctx;
    for (std::size_t p = 0; p < procs; ++p) {
      ctx.proc_ = p;
      body(ctx, p);
    }
    stats_.reads += ctx.reads_;
    stats_.writes += ctx.writes_;
    commit_all();
    throw_pending_violation();
  }

  /// A Brent-style "blocked" step: each of the `procs` processors runs a
  /// sequential local loop and returns the number of time units it consumed
  /// (e.g. the length of the block it scanned). The phase is charged
  /// max(cost) steps and sum(cost) work — the standard accounting for PRAM
  /// phases of the form "each processor handles a block of log n items".
  ///
  /// Memory semantics are those of one synchronous macro-step: all reads see
  /// pre-phase memory and all writes commit at the end. Bodies must therefore
  /// keep intra-phase sequential state in locals, never in shared cells (the
  /// checker flags a read of a cell the same processor wrote this phase).
  template <typename Body>
  void blocked_step(std::size_t procs, Body&& body) {
    if (procs == 0) return;
    COPATH_CHECK_MSG(procs <= detail::kProcMask,
                     "too many processors for one step: " << procs);
    ++step_id_;
    Ctx ctx;
    std::uint64_t max_cost = 0;
    std::uint64_t total_cost = 0;
    for (std::size_t p = 0; p < procs; ++p) {
      ctx.proc_ = p;
      const std::uint64_t cost = std::max<std::uint64_t>(1, body(ctx, p));
      max_cost = std::max(max_cost, cost);
      total_cost += cost;
    }
    stats_.steps += max_cost;
    stats_.work += total_cost;
    stats_.reads += ctx.reads_;
    stats_.writes += ctx.writes_;
    if (procs > stats_.max_processors) stats_.max_processors = procs;
    commit_all();
    throw_pending_violation();
  }

  /// Brent-scheduled parallel loop: runs `body(ctx, i)` for every data item
  /// i in [0, items) using processors() virtual processors, taking
  /// ceil(items / processors()) steps. With processors() == 0 the loop runs
  /// as a single maximally parallel step.
  template <typename Body>
  void pfor(std::size_t items, Body&& body) {
    if (items == 0) return;
    const std::size_t p = processors_ == 0 ? items : processors_;
    for (std::size_t off = 0; off < items; off += p) {
      const std::size_t cnt = std::min(p, items - off);
      step(cnt, [off, &body](Ctx& ctx, std::size_t i) {
        body(ctx, off + i);
      });
    }
  }

  /// Number of steps pfor(items) will take — handy for tests asserting the
  /// Brent bound.
  [[nodiscard]] std::size_t pfor_steps(std::size_t items) const {
    if (items == 0) return 0;
    const std::size_t p = processors_ == 0 ? items : processors_;
    return (items + p - 1) / p;
  }

 private:
  template <typename T>
  friend class Array;
  friend class detail::ArrayBase;

  std::size_t register_array(detail::ArrayBase* a);
  void reregister_array(std::size_t slot, detail::ArrayBase* a);
  void unregister_array(std::size_t slot);
  void add_cells(std::int64_t delta);

  /// Records the first access violation of the current step; the step
  /// throws after its commit barrier.
  void report_violation(const std::string& message);
  void commit_all();
  void throw_pending_violation();

  Policy policy_;
  std::size_t processors_;
  std::uint64_t step_id_ = 0;
  Stats stats_{};

  std::vector<detail::ArrayBase*> arrays_;
  std::vector<std::size_t> free_slots_;

  bool violated_ = false;
  std::string violation_message_;
};

}  // namespace copath::pram
