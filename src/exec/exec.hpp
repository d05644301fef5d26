// The execution-layer abstraction separating the paper's algorithms from
// the substrate they run on.
//
// Every parallel primitive in par/ and every stage of the core pipeline is
// written against an *executor*: an object exposing synchronous phases
// (`step`, `blocked_step`), a Brent-scheduled parallel loop (`pfor`), and a
// shared-array type accessed through a per-processor context. Two
// executors implement the contract:
//
//   exec::CheckedPram  (exec/checked_pram.hpp) — the conflict-checked PRAM
//     simulator: deferred writes, end-of-step barriers, EREW/CREW/CRCW
//     enforcement, and exact step/work accounting. The correctness and
//     complexity oracle. `pram::Machine` itself also satisfies the contract,
//     so legacy call sites keep working unchanged.
//
//   exec::Native       (exec/native.hpp) — plain std::vector storage,
//     direct writes, no conflict metadata, thread-pool `pfor` with a
//     sequential fast path. The production engine.
//
// The substitution is sound for exactly the programs the checked simulator
// certifies: in an EREW-clean step no cell is touched by two processors and
// no processor reads a cell after writing it (the checker flags both), so
// executing the same body with direct writes is race-free and
// value-identical to the deferred-write semantics. Step bodies must keep to
// that discipline — run the CheckedPram executor in tests to prove it.
//
// Executor access goes through `exec::Traits<E>` (specialized next to each
// executor) so algorithm code never names a concrete machine:
//   exec::CtxOf<E>                 the per-processor context type
//   exec::ArrayOf<E, T>            the shared-array type
//   exec::make_array<T>(ex, ...)   array construction (size+init or adopt)
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace copath::exec {

/// Must be specialized for every executor type E with:
///   using Ctx = ...;
///   template <typename T> using Array = ...;
///   template <typename T, typename... Args>
///   static Array<T> make(E& ex, Args&&... args);
template <typename E>
struct Traits;

template <typename E>
using CtxOf = typename Traits<E>::Ctx;

/// True for executors that permit the calibrated *native shortcuts*: the
/// par/ primitives' one-pass sequential fast paths and fused sweeps.
/// Shortcut-taking code must be value-identical to the phase-structured
/// program it replaces (the outputs of every primitive are uniquely
/// determined by its inputs); the checked simulator keeps its exact phase
/// structure so step/work accounting stays bit-for-bit, which is why the
/// default is false and only exec::Native opts in (specialization lives in
/// exec/native.hpp).
template <typename E>
inline constexpr bool native_shortcuts_v = false;

/// Which primitive is asking for a sequential cutoff. Executors with
/// native_shortcuts_v expose `sequential_ok(Stage, n)` against a per-stage
/// grain table (exec::Native::Grains).
enum class Stage : std::uint8_t {
  Scan,      // prefix sums, reductions, compaction
  Rank,      // list ranking
  Brackets,  // bracket matching
  Euler,     // Euler-tour numbering
  Contract,  // tree contraction
};

template <typename E, typename T>
using ArrayOf = typename Traits<E>::template Array<T>;

/// Allocates an executor array: make_array<T>(ex, n[, init]) or adopts a
/// vector: make_array(ex, std::vector<T>{...}).
template <typename T, typename E>
[[nodiscard]] ArrayOf<E, T> make_array(E& ex, std::size_t n, T init = T{}) {
  return Traits<E>::template make<T>(ex, n, std::move(init));
}

template <typename T, typename E>
[[nodiscard]] ArrayOf<E, T> make_array(E& ex, std::vector<T> data) {
  return Traits<E>::template make<T>(ex, std::move(data));
}

// clang-format off
/// The executor contract the par/ primitives and core stages are written
/// against. (Array construction is checked through make_array above.)
template <typename E>
concept Executor = requires(E& ex, const E& cex, std::size_t n) {
  typename Traits<E>::Ctx;
  { cex.processors() } -> std::convertible_to<std::size_t>;
  { cex.pfor_steps(n) } -> std::convertible_to<std::size_t>;
  ex.step(n, [](CtxOf<E>&, std::size_t) {});
  ex.blocked_step(n, [](CtxOf<E>&, std::size_t) -> std::uint64_t {
    return 1;
  });
  ex.pfor(n, [](CtxOf<E>&, std::size_t) {});
};
// clang-format on

}  // namespace copath::exec
