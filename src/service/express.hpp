// The sequential solve kernel, and the Service express lane built on it.
//
// solve_sweep is the library's one host solve: binarize -> leftist ->
// Lemma 2.3 sweep -> verdicts -> optional cycle -> optional validate, with
// the binarized tree built once and shared by the sweep and every verdict.
// Its callers differ only in where that tree lives: Solver::solve's
// host-sweep route (Backend::Sequential, and Backend::Adaptive whenever
// its cost model picks the sweep) and the express lane use the thread's
// exec::Arena; the packed batch loop (service/batch.cpp) hands it slices
// of one exec::Slab. Results are therefore bitwise-identical whichever
// caller ran it, and a warm thread solves without heap allocations beyond
// the SolveResult it returns.
//
// The express lane is the Service's registry-free call into the kernel
// below the Adaptive floor, where the route is fixed and no thread lease
// is needed.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "cograph/binarize.hpp"
#include "copath_solver.hpp"
#include "core/count.hpp"
#include "exec/arena.hpp"

namespace copath::service {

/// True when `opts` lets the express lane handle an n-vertex instance with
/// results identical to the generic path: Backend::Sequential always, and
/// Backend::Adaptive below its model's unconditional-sequential floor
/// (`CostModel::min_native_n`). Above the floor Adaptive's route depends
/// on thread budgets, which only the generic path (holding a lease) can
/// answer.
[[nodiscard]] bool express_eligible(std::size_t n, const SolveOptions& opts);

/// The kernel over caller-provided storage: `bin` sized for `t` (2n-1
/// nodes, n vertices) and `leaf_count` (2n-1), both overwritten. routed
/// is Sequential; wall_ms times binarize + leftist + sweep. Throws on
/// failure (callers build the solve_failure result); never polls
/// opts.cancel.
[[nodiscard]] SolveResult solve_sweep(const cograph::Cotree& t,
                                      const std::string& label,
                                      const SolveOptions& opts,
                                      cograph::BinSpans bin,
                                      std::span<std::int64_t> leaf_count,
                                      exec::Arena& arena);

/// The tail every solve shares once its cover is in: `v`'s verdicts (or
/// the -1 sentinel with compute_verdicts off), the optional Hamiltonian
/// cycle, validation (minimality required iff `exact`), then ok = true.
void finish_solve(SolveResult& res, const cograph::Cotree& t,
                  const SolveOptions& opts, const core::CountVerdicts& v,
                  bool exact);

/// The kernel with its storage carved from `arena`.
[[nodiscard]] SolveResult solve_sweep(const cograph::Cotree& t,
                                      const std::string& label,
                                      const SolveOptions& opts,
                                      exec::Arena& arena);

/// The structured result of a solve that threw (Solver::solve, the express
/// lane, the packed batch loop): `routed` echoes the backend.
[[nodiscard]] SolveResult solve_failure(const std::string& label,
                                        Backend backend, std::string error);

/// The express lane: resolve, then solve_sweep. Never throws: failures
/// come back as ok == false, like Solver::solve. Pass the worker thread's
/// Arena::for_this_thread() as `arena`.
[[nodiscard]] SolveResult solve_express(const Instance& inst,
                                        const std::string& label,
                                        const SolveOptions& opts,
                                        exec::Arena& arena);

}  // namespace copath::service
