// The sequential solve kernel, and the express lane built on it.
//
// solve_sweep is the library's one host solve: binarize -> leftist ->
// Lemma 2.3 sweep -> verdicts -> optional cycle -> optional validate, with
// the binarized tree built once in the caller's exec::Arena and shared by
// the sweep and every verdict. Every host-sweep request (Backend::Sequential
// and its aliases Backend::Native and Backend::Adaptive) reaches it through
// the same calls: Solver::solve, and a group of the fused batch core
// (service/batch.hpp), which runs every Service dispatch and the host-sweep
// lane of Solver::solve_batch. Results are therefore bitwise-identical
// whichever caller ran it, and a warm thread solves without heap
// allocations beyond the SolveResult it returns.
//
// The express lane is the registry-free call into the kernel for one
// instance: resolve it, then solve_sweep on the caller's arena.
#pragma once

#include <string>

#include "copath_solver.hpp"
#include "core/count.hpp"
#include "exec/arena.hpp"

namespace copath::service {

/// True when `opts` selects the host sweep (Backend::Sequential or one of
/// its aliases, Native and Adaptive), at every size: the express lane then answers with
/// results identical to Solver::solve. `n` is unused; the signature is
/// kept for existing callers.
[[nodiscard]] bool express_eligible(std::size_t n, const SolveOptions& opts);

/// The kernel, its storage carved from `arena` (pass the calling thread's
/// Arena::for_this_thread()). routed is Sequential; wall_ms times
/// binarize + leftist + sweep. Throws on failure (callers build the
/// solve_failure result); never polls opts.cancel.
[[nodiscard]] SolveResult solve_sweep(const cograph::Cotree& t,
                                      const std::string& label,
                                      const SolveOptions& opts,
                                      exec::Arena& arena);

/// The tail every solve shares once its cover is in: `v`'s verdicts (or
/// the -1 sentinel with compute_verdicts off), the optional Hamiltonian
/// cycle, validation (minimality required iff `exact`), then ok = true.
void finish_solve(SolveResult& res, const cograph::Cotree& t,
                  const SolveOptions& opts, const core::CountVerdicts& v,
                  bool exact);

/// The structured result of a solve that threw or was cancelled before it
/// ran (Solver::solve, the express lane, a batch group): `routed` echoes
/// the backend.
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
