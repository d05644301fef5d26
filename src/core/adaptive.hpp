// The cost model behind Backend::Adaptive (core/backend.*): a small
// calibrated predictor that routes each solve between the O(n) sequential
// sweep (Lemma 2.3) and the native parallel pipeline (Theorem 5.3 on
// exec::Native), as a function of the request size, the instance shape,
// and the threads actually available to this solve — which is how batch
// pressure enters: Solver::solve_batch and copath::Service hand every
// request a per-request thread budget, and a saturated host (budget 1)
// makes the sequential sweep the only winner at any size.
//
// The model is deliberately coarse — two slopes, a fixed cost, a scaling
// efficiency, and a shape correction — because the decision it feeds is
// binary and the two engines are ~an order of magnitude apart at every
// realistic operating point; DESIGN.md §7 documents the calibration
// procedure (bench_adaptive sweeps both engines and the crossover is where
// the fitted lines intersect).
//
// Routing floor: below `min_native_n` the model unconditionally routes
// Sequential regardless of threads. This is a *semantic* floor, not a
// performance one — Backend::Adaptive promises covers bitwise-equal to
// Backend::Sequential on its sequential routing domain, and the floor
// makes that domain machine-independent for every instance size the
// differential suites sweep (the two engines produce different — equally
// minimum — vertex orders, so the promise cannot extend across a routing
// flip; see DESIGN.md §7).
#pragma once

#include <cstddef>

#include "cograph/cotree.hpp"
#include "core/backend.hpp"
#include "exec/native.hpp"

namespace copath::core {

struct CostModel {
  /// Sequential sweep slope: ns per vertex (host, allocation-light).
  /// Measured 99 (caterpillar) .. 207 (random, n = 2^20) on the
  /// calibration host; the default sits at the serving-mix middle.
  double seq_ns_per_vertex = 150.0;
  /// Native pipeline slope on one worker thread, ns per vertex (with the
  /// scratch arena and the host shortcuts engaged). Measured 1174
  /// (caterpillar) .. 1657 (random) at n = 2^20.
  double native_ns_per_vertex = 1200.0;
  /// Per-solve fixed cost of the native route (pool setup, phase
  /// dispatch, Euler/forest rebuilds), ns.
  double native_fixed_ns = 100000.0;
  /// Marginal scaling efficiency per extra worker: speedup(w) =
  /// 1 + efficiency * (w - 1). Memory-bound phases keep this well below
  /// 1; the default is an estimate pending multi-socket measurement (the
  /// calibration host is single-core), chosen so the crossover lands
  /// around 16 workers at n = 2^20.
  double parallel_efficiency = 0.55;
  /// Shape correction on the native route: leaf-heavy (bushy) cotrees
  /// run closer to the pipeline's worst case — more Case-2 joins, hence
  /// dummies and repair rounds — while join chains (caterpillars) are
  /// pure Case 1. Applied as (1 + spread * (1 - internal_share)),
  /// internal_share = internal cotree nodes / vertices; the measured
  /// spread between the two bench families is ~1.4x. Biases bushy
  /// instances toward Sequential — the safe route.
  double shape_spread = 0.4;
  /// Below this vertex count the route is Sequential unconditionally (the
  /// bitwise-equality floor; see the header comment).
  std::size_t min_native_n = std::size_t{1} << 14;
  /// Per-primitive sequential cutoffs handed to exec::Native when the
  /// native route is taken — the per-stage half of the dispatch: even a
  /// natively-routed solve drops each primitive below its grain back to a
  /// one-pass host loop.
  exec::Native::Grains grains{};
  /// Scratch capacity a solving thread's arena may retain between native
  /// solves; above it the arena is trimmed after the solve (one outsized
  /// request must not pin its working set on a Service worker forever).
  /// The native working set is roughly 60 * n bytes across ~a dozen pow2
  /// classes, so the default keeps n up to ~2^21 warm.
  std::uint64_t arena_retain_bytes = std::uint64_t{256} << 20;

  [[nodiscard]] double predict_sequential_ms(std::size_t n) const {
    return seq_ns_per_vertex * static_cast<double>(n) * 1e-6;
  }

  [[nodiscard]] double predict_native_ms(std::size_t n,
                                         std::size_t internal_nodes,
                                         std::size_t workers) const {
    const double w = workers < 1 ? 1.0 : static_cast<double>(workers);
    const double speedup = 1.0 + parallel_efficiency * (w - 1.0);
    double share =
        n == 0 ? 0.0
               : static_cast<double>(internal_nodes) / static_cast<double>(n);
    if (share > 1.0) share = 1.0;
    const double shape = 1.0 + shape_spread * (1.0 - share);
    return (native_fixed_ns +
            native_ns_per_vertex * static_cast<double>(n) * shape / speedup) *
           1e-6;
  }

  /// The whole-solve route for an n-vertex instance with `internal_nodes`
  /// internal cotree nodes and `workers` threads available (0 = hardware
  /// concurrency, resolved by the caller). Returns Backend::Sequential or
  /// Backend::Native.
  [[nodiscard]] Backend choose(std::size_t n, std::size_t internal_nodes,
                               std::size_t workers) const;

  /// The process-wide default (constants measured on the calibration
  /// host; see DESIGN.md §7 for re-calibrating).
  [[nodiscard]] static const CostModel& calibrated();
};

/// Backend::Adaptive's route for `t` with `workers` threads (0 = hardware
/// concurrency): `model` (nullptr = CostModel::calibrated()) applied to the
/// cotree's size and shape. The one routing decision, shared by the
/// registry's Adaptive entry and Solver's inline host-sweep route.
[[nodiscard]] Backend adaptive_route(const cograph::Cotree& t,
                                     const CostModel* model,
                                     std::size_t workers);

}  // namespace copath::core
