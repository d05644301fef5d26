// The fused batch core: dedup -> cache -> solve -> scatter for a whole
// span of requests at once.
//
// Serving traffic is dominated by small instances where per-request fixed
// cost (queue hop, cache probe, future machinery, per-instance scratch)
// beats the actual solve. This core amortizes all of it across a batch:
//
//  1. DEDUP   — canonicalize every instance and group duplicates *within
//               the batch*; each group is solved (or cache-probed) once
//               and fanned back out through the dedup map.
//  2. CACHE   — one ResultCache probe per unique group (not per request).
//  3. SOLVE   — each surviving group is solved once, on the calling
//               thread, one after another: host-sweep groups
//               (Backend::Sequential / Adaptive) by the sequential solve
//               kernel (service::solve_sweep) on the caller's arena — the
//               same kernel every per-instance host solve runs, so covers
//               stay bitwise-equal — and every other backend through the
//               caller's fallback. The frame's cancel token is polled
//               before each group's solve.
//  4. SCATTER — the group rep keeps its direct result; other members are
//               replayed through their own canonical permutation
//               (BatchDedup::Canonical) or by identity copy
//               (BatchDedup::IdenticalTree). Per-slot failure isolation: a
//               bad instance fails alone, everything else still solves.
//
// Shared by Service::submit_batch (Canonical dedup + cache) and the
// host-sweep lane of Solver::solve_batch (IdenticalTree dedup, no cache).
// See DESIGN.md §10 for the dedup-key lifetime argument and why the two
// dedup modes differ.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "copath_solver.hpp"
#include "exec/arena.hpp"
#include "service/result_cache.hpp"

namespace copath::service {

enum class BatchDedup : std::uint8_t {
  /// Group by (canonical signature, result-affecting options): permuted /
  /// relabeled twins share a group and every non-rep member is replayed
  /// through its OWN from_canonical permutation — exactly what independent
  /// Service submits hand such twins (cache hits and coalesced waiters are
  /// remapped the same way), so batch results stay bitwise-equal to N
  /// independent submits. The Service's mode whenever its cache is on.
  Canonical,
  /// Group only instances whose resolved cotrees are EXACTLY identical
  /// (same node layout, same vertex ids): replay is the identity, so a
  /// member's result is bitwise-equal to solving it directly. The
  /// Solver::solve_batch mode (no cache): permuted twins are deliberately
  /// NOT deduplicated there, because their direct solves may produce
  /// different — equally minimum — covers.
  IdenticalTree,
};

class PersistCache;

/// Per-call counters the callers fold into their stats.
struct BatchOutcome {
  /// Non-rep group members served from their rep's solve or cache probe.
  std::uint64_t dedup_hits = 0;
  /// Unique groups answered by the ResultCache.
  std::uint64_t cache_hits = 0;
  /// Unique groups answered by the persistent tier (and promoted into L1).
  std::uint64_t l2_hits = 0;
  /// Unique groups solved by the sequential solve kernel.
  std::uint64_t packed_solves = 0;
};

struct BatchConfig {
  BatchDedup dedup = BatchDedup::Canonical;
  /// Probed once per unique group and fed computed results. nullptr = no
  /// cache (the Solver lane). Canonical-space stores follow the Service's
  /// insert discipline (to_canonical_space, label cleared).
  ResultCache* cache = nullptr;
  /// Persistent tier under `cache`: probed on an L1 group miss (hits are
  /// promoted into L1), written through on every fresh ok group solve.
  /// Requires `cache` (the L2 shares its canonical keys); nullptr = none.
  PersistCache* l2 = nullptr;
};

/// Per-group solve for backends other than the host sweep. Receives the
/// group rep's request and its effective options; must not throw
/// (structured ok == false results, like Solver::solve).
using BatchFallback =
    std::function<SolveResult(const SolveRequest&, const SolveOptions&)>;

/// Runs the fused pipeline over `reqs`. Results are positionally aligned
/// with the requests; per-request options default to `default_opts`.
/// Kernel scratch comes from `arena` — pass the calling thread's
/// Arena::for_this_thread(). The frame token is `reqs.front().cancel`
/// (with each group rep's `SolveOptions::cancel`): once either trips,
/// every group not yet solved answers with util::kCancelledMsg or
/// util::kDeadlineMsg. Never throws; per-slot failures are structured
/// ok == false results.
[[nodiscard]] std::vector<SolveResult> solve_batch_fused(
    std::span<const SolveRequest> reqs, const SolveOptions& default_opts,
    const BatchConfig& cfg, const BatchFallback& fallback,
    exec::Arena& arena, BatchOutcome* outcome = nullptr);

}  // namespace copath::service
