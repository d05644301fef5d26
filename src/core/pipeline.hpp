// The paper's main result (Theorem 5.3): reporting a minimum path cover in
// O(log n) time with n/log n processors on the EREW PRAM.
//
// Stage map (paper Step -> implementation):
//   1  binarize T(G)            host load-time transform (see DESIGN.md §5)
//   2  L(u), leftist reorder    Euler tour (Lemma 5.2) + pfor swap
//   3  p(u), reduced cotree     tree contraction (Lemma 2.4) + cut-depth
//                               scans classifying primary/bridge/insert
//   4  bracket sequence B(R)    per-leaf emission units, offsets by scan,
//                               broadcast + arithmetic decode
//   5  bracket matching         par::match_brackets (Lemma 5.1(3)) on the
//                               square and round systems independently
//   6  illegal-insert repair    inorder by Euler tour; dummy-skipped
//                               legality; per-owner rank pairing by scans
//   7  dummy bypass             pointer jumping along dummy chains
//   8  report paths             inorder positions + host assembly
//
// The stages run on pram::Machine (core/pipeline.cpp): machine.stats()
// after the call gives the step/work counts the benchmarks compare against
// the paper's bounds, and with Policy::EREW every stage is additionally
// *checked* for access-discipline violations.
#pragma once

#include "cograph/cotree.hpp"
#include "core/path_cover.hpp"
#include "par/euler.hpp"
#include "pram/machine.hpp"
#include "util/cancel.hpp"

namespace copath::core {

struct PipelineOptions {
  par::RankEngine rank_engine = par::RankEngine::Contract;
  std::size_t max_repair_rounds = 32;
};

struct PipelineTrace {
  std::size_t bracket_length = 0;
  std::size_t dummy_count = 0;
  std::size_t repair_rounds = 0;
  std::size_t path_count = 0;
  /// Per-stage (steps, work) deltas, in execution order — shows where the
  /// constants in the O(log n) bound live.
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> stages;
};

/// Runs the full parallel pipeline on `m`. The machine's processor count
/// (pram::Machine::set_processors) selects the Brent schedule; the paper's
/// bound corresponds to processors = n / log2 n. Every stage boundary and
/// every repair round polls `cancel` (when non-null) and throws
/// util::CancelledError once it has tripped.
PathCover min_path_cover_pram(pram::Machine& m, const cograph::Cotree& t,
                              const PipelineOptions& opt = {},
                              PipelineTrace* trace = nullptr,
                              util::CancelToken* cancel = nullptr);

/// Compatibility wrapper (delegates to copath::Solver, Backend::Parallel):
/// builds an EREW machine with n/log2(n) processors, runs the pipeline, and
/// (optionally) returns the machine stats through `stats_out`. New code
/// should call the Solver facade directly.
PathCover min_path_cover_parallel(const cograph::Cotree& t,
                                  pram::Stats* stats_out = nullptr);

}  // namespace copath::core
