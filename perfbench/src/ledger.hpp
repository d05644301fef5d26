// The traced in-process replay: the per-layer half of a traced run.
//
// With the daemon idle, a workload's own requests are replayed through the
// public functions of each layer, called from here, one span per call:
//
//   net      protocol::extract_frame + parse_request/parse_batch_body,
//            encode_solve_response_frame/encode_batch_response_frame
//   cograph  Cotree::parse, canonical_form, signature_valid,
//            decode_signature_form, decode_signature, binarize
//   service  ResultCache lookup/insert, PersistCache lookup/append,
//            remapped_from_canonical, solve_express, solve_batch_fused,
//            and Service::submit(...).get() end to end
//   core     min_path_cover_sequential, count_verdicts, Solver::solve on
//            explicit Sequential / Native / Adaptive backends
//
// A request's PATH spans mirror the order the daemon runs them (decode,
// canonical key, L1 -> L2 -> solve on the express lane or the generic
// Adaptive path, as Service picks, cache writes, encode) and sum to the
// ledger; PROBE spans time the remaining layer functions on the same
// instance so every layer metric exists on every workload, including the
// ones the workload's own path skips. A metric reads the path spans when
// the path ran that function, the probe spans otherwise.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "workload.hpp"

namespace perfbench {

struct LedgerConfig {
  /// Scratch directory for the in-process L2 tiers (removed afterwards).
  std::string tmp_root;
  /// Where the spans are written when the replay ends (empty = nowhere).
  std::string spans_path;
};

struct LedgerResult {
  /// The per-layer metrics the replay measures.
  std::vector<Metric> metrics;
  /// Median of the per-request sum of path self time, per layer (µs).
  std::map<std::string, double> layer_self_us;
  /// Replayed answers that failed the checker (must be 0).
  std::size_t wrong = 0;
};

[[nodiscard]] LedgerResult run_ledger(const Workload& w,
                                      const LedgerConfig& cfg);

}  // namespace perfbench
