// The lower-bound rig of Theorem 2.2 (Fig 2).
//
// From an n-bit input b we build the cotree with root R (0-node) holding x
// and all a_i with b_i = 0, and a 1-node child u holding y, z and all a_i
// with b_i = 1. The cograph's minimum path cover then has
// (#zero bits) + 2 paths, so OR(b) = 1 iff the count is < n + 2 — reducing
// OR (which Cook–Dwork–Reischuk proved needs Ω(log n) CREW steps) to path
// cover counting. The construction itself takes O(1) PRAM steps, which the
// bench demonstrates; together with the O(log n) upper bound of the main
// algorithm this reproduces the paper's tightness argument.
#pragma once

#include <cstdint>
#include <vector>

#include "pram/machine.hpp"

namespace copath::core {

struct OrReductionResult {
  bool or_value = false;
  std::int64_t path_cover_size = 0;
  /// Steps spent building the cotree arrays (the paper: O(1)).
  std::uint64_t construction_steps = 0;
  /// Steps spent counting the minimum path cover (the paper: O(log n)).
  std::uint64_t count_steps = 0;
};

/// Answers OR(bits) through the path cover reduction, on the machine.
OrReductionResult or_via_path_cover(pram::Machine& m,
                                    const std::vector<std::uint8_t>& bits);

/// Machine construction knobs for the self-contained overload below.
struct OrReductionOptions {
  pram::Policy policy = pram::Policy::Unchecked;
  /// Virtual processors; 0 = one per element (maximal parallelism), the
  /// unbounded-processor setting of Theorem 2.2.
  std::size_t processors = 0;
};

/// Self-contained overload: builds the machine internally so callers
/// (benches, examples) never wire up a machine themselves.
OrReductionResult or_via_path_cover(const std::vector<std::uint8_t>& bits,
                                    const OrReductionOptions& opt = {});

}  // namespace copath::core
