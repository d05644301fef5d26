// The answer checker: every Ok response the generator receives is checked
// against the expectations generated with its request.
//
// Fast check (every answer): vertex_count == n, the path count equals the
// precomputed minimum, the verdict count agrees, and the paths partition
// [0, n) in the REQUESTING instance's ids. Full check (a deterministic
// sample, after the window): core::validate_path_cover against the cotree
// rebuilt from the request's own bytes, which also catches a cover that
// partitions the ids but was remapped wrongly onto a shuffled twin.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "net/protocol.hpp"
#include "workload.hpp"

namespace perfbench {

enum class Verdict : std::uint8_t {
  Ok,
  /// A structured refusal or failure (not Ok): counts against
  /// error_rate, but is not a wrong answer.
  Failed,
  /// An Ok answer that is not a minimum path cover of the request, or a
  /// response that does not decode: the run is incorrect.
  Wrong,
};

[[nodiscard]] Verdict check_solve(const copath::net::protocol::WireResult& r,
                                  const Expect& e, std::string* why);

/// Checks one decoded response payload (the frame without its length
/// prefix) against `req` and its expectations.
[[nodiscard]] Verdict check_response(std::string_view payload,
                                     const Req& req,
                                     std::span<const Expect> expects,
                                     std::string* why);

/// The full validation of one sampled answer: rebuilds each requested
/// instance from `req_frame` and runs core::validate_path_cover with
/// minimality required. True when every slot passes.
[[nodiscard]] bool validate_sample(std::string_view req_frame,
                                   std::string_view resp_payload,
                                   std::string* why);

/// 1-in-64, deterministic in the arrival index.
[[nodiscard]] inline bool in_validation_sample(std::uint64_t arrival) {
  return arrival % 64 == 0;
}

}  // namespace perfbench
