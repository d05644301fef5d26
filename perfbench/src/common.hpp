// Small shared helpers for the benchmark: the clock, order statistics and
// the percentile rule every timing metric uses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One named result of a run, as printed in the result line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Nearest-rank quantile of `v`. Empty input reads +inf, so a window that
/// produced no answers can never pass a latency limit.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return kInf;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// The tail rule: the highest of `candidates` (descending) that leaves at
/// least ten samples beyond it. Returns the chosen quantile, or 0.5 when
/// even the lowest candidate is not supported.
[[nodiscard]] inline double supported_tail(std::size_t samples,
                                           std::vector<double> candidates) {
  std::sort(candidates.rbegin(), candidates.rend());
  for (const double q : candidates) {
    // (1 - 0.9) * 100 is 9.999...: compare with a little slack.
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-6) return q;
  }
  return 0.5;
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
