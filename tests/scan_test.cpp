// Prefix-sum primitives (Lemma 5.1(2)) under parameterized (n, P) sweeps.
#include <gtest/gtest.h>

#include <numeric>

#include "par/scan.hpp"
#include "util/rng.hpp"

namespace copath::par {
namespace {

using pram::Array;
using pram::Ctx;
using pram::Machine;
using pram::Policy;

struct Shape {
  std::size_t n;
  std::size_t p;
};

class ScanSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(ScanSweep, ExclusiveMatchesSerial) {
  const auto [n, p] = GetParam();
  Machine m({Policy::EREW, p});
  util::Rng rng(n * 31 + p);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.range(-9, 9);
  Array<std::int64_t> a(m, v);
  exclusive_scan(m, a);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.host(i), acc) << "i=" << i;
    acc += v[i];
  }
}

TEST_P(ScanSweep, InclusiveMatchesSerial) {
  const auto [n, p] = GetParam();
  Machine m({Policy::EREW, p});
  util::Rng rng(n * 37 + p);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.range(-9, 9);
  Array<std::int64_t> a(m, v);
  inclusive_scan(m, a);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += v[i];
    ASSERT_EQ(a.host(i), acc) << "i=" << i;
  }
}

TEST_P(ScanSweep, ReduceMatchesAccumulate) {
  const auto [n, p] = GetParam();
  Machine m({Policy::EREW, p});
  util::Rng rng(n * 41 + p);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.range(-100, 100);
  Array<std::int64_t> a(m, v);
  EXPECT_EQ(reduce(m, a),
            std::accumulate(v.begin(), v.end(), std::int64_t{0}));
}

TEST_P(ScanSweep, MaxScanWorks) {
  const auto [n, p] = GetParam();
  Machine m({Policy::EREW, p});
  util::Rng rng(n * 43 + p);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.range(-50, 50);
  Array<std::int64_t> a(m, v);
  inclusive_scan(m, a, Max<std::int64_t>{});
  std::int64_t best = std::numeric_limits<std::int64_t>::lowest();
  for (std::size_t i = 0; i < n; ++i) {
    best = std::max(best, v[i]);
    ASSERT_EQ(a.host(i), best);
  }
}

TEST_P(ScanSweep, SegmentedScanResetsAtFlags) {
  const auto [n, p] = GetParam();
  Machine m({Policy::EREW, p});
  util::Rng rng(n * 47 + p);
  std::vector<std::int64_t> v(n);
  std::vector<std::uint8_t> f(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = rng.range(0, 9);
    f[i] = (i == 0 || rng.chance(0.2)) ? 1 : 0;
  }
  Array<std::int64_t> a(m, v);
  Array<std::uint8_t> flags(m, f);
  segmented_inclusive_scan(m, a, flags);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (f[i]) acc = 0;
    acc += v[i];
    ASSERT_EQ(a.host(i), acc) << "i=" << i;
  }
}

TEST_P(ScanSweep, CompactKeepsMarkedIndicesInOrder) {
  const auto [n, p] = GetParam();
  Machine m({Policy::EREW, p});
  util::Rng rng(n * 53 + p);
  std::vector<std::uint8_t> keep(n, 0);
  std::vector<std::int64_t> want;
  for (std::size_t i = 0; i < n; ++i) {
    keep[i] = rng.chance(0.4) ? 1 : 0;
    if (keep[i]) want.push_back(static_cast<std::int64_t>(i));
  }
  Array<std::uint8_t> k(m, keep);
  Array<std::int64_t> out(m, n, -1);
  const std::size_t cnt = compact_indices(m, k, out);
  ASSERT_EQ(cnt, want.size());
  for (std::size_t i = 0; i < cnt; ++i) ASSERT_EQ(out.host(i), want[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScanSweep,
    ::testing::Values(Shape{1, 1}, Shape{2, 1}, Shape{7, 3}, Shape{16, 4},
                      Shape{100, 1}, Shape{100, 7}, Shape{100, 100},
                      Shape{257, 13}, Shape{1024, 32}, Shape{1000, 999}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.n) + "_p" +
             std::to_string(info.param.p);
    });

TEST(ScanCost, WorkIsLinearAndTimeLogarithmic) {
  // With P = n / log2(n), the scan must finish in O(log n) steps and O(n)
  // work (the Lemma 5.1 bound).
  const std::size_t n = 1 << 14;
  const std::size_t logn = 14;
  Machine m({Policy::EREW, n / logn});
  Array<std::int64_t> a(m, n, 1);
  exclusive_scan(m, a);
  EXPECT_LE(m.stats().steps, 8 * logn);
  EXPECT_LE(m.stats().work, 8 * n);
}

TEST(ScanEdge, NonCommutativeOperatorRespectsOrder) {
  struct Take {
    std::int64_t v = -1;
  };
  struct TakeLast {
    static constexpr Take identity() { return Take{}; }
    Take operator()(Take a, Take b) const { return b.v >= 0 ? b : a; }
  };
  Machine m({Policy::EREW, 5});
  std::vector<Take> v(37);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i].v = (i % 3 == 0) ? static_cast<std::int64_t>(i) : -1;
  Array<Take> a(m, v);
  inclusive_scan(m, a, TakeLast{});
  std::int64_t cur = -1;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].v >= 0) cur = v[i].v;
    ASSERT_EQ(a.host(i).v, cur);
  }
}

}  // namespace
}  // namespace copath::par
