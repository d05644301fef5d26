// Theorem 2.2's reduction: OR of n bits answered through path cover
// counting, with the O(1)-step construction the paper requires.
#include <gtest/gtest.h>

#include "core/or_reduction.hpp"
#include "util/rng.hpp"

namespace copath::core {
namespace {

using pram::Machine;
using pram::Policy;

TEST(OrReduction, AllZeroIsFalse) {
  Machine m({Policy::EREW, 0});
  const auto res = or_via_path_cover(m, std::vector<std::uint8_t>(16, 0));
  EXPECT_FALSE(res.or_value);
  EXPECT_EQ(res.path_cover_size, 16 + 2);
}

TEST(OrReduction, SingleOneIsTrue) {
  for (std::size_t pos = 0; pos < 8; ++pos) {
    std::vector<std::uint8_t> bits(8, 0);
    bits[pos] = 1;
    Machine m({Policy::EREW, 0});
    const auto res = or_via_path_cover(m, bits);
    EXPECT_TRUE(res.or_value) << "pos=" << pos;
    EXPECT_EQ(res.path_cover_size, 7 + 2);
  }
}

TEST(OrReduction, CountFormulaMatchesPaper) {
  // k ones => path containing y has k + 2 vertices and the cover has
  // n - k + 2 paths (paper §2).
  for (std::size_t k = 0; k <= 12; ++k) {
    std::vector<std::uint8_t> bits(12, 0);
    for (std::size_t i = 0; i < k; ++i) bits[i] = 1;
    Machine m({Policy::EREW, 0});
    const auto res = or_via_path_cover(m, bits);
    EXPECT_EQ(res.path_cover_size, static_cast<std::int64_t>(12 - k) + 2);
    EXPECT_EQ(res.or_value, k > 0);
  }
}

TEST(OrReduction, RandomAgainstDirectOr) {
  util::Rng rng(44);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.below(64);
    std::vector<std::uint8_t> bits(n);
    bool want = false;
    for (auto& b : bits) {
      b = rng.chance(0.1) ? 1 : 0;
      want |= b != 0;
    }
    Machine m({Policy::EREW, 0});
    EXPECT_EQ(or_via_path_cover(m, bits).or_value, want);
  }
}

TEST(OrReduction, ConstructionIsConstantSteps) {
  // The paper's reduction builds T(G) in O(1) time with n processors; with
  // maximum parallelism the construction must take exactly one step
  // regardless of n.
  for (const std::size_t n : {8u, 256u, 4096u}) {
    Machine m({Policy::EREW, 0});  // one processor per element
    const auto res = or_via_path_cover(m, std::vector<std::uint8_t>(n, 1));
    EXPECT_EQ(res.construction_steps, 1u) << "n=" << n;
    EXPECT_GT(res.count_steps, 0u);
  }
}

TEST(OrReduction, CountStepsScaleLogarithmically) {
  std::uint64_t prev = 0;
  for (const std::size_t logn : {8u, 10u, 12u}) {
    const std::size_t n = std::size_t{1} << logn;
    Machine m({Policy::EREW, std::max<std::size_t>(1, n / logn)});
    const auto res = or_via_path_cover(m, std::vector<std::uint8_t>(n, 0));
    if (prev != 0) EXPECT_LT(res.count_steps, prev * 2);
    prev = res.count_steps;
  }
}

}  // namespace
}  // namespace copath::core
