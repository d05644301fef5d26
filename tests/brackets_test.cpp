// Parallel bracket matching (Lemma 5.1(3)) against the stack oracle.
#include <gtest/gtest.h>

#include <string>

#include "par/brackets.hpp"
#include "util/rng.hpp"

namespace copath::par {
namespace {

using pram::Array;
using pram::Machine;
using pram::Policy;

std::vector<std::int8_t> from_string(const std::string& s) {
  std::vector<std::int8_t> v;
  v.reserve(s.size());
  for (const char c : s)
    v.push_back(c == '(' ? 1 : (c == ')' ? -1 : 0));
  return v;
}

void expect_matches(const std::vector<std::int8_t>& sign, std::size_t p) {
  const auto want = match_brackets_seq(sign);
  Machine m({Policy::EREW, p});
  Array<std::int8_t> s(m, sign);
  Array<std::int64_t> match(m, sign.size(), -1);
  match_brackets(m, s, match);
  for (std::size_t i = 0; i < sign.size(); ++i)
    ASSERT_EQ(match.host(i), want[i]) << "i=" << i << " p=" << p;
}

TEST(BracketOracle, StackSemantics) {
  const auto m = match_brackets_seq(from_string("(()())"));
  EXPECT_EQ(m[0], 5);
  EXPECT_EQ(m[1], 2);
  EXPECT_EQ(m[3], 4);
  EXPECT_EQ(m[5], 0);
}

TEST(BracketOracle, UnmatchedStayUnmatched) {
  const auto m = match_brackets_seq(from_string(")(("));
  EXPECT_EQ(m[0], -1);
  EXPECT_EQ(m[1], -1);
  EXPECT_EQ(m[2], -1);
}

struct Shape {
  std::size_t n;
  std::size_t p;
  double open_bias;
};

class BracketSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(BracketSweep, RandomStreams) {
  const auto [n, p, bias] = GetParam();
  util::Rng rng(n * 59 + p);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::int8_t> sign(n);
    for (auto& s : sign) {
      if (rng.chance(0.25)) {
        s = 0;
      } else {
        s = rng.chance(bias) ? 1 : -1;
      }
    }
    expect_matches(sign, p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BracketSweep,
    ::testing::Values(Shape{1, 1, 0.5}, Shape{8, 2, 0.5}, Shape{50, 7, 0.5},
                      Shape{100, 3, 0.2}, Shape{100, 3, 0.8},
                      Shape{512, 16, 0.5}, Shape{777, 13, 0.65}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.n) + "_p" +
             std::to_string(info.param.p) + "_b" +
             std::to_string(static_cast<int>(info.param.open_bias * 100));
    });

TEST(BracketAdversarial, DeepNesting) {
  // "(((…)))" forces every cross-block pair through the tournament root.
  for (const std::size_t n : {64u, 100u, 255u}) {
    std::vector<std::int8_t> sign(n);
    for (std::size_t i = 0; i < n / 2; ++i) sign[i] = 1;
    for (std::size_t i = n / 2; i < n; ++i) sign[i] = -1;
    for (const std::size_t p : {1u, 3u, 8u, 32u}) expect_matches(sign, p);
  }
}

TEST(BracketAdversarial, AlternatingPairs) {
  std::vector<std::int8_t> sign(200);
  for (std::size_t i = 0; i < sign.size(); ++i) sign[i] = i % 2 ? -1 : 1;
  for (const std::size_t p : {1u, 5u, 16u}) expect_matches(sign, p);
}

TEST(BracketAdversarial, AllOpensThenNothing) {
  std::vector<std::int8_t> sign(100, 1);
  expect_matches(sign, 8);
}

TEST(BracketAdversarial, AllCloses) {
  std::vector<std::int8_t> sign(100, -1);
  expect_matches(sign, 8);
}

TEST(BracketAdversarial, ClosesThenOpens) {
  std::vector<std::int8_t> sign(120);
  for (std::size_t i = 0; i < 60; ++i) sign[i] = -1;
  for (std::size_t i = 60; i < 120; ++i) sign[i] = 1;
  for (const std::size_t p : {2u, 9u}) expect_matches(sign, p);
}

TEST(BracketAdversarial, SawtoothAcrossBlocks) {
  // "(()((..." — blocks end mid-nesting so survivors travel several levels.
  std::vector<std::int8_t> sign;
  util::Rng rng(4242);
  for (int rep = 0; rep < 40; ++rep) {
    sign.push_back(1);
    sign.push_back(1);
    sign.push_back(-1);
    if (rng.chance(0.5)) sign.push_back(-1);
  }
  for (const std::size_t p : {1u, 4u, 7u, 30u}) expect_matches(sign, p);
}

TEST(BracketCost, WorkStaysLinear) {
  const std::size_t n = 1 << 14;
  util::Rng rng(77);
  std::vector<std::int8_t> sign(n);
  for (auto& s : sign) s = rng.chance(0.5) ? 1 : -1;
  Machine m({Policy::EREW, n / 14});
  Array<std::int8_t> sg(m, sign);
  Array<std::int64_t> match(m, n, -1);
  match_brackets(m, sg, match);
  EXPECT_LE(m.stats().steps, 150 * 14) << "expected O(log n) steps";
  EXPECT_LE(m.stats().work, 120 * n) << "expected O(n) work";
}

}  // namespace
}  // namespace copath::par
