// List ranking (Lemma 5.1(1)): Wyllie pointer jumping and randomized
// contraction, against a serial oracle, over list-shape sweeps.
#include <gtest/gtest.h>

#include <numeric>

#include "par/list_ranking.hpp"
#include "util/rng.hpp"

namespace copath::par {
namespace {

using pram::Array;
using pram::Machine;
using pram::Policy;

struct Instance {
  std::vector<NodeId> next;
  std::vector<std::int64_t> want;
};

/// A forest of random lists over a random permutation of [0, n).
Instance random_lists(std::size_t n, std::size_t max_len, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = n; i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  Instance inst;
  inst.next.assign(n, kNull);
  inst.want.assign(n, 0);
  std::size_t start = 0;
  while (start < n) {
    const std::size_t len =
        1 + rng.below(std::min<std::size_t>(n - start, max_len));
    for (std::size_t i = 0; i < len; ++i) {
      inst.want[static_cast<std::size_t>(perm[start + i])] =
          static_cast<std::int64_t>(len - 1 - i);
      if (i + 1 < len)
        inst.next[static_cast<std::size_t>(perm[start + i])] =
            perm[start + i + 1];
    }
    start += len;
  }
  return inst;
}

struct Shape {
  std::size_t n;
  std::size_t p;
  std::size_t max_len;
};

class RankSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(RankSweep, WyllieMatchesOracle) {
  const auto [n, p, max_len] = GetParam();
  Machine m({Policy::EREW, p});
  const Instance inst = random_lists(n, max_len, n * 7 + p);
  Array<NodeId> next(m, inst.next);
  Array<std::int64_t> rank(m, n, -1);
  list_rank_wyllie(m, next, rank);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(rank.host(i), inst.want[i]);
}

TEST_P(RankSweep, ContractMatchesOracle) {
  const auto [n, p, max_len] = GetParam();
  Machine m({Policy::EREW, p});
  const Instance inst = random_lists(n, max_len, n * 11 + p);
  Array<NodeId> next(m, inst.next);
  Array<std::int64_t> rank(m, n, -1);
  list_rank_contract(m, next, rank, 999 + n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(rank.host(i), inst.want[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RankSweep,
    ::testing::Values(Shape{1, 1, 1}, Shape{2, 1, 2}, Shape{10, 3, 10},
                      Shape{64, 8, 64}, Shape{200, 5, 7},
                      Shape{500, 16, 500}, Shape{333, 4, 40}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.n) + "_p" +
             std::to_string(info.param.p) + "_len" +
             std::to_string(info.param.max_len);
    });

TEST(RankSingleList, FullChain) {
  const std::size_t n = 300;
  Machine m({Policy::EREW, 16});
  std::vector<NodeId> next(n);
  for (std::size_t i = 0; i + 1 < n; ++i)
    next[i] = static_cast<NodeId>(i + 1);
  next[n - 1] = kNull;
  Array<NodeId> nx(m, next);
  Array<std::int64_t> rank(m, n, -1);
  list_rank_contract(m, nx, rank);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(rank.host(i), static_cast<std::int64_t>(n - 1 - i));
}

TEST(RankCost, ContractWorkIsLinearWyllieIsNot) {
  // The asymptotic claim: contraction ranking does O(n) work while Wyllie
  // does Θ(n log n). Constants put the absolute crossover beyond small n,
  // so we assert the *growth rates*: doubling n four times must leave
  // contract's work/n (roughly) flat while Wyllie's grows with log n.
  const auto run = [](std::size_t n, bool use_contract) {
    std::size_t logn = 1;
    while ((std::size_t{1} << (logn + 1)) <= n) ++logn;
    Machine m({Policy::Unchecked, n / logn});
    std::vector<NodeId> next(n);
    for (std::size_t i = 0; i + 1 < n; ++i)
      next[i] = static_cast<NodeId>(i + 1);
    next[n - 1] = kNull;
    Array<NodeId> nx(m, next);
    Array<std::int64_t> rank(m, n, -1);
    if (use_contract) {
      list_rank_contract(m, nx, rank);
    } else {
      list_rank_wyllie(m, nx, rank);
    }
    return static_cast<double>(m.stats().work) / static_cast<double>(n);
  };
  const double c_small = run(1 << 10, true);
  const double c_big = run(1 << 14, true);
  const double w_small = run(1 << 10, false);
  const double w_big = run(1 << 14, false);
  EXPECT_LT(c_big, 1.5 * c_small) << "contract work/n should stay flat";
  EXPECT_GT(w_big, 1.25 * w_small) << "wyllie work/n should grow ~log n";
}

TEST(RankEdge, AllSingletons) {
  Machine m({Policy::EREW, 4});
  Array<NodeId> next(m, std::vector<NodeId>(17, kNull));
  Array<std::int64_t> rank(m, 17, -1);
  list_rank_contract(m, next, rank);
  for (std::size_t i = 0; i < 17; ++i) ASSERT_EQ(rank.host(i), 0);
}

}  // namespace
}  // namespace copath::par
