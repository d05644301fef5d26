// Lemma 2.4: counting the minimum path cover — host recursion vs PRAM
// contraction vs exact brute force.
#include <gtest/gtest.h>

#include "baseline/brute_force.hpp"
#include "cograph/families.hpp"
#include "core/count.hpp"
#include "par/euler.hpp"
#include "util/rng.hpp"

namespace copath::core {
namespace {

using cograph::Cotree;
using cograph::RandomCotreeOptions;
using pram::Machine;
using pram::Policy;

struct Shape {
  std::size_t n;
  std::size_t p;
  par::RankEngine engine;
};

class CountSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(CountSweep, PramMatchesHost) {
  const auto [n, p, engine] = GetParam();
  util::Rng rng(n * 3 + p);
  for (int trial = 0; trial < 6; ++trial) {
    RandomCotreeOptions opt;
    opt.seed = n * 100 + static_cast<unsigned>(trial);
    opt.skew = (trial % 3) * 0.4;
    const Cotree t = cograph::random_cotree(1 + rng.below(n), opt);
    auto bc = cograph::binarize(t);
    const auto leaf_count = cograph::make_leftist(bc);
    const auto host = path_counts_host(bc, leaf_count);
    Machine m({Policy::EREW, p});
    const auto pram_counts = path_counts_pram(m, bc, leaf_count);
    ASSERT_EQ(host.size(), pram_counts.size());
    for (std::size_t v = 0; v < host.size(); ++v)
      ASSERT_EQ(host[v], pram_counts[v]) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CountSweep,
    ::testing::Values(Shape{2, 1, par::RankEngine::Contract},
                      Shape{10, 2, par::RankEngine::Contract},
                      Shape{60, 4, par::RankEngine::Wyllie},
                      Shape{60, 4, par::RankEngine::Contract},
                      Shape{200, 16, par::RankEngine::Contract}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.n) + "_p" +
             std::to_string(info.param.p) +
             (info.param.engine == par::RankEngine::Contract ? "_c" : "_w");
    });

TEST(Count, MatchesBruteForceOnSmallCographs) {
  util::Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    RandomCotreeOptions opt;
    opt.seed = 30000 + static_cast<unsigned>(trial);
    const Cotree t = cograph::random_cotree(1 + rng.below(9), opt);
    const cograph::Graph g = cograph::Graph::from_cotree(t);
    ASSERT_EQ(path_cover_size(t),
              baseline::min_path_cover_size_exact(g))
        << "trial " << trial << " cotree " << t.format();
  }
}

TEST(Count, RecurrenceSpotChecks) {
  // p(join(V,W)) = max(p(V) - |W|, 1) with the leftist order.
  EXPECT_EQ(path_cover_size(Cotree::parse("(* (+ a b c) d)")), 2);
  EXPECT_EQ(path_cover_size(Cotree::parse("(* (+ a b c d e) (+ x y))")), 3);
  EXPECT_EQ(path_cover_size(Cotree::parse("(+ (* a b) (* c d))")), 2);
  EXPECT_EQ(path_cover_size(Cotree::parse("(* a b)")), 1);
}

TEST(Count, HamiltonianPathPredicate) {
  EXPECT_TRUE(has_hamiltonian_path(cograph::clique(5)));
  EXPECT_FALSE(has_hamiltonian_path(cograph::independent_set(2)));
  EXPECT_TRUE(has_hamiltonian_path(cograph::complete_bipartite(3, 3)));
  EXPECT_TRUE(has_hamiltonian_path(cograph::complete_bipartite(4, 3)));
  EXPECT_FALSE(has_hamiltonian_path(cograph::complete_bipartite(5, 3)));
}

TEST(Count, SingleVertex) {
  EXPECT_EQ(path_cover_size(Cotree::parse("solo")), 1);
}

TEST(CountCost, LemmaBound) {
  // Lemma 2.4: O(log n) steps, O(n) work with P = n / log2 n.
  RandomCotreeOptions opt;
  opt.seed = 12;
  const std::size_t n = 1 << 13;
  const Cotree t = cograph::random_cotree(n, opt);
  auto bc = cograph::binarize(t);
  const auto leaf_count = cograph::make_leftist(bc);
  Machine m({Policy::EREW, (2 * n) / 13});
  (void)path_counts_pram(m, bc, leaf_count);
  EXPECT_LE(m.stats().steps, 400 * 13);
  EXPECT_LE(m.stats().work, 500 * n);
}

}  // namespace
}  // namespace copath::core
