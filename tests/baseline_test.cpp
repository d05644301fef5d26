// Baselines: exact DP oracle self-consistency, the naive level-synchronous
// parallelization, and the greedy heuristic.
#include <gtest/gtest.h>

#include "baseline/brute_force.hpp"
#include "baseline/greedy.hpp"
#include "baseline/naive_parallel.hpp"
#include "cograph/families.hpp"
#include "core/count.hpp"
#include "util/rng.hpp"

namespace copath::baseline {
namespace {

using cograph::Cotree;
using cograph::Graph;
using cograph::RandomCotreeOptions;
using pram::Machine;
using pram::Policy;

TEST(BruteForce, KnownValues) {
  EXPECT_EQ(min_path_cover_size_exact(Graph::from_cotree(cograph::clique(5))),
            1);
  EXPECT_EQ(min_path_cover_size_exact(
                Graph::from_cotree(cograph::independent_set(4))),
            4);
  EXPECT_EQ(min_path_cover_size_exact(
                Graph::from_cotree(cograph::complete_bipartite(4, 2))),
            2);
}

TEST(BruteForce, ReconstructionIsValidAndOptimal) {
  util::Rng rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    RandomCotreeOptions opt;
    opt.seed = 111 + static_cast<unsigned>(trial);
    const Cotree t = cograph::random_cotree(1 + rng.below(9), opt);
    const Graph g = Graph::from_cotree(t);
    const auto cover = min_path_cover_exact(g);
    EXPECT_EQ(static_cast<std::int64_t>(cover.paths.size()),
              min_path_cover_size_exact(g));
    // Validate directly against g.
    std::vector<std::uint8_t> seen(g.vertex_count(), 0);
    for (const auto& p : cover.paths) {
      for (std::size_t i = 0; i < p.size(); ++i) {
        ASSERT_FALSE(seen[static_cast<std::size_t>(p[i])]);
        seen[static_cast<std::size_t>(p[i])] = 1;
        if (i + 1 < p.size()) ASSERT_TRUE(g.has_edge(p[i], p[i + 1]));
      }
    }
  }
}

TEST(BruteForce, HamiltonianCycleOnSmallFamilies) {
  EXPECT_TRUE(
      has_hamiltonian_cycle_exact(Graph::from_cotree(cograph::clique(4))));
  EXPECT_FALSE(has_hamiltonian_cycle_exact(
      Graph::from_cotree(cograph::star(3))));
}

TEST(NaiveParallel, ValidAndMinimalOnRandomCotrees) {
  util::Rng rng(32);
  for (int trial = 0; trial < 60; ++trial) {
    RandomCotreeOptions opt;
    opt.seed = 222 + static_cast<unsigned>(trial);
    opt.skew = (trial % 3) * 0.4;
    const Cotree t = cograph::random_cotree(1 + rng.below(100), opt);
    Machine m({Policy::EREW, 16});
    const core::PathCover c = min_path_cover_naive_parallel(m, t);
    const auto rep = core::validate_path_cover(t, c, true);
    ASSERT_TRUE(rep.ok) << rep.error << "\n" << t.format();
  }
}

TEST(NaiveParallel, TimeIsLinearWhereThePipelineIsLogarithmic) {
  // The naive baseline's per-1-node merge is sequential in L(w), so its
  // step count is Θ(n) on every shape (deep chains make every *level*
  // cheap but numerous; balanced trees make the top merges huge). The
  // optimal pipeline does the same instances in O(log n) steps — this is
  // the separation bench E5 quantifies.
  const auto naive_steps = [](std::size_t n) {
    Machine m({Policy::EREW, n});
    (void)min_path_cover_naive_parallel(m, cograph::caterpillar(n));
    return m.stats().steps;
  };
  const auto s1 = naive_steps(1 << 10);
  const auto s2 = naive_steps(1 << 11);
  EXPECT_GT(s1, (1u << 10) / 2);              // Θ(n) level count
  EXPECT_GT(static_cast<double>(s2), 1.7 * static_cast<double>(s1))
      << "naive steps must scale linearly in n";
}

TEST(Greedy, CoversEveryVertexWithRealEdges) {
  util::Rng rng(33);
  for (int trial = 0; trial < 40; ++trial) {
    RandomCotreeOptions opt;
    opt.seed = 333 + static_cast<unsigned>(trial);
    const Cotree t = cograph::random_cotree(1 + rng.below(60), opt);
    const Graph g = Graph::from_cotree(t);
    const core::PathCover c = min_path_cover_greedy(g);
    const auto rep = core::validate_path_cover(t, c, false);
    ASSERT_TRUE(rep.ok) << rep.error;
    // Greedy can only be worse than the optimum.
    EXPECT_GE(static_cast<std::int64_t>(c.paths.size()),
              core::path_cover_size(t));
  }
}

TEST(Greedy, EmpiricalGapStaysSmallOnCographs) {
  // Empirically the min-degree / both-ends greedy is remarkably strong on
  // cographs (the join structure keeps high-degree connectors available).
  // We record the gap rather than asserting suboptimality — on these
  // sweeps it has never exceeded +1 path; a future regression that makes
  // greedy *worse* than that would be a real behaviour change.
  util::Rng rng(34);
  std::int64_t worst_gap = 0;
  for (int trial = 0; trial < 200; ++trial) {
    RandomCotreeOptions opt;
    opt.seed = 444 + static_cast<unsigned>(trial);
    const Cotree t = cograph::random_cotree(4 + rng.below(40), opt);
    const Graph g = Graph::from_cotree(t);
    const auto gap =
        static_cast<std::int64_t>(min_path_cover_greedy(g).paths.size()) -
        core::path_cover_size(t);
    ASSERT_GE(gap, 0);
    worst_gap = std::max(worst_gap, gap);
  }
  EXPECT_LE(worst_gap, 1);
}

}  // namespace
}  // namespace copath::baseline
