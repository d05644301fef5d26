// Theorem 5.3: the PRAM pipeline — validity, minimality, EREW discipline
// (the machine *checks* it), cost bounds, and engine invariance.
// The engine-level sweeps drive min_path_cover_pram on an explicit machine;
// the behavioural tests go through the copath::Solver facade.
#include <gtest/gtest.h>

#include "cograph/families.hpp"
#include "copath_solver.hpp"
#include "core/count.hpp"
#include "core/pipeline.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace copath::core {
namespace {

using cograph::Cotree;
using cograph::RandomCotreeOptions;
using pram::Machine;
using pram::Policy;

struct Shape {
  std::size_t n;
  std::size_t procs;
  par::RankEngine engine;
};

class PipelineSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(PipelineSweep, ValidMinimalAndEREWClean) {
  const auto [nmax, procs, engine] = GetParam();
  util::Rng rng(nmax * 7 + procs);
  for (int trial = 0; trial < 10; ++trial) {
    RandomCotreeOptions opt;
    opt.seed = nmax * 1000 + static_cast<unsigned>(trial);
    opt.skew = (trial % 3) * 0.4;
    const Cotree t = cograph::random_cotree(1 + rng.below(nmax), opt);
    Machine m({Policy::EREW, procs});
    PipelineOptions popt;
    popt.rank_engine = engine;
    PipelineTrace trace;
    PathCover c;
    ASSERT_NO_THROW(c = min_path_cover_pram(m, t, popt, &trace))
        << "EREW violation or convergence failure on " << t.format();
    const ValidationReport rep = validate_path_cover(t, c, true);
    ASSERT_TRUE(rep.ok) << rep.error << "\n" << t.format();
    EXPECT_EQ(static_cast<std::int64_t>(c.paths.size()),
              path_cover_size(t));
    EXPECT_LE(trace.repair_rounds, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineSweep,
    ::testing::Values(Shape{6, 1, par::RankEngine::Contract},
                      Shape{30, 4, par::RankEngine::Contract},
                      Shape{30, 4, par::RankEngine::Wyllie},
                      Shape{90, 16, par::RankEngine::Contract},
                      Shape{150, 8, par::RankEngine::Contract},
                      // procs = 0: every pfor is ONE maximally parallel
                      // checked step — no cross-item access can hide in
                      // Brent chunking.
                      Shape{60, 0, par::RankEngine::Contract},
                      Shape{60, 0, par::RankEngine::Wyllie}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.n) + "_p" +
             std::to_string(info.param.procs) +
             (info.param.engine == par::RankEngine::Contract ? "_c" : "_w");
    });

TEST(Pipeline, SingleVertexAndPairs) {
  Machine m({Policy::EREW, 2});
  EXPECT_EQ(min_path_cover_pram(m, Cotree::parse("a")).paths.size(), 1u);
  EXPECT_EQ(min_path_cover_pram(m, Cotree::parse("(* a b)")).paths.size(),
            1u);
  EXPECT_EQ(min_path_cover_pram(m, Cotree::parse("(+ a b)")).paths.size(),
            2u);
}

TEST(Pipeline, FamiliesValidMinimalThroughSolver) {
  SolveOptions opts;
  opts.backend = Backend::Pram;
  opts.processors = 8;
  opts.validate = true;
  const Solver solver(opts);
  for (const auto& t :
       {cograph::clique(20), cograph::independent_set(11),
        cograph::star(10), cograph::complete_bipartite(7, 4),
        cograph::complete_multipartite({5, 4, 2}),
        cograph::threshold_graph({1, 1, 0, 1, 0, 0, 1}),
        cograph::caterpillar(41, cograph::NodeKind::Join),
        cograph::caterpillar(40, cograph::NodeKind::Union),
        cograph::paper_fig10()}) {
    const SolveResult res = solver.solve(Instance::view(t));
    ASSERT_TRUE(res.ok) << res.error << " on " << t.format();
    EXPECT_TRUE(res.validation.ok)
        << res.validation.error << " on " << t.format();
    EXPECT_TRUE(res.minimum) << t.format();
  }
}

// ------------------------------------------------------ Unchecked differential
// The same stage code with conflict checking off (Policy::Unchecked) must
// answer exactly like the checked EREW run, and agree with the Reference
// pipeline on minima and verdicts.

void expect_unchecked_matches(const SolveResult& got, const SolveResult& erew,
                              const SolveResult& ref, const std::string& what) {
  ASSERT_TRUE(got.ok) << what << ": " << got.error;
  ASSERT_TRUE(erew.ok) << what << ": " << erew.error;
  ASSERT_TRUE(ref.ok) << what << ": " << ref.error;
  EXPECT_EQ(got.cover.paths, erew.cover.paths) << what;
  EXPECT_EQ(got.optimal_size, erew.optimal_size) << what;
  EXPECT_EQ(got.cover.paths.size(), ref.cover.paths.size()) << what;
  EXPECT_EQ(got.optimal_size, ref.optimal_size) << what;
  EXPECT_TRUE(got.minimum) << what;
  EXPECT_EQ(got.hamiltonian_path, ref.hamiltonian_path) << what;
  EXPECT_EQ(got.hamiltonian_cycle, ref.hamiltonian_cycle) << what;
}

TEST(UncheckedPram, CoversMinimaAndVerdictsMatchPramOnEveryFamily) {
  SolveOptions erew;
  erew.backend = Backend::Pram;
  SolveOptions ref;
  ref.backend = Backend::Reference;
  for (const auto& t : testing::large_families()) {
    const SolveResult want = Solver(erew).solve(Instance::view(t));
    const SolveResult oracle = Solver(ref).solve(Instance::view(t));
    SolveOptions opts = erew;
    opts.policy = Policy::Unchecked;
    opts.validate = true;
    const SolveResult got = Solver(opts).solve(Instance::view(t));
    const std::string what = "n=" + std::to_string(t.vertex_count());
    expect_unchecked_matches(got, want, oracle, what);
    EXPECT_TRUE(got.validation.ok) << what << ": " << got.validation.error;
  }
}

TEST(UncheckedPram, RandomBatchOf120MatchesPramInstanceByInstance) {
  // >= 100 random instances through solve_batch on the unchecked machine,
  // instance by instance against checked EREW solves and the Reference.
  std::vector<Cotree> keep;
  keep.reserve(120);
  for (unsigned i = 0; i < 120; ++i) {
    keep.push_back(testing::random_cotree(1 + (i * 13) % 150, 424200 + i));
  }
  std::vector<SolveRequest> reqs(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    reqs[i].instance = Instance::view(keep[i]);
  }

  SolveOptions uopt;
  uopt.backend = Backend::Pram;
  uopt.policy = Policy::Unchecked;
  uopt.batch_workers = 3;
  Solver usolver(uopt);
  const auto got = usolver.solve_batch(reqs);

  SolveOptions erew;
  erew.backend = Backend::Pram;
  SolveOptions ref;
  ref.backend = Backend::Reference;
  ASSERT_EQ(got.size(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    expect_unchecked_matches(got[i], Solver(erew).solve(Instance::view(keep[i])),
                             Solver(ref).solve(Instance::view(keep[i])),
                             "instance " + std::to_string(i));
  }
}

TEST(Pipeline, TraceReportsPlausibleNumbers) {
  RandomCotreeOptions opt;
  opt.seed = 7;
  const Cotree t = cograph::random_cotree(64, opt);
  SolveOptions opts;
  opts.backend = Backend::Pram;
  opts.processors = 8;
  opts.collect_trace = true;
  const SolveResult res = Solver(opts).solve(Instance::view(t));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.trace_valid);
  EXPECT_GT(res.trace.bracket_length, 3 * 64u - 1);
  EXPECT_LE(res.trace.bracket_length, 7 * 64u);
  EXPECT_EQ(res.trace.path_count, res.cover.size());
}

TEST(Pipeline, ConvenienceWrapperReportsStats) {
  RandomCotreeOptions opt;
  opt.seed = 99;
  const Cotree t = cograph::random_cotree(120, opt);
  pram::Stats stats;
  const PathCover c = min_path_cover_parallel(t, &stats);
  EXPECT_TRUE(validate_path_cover(t, c, true).ok);
  EXPECT_GT(stats.steps, 0u);
  EXPECT_GT(stats.work, stats.steps);
}

TEST(PipelineCost, Theorem53Bound) {
  // O(log n) steps and O(n) work with P = n / log2 n (generous constants;
  // the benches report the exact measurements).
  RandomCotreeOptions opt;
  opt.seed = 1;
  const std::size_t n = 1 << 12;
  const Cotree t = cograph::random_cotree(n, opt);
  Machine m({Policy::Unchecked, n / 12});
  (void)min_path_cover_pram(m, t);
  EXPECT_LE(m.stats().steps, 3000 * 12);
  EXPECT_LE(m.stats().work, 4000 * n);
}

TEST(PipelineCost, StepsGrowLogarithmically) {
  // Doubling n with P = n/log n should increase steps by roughly a
  // constant, not double them.
  RandomCotreeOptions opt;
  opt.seed = 2;
  std::uint64_t prev = 0;
  for (const std::size_t logn : {10u, 11u, 12u}) {
    const std::size_t n = std::size_t{1} << logn;
    const Cotree t = cograph::random_cotree(n, opt);
    Machine m({Policy::Unchecked, n / logn});
    (void)min_path_cover_pram(m, t);
    const std::uint64_t steps = m.stats().steps;
    if (prev != 0) {
      EXPECT_LT(steps, prev * 3 / 2)
          << "steps should grow ~ log n, not linearly";
    }
    prev = steps;
  }
}

}  // namespace
}  // namespace copath::core
