// The copath::Solver facade: every registered backend on the generator
// families, structured results, graph/text/cotree input routing, the
// backend registry, count-only solves, and batch-vs-single equality.
// Instances come from the shared property-test harness (tests/testing.hpp).
#include <gtest/gtest.h>

#include <algorithm>

#include "copath.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace copath {
namespace {

std::vector<cograph::Cotree> family_instances() {
  return testing::small_families();
}

TEST(Registry, AllBuiltinsRegisteredWithRoundTrippingNames) {
  auto& reg = BackendRegistry::instance();
  const auto ids = reg.registered();
  for (const Backend b :
       {Backend::Sequential, Backend::Parallel, Backend::Pram,
        Backend::BruteForce, Backend::Greedy, Backend::NaiveParallel,
        Backend::Reference, Backend::Native}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), b), ids.end())
        << core::to_string(b);
    const auto entry = reg.find(b);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->name, core::to_string(b));
    EXPECT_EQ(reg.find(entry->name), entry);
    EXPECT_EQ(core::backend_from_string(core::to_string(b)), b);
  }
  EXPECT_EQ(core::backend_from_string("no-such-backend"), std::nullopt);
  EXPECT_EQ(reg.find("no-such-backend"), nullptr);
}

TEST(Registry, CustomBackendPlugsInWithoutTouchingCallers) {
  // A downstream engine: registers under an unused id, then every Solver
  // reaches it. Singleton-paths is a valid (rarely minimum) cover.
  const auto custom = static_cast<Backend>(200);
  BackendRegistry::instance().add(
      custom, "singletons",
      [](const Cotree& t, const core::BackendConfig&) {
        core::BackendOutput out;
        for (std::size_t v = 0; v < t.vertex_count(); ++v) {
          out.cover.paths.push_back({static_cast<VertexId>(v)});
        }
        return out;
      },
      /*exact=*/false);
  SolveOptions opts;
  opts.backend = custom;
  opts.validate = true;
  const Solver solver(opts);
  const auto res =
      solver.solve(Instance::cotree(cograph::independent_set(5)));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.cover.size(), 5u);
  EXPECT_TRUE(res.validation.ok) << res.validation.error;
  EXPECT_TRUE(res.minimum);  // on the empty graph singletons are minimum
}

TEST(Solve, EveryBackendOnEveryFamily) {
  for (const Backend b :
       {Backend::Sequential, Backend::Parallel, Backend::Pram,
        Backend::BruteForce, Backend::Greedy, Backend::NaiveParallel,
        Backend::Reference, Backend::Native}) {
    for (const auto& t : family_instances()) {
      if (b == Backend::BruteForce && t.vertex_count() > 14) continue;
      SolveOptions opts;
      opts.backend = b;
      opts.validate = true;
      const Solver solver(opts);
      const auto res = solver.solve(Instance::view(t));
      ASSERT_TRUE(res.ok) << core::to_string(b) << ": " << res.error;
      EXPECT_EQ(res.backend, b);
      EXPECT_EQ(res.vertex_count, t.vertex_count());
      EXPECT_EQ(res.cover.vertex_total(), t.vertex_count());
      EXPECT_TRUE(res.validation.ok)
          << core::to_string(b) << ": " << res.validation.error;
      EXPECT_EQ(res.optimal_size, path_cover_size(t));
      if (b != Backend::Greedy) {
        EXPECT_TRUE(res.minimum) << core::to_string(b);
        EXPECT_EQ(static_cast<std::int64_t>(res.cover.size()),
                  res.optimal_size);
      } else {
        EXPECT_GE(static_cast<std::int64_t>(res.cover.size()),
                  res.optimal_size);
      }
      EXPECT_EQ(res.hamiltonian_path, has_hamiltonian_path(t));
      EXPECT_EQ(res.hamiltonian_cycle, has_hamiltonian_cycle(t));
    }
  }
}

TEST(Solve, StructuredResultsCarryStatsAndTrace) {
  const Cotree t = testing::random_cotree(80, 5);
  SolveOptions opts;
  opts.backend = Backend::Pram;
  opts.collect_trace = true;
  const Solver solver(opts);
  const auto res = solver.solve(Instance::view(t));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.stats_valid);
  EXPECT_GT(res.stats.steps, 0u);
  EXPECT_GT(res.stats.work, res.stats.steps);
  EXPECT_TRUE(res.trace_valid);
  EXPECT_EQ(res.trace.path_count, res.cover.size());
  EXPECT_GT(res.trace.bracket_length, 0u);
  EXPECT_FALSE(res.trace.stages.empty());
  EXPECT_GE(res.wall_ms, 0.0);

  // Host backends report no machine stats.
  SolveOptions seq;
  seq.backend = Backend::Sequential;
  const auto sres = Solver(seq).solve(Instance::view(t));
  ASSERT_TRUE(sres.ok);
  EXPECT_FALSE(sres.stats_valid);
}

TEST(Solve, PramOptionsAreHonored) {
  const Cotree t = testing::random_cotree(100, 12);
  // Explicit processor budget changes the simulated step count.
  SolveOptions wide;
  wide.backend = Backend::Pram;
  wide.policy = pram::Policy::Unchecked;
  wide.processors = t.vertex_count();
  SolveOptions narrow = wide;
  narrow.processors = 2;
  const auto rw = Solver(wide).solve(Instance::view(t));
  const auto rn = Solver(narrow).solve(Instance::view(t));
  ASSERT_TRUE(rw.ok && rn.ok);
  EXPECT_LT(rw.stats.steps, rn.stats.steps);
  EXPECT_EQ(rw.cover.paths, rn.cover.paths);
  // Rank engine selection reaches the pipeline.
  SolveOptions wyllie = wide;
  wyllie.pipeline.rank_engine = par::RankEngine::Wyllie;
  const auto rwy = Solver(wyllie).solve(Instance::view(t));
  ASSERT_TRUE(rwy.ok) << rwy.error;
  EXPECT_EQ(rwy.cover.size(), rw.cover.size());
}

TEST(Solve, TextAndGraphInputsRouteToTheSameAnswer) {
  const std::string algebra = "(* (+ (* a b) c) (+ d e f))";
  const Cotree t = Cotree::parse(algebra);
  const Graph g = Graph::from_cotree(t);

  const Solver solver;
  const auto from_text = solver.solve(Instance::text(algebra));
  const auto from_tree = solver.solve(Instance::view(t));
  const auto from_graph = solver.solve(Instance::graph(g));
  ASSERT_TRUE(from_text.ok) << from_text.error;
  ASSERT_TRUE(from_tree.ok) << from_tree.error;
  ASSERT_TRUE(from_graph.ok) << from_graph.error;
  EXPECT_EQ(from_text.optimal_size, from_tree.optimal_size);
  EXPECT_EQ(from_graph.optimal_size, from_tree.optimal_size);
  EXPECT_EQ(from_text.cover.paths, from_tree.cover.paths);
  // Graph-routed vertex ids coincide with the input graph's, so the cover
  // must be valid against the raw edge list too.
  for (const auto& p : from_graph.cover.paths) {
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
    }
  }
}

TEST(Solve, GraphRoutingSweepAcrossRandomCographs) {
  util::Rng rng(99);
  const Solver solver;
  for (int trial = 0; trial < 25; ++trial) {
    const Cotree t = testing::random_cotree(
        2 + rng.below(40), 9000 + static_cast<unsigned>(trial));
    const auto res = solver.solve(Instance::graph(Graph::from_cotree(t)));
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(static_cast<std::int64_t>(res.cover.size()),
              path_cover_size(t));
  }
}

TEST(Solve, NonCographReportsP4Witness) {
  Graph p4(4);  // the forbidden subgraph itself
  p4.add_edge(0, 1);
  p4.add_edge(1, 2);
  p4.add_edge(2, 3);
  p4.finalize();
  const Solver solver;
  const auto res = solver.solve(Instance::graph(p4));
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("P4"), std::string::npos) << res.error;
}

TEST(Solve, ErrorsAreStructuredNotThrown) {
  const Solver solver;
  const auto bad_text = solver.solve(Instance::text("(* a"));
  EXPECT_FALSE(bad_text.ok);
  EXPECT_FALSE(bad_text.error.empty());

  const auto empty = solver.solve(SolveRequest{});
  EXPECT_FALSE(empty.ok);
  EXPECT_NE(empty.error.find("empty"), std::string::npos) << empty.error;

  SolveOptions opts;
  opts.backend = Backend::BruteForce;  // refuses large n
  const auto too_big =
      Solver(opts).solve(Instance::cotree(cograph::clique(64)));
  EXPECT_FALSE(too_big.ok);
  EXPECT_NE(too_big.error.find("brute-force"), std::string::npos)
      << too_big.error;
}

TEST(Solve, HamiltonianCycleConstructionOnRequest) {
  SolveOptions opts;
  opts.want_hamiltonian_cycle = true;
  const Solver solver(opts);
  const Cotree yes = cograph::complete_bipartite(4, 4);
  const auto rv = solver.solve(Instance::view(yes));
  ASSERT_TRUE(rv.ok);
  EXPECT_TRUE(rv.hamiltonian_cycle);
  ASSERT_TRUE(rv.cycle.has_value());
  EXPECT_EQ(rv.cycle->size(), yes.vertex_count());
  const cograph::CotreeAdjacency adj(yes);
  for (std::size_t i = 0; i < rv.cycle->size(); ++i) {
    EXPECT_TRUE(adj.adjacent((*rv.cycle)[i],
                             (*rv.cycle)[(i + 1) % rv.cycle->size()]));
  }
  const auto rn = solver.solve(Instance::cotree(cograph::star(5)));
  ASSERT_TRUE(rn.ok);
  EXPECT_FALSE(rn.hamiltonian_cycle);
  EXPECT_FALSE(rn.cycle.has_value());
}

TEST(Solve, VerdictOptOutSkipsTheHostSweepsButKeepsTheCover) {
  const Cotree t = testing::random_cotree(60, 21);
  SolveOptions opts;
  opts.compute_verdicts = false;
  const auto res = Solver(opts).solve(Instance::view(t));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.optimal_size, -1);
  EXPECT_FALSE(res.minimum);
  EXPECT_FALSE(res.hamiltonian_path);
  EXPECT_EQ(res.cover.vertex_total(), t.vertex_count());
  EXPECT_EQ(static_cast<std::int64_t>(res.cover.size()),
            path_cover_size(t));
  // want_hamiltonian_cycle still works: the attempt is the verdict.
  SolveOptions copts = opts;
  copts.want_hamiltonian_cycle = true;
  const auto rc =
      Solver(copts).solve(Instance::cotree(cograph::clique(6)));
  ASSERT_TRUE(rc.ok);
  EXPECT_TRUE(rc.hamiltonian_cycle);
  ASSERT_TRUE(rc.cycle.has_value());
  EXPECT_EQ(rc.cycle->size(), 6u);
}

TEST(Count, ParallelBackendKeepsItsFixedContract) {
  // Backend::Parallel means "EREW, paper budget" on both entry points —
  // conflicting options are overridden, exactly as on the solve path.
  const Cotree t = testing::random_cotree(100, 33);
  SolveOptions loose;
  loose.backend = Backend::Parallel;
  loose.policy = pram::Policy::CRCW_Arbitrary;
  loose.processors = 3;
  SolveOptions fixed;
  fixed.backend = Backend::Parallel;
  const auto cl = Solver(loose).count(SolveRequest{Instance::view(t), {}, {}});
  const auto cf = Solver(fixed).count(SolveRequest{Instance::view(t), {}, {}});
  ASSERT_TRUE(cl.ok && cf.ok);
  EXPECT_EQ(cl.stats.steps, cf.stats.steps);
  EXPECT_EQ(cl.stats.work, cf.stats.work);
  EXPECT_EQ(cl.path_cover_size, cf.path_cover_size);
}

TEST(Count, MatchesSolveAcrossBackendsAndReportsPramCost) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 15; ++trial) {
    const Cotree t = testing::random_cotree(
        1 + rng.below(70), 300 + static_cast<unsigned>(trial));
    for (const Backend b :
         {Backend::Sequential, Backend::Pram, Backend::Native}) {
      SolveOptions opts;
      opts.backend = b;
      const Solver solver(opts);
      const auto c = solver.count(SolveRequest{Instance::view(t), {}, {}});
      ASSERT_TRUE(c.ok) << c.error;
      EXPECT_EQ(c.path_cover_size, path_cover_size(t));
      EXPECT_EQ(c.hamiltonian_path, has_hamiltonian_path(t));
      EXPECT_EQ(c.hamiltonian_cycle, has_hamiltonian_cycle(t));
      EXPECT_EQ(c.stats_valid, b == Backend::Pram);
      if (c.stats_valid) {
        EXPECT_GT(c.stats.steps, 0u);
      }
    }
  }
}

TEST(Batch, MatchesSingleSolveOn120Instances) {
  // The acceptance bar: solve_batch on >= 100 generated instances must
  // match per-instance solve() exactly (modulo wall-clock fields).
  std::vector<SolveRequest> reqs;
  std::vector<Cotree> keep;  // own the cotrees the requests view
  keep.reserve(120);
  for (unsigned i = 0; i < 120; ++i) {
    keep.push_back(testing::random_cotree(1 + (i * 7) % 120, 100000 + i));
  }
  for (unsigned i = 0; i < 120; ++i) {
    SolveRequest req;
    req.instance = Instance::view(keep[i]);
    req.label = "inst-" + std::to_string(i);
    if (i % 3 == 1) {
      SolveOptions o;
      o.backend = Backend::Pram;
      o.collect_trace = true;
      o.validate = true;
      req.options = o;
    } else if (i % 3 == 2) {
      SolveOptions o;
      o.backend = Backend::Parallel;
      o.validate = true;
      req.options = o;
    }
    reqs.push_back(std::move(req));
  }

  SolveOptions defaults;  // Sequential
  defaults.validate = true;
  defaults.batch_workers = 3;
  Solver solver(defaults);
  const auto batch = solver.solve_batch(reqs);
  ASSERT_EQ(batch.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // Per-instance reference: the same request through solve().
    auto single = solver.solve(reqs[i]);
    ASSERT_TRUE(batch[i].ok) << i << ": " << batch[i].error;
    ASSERT_TRUE(single.ok) << i << ": " << single.error;
    EXPECT_EQ(batch[i].label, reqs[i].label);
    EXPECT_EQ(batch[i].backend, single.backend);
    EXPECT_EQ(batch[i].cover.paths, single.cover.paths) << i;
    EXPECT_EQ(batch[i].optimal_size, single.optimal_size);
    EXPECT_EQ(batch[i].minimum, single.minimum);
    EXPECT_EQ(batch[i].hamiltonian_path, single.hamiltonian_path);
    EXPECT_EQ(batch[i].hamiltonian_cycle, single.hamiltonian_cycle);
    EXPECT_EQ(batch[i].stats_valid, single.stats_valid);
    if (batch[i].stats_valid) {
      EXPECT_EQ(batch[i].stats.steps, single.stats.steps) << i;
      EXPECT_EQ(batch[i].stats.work, single.stats.work) << i;
    }
    EXPECT_EQ(batch[i].trace_valid, single.trace_valid);
    if (batch[i].trace_valid) {
      EXPECT_EQ(batch[i].trace.path_count, single.trace.path_count);
      EXPECT_EQ(batch[i].trace.bracket_length, single.trace.bracket_length);
    }
    EXPECT_TRUE(batch[i].validation.ok) << batch[i].validation.error;
  }

  // The pool is reused across batch calls; a second batch still works and
  // agrees with the first.
  const auto again = solver.solve_batch(reqs);
  ASSERT_EQ(again.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(again[i].cover.paths, batch[i].cover.paths);
  }
}

TEST(Batch, BadInstancesFailStructurallyWithoutPoisoningTheBatch) {
  std::vector<SolveRequest> reqs(3);
  reqs[0].instance = Instance::text("(+ a b c)");
  reqs[1].instance = Instance::text("(* broken");
  reqs[2].instance = Instance::text("(* x y)");
  Solver solver;
  const auto res = solver.solve_batch(reqs);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_TRUE(res[0].ok);
  EXPECT_EQ(res[0].cover.size(), 3u);
  EXPECT_FALSE(res[1].ok);
  EXPECT_FALSE(res[1].error.empty());
  EXPECT_TRUE(res[2].ok);
  EXPECT_TRUE(res[2].hamiltonian_path);
}

}  // namespace
}  // namespace copath
