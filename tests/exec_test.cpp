// The exec layer: Native-vs-Pram differential equivalence (covers, minima,
// Hamiltonicity) across generator families and random batches, CheckedPram
// contract preservation (EREW violations still throw, stats bit-for-bit),
// and the Native executor's primitive-level correctness. Instances come
// from the shared property-test harness (tests/testing.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "copath.hpp"
#include "core/pipeline_exec.hpp"
#include "par/brackets.hpp"
#include "par/euler.hpp"
#include "par/list_ranking.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace copath {
namespace {

using exec::CheckedPram;
using exec::Native;

std::vector<cograph::Cotree> family_instances() {
  return testing::large_families();
}

// ---------------------------------------------------------------- Native
// executor primitives against host references.

TEST(NativeExec, ScanReduceMatchHostReferences) {
  // Exercise both the sequential fast path (grain large) and the threaded
  // path (grain 1, 3 workers) on the same data.
  util::Rng rng(11);
  std::vector<std::int64_t> data(1777);
  for (auto& v : data) v = static_cast<std::int64_t>(rng.below(1000)) - 500;

  std::vector<std::int64_t> expect_excl(data.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    expect_excl[i] = acc;
    acc += data[i];
  }

  for (const std::size_t workers : {1u, 3u}) {
    for (const std::size_t grain : {1u, 1u << 20}) {
      Native ex(Native::Config{workers, 0, grain});
      auto a = exec::make_array<std::int64_t>(ex, data);
      EXPECT_EQ(par::reduce(ex, a), acc);
      par::exclusive_scan(ex, a);
      EXPECT_EQ(a.to_vector(), expect_excl)
          << "workers=" << workers << " grain=" << grain;
    }
  }
}

TEST(NativeExec, BracketsAndListRankingMatchReferences) {
  util::Rng rng(29);
  const std::size_t n = 603;
  std::vector<std::int8_t> sign(n, 0);
  for (auto& s : sign) {
    const auto r = rng.below(3);
    s = r == 0 ? std::int8_t{1} : (r == 1 ? std::int8_t{-1} : std::int8_t{0});
  }
  const auto expect = par::match_brackets_seq(sign);

  Native ex(Native::Config{2, 0, 64});
  auto sign_arr = exec::make_array<std::int8_t>(ex, sign);
  auto match = exec::make_array<std::int64_t>(ex, n, std::int64_t{-1});
  par::match_brackets(ex, sign_arr, match);
  EXPECT_EQ(match.to_vector(), expect);

  // One list 0 -> 1 -> ... -> n-1 (shuffled ids): rank = distance to tail.
  std::vector<par::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = n; i-- > 1;) {
    std::swap(perm[i], perm[rng.below(i + 1)]);
  }
  std::vector<par::NodeId> next(n, par::kNull);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    next[static_cast<std::size_t>(perm[i])] = perm[i + 1];
  }
  auto next_arr = exec::make_array<par::NodeId>(ex, next);
  auto rank_c = exec::make_array<std::int64_t>(ex, n, std::int64_t{0});
  auto rank_w = exec::make_array<std::int64_t>(ex, n, std::int64_t{0});
  par::list_rank_contract(ex, next_arr, rank_c);
  par::list_rank_wyllie(ex, next_arr, rank_w);
  for (std::size_t i = 0; i < n; ++i) {
    const auto expected_rank =
        static_cast<std::int64_t>(n) - 1 - static_cast<std::int64_t>(i);
    EXPECT_EQ(rank_c.host(static_cast<std::size_t>(perm[i])), expected_rank);
    EXPECT_EQ(rank_w.host(static_cast<std::size_t>(perm[i])), expected_rank);
  }
}

TEST(NativeExec, HostShortcutsMatchPhaseStructuredPrimitives) {
  // A 1-worker pool always takes the one-pass host shortcuts; workers = 3
  // with zero grains always takes the phase-structured program. Both must
  // agree on every primitive output.
  util::Rng rng(41);
  const std::size_t n = 1453;
  std::vector<std::int64_t> data(n);
  for (auto& v : data) v = static_cast<std::int64_t>(rng.below(9)) - 4;

  Native host(Native::Config{1});
  Native par3(Native::Config{3, 0, 1, Native::Grains::none()});

  const auto scan_with = [&](Native& ex) {
    auto a = exec::make_array<std::int64_t>(ex, data);
    par::exclusive_scan(ex, a);
    return a.to_vector();
  };
  EXPECT_EQ(scan_with(host), scan_with(par3));

  const auto seg_with = [&](Native& ex) {
    auto a = exec::make_array<std::int64_t>(ex, data);
    std::vector<std::uint8_t> flags(n, 0);
    for (std::size_t i = 0; i < n; i += 97) flags[i] = 1;
    auto f = exec::make_array<std::uint8_t>(ex, flags);
    par::segmented_inclusive_scan(ex, a, f);
    return a.to_vector();
  };
  EXPECT_EQ(seg_with(host), seg_with(par3));

  const auto compact_with = [&](Native& ex) {
    std::vector<std::uint8_t> keep(n, 0);
    for (std::size_t i = 0; i < n; ++i) keep[i] = data[i] > 0 ? 1 : 0;
    auto k = exec::make_array<std::uint8_t>(ex, keep);
    auto out = exec::make_array<std::int64_t>(ex, n, std::int64_t{-1});
    const std::size_t total = par::compact_indices(ex, k, out);
    auto v = out.to_vector();
    v.resize(total);
    return v;
  };
  EXPECT_EQ(compact_with(host), compact_with(par3));
}

TEST(NativeExec, EulerHostDfsMatchesTourAndRankingProgram) {
  // The host-DFS shortcut must reproduce every EulerNumbers field the
  // tour + list-ranking program computes, on every tree shape.
  for (const auto& t : testing::large_families()) {
    const auto bc = cograph::binarize(t);
    pram::Machine m(pram::Machine::Config{pram::Policy::EREW, 1, 16});
    const auto want = par::euler_numbers(m, bc.tree);
    const auto got = par::euler_numbers_host(bc.tree);
    EXPECT_EQ(got.pre, want.pre);
    EXPECT_EQ(got.in, want.in);
    EXPECT_EQ(got.post, want.post);
    EXPECT_EQ(got.depth, want.depth);
    EXPECT_EQ(got.leaves, want.leaves);
    EXPECT_EQ(got.subtree, want.subtree);
    EXPECT_EQ(got.leafnum, want.leafnum);
    EXPECT_EQ(got.first_leaf, want.first_leaf);
    EXPECT_EQ(got.down_pos, want.down_pos);
    EXPECT_EQ(got.up_pos, want.up_pos);
    EXPECT_EQ(got.tour_length, want.tour_length);
  }
}

// ----------------------------------------------------------------- Arena

TEST(NativeExec, SteadyStateSolvesAllocateNothingInsidePipelineStages) {
  // The allocation-counting harness: with a shared arena, the first solve
  // warms the size classes and every later solve of the same instance
  // must run its pipeline stages entirely from recycled buffers.
  exec::Arena arena;
  const auto t = testing::random_cotree(3000, 90125);
  const auto solve_once = [&] {
    Native::Config cfg;
    cfg.workers = 1;
    cfg.arena = &arena;
    Native ex(cfg);
    return core::min_path_cover_exec(ex, t);
  };
  const auto cold = solve_once();
  const auto cold_allocs = arena.stats().fresh_allocs;
  EXPECT_GT(cold_allocs, 0u);
  for (int round = 0; round < 3; ++round) {
    const auto warm = solve_once();
    EXPECT_EQ(warm.paths, cold.paths);
    EXPECT_EQ(arena.stats().fresh_allocs, cold_allocs)
        << "steady-state solve " << round
        << " performed a fresh heap allocation inside the pipeline";
    EXPECT_EQ(arena.stats().outstanding, 0u);
  }
  EXPECT_GT(arena.stats().reuses, 0u);
}

TEST(NativeExec, ArenaRecyclesAcrossBatchedSolvesOfMixedSizes) {
  // Reset/reuse across batched solves (ASan runs this suite): alternating
  // sizes through one shared arena must neither leak, double-release, nor
  // serve a stale smaller buffer for a bigger request.
  exec::Arena arena;
  std::vector<cograph::Cotree> batch;
  for (unsigned i = 0; i < 12; ++i) {
    batch.push_back(testing::random_cotree(50 + (i * 431) % 1200, 777 + i));
  }
  std::vector<core::PathCover> first;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Native::Config cfg;
      cfg.workers = 1;
      cfg.arena = &arena;
      Native ex(cfg);
      auto cover = core::min_path_cover_exec(ex, batch[i]);
      if (round == 0) {
        first.push_back(std::move(cover));
      } else {
        EXPECT_EQ(cover.paths, first[i].paths) << "round " << round;
      }
      EXPECT_EQ(arena.stats().outstanding, 0u);
    }
  }
}

TEST(NativeExec, ForcedParallelPipelineMatchesHostShortcutPipeline) {
  // End to end: the phase-structured parallel path (workers 3, zero
  // grains) and the all-shortcut host path (workers 1) must produce the
  // identical cover.
  for (const auto& t : family_instances()) {
    Native host(Native::Config{1});
    const auto host_cover = core::min_path_cover_exec(host, t);

    Native::Config pc;
    pc.workers = 3;
    pc.grain = 1;
    pc.grains = Native::Grains::none();
    Native par_ex(pc);
    const auto par_cover = core::min_path_cover_exec(par_ex, t);
    EXPECT_EQ(par_cover.paths, host_cover.paths) << t.vertex_count();
  }
}

// ------------------------------------------------------------ CheckedPram
// adapter: contract preserved bit-for-bit after the refactor.

TEST(CheckedPramExec, StillRaisesPramViolationOnSeededErewBreach) {
  CheckedPram ex(CheckedPram::Config{pram::Policy::EREW, 1, 0});
  auto a = exec::make_array<std::int64_t>(ex, 8, std::int64_t{0});
  // Two processors write the same cell in one step: WRITE/WRITE breach.
  EXPECT_THROW(ex.step(2, [&](pram::Ctx& c, std::size_t) {
    a.put(c, 3, 1);
  }),
               pram::PramViolation);
  // Concurrent read of one cell is equally illegal under EREW...
  EXPECT_THROW(ex.step(2, [&](pram::Ctx& c, std::size_t) {
    (void)a.get(c, 5);
  }),
               pram::PramViolation);
  // ...and the machine stays usable afterwards for clean steps.
  ex.step(8, [&](pram::Ctx& c, std::size_t p) { a.put(c, p, 7); });
  EXPECT_EQ(a.host(4), 7);
}

TEST(CheckedPramExec, StatsMatchDirectMachineBitForBit) {
  const std::size_t n = 512;
  const auto run = [&](auto& ex) {
    auto a = exec::make_array<std::int64_t>(ex, n, std::int64_t{1});
    par::exclusive_scan(ex, a);
    auto keep = exec::make_array<std::uint8_t>(ex, n, std::uint8_t{1});
    auto out = exec::make_array<std::int64_t>(ex, n);
    par::compact_indices(ex, keep, out);
    return a.host(n - 1);
  };

  pram::Machine machine(
      pram::Machine::Config{pram::Policy::EREW, 1, n / 9});
  CheckedPram adapter(CheckedPram::Config{pram::Policy::EREW, 1, n / 9});
  EXPECT_EQ(run(machine), run(adapter));

  const pram::Stats& a = machine.stats();
  const pram::Stats& b = adapter.stats();
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.max_processors, b.max_processors);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
}

// ---------------------------------------------------------- Differential
// sweep: Backend::Native vs Backend::Pram end to end.

TEST(NativeBackend, RegisteredAndSelectableThroughSolver) {
  auto& reg = BackendRegistry::instance();
  const auto entry = reg.find(Backend::Native);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "native");
  EXPECT_TRUE(entry->exact);
  EXPECT_EQ(core::backend_from_string("native"), Backend::Native);
}

TEST(NativeBackend, CoversMinimaAndVerdictsMatchPramOnEveryFamily) {
  for (const auto& t : family_instances()) {
    SolveOptions popt;
    popt.backend = Backend::Pram;
    popt.validate = true;
    const auto pres = Solver(popt).solve(Instance::view(t));
    ASSERT_TRUE(pres.ok) << pres.error;

    for (const std::size_t workers : {1u, 4u}) {
      SolveOptions nopt;
      nopt.backend = Backend::Native;
      nopt.workers = workers;
      nopt.validate = true;
      const auto nres = Solver(nopt).solve(Instance::view(t));
      ASSERT_TRUE(nres.ok) << nres.error;
      EXPECT_EQ(nres.cover.paths, pres.cover.paths)
          << "n=" << t.vertex_count() << " workers=" << workers;
      EXPECT_EQ(nres.optimal_size, pres.optimal_size);
      EXPECT_EQ(nres.minimum, pres.minimum);
      EXPECT_TRUE(nres.minimum);
      EXPECT_EQ(nres.hamiltonian_path, pres.hamiltonian_path);
      EXPECT_EQ(nres.hamiltonian_cycle, pres.hamiltonian_cycle);
      EXPECT_TRUE(nres.validation.ok) << nres.validation.error;
      // Native is not a PRAM run: simulated-cost stats stay invalid.
      EXPECT_FALSE(nres.stats_valid);
    }
  }
}

TEST(NativeBackend, RandomBatchOf120MatchesPramInstanceByInstance) {
  // The acceptance sweep: >= 100 random instances, Native == Pram on
  // covers, minima, and Hamiltonicity, batched through solve_batch.
  std::vector<cograph::Cotree> keep;
  keep.reserve(120);
  for (unsigned i = 0; i < 120; ++i) {
    keep.push_back(testing::random_cotree(1 + (i * 13) % 150, 424200 + i));
  }
  std::vector<SolveRequest> reqs(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    reqs[i].instance = Instance::view(keep[i]);
  }

  SolveOptions nopt;
  nopt.backend = Backend::Native;
  nopt.workers = 0;  // solve_batch runs each instance with one worker
  nopt.batch_workers = 3;
  Solver nsolver(nopt);
  const auto nres = nsolver.solve_batch(reqs);

  SolveOptions popt;
  popt.backend = Backend::Pram;
  const Solver psolver(popt);
  ASSERT_EQ(nres.size(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const auto pres = psolver.solve(Instance::view(keep[i]));
    ASSERT_TRUE(nres[i].ok) << i << ": " << nres[i].error;
    ASSERT_TRUE(pres.ok) << i << ": " << pres.error;
    EXPECT_EQ(nres[i].cover.paths, pres.cover.paths) << i;
    EXPECT_EQ(nres[i].optimal_size, pres.optimal_size) << i;
    EXPECT_EQ(nres[i].hamiltonian_path, pres.hamiltonian_path) << i;
    EXPECT_EQ(nres[i].hamiltonian_cycle, pres.hamiltonian_cycle) << i;
  }
}

TEST(NativeBackend, CountAndVerdictHelpersAgreeWithHost) {
  for (const auto& t : family_instances()) {
    SolveOptions opts;
    opts.backend = Backend::Native;
    const auto c = Solver(opts).count(SolveRequest{Instance::view(t), {}, {}});
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_EQ(c.path_cover_size, path_cover_size(t));
    EXPECT_EQ(c.hamiltonian_path, has_hamiltonian_path(t));
    EXPECT_EQ(c.hamiltonian_cycle, has_hamiltonian_cycle(t));
    EXPECT_FALSE(c.stats_valid);

    Native ex(Native::Config{1});
    EXPECT_EQ(core::has_hamiltonian_path_exec(ex, t),
              has_hamiltonian_path(t));
    EXPECT_EQ(core::has_hamiltonian_cycle_exec(ex, t),
              has_hamiltonian_cycle(t));
  }
}

TEST(NativeBackend, OrReductionAndScanProbeRunNative) {
  for (const auto& bits :
       {std::vector<std::uint8_t>{0, 0, 0, 0},
        std::vector<std::uint8_t>{0, 0, 1, 0},
        std::vector<std::uint8_t>{1, 1, 1, 1}}) {
    core::OrReductionOptions opt;
    opt.native = true;
    opt.workers = 2;
    const auto res = core::or_via_path_cover(bits, opt);
    const bool expect =
        std::any_of(bits.begin(), bits.end(), [](auto b) { return b != 0; });
    EXPECT_EQ(res.or_value, expect);
  }

  const auto probe = core::probe_scan_native(1 << 12, 2);
  EXPECT_EQ(probe.checksum, (1 << 12) - 1);
  EXPECT_GT(probe.stats.steps, 0u);
  EXPECT_EQ(probe.stats.reads, 0u);  // Native instruments nothing
}

}  // namespace
}  // namespace copath
