// E11 — the host sweep (Backend::Sequential, which Backend::Adaptive
// aliases) against the native parallel pipeline (Backend::Native,
// hardware workers) on identical inputs: the measurement behind serving
// every host request with the sweep and routing nothing to Native
// (DESIGN.md §7.3). The sweep drives n = 2^8 .. 2^20 over the random and
// caterpillar families.
//
// Modes:
//   --json    write BENCH_adaptive.json (the perf-trajectory record)
//   --smoke   small-n decision gate: exit 1 if Native is more than 10%
//             faster than Sequential at any swept size — the signal that
//             routing work to Native would pay on this host and the
//             decision should be revisited (CI runs this in Release)
//
// Plain main — no google-benchmark dependency, so the smoke gate builds
// everywhere the library does.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace copath;

bench::JsonReport* g_json = nullptr;

SolveOptions engine_options(Backend b) {
  SolveOptions opts;
  opts.backend = b;
  opts.workers = b == Backend::Sequential ? 1 : 0;  // 0 = hardware
  opts.compute_verdicts = false;
  return opts;
}

Cotree make_instance(const char* family, std::size_t n, unsigned seed) {
  if (std::strcmp(family, "caterpillar") == 0) return cograph::caterpillar(n);
  cograph::RandomCotreeOptions gopt;
  gopt.seed = seed;
  return cograph::random_cotree(n, gopt);
}

/// Best-of-reps engine time in ms (res.wall_ms times the backend run
/// alone).
double time_solve(const Cotree& t, Backend b, int reps) {
  const Solver solver(engine_options(b));
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto res = bench::require_ok(solver.solve(Instance::view(t)));
    best = std::min(best, res.wall_ms);
  }
  return best;
}

/// One (family, n) cell across the two engines. Each engine's timing
/// block is preceded by one untimed sequential solve so both start from
/// the same cache state (without it, whichever engine runs after Native
/// inherits a trashed LLC and reads ~1.3x slower — an artifact, not a
/// cost). Returns Sequential / best-of-{Seq, Native} for the smoke gate.
double sweep_cell(util::Table& table, const char* family, std::size_t n,
                  int reps) {
  const Cotree t = make_instance(family, n, 11000 + static_cast<unsigned>(n));
  const Solver warm_solver(engine_options(Backend::Sequential));
  const auto timed = [&](Backend b) {
    (void)bench::require_ok(warm_solver.solve(Instance::view(t)));
    return time_solve(t, b, reps);
  };
  // Sequential is measured first: clock drift (thermal throttle, VM
  // steal) over the cell then works *against* it, so the ratio is
  // conservative.
  const double seq = timed(Backend::Sequential);
  const double nat = timed(Backend::Native);
  const double best = std::min(seq, nat);
  const auto row = [&](const char* engine, double ms) {
    table.row({util::Table::S(family),
               util::Table::I(static_cast<long long>(n)),
               util::Table::S(engine), util::Table::F(ms),
               util::Table::F(best / ms)});
    if (g_json != nullptr) {
      g_json->row("solve",
                  {{"n", static_cast<double>(n)},
                   {"wall_ms", ms},
                   {"vs_best", ms / best}},
                  {{"engine", engine}, {"family", family}});
    }
  };
  row("sequential", seq);
  row("native", nat);
  return seq / best;
}

int solve_sweep(bool smoke) {
  bench::banner(
      smoke ? "E11-smoke: Native never beats the sweep at small n"
            : "E11a: Sequential vs Native, n = 2^8 .. 2^20",
      "Identical instances through Backend::Sequential and Backend::Native "
      "(hardware workers). vs_best is the engine's time over the better of "
      "the two; the gate fails if Native is more than 10% faster than "
      "Sequential (Sequential's vs_best > 1.1) at any size.");
  util::Table table({"family", "n", "engine", "wall_ms", "best_speedup"});
  const std::vector<std::size_t> lgs =
      smoke ? std::vector<std::size_t>{8, 9, 10, 11, 12}
            : std::vector<std::size_t>{8, 10, 12, 14, 16, 18, 20};
  int violations = 0;
  for (const char* family : {"random", "caterpillar"}) {
    for (const std::size_t lg : lgs) {
      const std::size_t n = std::size_t{1} << lg;
      const int reps = n <= (1u << 12) ? 15 : (n <= (1u << 16) ? 5 : 2);
      const double ratio = sweep_cell(table, family, n, reps);
      // 10% relative headroom plus a 50us absolute floor on the retry:
      // at microsecond scales scheduler jitter exceeds any real gap, so a
      // first-pass miss re-measures with more repetitions before failing
      // the gate.
      if (smoke && ratio > 1.10) {
        const Cotree t =
            make_instance(family, n, 11000 + static_cast<unsigned>(n));
        const double seq = time_solve(t, Backend::Sequential, 9);
        const double best =
            std::min(seq, time_solve(t, Backend::Native, 9));
        if (seq > best * 1.10 + 0.05) {
          std::cerr << "SMOKE VIOLATION: sequential " << seq
                    << " ms > 1.1x native " << best << " ms at " << family
                    << " n=" << n
                    << " — routing to Native would pay; revisit "
                       "DESIGN.md §7.3\n";
          ++violations;
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << std::endl;
  return violations;
}

void batch_table() {
  bench::banner(
      "E11b: solve_batch throughput at the paper's serving size",
      "64 instances of n = 4096 through Solver::solve_batch: the fused "
      "host-sweep lane (Sequential) against one Native instance per pool "
      "worker.");
  std::vector<Cotree> keep;
  keep.reserve(64);
  for (unsigned i = 0; i < 64; ++i) {
    cograph::RandomCotreeOptions gopt;
    gopt.seed = 555000 + i;
    keep.push_back(cograph::random_cotree(4096, gopt));
  }
  std::vector<SolveRequest> reqs(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    reqs[i].instance = Instance::view(keep[i]);
  }
  util::Table t({"engine", "total_ms", "inst_per_s"});
  for (const Backend b : {Backend::Sequential, Backend::Native}) {
    Solver solver(engine_options(b));
    double ms = 1e300;  // best of three rounds (round 1 warms pools/arenas)
    for (int round = 0; round < 3; ++round) {
      util::WallTimer timer;
      const auto results = solver.solve_batch(reqs);
      ms = std::min(ms, timer.millis());
      for (const auto& r : results) bench::require_ok(r);
    }
    const double ips = 1000.0 * static_cast<double>(reqs.size()) / ms;
    t.row({util::Table::S(core::to_string(b)), util::Table::F(ms),
           util::Table::F(ips)});
    if (g_json != nullptr) {
      g_json->row("solve_batch",
                  {{"batch", static_cast<double>(reqs.size())},
                   {"n", 4096.0},
                   {"total_ms", ms},
                   {"inst_per_s", ips}},
                  {{"engine", core::to_string(b)}});
    }
  }
  t.print(std::cout);
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  bench::JsonReport json(&argc, argv, "adaptive");
  g_json = &json;
  const int violations = solve_sweep(smoke);
  if (!smoke) batch_table();
  json.write();
  if (violations > 0) {
    std::cerr << violations << " smoke violation(s)\n";
    return 1;
  }
  std::cout << (smoke ? "smoke OK\n" : "");
  return 0;
}
