// E9 — the exec-layer split: Backend::Native (direct memory, no
// simulation) against the PRAM simulator backends on identical inputs.
//
// The acceptance claim for the exec refactor: at n >= 2^16 the Native
// engine beats the EREW-checked simulator by >= 3x wall time while
// producing the identical cover (the differential suite in
// tests/exec_test.cpp enforces equality; this bench measures the gap).
// Run with --json to write BENCH_native.json for the perf trajectory.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace copath;

bench::JsonReport* g_json = nullptr;

SolveOptions native_options(std::size_t workers = 1) {
  SolveOptions opts;
  opts.backend = Backend::Native;
  opts.workers = workers;
  opts.compute_verdicts = false;
  return opts;
}

double time_solve(const Cotree& t, const SolveOptions& opts) {
  const Solver solver(opts);
  const auto res = bench::require_ok(solver.solve(Instance::view(t)));
  return res.wall_ms;
}

void substrate_table() {
  bench::banner(
      "E9a: scan substrate — simulator vs native",
      "The same work-optimal exclusive scan; the simulator pays conflict "
      "stamps (checked), write buffering and step barriers (both), the "
      "native executor none of it.");
  util::Table t({"n", "engine", "wall_ms", "native_speedup"});
  for (const std::size_t lg : {16u, 18u, 20u}) {
    const std::size_t n = std::size_t{1} << lg;
    core::BackendConfig cfg;
    cfg.processors = n / bench::log2z(n);
    cfg.policy = pram::Policy::EREW;
    const auto checked = core::probe_scan_substrate(n, cfg);
    cfg.policy = pram::Policy::Unchecked;
    const auto unchecked = core::probe_scan_substrate(n, cfg);
    const auto native = core::probe_scan_native(n, 1);
    const auto row = [&](const char* engine, double ms) {
      t.row({util::Table::I(static_cast<long long>(n)),
             util::Table::S(engine), util::Table::F(ms),
             util::Table::F(ms / native.wall_ms)});
      if (g_json != nullptr) {
        g_json->row("scan_substrate",
                    {{"n", static_cast<double>(n)},
                     {"wall_ms", ms},
                     {"native_speedup", ms / native.wall_ms}},
                    {{"engine", engine}});
      }
    };
    row("pram-erew-checked", checked.wall_ms);
    row("pram-unchecked", unchecked.wall_ms);
    row("native", native.wall_ms);
  }
  t.print(std::cout);
  std::cout << std::endl;
}

void solve_table() {
  bench::banner(
      "E9b: full pipeline — Backend::Native vs Backend::Pram",
      "End-to-end minimum path cover (Theorem 5.3 stages) on identical "
      "instances. Acceptance bar: native >= 3x over the checked simulator "
      "at n >= 2^16.");
  util::Table t(
      {"family", "n", "engine", "wall_ms", "native_speedup"});
  for (const std::size_t lg : {16u, 17u}) {
    const std::size_t n = std::size_t{1} << lg;
    cograph::RandomCotreeOptions gopt;
    gopt.seed = 20260726 + lg;
    const std::vector<std::pair<const char*, Cotree>> instances = {
        {"random", cograph::random_cotree(n, gopt)},
        {"caterpillar", cograph::caterpillar(n)},
    };
    for (const auto& [family, tree] : instances) {
      const double checked_ms =
          time_solve(tree, bench::paper_options(Backend::Pram, true));
      const double unchecked_ms =
          time_solve(tree, bench::paper_options(Backend::Pram, false));
      const double native_ms = time_solve(tree, native_options());
      const auto row = [&](const char* engine, double ms) {
        t.row({util::Table::S(family),
               util::Table::I(static_cast<long long>(n)),
               util::Table::S(engine), util::Table::F(ms),
               util::Table::F(ms / native_ms)});
        if (g_json != nullptr) {
          g_json->row("solve",
                      {{"n", static_cast<double>(n)},
                       {"wall_ms", ms},
                       {"native_speedup", ms / native_ms}},
                      {{"engine", engine}, {"family", family}});
        }
      };
      row("pram-erew-checked", checked_ms);
      row("pram-unchecked", unchecked_ms);
      row("native", native_ms);
    }
  }
  t.print(std::cout);
  std::cout << std::endl;
}

void batch_table() {
  bench::banner(
      "E9c: solve_batch throughput — native vs simulator engines",
      "64 instances of n = 4096 through Solver::solve_batch (shared pool, "
      "one instance per worker). Instances/second is the service-level "
      "number the exec split buys.");
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
  for (const Backend b :
       {Backend::Pram, Backend::Sequential, Backend::Native}) {
    SolveOptions opts =
        b == Backend::Native ? native_options(0) : bench::paper_options(b);
    Solver solver(opts);
    util::WallTimer timer;
    const auto results = solver.solve_batch(reqs);
    const double ms = timer.millis();
    for (const auto& r : results) bench::require_ok(r);
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

void BM_solve_native(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cograph::RandomCotreeOptions gopt;
  gopt.seed = 99;
  const Cotree t = cograph::random_cotree(n, gopt);
  const Solver solver(native_options());
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(Instance::view(t)));
  }
}
BENCHMARK(BM_solve_native)->Range(1 << 12, 1 << 16);

void BM_solve_pram_unchecked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cograph::RandomCotreeOptions gopt;
  gopt.seed = 99;
  const Cotree t = cograph::random_cotree(n, gopt);
  const Solver solver(bench::paper_options(Backend::Pram, false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(Instance::view(t)));
  }
}
BENCHMARK(BM_solve_pram_unchecked)->Range(1 << 12, 1 << 14);

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(&argc, argv, "native");
  g_json = &json;
  substrate_table();
  solve_table();
  batch_table();
  json.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
