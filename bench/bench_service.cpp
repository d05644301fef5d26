// E10 — the service layer: the canonical memo cache.
//
// What it measures: warm-cache solves of repeated or permuted/relabeled
// instances against the cold path (a hit pays canonicalization + a cover
// remap instead of the solve), and the miss-path overhead the cache costs
// traffic that never repeats. The committed BENCH_service.json reads
// warm 2.3-2.8x over cold at n = 4096 and 16384: the cold side runs the
// O(n) sweep, so a hit saves little more than half the request. The bench
// reports the ratio; it has no pass/fail bar.
// Run with --json to write BENCH_service.json for the perf trajectory.
#include <benchmark/benchmark.h>

#include <future>
#include <vector>

#include "../tests/testing.hpp"  // the shared instance/twin generators
#include "bench_common.hpp"

namespace {

using namespace copath;

bench::JsonReport* g_json = nullptr;

/// Submits one request per instance and blocks until all are answered;
/// returns total wall ms.
double drain(Service& svc, const std::vector<Cotree>& instances) {
  util::WallTimer timer;
  std::vector<std::future<SolveResult>> futures;
  futures.reserve(instances.size());
  for (const auto& t : instances) {
    futures.push_back(svc.submit(SolveRequest{Instance::view(t), {}, {}}));
  }
  for (auto& f : futures) bench::require_ok(f.get());
  return timer.millis();
}

void cold_vs_warm_table() {
  bench::banner(
      "E10a: cold vs warm-cache throughput",
      "The same batch served three times: cold (every request computes), "
      "warm-repeat (identical instances; pure hits), warm-permuted "
      "(shuffled+relabeled twins; hits replayed through each instance's "
      "leaf permutation). Measured (BENCH_service.json): warm 2.3-2.8x "
      "over cold; reported, not gated.");
  util::Table table({"n", "batch", "phase", "total_ms", "speedup"});
  util::Rng twin_rng(20260726);
  for (const std::size_t lg : {12u, 14u}) {
    const std::size_t n = std::size_t{1} << lg;
    constexpr std::size_t kBatch = 16;
    std::vector<Cotree> cold_batch, twin_batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      cold_batch.push_back(testing::random_cotree(n, 880000 + lg * 100 + i));
      twin_batch.push_back(testing::random_twin(cold_batch.back(), twin_rng));
    }
    Service::Options sopts;
    // The Service default backend (Sequential): the engine that serves.
    sopts.solve.compute_verdicts = false;  // time the engine + cache alone
    sopts.workers = 2;
    sopts.cache.capacity = 1024;
    Service svc(sopts);
    const double cold_ms = drain(svc, cold_batch);
    const double warm_repeat_ms = drain(svc, cold_batch);
    const double warm_permuted_ms = drain(svc, twin_batch);
    const auto row = [&](const char* phase, double ms) {
      table.row({util::Table::I(static_cast<long long>(n)),
                 util::Table::I(static_cast<long long>(kBatch)),
                 util::Table::S(phase), util::Table::F(ms),
                 util::Table::F(cold_ms / ms)});
      if (g_json != nullptr) {
        g_json->row("cold_vs_warm",
                    {{"n", static_cast<double>(n)},
                     {"batch", static_cast<double>(kBatch)},
                     {"total_ms", ms},
                     {"speedup_vs_cold", cold_ms / ms}},
                    {{"phase", phase}});
      }
    };
    row("cold", cold_ms);
    row("warm-repeat", warm_repeat_ms);
    row("warm-permuted", warm_permuted_ms);
    const auto stats = svc.stats();
    if (g_json != nullptr) {
      g_json->row("cold_vs_warm_stats",
                  {{"n", static_cast<double>(n)},
                   {"hits", static_cast<double>(stats.cache_hits)},
                   {"misses", static_cast<double>(stats.cache_misses)}});
    }
  }
  table.print(std::cout);
  std::cout << std::endl;
}

void overhead_table() {
  bench::banner(
      "E10c: miss-path overhead — Service(cache on, all distinct) vs Solver",
      "Worst case for the cache: every request is new, so every request "
      "pays canonicalization + insert on top of the solve. The overhead "
      "the memoization layer costs traffic that never repeats.");
  util::Table table({"n", "batch", "path", "total_ms", "overhead"});
  for (const std::size_t lg : {12u, 14u}) {
    const std::size_t n = std::size_t{1} << lg;
    constexpr std::size_t kBatch = 16;
    std::vector<Cotree> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(testing::random_cotree(n, 660000 + lg * 100 + i));
    }
    SolveOptions solve;  // Backend::Sequential, the Service default
    solve.compute_verdicts = false;
    util::WallTimer timer;
    const Solver solver(solve);
    for (const auto& t : batch) {
      bench::require_ok(solver.solve(Instance::view(t)));
    }
    const double solver_ms = timer.millis();
    Service::Options sopts;
    sopts.solve = solve;
    sopts.workers = 1;  // apples-to-apples with the sequential Solver loop
    Service svc(sopts);
    const double service_ms = drain(svc, batch);
    const auto row = [&](const char* path, double ms) {
      table.row({util::Table::I(static_cast<long long>(n)),
                 util::Table::I(static_cast<long long>(kBatch)),
                 util::Table::S(path), util::Table::F(ms),
                 util::Table::F(ms / solver_ms)});
      if (g_json != nullptr) {
        g_json->row("miss_overhead",
                    {{"n", static_cast<double>(n)},
                     {"batch", static_cast<double>(kBatch)},
                     {"total_ms", ms},
                     {"overhead_vs_solver", ms / solver_ms}},
                    {{"path", path}});
      }
    };
    row("solver-direct", solver_ms);
    row("service-all-miss", service_ms);
  }
  table.print(std::cout);
  std::cout << std::endl;
}

void BM_submit_warm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Cotree t = testing::random_cotree(n, 99);
  Service::Options sopts;
  sopts.solve.compute_verdicts = false;
  sopts.workers = 1;
  Service svc(sopts);
  svc.submit(SolveRequest{Instance::view(t), {}, {}}).get();  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        svc.submit(SolveRequest{Instance::view(t), {}, {}}).get());
  }
}
BENCHMARK(BM_submit_warm)->Range(1 << 10, 1 << 14);

void BM_canonical_form(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Cotree t = testing::random_cotree(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonical_form(t));
  }
}
BENCHMARK(BM_canonical_form)->Range(1 << 10, 1 << 16);

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(&argc, argv, "service");
  g_json = &json;
  cold_vs_warm_table();
  overhead_table();
  json.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
