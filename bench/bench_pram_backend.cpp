// E7 — the PRAM simulator substrate itself (substitution validity,
// DESIGN.md §2): the overhead of conflict checking, and the cost model's
// insensitivity to it. Driven through core::probe_scan_substrate, the
// facade's substrate probe (the machine wiring lives in src/).
//
// The machine runs every step on one host thread; simulated steps/work are
// identical in checked and unchecked mode by construction — that is the
// point of the model. Run with --json to write BENCH_pram_backend.json.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace copath;

bench::JsonReport* g_json = nullptr;

core::BackendConfig probe_config(std::size_t n, bool checked) {
  core::BackendConfig cfg;
  cfg.policy = checked ? pram::Policy::EREW : pram::Policy::Unchecked;
  cfg.processors = n / 18;
  return cfg;
}

void backend_table() {
  bench::banner(
      "E7: PRAM simulator backend",
      "Simulated steps/work must be identical in checked and unchecked "
      "mode; wall time varies. (The complexity claims rest on the "
      "simulated counts, not wall time.)");
  const std::size_t n = 1 << 18;
  util::Table t({"mode", "steps", "work", "wall_ms"});
  const auto emit = [&](const char* mode, const core::ScanProbeResult& res) {
    t.row({util::Table::S(mode),
           util::Table::I(static_cast<long long>(res.stats.steps)),
           util::Table::I(static_cast<long long>(res.stats.work)),
           util::Table::F(res.wall_ms)});
    if (g_json != nullptr) {
      g_json->row("backend_table",
                  {{"n", static_cast<double>(n)},
                   {"steps", static_cast<double>(res.stats.steps)},
                   {"work", static_cast<double>(res.stats.work)},
                   {"wall_ms", res.wall_ms}},
                  {{"mode", mode}});
    }
  };
  for (const bool checked : {false, true}) {
    emit(checked ? "EREW-checked" : "unchecked",
         core::probe_scan_substrate(n, probe_config(n, checked)));
  }
  t.print(std::cout);
  std::cout << std::endl;
}

void BM_scan_unchecked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::BackendConfig cfg;
  cfg.policy = pram::Policy::Unchecked;
  cfg.processors = n / 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::probe_scan_substrate(n, cfg));
  }
}
BENCHMARK(BM_scan_unchecked)->Range(1 << 14, 1 << 20);

void BM_scan_checked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::BackendConfig cfg;
  cfg.policy = pram::Policy::EREW;
  cfg.processors = n / 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::probe_scan_substrate(n, cfg));
  }
}
BENCHMARK(BM_scan_checked)->Range(1 << 14, 1 << 18);

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(&argc, argv, "pram_backend");
  g_json = &json;
  backend_table();
  json.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
