#include "core/backend.hpp"

#include <algorithm>
#include <utility>

#include "baseline/brute_force.hpp"
#include "baseline/greedy.hpp"
#include "baseline/naive_parallel.hpp"
#include "cograph/graph.hpp"
#include "core/pipeline.hpp"
#include "core/reference.hpp"
#include "core/sequential.hpp"
#include "par/scan.hpp"
#include "pram/array.hpp"
#include "util/math.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace copath::core {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::Sequential: return "sequential";
    case Backend::Parallel: return "parallel";
    case Backend::Pram: return "pram";
    case Backend::BruteForce: return "brute-force";
    case Backend::Greedy: return "greedy";
    case Backend::NaiveParallel: return "naive-parallel";
    case Backend::Reference: return "reference";
    case Backend::Native: return "native";
    case Backend::Adaptive: return "adaptive";
  }
  return "?";
}

std::optional<Backend> backend_from_string(std::string_view s) {
  for (const Backend b :
       {Backend::Sequential, Backend::Parallel, Backend::Pram,
        Backend::BruteForce, Backend::Greedy, Backend::NaiveParallel,
        Backend::Reference, Backend::Native, Backend::Adaptive}) {
    if (s == to_string(b)) return b;
  }
  return std::nullopt;
}

std::size_t paper_processors(std::size_t n) {
  return std::max<std::size_t>(1, n / util::floor_log2(n));
}

pram::Machine::Config machine_config(std::size_t n, const BackendConfig& cfg) {
  return pram::Machine::Config{
      cfg.policy, cfg.processors == 0 ? paper_processors(n) : cfg.processors};
}

bool uses_pram_machine(Backend b) {
  return b == Backend::Parallel || b == Backend::Pram ||
         b == Backend::NaiveParallel;
}

bool is_host_sweep(Backend b) {
  return b == Backend::Sequential || b == Backend::Native ||
         b == Backend::Adaptive;
}

BackendConfig apply_backend_contract(Backend b, BackendConfig cfg) {
  if (b == Backend::Parallel) {
    cfg.policy = pram::Policy::EREW;
    cfg.processors = 0;
  }
  return cfg;
}

namespace {

// The sweep and the pipeline honor cancel up front: a solve whose token
// already tripped (deadline passed while queued, client gone) is refused
// before any work runs. The pipeline also polls it at every stage boundary.
void checkpoint_before_solve(const BackendConfig& cfg) {
  if (cfg.cancel != nullptr) cfg.cancel->checkpoint();
}

BackendOutput run_pram_pipeline(const cograph::Cotree& t,
                                const BackendConfig& cfg) {
  checkpoint_before_solve(cfg);
  BackendOutput out;
  pram::Machine m(machine_config(t.vertex_count(), cfg));
  out.cover = min_path_cover_pram(m, t, cfg.pipeline,
                                  cfg.collect_trace ? &out.trace : nullptr,
                                  cfg.cancel);
  out.stats = m.stats();
  out.used_pram = true;
  out.traced = cfg.collect_trace;
  return out;
}

BackendOutput run_parallel(const cograph::Cotree& t,
                           const BackendConfig& cfg) {
  // The historical min_path_cover_parallel contract: EREW, paper budget.
  // The trace flag and pipeline knobs still pass through.
  return run_pram_pipeline(t, apply_backend_contract(Backend::Parallel, cfg));
}

BackendOutput run_sequential(const cograph::Cotree& t,
                             const BackendConfig& cfg) {
  checkpoint_before_solve(cfg);
  BackendOutput out;
  out.cover = min_path_cover_sequential(t);
  return out;
}

BackendOutput run_reference(const cograph::Cotree& t,
                            const BackendConfig& cfg) {
  BackendOutput out;
  ReferenceTrace rt;
  out.cover = min_path_cover_reference(t, cfg.collect_trace ? &rt : nullptr);
  if (cfg.collect_trace) {
    out.trace.bracket_length = rt.bracket_length;
    out.trace.dummy_count = rt.dummy_count;
    out.trace.repair_rounds = rt.repair_rounds;
    out.trace.path_count = rt.path_count;
    out.traced = true;
  }
  return out;
}

BackendOutput run_naive_parallel(const cograph::Cotree& t,
                                 const BackendConfig& cfg) {
  BackendOutput out;
  pram::Machine m(machine_config(t.vertex_count(), cfg));
  out.cover = baseline::min_path_cover_naive_parallel(m, t);
  out.stats = m.stats();
  out.used_pram = true;
  return out;
}

BackendOutput run_brute_force(const cograph::Cotree& t,
                              const BackendConfig& /*cfg*/) {
  COPATH_CHECK_MSG(t.vertex_count() <= 20,
                   "brute-force backend is exponential; refusing n = "
                       << t.vertex_count() << " (limit 20)");
  BackendOutput out;
  out.cover = baseline::min_path_cover_exact(cograph::Graph::from_cotree(t));
  return out;
}

BackendOutput run_greedy(const cograph::Cotree& t,
                         const BackendConfig& /*cfg*/) {
  BackendOutput out;
  out.cover = baseline::min_path_cover_greedy(cograph::Graph::from_cotree(t));
  return out;
}

}  // namespace

BackendRegistry::BackendRegistry() {
  add(Backend::Sequential, to_string(Backend::Sequential), run_sequential);
  add(Backend::Parallel, to_string(Backend::Parallel), run_parallel);
  add(Backend::Pram, to_string(Backend::Pram), run_pram_pipeline);
  add(Backend::BruteForce, to_string(Backend::BruteForce), run_brute_force);
  add(Backend::Greedy, to_string(Backend::Greedy), run_greedy,
      /*exact=*/false);
  add(Backend::NaiveParallel, to_string(Backend::NaiveParallel),
      run_naive_parallel);
  add(Backend::Reference, to_string(Backend::Reference), run_reference);
  add(Backend::Native, to_string(Backend::Native), run_sequential);
  add(Backend::Adaptive, to_string(Backend::Adaptive), run_sequential);
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::add(Backend id, std::string name, BackendFn fn,
                          bool exact) {
  auto entry =
      std::make_shared<const Entry>(Entry{id, std::move(name), std::move(fn),
                                          exact});
  std::lock_guard lock(mu_);
  for (auto& e : entries_) {
    if (e->id == id) {
      e = std::move(entry);  // running solvers keep the old Entry alive
      return;
    }
  }
  entries_.push_back(std::move(entry));
}

BackendRegistry::EntryPtr BackendRegistry::find(Backend id) const {
  std::lock_guard lock(mu_);
  for (const auto& e : entries_) {
    if (e->id == id) return e;
  }
  return nullptr;
}

BackendRegistry::EntryPtr BackendRegistry::find(std::string_view name) const {
  std::lock_guard lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name) return e;
  }
  return nullptr;
}

std::vector<Backend> BackendRegistry::registered() const {
  std::lock_guard lock(mu_);
  std::vector<Backend> ids;
  ids.reserve(entries_.size());
  for (const auto& e : entries_) ids.push_back(e->id);
  return ids;
}

ScanProbeResult probe_scan_substrate(std::size_t n,
                                     const BackendConfig& cfg) {
  COPATH_CHECK(n > 0);
  ScanProbeResult res;
  pram::Machine m(machine_config(n, cfg));
  pram::Array<std::int64_t> a(m, n, 1);
  util::WallTimer timer;
  par::exclusive_scan(m, a);
  res.wall_ms = timer.millis();
  res.stats = m.stats();
  res.checksum = a.host(n - 1);
  return res;
}

}  // namespace copath::core
