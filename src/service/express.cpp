#include "service/express.hpp"

#include <utility>

#include "core/adaptive.hpp"
#include "core/hamiltonian.hpp"
#include "core/sequential.hpp"
#include "exec/scratch.hpp"
#include "util/timer.hpp"

namespace copath::service {

bool express_eligible(std::size_t n, const SolveOptions& opts) {
  if (opts.backend == Backend::Sequential) return true;
  if (opts.backend != Backend::Adaptive) return false;
  const core::CostModel& model = opts.cost_model != nullptr
                                     ? *opts.cost_model
                                     : core::CostModel::calibrated();
  return n < model.min_native_n;
}

SolveResult solve_sweep(const cograph::Cotree& t, const std::string& label,
                        const SolveOptions& opts, cograph::BinSpans bin,
                        std::span<std::int64_t> leaf_count,
                        exec::Arena& arena) {
  SolveResult res;
  res.label = label;
  res.backend = opts.backend;

  util::WallTimer timer;
  const std::int32_t root = cograph::binarize_into(t, bin, arena);
  cograph::make_leftist_into(bin.left, bin.right, leaf_count);
  const cograph::BinView view{bin.left,   bin.right,          bin.is_join,
                              bin.vertex, bin.leaf_of_vertex, root};
  res.cover = core::min_path_cover_sequential(view, leaf_count, arena);
  res.wall_ms = timer.millis();

  res.routed = Backend::Sequential;
  res.vertex_count = t.vertex_count();
  finish_solve(res, t, opts,
               opts.compute_verdicts
                   ? core::count_verdicts(view, leaf_count, arena)
                   : core::CountVerdicts{},
               /*exact=*/true);
  return res;
}

void finish_solve(SolveResult& res, const cograph::Cotree& t,
                  const SolveOptions& opts, const core::CountVerdicts& v,
                  bool exact) {
  if (opts.compute_verdicts) {
    res.optimal_size = v.cover_size;
    res.minimum =
        static_cast<std::int64_t>(res.cover.size()) == res.optimal_size;
    res.hamiltonian_path = v.hamiltonian_path;
    res.hamiltonian_cycle = v.hamiltonian_cycle;
    if (opts.want_hamiltonian_cycle && res.hamiltonian_cycle) {
      res.cycle = core::hamiltonian_cycle(t);
    }
  } else {
    res.optimal_size = -1;
    if (opts.want_hamiltonian_cycle) {
      res.cycle = core::hamiltonian_cycle(t);
      res.hamiltonian_cycle = res.cycle.has_value();
    }
  }
  if (opts.validate) {
    res.validation =
        core::validate_path_cover(t, res.cover, /*require_minimum=*/exact);
  }
  res.ok = true;
}

SolveResult solve_sweep(const cograph::Cotree& t, const std::string& label,
                        const SolveOptions& opts, exec::Arena& arena) {
  cograph::ScratchBinarized bin(arena);
  const cograph::BinSpans spans = bin.size_for(t.vertex_count());
  exec::ScratchVec<std::int64_t> leaf_count(arena);
  leaf_count.resize_for_overwrite(spans.left.size());
  return solve_sweep(t, label, opts, spans, leaf_count.span(), arena);
}

SolveResult solve_failure(const std::string& label, Backend backend,
                          std::string error) {
  SolveResult res;
  res.label = label;
  res.backend = backend;
  res.routed = backend;
  res.error = std::move(error);
  return res;
}

SolveResult solve_express(const Instance& inst, const std::string& label,
                          const SolveOptions& opts, exec::Arena& arena) {
  try {
    return solve_sweep(inst.resolve(), label, opts, arena);
  } catch (const std::exception& e) {
    return solve_failure(label, opts.backend, e.what());
  } catch (...) {
    return solve_failure(label, opts.backend, "non-standard exception");
  }
}

}  // namespace copath::service
