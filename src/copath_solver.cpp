#include "copath_solver.hpp"

#include <sstream>
#include <utility>

#include "cograph/binarize.hpp"
#include "core/count.hpp"
#include "exec/arena.hpp"
#include "service/batch.hpp"
#include "service/express.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace copath {

// ---------------------------------------------------------------- Instance

Instance Instance::cotree(cograph::Cotree t) {
  Instance i;
  i.source_ = std::move(t);
  i.canon_ = std::make_shared<CanonCache>();
  return i;
}

Instance Instance::text(std::string algebra) {
  Instance i;
  i.source_ = std::move(algebra);
  i.cache_ = std::make_shared<ResolveCache>();
  i.canon_ = std::make_shared<CanonCache>();
  return i;
}

Instance Instance::graph(cograph::Graph g) {
  Instance i;
  i.source_ = std::move(g);
  i.cache_ = std::make_shared<ResolveCache>();
  i.canon_ = std::make_shared<CanonCache>();
  return i;
}

Instance Instance::signature(std::string signature_bytes) {
  Instance i;
  i.source_ = SignatureBytes{std::move(signature_bytes)};
  i.cache_ = std::make_shared<ResolveCache>();
  i.canon_ = std::make_shared<CanonCache>();
  return i;
}

Instance Instance::view(const cograph::Cotree& t) {
  Instance i;
  i.source_ = &t;
  i.canon_ = std::make_shared<CanonCache>();
  return i;
}

const cograph::Cotree& Instance::resolve() const {
  if (const auto* borrowed = std::get_if<const cograph::Cotree*>(&source_)) {
    return **borrowed;
  }
  if (const auto* owned = std::get_if<cograph::Cotree>(&source_)) {
    return *owned;
  }
  COPATH_CHECK_MSG(cache_ != nullptr, "empty Instance passed to Solver");
  // The first resolution of a shared Instance runs once; a throwing one is
  // memoized too, so the same error repeats on every attempt.
  return cache_->get([this]() -> cograph::Cotree {
    if (const auto* algebra = std::get_if<std::string>(&source_)) {
      return cograph::Cotree::parse(*algebra);
    }
    if (const auto* sig = std::get_if<SignatureBytes>(&source_)) {
      return cograph::decode_signature(sig->bytes).tree;
    }
    const auto& g = std::get<cograph::Graph>(source_);
    auto rec = cograph::recognize_cograph(g);
    if (!rec.is_cograph()) {
      std::ostringstream os;
      os << "input graph is not a cograph; induced P4 witness:";
      for (const auto v : rec.p4_witness) os << ' ' << v;
      COPATH_CHECK_MSG(false, os.str());
    }
    return std::move(*rec.cotree);
  });
}

const cograph::CanonicalForm& Instance::canonical() const {
  COPATH_CHECK_MSG(canon_ != nullptr, "empty Instance has no canonical form");
  // Same discipline as resolve(): a throwing canonicalization (really: a
  // throwing resolve) is memoized, so the error repeats.
  // The hot serving path: the cache keys on the binary signature, so the
  // human-facing algebra key is skipped (CanonicalForm::key stays empty).
  return canon_->get([this]() -> cograph::CanonicalForm {
    // A signature-sourced instance gets its canonical form straight from
    // the bytes (identity permutations, hash folded during the validating
    // walk) WITHOUT materializing the cotree: the daemon's warm path
    // replays cache hits through the form alone, so the tree build is
    // deferred to resolve() — i.e. to the miss path that actually solves.
    if (const auto* sig = std::get_if<SignatureBytes>(&source_)) {
      return cograph::decode_signature_form(sig->bytes);
    }
    return cograph::canonical_form(resolve(), /*with_algebra_key=*/false);
  });
}

// ------------------------------------------------------------------ Solver

SolveResult Solver::solve_with(const Instance& inst,
                               const std::string& label,
                               const SolveOptions& opts) const {
  try {
    const cograph::Cotree& t = inst.resolve();
    const auto entry = core::BackendRegistry::instance().find(opts.backend);
    COPATH_CHECK_MSG(entry != nullptr,
                     "backend not registered: "
                         << core::to_string(opts.backend));

    // The host-sweep route runs the sequential solve kernel inline (one
    // binarization for cover and verdicts). The sweep has no internal
    // checkpoints, so cancel is honored once, up front.
    if (core::is_host_sweep(opts.backend)) {
      if (opts.cancel != nullptr) opts.cancel->checkpoint();
      return service::solve_sweep(t, label, opts,
                                  exec::Arena::for_this_thread());
    }

    core::BackendConfig cfg;
    cfg.processors = opts.processors;
    cfg.policy = opts.policy;
    cfg.pipeline = opts.pipeline;
    cfg.collect_trace = opts.collect_trace;
    cfg.cancel = opts.cancel;

    SolveResult res;
    res.label = label;
    res.backend = opts.backend;
    util::WallTimer timer;
    core::BackendOutput out = entry->fn(t, cfg);
    res.wall_ms = timer.millis();

    res.routed = opts.backend;
    res.vertex_count = t.vertex_count();
    res.cover = std::move(out.cover);
    res.stats = out.stats;
    res.stats_valid = out.used_pram;
    res.trace = std::move(out.trace);
    res.trace_valid = out.traced;

    service::finish_solve(res, t, opts,
                          opts.compute_verdicts ? core::count_verdicts(t)
                                                : core::CountVerdicts{},
                          entry->exact);
    return res;
  } catch (const std::exception& e) {
    return service::solve_failure(label, opts.backend, e.what());
  }
}

SolveResult Solver::solve(const SolveRequest& req) const {
  return solve_with(req.instance, req.label,
                    req.options.value_or(defaults_));
}

std::vector<SolveResult> Solver::solve_batch(
    std::span<const SolveRequest> reqs) {
  std::vector<SolveResult> results(reqs.size());
  if (reqs.empty()) return results;
  if (pool_ == nullptr) {
    const std::size_t workers = defaults_.batch_workers == 0
                                    ? util::ThreadPool::default_workers()
                                    : defaults_.batch_workers;
    pool_ = std::make_unique<util::ThreadPool>(workers);
  }
  // Prepare pass: resolve every instance on the pool so parsing stays
  // parallel (resolve() memoizes inside the Instance; failures re-throw
  // identically on the solve paths below, which own the structured
  // failure shape).
  pool_->parallel_for(0, reqs.size(), [&](std::size_t i) {
    try {
      (void)reqs[i].instance.resolve();
    } catch (...) {
      // Swallowed here; the routing loop below re-observes it.
    }
  });

  // Route: host-sweep instances go through the fused dedup core on the
  // calling thread — per-request fan-out overhead beats the actual solve
  // there. Everything else (PRAM backends, unresolvable instances) runs on
  // the pool.
  std::vector<std::size_t> sweep, pooled;
  sweep.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    bool resolved = true;
    try {
      (void)reqs[i].instance.resolve();
    } catch (...) {
      resolved = false;
    }
    if (resolved &&
        core::is_host_sweep(reqs[i].options.value_or(defaults_).backend)) {
      sweep.push_back(i);
    } else {
      pooled.push_back(i);
    }
  }

  if (!sweep.empty()) {
    // IdenticalTree dedup only (no cache): exactly-identical resolved
    // trees share one sweep and identity-copied results — bitwise-equal
    // to solving each directly. Permuted twins are NOT grouped here; their
    // direct solves may produce different, equally-minimum covers
    // (service/batch.hpp).
    std::vector<SolveRequest> sreqs;
    sreqs.reserve(sweep.size());
    for (const std::size_t i : sweep) sreqs.push_back(reqs[i]);
    service::BatchConfig cfg;
    cfg.dedup = service::BatchDedup::IdenticalTree;
    const service::BatchFallback fb =
        [this](const SolveRequest& r, const SolveOptions& o) {
          return solve_with(r.instance, r.label, o);
        };
    auto sres = service::solve_batch_fused(sreqs, defaults_, cfg, fb,
                                           exec::Arena::for_this_thread());
    for (std::size_t k = 0; k < sweep.size(); ++k) {
      results[sweep[k]] = std::move(sres[k]);
    }
  }

  // One instance per pool worker.
  pool_->parallel_for(0, pooled.size(), [&](std::size_t k) {
    const std::size_t i = pooled[k];
    results[i] = solve_with(reqs[i].instance, reqs[i].label,
                            reqs[i].options.value_or(defaults_));
  });
  return results;
}

CountResult Solver::count(const SolveRequest& req) const {
  const SolveOptions opts = req.options.value_or(defaults_);
  CountResult res;
  try {
    const cograph::Cotree& t = req.instance.resolve();
    res.vertex_count = t.vertex_count();

    // Counting always runs the built-in Lemma 2.4 engines; the backend
    // selects the PRAM contraction vs the host sweep (and must at least be
    // registered, so misconfigurations fail here exactly as in solve()).
    COPATH_CHECK_MSG(
        core::BackendRegistry::instance().find(opts.backend) != nullptr,
        "backend not registered: " << core::to_string(opts.backend));

    auto bc = cograph::binarize(t);
    const auto leaf_count = cograph::make_leftist(bc);
    std::vector<std::int64_t> p;

    util::WallTimer timer;
    if (core::uses_pram_machine(opts.backend)) {
      core::BackendConfig cfg;
      cfg.processors = opts.processors;
      cfg.policy = opts.policy;
      cfg = core::apply_backend_contract(opts.backend, cfg);
      // The binarized tree has ~2n nodes; the paper budget follows it.
      pram::Machine m(core::machine_config(2 * t.vertex_count(), cfg));
      p = core::path_counts_pram(m, bc, leaf_count);
      res.stats = m.stats();
      res.stats_valid = true;
    } else {
      // Host post-order sweep (Sequential, its aliases Native and
      // Adaptive, and every non-machine backend).
      p = core::path_counts_host(bc, leaf_count);
    }
    res.wall_ms = timer.millis();
    const core::CountVerdicts v =
        core::verdicts_of(cograph::view_of(bc), leaf_count, p);
    res.path_cover_size = v.cover_size;
    res.hamiltonian_path = v.hamiltonian_path;
    res.hamiltonian_cycle = v.hamiltonian_cycle;
    res.ok = true;
  } catch (const std::exception& e) {
    res = CountResult{};
    res.error = e.what();
  }
  return res;
}

}  // namespace copath

namespace copath::core {

// Compatibility wrapper: the historical convenience entry point now
// delegates to the Solver facade (Backend::Parallel).
PathCover min_path_cover_parallel(const cograph::Cotree& t,
                                  pram::Stats* stats_out) {
  SolveOptions opts;
  opts.backend = Backend::Parallel;
  opts.compute_verdicts = false;  // cost parity with the historical entry
  const Solver solver(opts);
  SolveResult res = solver.solve(SolveRequest{Instance::view(t), {}, {}});
  COPATH_CHECK_MSG(res.ok, "min_path_cover_parallel: " << res.error);
  if (stats_out != nullptr) *stats_out = res.stats;
  return std::move(res.cover);
}

}  // namespace copath::core
