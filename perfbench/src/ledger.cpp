#include "ledger.hpp"

#include <fstream>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "check.hpp"
#include "cograph/binarize.hpp"
#include "cograph/canonical.hpp"
#include "common.hpp"
#include "copath_solver.hpp"
#include "core/count.hpp"
#include "core/sequential.hpp"
#include "daemon.hpp"
#include "exec/arena.hpp"
#include "net/protocol.hpp"
#include "service/batch.hpp"
#include "service/express.hpp"
#include "service/persist_cache.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace proto = copath::net::protocol;
namespace cg = copath::cograph;
namespace svc = copath::service;
using copath::Backend;
using copath::Instance;
using copath::SolveOptions;
using copath::SolveRequest;
using copath::SolveResult;

namespace {

constexpr std::size_t kSyntheticBatch = 64;
/// Wall budget per replay section; each section still replays a few
/// requests however long they take.
constexpr double kBudgetS = 2.0;

// ---------------------------------------------------------------- spans

struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  std::uint32_t req = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Spans kept in memory for the whole replay, written out at the end.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  std::int32_t open(std::string_view name, std::int32_t parent,
                    std::uint32_t req) {
    if (!enabled_) return -1;
    spans_.push_back({intern(name), parent, req, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_ns();
  }
  template <typename F>
  decltype(auto) time(std::string_view name, std::int32_t parent,
                      std::uint32_t req, F&& f) {
    const std::int32_t id = open(name, parent, req);
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      close(id);
    } else {
      auto v = f();
      close(id);
      return v;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& name(std::uint16_t i) const {
    return names_[i];
  }

 private:
  std::uint16_t intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint16_t>(i);
    }
    names_.emplace_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

// -------------------------------------------------------- decoded frames

/// A parsed request. `req.body` and `items` view `*payload`, which is
/// heap-held so the views survive moving the Decoded.
struct Decoded {
  std::unique_ptr<std::string> payload = std::make_unique<std::string>();
  proto::Request req;
  std::vector<proto::BatchItem> items;
};

Decoded decode(std::string frame) {
  Decoded d;
  if (proto::extract_frame(frame, d.payload.get()) != proto::Extract::Frame ||
      !proto::parse_request(*d.payload, &d.req)) {
    throw std::runtime_error("replay: undecodable request frame");
  }
  if (d.req.verb == proto::Verb::BatchSolve) {
    std::string why;
    if (!proto::parse_batch_body(d.req.body, proto::kMaxBatchItems, &d.items,
                                 &why)) {
      throw std::runtime_error("replay: bad batch body: " + why);
    }
  }
  return d;
}

Instance make_instance(bool signature, std::string_view body) {
  return signature ? Instance::signature(std::string(body))
                   : Instance::text(std::string(body));
}

std::vector<SolveRequest> requests_of(const Decoded& d,
                                      const SolveOptions& base) {
  std::vector<SolveRequest> out;
  const SolveOptions opts = proto::apply_wire_options(d.req.opts, base);
  if (d.req.verb == proto::Verb::BatchSolve) {
    for (const auto& it : d.items) {
      out.push_back({make_instance(it.is_signature, it.body), opts, {}});
    }
  } else {
    out.push_back({make_instance(d.req.verb == proto::Verb::SolveSignature,
                                 d.req.body),
                   opts,
                   {}});
  }
  return out;
}

bool result_matches(const SolveResult& r, const Expect& e) {
  return r.ok && r.vertex_count == e.n &&
         static_cast<std::int64_t>(r.cover.size()) == e.paths;
}

// ------------------------------------------------------------ the path

/// The daemon's request path, one call per layer function, against a
/// standalone L1/L2 pair. Fills `results` with the answers.
class PathReplay {
 public:
  PathReplay(Tracer& tr, const std::string& l2_dir)
      : tr_(&tr), l2_(svc::PersistCache::Config{.dir = l2_dir}) {}

  void set_tracer(Tracer& tr) { tr_ = &tr; }

  std::vector<SolveResult> run(const std::string& frame, std::uint32_t rid,
                               svc::BatchOutcome* outcome) {
    const std::int32_t root = tr_->open("request", -1, rid);
    Decoded d = tr_->time("net.decode_request", root, rid,
                         [&] { return decode(frame); });
    std::vector<SolveResult> results;
    if (d.req.verb == proto::Verb::BatchSolve) {
      results = batch(d, root, rid, outcome);
      tr_->time("net.encode_response", root, rid, [&] {
        std::vector<proto::BatchResponseEntry> entries;
        for (const auto& r : results) {
          entries.push_back({proto::Status::Ok, &r, {}});
        }
        return proto::encode_batch_response_frame(d.req.seq, entries).size();
      });
    } else {
      results.push_back(single(d, root, rid));
      tr_->time("net.encode_response", root, rid, [&] {
        return proto::encode_solve_response_frame(
                   d.req.seq, d.req.verb, proto::Status::Ok, &results[0], {})
            .size();
      });
    }
    tr_->close(root);
    return results;
  }

 private:
  SolveResult single(const Decoded& d, std::int32_t root, std::uint32_t rid) {
    const SolveOptions opts = proto::apply_wire_options(d.req.opts, base_);
    const std::string_view body = d.req.body;
    const bool sig = d.req.verb == proto::Verb::SolveSignature;
    cg::CanonicalForm form;
    std::optional<cg::Cotree> tree;
    if (sig) {
      const bool valid = tr_->time("cograph.sig_valid", root, rid, [&] {
        return cg::signature_valid(body);
      });
      if (!valid) throw std::runtime_error("replay: invalid signature");
      form = tr_->time("cograph.sig_form", root, rid,
                      [&] { return cg::decode_signature_form(body); });
    } else {
      tree = tr_->time("cograph.parse", root, rid,
                      [&] { return cg::Cotree::parse(body); });
      form = tr_->time("cograph.canonical", root, rid, [&] {
        return cg::canonical_form(*tree, /*with_algebra_key=*/false);
      });
    }
    const svc::CacheKeyRef key = svc::make_cache_key(form, opts);
    if (auto hit = tr_->time("service.l1_lookup", root, rid,
                            [&] { return l1_.lookup(key); })) {
      return tr_->time("service.remap", root, rid, [&] {
        return svc::remapped_from_canonical(*hit, form);
      });
    }
    if (auto disk = tr_->time("service.l2_lookup", root, rid,
                             [&] { return l2_.lookup(key); })) {
      SolveResult res = tr_->time("service.remap", root, rid, [&] {
        return svc::remapped_from_canonical(*disk, form);
      });
      tr_->time("service.l1_insert", root, rid,
               [&] { l1_.insert(key, std::move(disk)); });
      return res;
    }
    if (sig) {
      tree = tr_->time("cograph.sig_decode", root, rid,
                      [&] { return cg::decode_signature(body).tree; });
    }
    SolveResult res = solve_miss(*tree, opts, root, rid);
    auto canonical = tr_->time("service.to_canonical", root, rid, [&] {
      return std::make_shared<const SolveResult>(
          svc::to_canonical_space(res, form));
    });
    tr_->time("service.l1_insert", root, rid,
             [&] { l1_.insert(key, canonical); });
    tr_->time("service.l2_append", root, rid,
             [&] { l2_.append(key, *canonical); });
    return res;
  }

  /// The miss branch the daemon's Service takes: the express lane below
  /// the Adaptive floor, otherwise the leased generic Solver::solve. A
  /// lone request's lease is the whole thread budget, capped by the
  /// request's own worker count (Service's BudgetLease rule).
  SolveResult solve_miss(const cg::Cotree& tree, const SolveOptions& opts,
                         std::int32_t root, std::uint32_t rid) {
    if (svc::express_eligible(tree.vertex_count(), opts)) {
      return solve_parts(tree, opts, root, rid, *tr_);
    }
    const std::size_t budget = copath::util::ThreadPool::default_workers();
    SolveOptions leased = opts;
    leased.workers =
        leased.workers == 0 ? budget : std::min(leased.workers, budget);
    return tr_->time("core.solve_adaptive", root, rid, [&] {
      return solver_.solve(Instance::view(tree), {}, leased);
    });
  }

  std::vector<SolveResult> batch(const Decoded& d, std::int32_t root,
                                 std::uint32_t rid,
                                 svc::BatchOutcome* outcome) {
    // The loop thread validates every signature item before dispatch.
    for (const auto& it : d.items) {
      if (!it.is_signature) continue;
      if (!tr_->time("cograph.sig_valid", root, rid,
                    [&] { return cg::signature_valid(it.body); })) {
        throw std::runtime_error("replay: invalid batch signature");
      }
    }
    const std::vector<SolveRequest> reqs = requests_of(d, base_);
    svc::BatchConfig cfg;
    cfg.cache = &l1_;
    cfg.l2 = &l2_;
    return tr_->time("service.batch_fused", root, rid, [&] {
      return svc::solve_batch_fused(
          reqs, base_, cfg,
          [this](const SolveRequest& r, const SolveOptions& o) {
            return solver_.solve(r.instance, r.label, o);
          },
          copath::exec::Arena::for_this_thread(), outcome);
    });
  }

 public:
  /// binarize -> leftist -> sweep -> verdicts: the body of the express
  /// lane, one span per layer call.
  static SolveResult solve_parts(const cg::Cotree& tree,
                                 const SolveOptions& opts, std::int32_t root,
                                 std::uint32_t rid, Tracer& tr) {
    struct Bin {
      cg::BinarizedCotree bc;
      std::vector<std::int64_t> leaf_count;
    };
    const Bin bin = tr.time("cograph.binarize", root, rid, [&] {
      Bin b{cg::binarize(tree), {}};
      b.leaf_count = cg::make_leftist(b.bc);
      return b;
    });
    SolveResult res;
    res.cover = tr.time("core.sweep", root, rid, [&] {
      return copath::core::min_path_cover_sequential(bin.bc, bin.leaf_count);
    });
    const auto v = tr.time("core.verdicts", root, rid, [&] {
      return copath::core::count_verdicts(
          cg::view_of(bin.bc), bin.leaf_count,
          copath::exec::Arena::for_this_thread());
    });
    res.ok = true;
    res.backend = opts.backend;
    res.routed = Backend::Sequential;
    res.vertex_count = tree.vertex_count();
    res.optimal_size = v.cover_size;
    res.minimum = static_cast<std::int64_t>(res.cover.size()) == v.cover_size;
    res.hamiltonian_path = v.hamiltonian_path;
    res.hamiltonian_cycle = v.hamiltonian_cycle;
    return res;
  }

 private:
  Tracer* tr_;
  const SolveOptions base_ = copath::Service::Options{}.solve;
  svc::ResultCache l1_;
  svc::PersistCache l2_;
  copath::Solver solver_;
};

// --------------------------------------------------------------- probes

struct ProbeTotals {
  std::size_t adaptive = 0;
  std::size_t adaptive_native = 0;
};

/// Times every layer function the path may skip, on one instance.
void probe_instance(bool sig, std::string_view body, Tracer& tr,
                    std::int32_t root, std::uint32_t rid,
                    svc::ResultCache& l1, svc::PersistCache& l2,
                    ProbeTotals& totals) {
  const cg::Cotree tree =
      sig ? cg::decode_signature(body).tree : cg::Cotree::parse(body);
  const std::string text = tree.format();
  tr.time("cograph.parse", root, rid,
          [&] { return cg::Cotree::parse(text).size(); });
  const cg::CanonicalForm form = tr.time("cograph.canonical", root, rid, [&] {
    return cg::canonical_form(tree, /*with_algebra_key=*/false);
  });
  const std::string& sigb = form.signature;
  tr.time("cograph.sig_valid", root, rid,
          [&] { return cg::signature_valid(sigb); });
  tr.time("cograph.sig_form", root, rid,
          [&] { return cg::decode_signature_form(sigb).hash; });
  tr.time("cograph.sig_decode", root, rid,
          [&] { return cg::decode_signature(sigb).tree.size(); });

  SolveOptions opts = copath::Service::Options{}.solve;
  const SolveResult res = PathReplay::solve_parts(tree, opts, root, rid, tr);
  const auto canonical =
      std::make_shared<const SolveResult>(svc::to_canonical_space(res, form));
  const svc::CacheKeyRef key = svc::make_cache_key(form, opts);
  tr.time("service.l1_insert", root, rid, [&] { l1.insert(key, canonical); });
  tr.time("service.l1_lookup", root, rid, [&] { return l1.lookup(key); });
  tr.time("service.remap", root, rid, [&] {
    return svc::remapped_from_canonical(*canonical, form).vertex_count;
  });
  tr.time("service.l2_append", root, rid, [&] { l2.append(key, *canonical); });
  tr.time("service.l2_lookup", root, rid, [&] { return l2.lookup(key); });

  const Instance inst = Instance::view(tree);
  SolveOptions seq = opts;
  seq.backend = Backend::Sequential;
  tr.time("service.express", root, rid, [&] {
    return svc::solve_express(inst, {}, seq,
                              copath::exec::Arena::for_this_thread())
        .ok;
  });
  const copath::Solver solver;
  for (const auto& [name, backend] :
       {std::pair{"core.solve_seq", Backend::Sequential},
        std::pair{"core.solve_native", Backend::Native},
        std::pair{"core.solve_adaptive", Backend::Adaptive}}) {
    SolveOptions o = opts;
    o.backend = backend;
    o.workers = 2;
    const SolveResult r =
        tr.time(name, root, rid, [&] { return solver.solve(inst, {}, o); });
    if (backend == Backend::Adaptive) {
      ++totals.adaptive;
      if (r.routed == Backend::Native) ++totals.adaptive_native;
    }
  }
}

bool budget_left(std::int64_t t0, double budget_s, std::size_t done,
                 std::size_t min_done) {
  return done < min_done ||
         static_cast<double>(now_ns() - t0) / 1e9 < budget_s;
}

}  // namespace

LedgerResult run_ledger(const Workload& w, const LedgerConfig& cfg) {
  LedgerResult out;
  const Stream& s = w.nominal;
  const std::size_t arrivals = s.arrivals();
  const auto expects_of = [](const Stream& st, const Req& q) {
    return std::span<const Expect>(st.expects.data() + q.first_expect,
                                   q.expect_count);
  };
  const auto check = [&out](const std::vector<SolveResult>& rs,
                            std::span<const Expect> ex) {
    if (rs.size() != ex.size()) {
      ++out.wrong;
      return;
    }
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (!result_matches(rs[i], ex[i])) ++out.wrong;
    }
  };
  const SolveOptions base = copath::Service::Options{}.solve;

  // 1. Service::submit(...).get() end to end, workers = 2, L1 + L2 on.
  {
    TempDir dir(cfg.tmp_root, "ledger");
    copath::Service::Options so;
    so.workers = 2;
    so.persist.dir = dir.path();
    copath::Service service(so);
    const auto submit = [&](const std::string& frame) {
      const Decoded d = decode(frame);
      std::vector<SolveRequest> reqs = requests_of(d, base);
      if (d.req.verb == proto::Verb::BatchSolve) {
        return service.submit_batch(std::move(reqs)).get();
      }
      return std::vector<SolveResult>{
          service.submit(std::move(reqs[0])).get()};
    };
    for (const Req& q : w.prewarm.reqs) {
      check(submit(q.frame), expects_of(w.prewarm, q));
    }
    const auto before = service.stats();
    std::vector<double> us;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < arrivals && budget_left(t0, kBudgetS,
                                                        i, 8);
         ++i) {
      const Req& q = s.for_arrival(i);
      const std::int64_t a = now_ns();
      const auto rs = submit(q.frame);
      us.push_back(static_cast<double>(now_ns() - a) / 1e3);
      check(rs, expects_of(s, q));
    }
    const auto after = service.stats();
    out.metrics.push_back({"service.inproc_p50_us", quantile(us, 0.50), "us"});
    out.metrics.push_back({"service.inproc_p99_us", quantile(us, 0.99), "us"});
    out.metrics.push_back(
        {"service.lease_acquires_per_req",
         static_cast<double>(after.lease_acquires - before.lease_acquires) /
             static_cast<double>(std::max<std::size_t>(1, us.size())),
         "count"});
  }

  Tracer tr(true);
  std::size_t replayed = 0;
  std::size_t frames = 0, items = 0;
  svc::BatchOutcome batch_totals;
  // 2. The request path against a standalone L1/L2 pair, pre-warmed
  //    untraced exactly like the daemon, then replayed with spans.
  {
    TempDir dir(cfg.tmp_root, "ledger");
    Tracer quiet(false);
    PathReplay path(quiet, dir.path());
    for (const Req& q : w.prewarm.reqs) (void)path.run(q.frame, 0, nullptr);
    path.set_tracer(tr);
    const std::int64_t t0 = now_ns();
    for (; replayed < arrivals && budget_left(t0, kBudgetS, replayed, 8);
         ++replayed) {
      const Req& q = s.for_arrival(replayed);
      check(path.run(q.frame, static_cast<std::uint32_t>(replayed),
                     &batch_totals),
            expects_of(s, q));
      ++frames;
      items += q.expect_count;
    }
  }

  // 3. Probes: every layer function on the replayed requests' instances.
  ProbeTotals totals;
  {
    TempDir dir(cfg.tmp_root, "ledger");
    svc::ResultCache l1;
    svc::PersistCache l2(svc::PersistCache::Config{.dir = dir.path()});
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0;
         i < replayed && budget_left(t0, kBudgetS, i, 3); ++i) {
      const Decoded d = decode(s.for_arrival(i).frame);
      const auto rid = static_cast<std::uint32_t>(i);
      const std::int32_t root = tr.open("probe", -1, rid);
      if (d.req.verb == proto::Verb::BatchSolve) {
        const auto& it = d.items[i % d.items.size()];
        probe_instance(it.is_signature, it.body, tr, root, rid, l1, l2,
                       totals);
      } else {
        probe_instance(d.req.verb == proto::Verb::SolveSignature, d.req.body,
                       tr, root, rid, l1, l2, totals);
      }
      tr.close(root);
    }
  }

  // 4. Single-solve workloads: the batch core on the same requests, cut
  //    into frames of 64, so its cost is on record where it is bypassed.
  if (w.spec->shape != Shape::BatchDup) {
    frames = items = 0;
    batch_totals = {};
    svc::ResultCache l1;
    const copath::Solver solver;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0;
         i < replayed && budget_left(t0, kBudgetS, frames, 2);
         i += kSyntheticBatch) {
      std::vector<SolveRequest> reqs;
      for (std::size_t j = i; j < std::min(replayed, i + kSyntheticBatch);
           ++j) {
        auto one = requests_of(decode(s.for_arrival(j).frame), base);
        reqs.push_back(std::move(one[0]));
      }
      svc::BatchConfig bcfg;
      bcfg.cache = &l1;
      svc::BatchOutcome o;
      const auto rid = static_cast<std::uint32_t>(i);
      const std::int32_t root = tr.open("probe", -1, rid);
      tr.time("service.batch_fused", root, rid, [&] {
        return svc::solve_batch_fused(
                   reqs, base, bcfg,
                   [&solver](const SolveRequest& r, const SolveOptions& o2) {
                     return solver.solve(r.instance, r.label, o2);
                   },
                   copath::exec::Arena::for_this_thread(), &o)
            .size();
      });
      tr.close(root);
      batch_totals.dedup_hits += o.dedup_hits;
      batch_totals.packed_solves += o.packed_solves;
      ++frames;
      items += reqs.size();
    }
  }

  // Per-name durations, split by what the span hangs under.
  const auto& spans = tr.spans();
  std::map<std::string, std::vector<double>> on_path, probed;
  std::map<std::string, std::vector<double>> layer_sums;
  std::map<std::string, double> current;
  std::int32_t current_root = -1;
  const auto flush_request = [&] {
    for (const auto& [layer, us] : current) layer_sums[layer].push_back(us);
    current.clear();
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (sp.parent < 0) {
      if (current_root >= 0) flush_request();
      current_root = tr.name(sp.name) == "request"
                         ? static_cast<std::int32_t>(i)
                         : -1;
      if (current_root >= 0) {
        for (const char* layer : {"net", "cograph", "service", "core"}) {
          current[layer] = 0;
        }
      }
      continue;
    }
    const std::string& name = tr.name(sp.name);
    const double us = static_cast<double>(sp.end - sp.start) / 1e3;
    const bool path = tr.name(spans[static_cast<std::size_t>(sp.parent)]
                                  .name) == "request";
    (path ? on_path : probed)[name].push_back(us);
    if (path) current[name.substr(0, name.find('.'))] += us;
  }
  if (current_root >= 0) flush_request();
  for (const auto& [layer, v] : layer_sums) {
    out.layer_self_us[layer] = median(v);
  }

  const auto metric = [&](const std::string& span, double scale = 1.0) {
    const auto p = on_path.find(span);
    const std::vector<double>* v =
        p != on_path.end() ? &p->second : nullptr;
    if (v == nullptr) {
      const auto q = probed.find(span);
      if (q == probed.end()) return 0.0;
      v = &q->second;
    }
    return median(*v) * scale;
  };
  for (const char* name :
       {"net.decode_request", "net.encode_response", "service.l1_lookup",
        "service.remap", "service.l2_lookup", "service.l1_insert",
        "service.l2_append", "service.express", "service.batch_fused",
        "cograph.parse", "cograph.canonical", "cograph.sig_valid",
        "cograph.sig_form", "cograph.sig_decode", "cograph.binarize",
        "core.sweep", "core.verdicts"}) {
    out.metrics.push_back({std::string(name) + "_us", metric(name), "us"});
  }
  out.metrics.push_back(
      {"core.solve_seq_ms", metric("core.solve_seq", 1e-3), "ms"});
  out.metrics.push_back(
      {"core.solve_native_ms", metric("core.solve_native", 1e-3), "ms"});
  out.metrics.push_back(
      {"core.adaptive_native_share",
       static_cast<double>(totals.adaptive_native) /
           static_cast<double>(std::max<std::size_t>(1, totals.adaptive)),
       "ratio"});
  out.metrics.push_back(
      {"service.batch_dedup_share",
       static_cast<double>(batch_totals.dedup_hits) /
           static_cast<double>(std::max<std::size_t>(1, items)),
       "ratio"});
  out.metrics.push_back(
      {"service.packed_per_frame",
       static_cast<double>(batch_totals.packed_solves) /
           static_cast<double>(std::max<std::size_t>(1, frames)),
       "count"});

  if (!cfg.spans_path.empty()) {
    std::ofstream f(cfg.spans_path);
    f << "span,parent,req,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      f << i << ',' << sp.parent << ',' << sp.req << ','
        << tr.name(sp.name) << ',' << sp.start << ',' << sp.end << '\n';
    }
  }
  return out;
}

}  // namespace perfbench
