#include "service/batch.hpp"

#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "service/express.hpp"
#include "service/persist_cache.hpp"

namespace copath::service {
namespace {

/// Failure shape of the Service's pre-solve path (process()'s canonicalize
/// catch): label + backend + error, routed left at its default.
SolveResult prep_failure(const std::string& label, Backend backend,
                         std::string error) {
  SolveResult res;
  res.label = label;
  res.backend = backend;
  res.error = std::move(error);
  return res;
}

/// Structural identity hash for BatchDedup::IdenticalTree — two cotrees
/// collide iff their node arrays are byte-for-byte the same walk (same
/// ids, same kinds, same children order, same vertex labels). Permuted
/// twins get different hashes with overwhelming probability, which is the
/// point: they must NOT be grouped in this mode.
std::uint64_t identical_tree_hash(const cograph::Cotree& t) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(t.size());
  mix(static_cast<std::uint64_t>(t.root()));
  for (std::size_t v = 0; v < t.size(); ++v) {
    const auto id = static_cast<cograph::NodeId>(v);
    mix(static_cast<std::uint64_t>(t.kind(id)));
    if (t.is_leaf(id)) {
      mix(static_cast<std::uint64_t>(t.vertex_of(id)) + 0x9e3779b97f4a7c15ull);
    } else {
      for (const auto c : t.children(id)) {
        mix(static_cast<std::uint64_t>(c));
      }
    }
  }
  return h;
}

bool trees_identical(const cograph::Cotree& a, const cograph::Cotree& b) {
  if (a.size() != b.size() || a.root() != b.root()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto id = static_cast<cograph::NodeId>(v);
    if (a.kind(id) != b.kind(id)) return false;
    if (a.is_leaf(id)) {
      if (a.vertex_of(id) != b.vertex_of(id)) return false;
      continue;
    }
    const auto ca = a.children(id);
    const auto cb = b.children(id);
    if (ca.size() != cb.size()) return false;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      if (ca[i] != cb[i]) return false;
    }
  }
  return true;
}

/// Per-request pre-pass state. `form`/`tree` are borrowed from the request
/// instances, which the caller keeps alive for the whole call — the dedup
/// keys below view the forms' signature bytes on the same terms.
struct Prep {
  SolveOptions opts;
  const cograph::CanonicalForm* form = nullptr;  // Canonical mode
  const cograph::Cotree* tree = nullptr;         // IdenticalTree mode
  std::uint64_t tree_hash = 0;                   // IdenticalTree mode
  bool failed = false;
};

/// A dedup group: `members` are request indices in arrival order;
/// members[0] is the rep that actually solves.
struct Group {
  std::vector<std::size_t> members;
};

struct RefHash {
  std::size_t operator()(const CacheKeyRef& k) const {
    return static_cast<std::size_t>(k.hash);
  }
};

}  // namespace

std::vector<SolveResult> solve_batch_fused(
    std::span<const SolveRequest> reqs, const SolveOptions& default_opts,
    const BatchConfig& cfg, const BatchFallback& fallback,
    exec::Arena& arena, BatchOutcome* outcome) {
  std::vector<SolveResult> results(reqs.size());
  BatchOutcome local{};
  BatchOutcome& out = outcome != nullptr ? *outcome : local;
  if (reqs.empty()) return results;

  // ---- pre-pass: canonicalize/resolve, failure isolation ---------------
  // Byte-identity pre-dedup first: duplicate text/signature payloads are
  // the same logical instance, so the batch pays parse/canonicalize once
  // per unique payload, not once per member — on duplicate-heavy batches
  // this is the dominant cost, and it is what N independent submits spread
  // across N workers while this sweep runs on one. Later members alias the
  // first arrival's borrowed form/tree (equal by value to what their own
  // resolution would build, so downstream fan-out is unchanged).
  std::vector<Prep> preps(reqs.size());
  std::unordered_map<std::string_view, std::size_t> raw_first[2];
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Prep& p = preps[i];
    p.opts = reqs[i].options.value_or(default_opts);
    if (const auto raw = reqs[i].instance.raw_bytes()) {
      const auto [it, fresh] =
          raw_first[raw->first ? 1 : 0].emplace(raw->second, i);
      if (!fresh) {
        const std::size_t owner = it->second;
        const Prep& op = preps[owner];
        if (op.failed) {
          p.failed = true;
          results[i] = prep_failure(reqs[i].label, p.opts.backend,
                                    results[owner].error);
        } else {
          p.form = op.form;
          p.tree = op.tree;
          p.tree_hash = op.tree_hash;
        }
        continue;
      }
    }
    try {
      if (cfg.dedup == BatchDedup::Canonical) {
        // The cache-hit path must not materialize trees (signature-sourced
        // instances serve warm hits form-only), so only the form here;
        // resolve() is deferred to the groups that actually solve.
        p.form = &reqs[i].instance.canonical();
      } else {
        p.tree = &reqs[i].instance.resolve();
        p.tree_hash = identical_tree_hash(*p.tree);
      }
    } catch (const std::exception& e) {
      p.failed = true;
      results[i] = prep_failure(reqs[i].label, p.opts.backend, e.what());
    } catch (...) {
      p.failed = true;
      results[i] =
          prep_failure(reqs[i].label, p.opts.backend, "non-standard exception");
    }
  }

  // ---- dedup: group duplicates, first member is the rep ----------------
  // Key lifetime: Canonical keys view signature bytes owned by the request
  // instances' CanonicalForms; both outlive this call, so the map borrows.
  std::vector<Group> groups;
  if (cfg.dedup == BatchDedup::Canonical) {
    std::unordered_map<CacheKeyRef, std::size_t, RefHash> index;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (preps[i].failed) continue;
      const CacheKeyRef key = make_cache_key(*preps[i].form, preps[i].opts);
      const auto [it, fresh] = index.emplace(key, groups.size());
      if (fresh) groups.push_back(Group{});
      groups[it->second].members.push_back(i);
    }
  } else {
    // Bucket by structural hash + options, confirm with an exact tree
    // compare — a hash collision costs a compare, never a wrong merge.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (preps[i].failed) continue;
      const OptionsKey ok = options_key(preps[i].opts);
      auto& bucket = buckets[preps[i].tree_hash];
      std::size_t found = groups.size();
      for (const std::size_t g : bucket) {
        const std::size_t rep = groups[g].members.front();
        if (options_key(preps[rep].opts) == ok &&
            trees_identical(*preps[rep].tree, *preps[i].tree)) {
          found = g;
          break;
        }
      }
      if (found == groups.size()) {
        groups.push_back(Group{});
        bucket.push_back(found);
      }
      groups[found].members.push_back(i);
    }
  }

  // ---- scatter helper: rep result -> every group member ----------------
  const auto finish_group = [&](const Group& g, SolveResult res) {
    const std::size_t rep = g.members.front();
    const Prep& rp = preps[rep];
    std::shared_ptr<const SolveResult> canonical;
    if (res.ok && cfg.cache != nullptr && rp.form != nullptr) {
      try {
        canonical = std::make_shared<const SolveResult>(
            to_canonical_space(res, *rp.form));
        const CacheKeyRef key = make_cache_key(*rp.form, rp.opts);
        cfg.cache->insert(key, canonical);
        // Write-through to the persistent tier (never throws; disk trouble
        // degrades to a skipped write).
        if (cfg.l2 != nullptr) cfg.l2->append(key, *canonical);
      } catch (...) {
        canonical = nullptr;  // a failed store must not strand the members
      }
    }
    // Canonical fan-out needs the canonical-space result even when no
    // cache wanted it stored.
    std::optional<SolveResult> tmp;
    const SolveResult* canon_src = canonical.get();
    if (res.ok && cfg.dedup == BatchDedup::Canonical &&
        canon_src == nullptr && g.members.size() > 1) {
      try {
        tmp = to_canonical_space(res, *rp.form);
        canon_src = &*tmp;
      } catch (...) {
        canon_src = nullptr;
      }
    }
    for (std::size_t m = 1; m < g.members.size(); ++m) {
      const std::size_t j = g.members[m];
      ++out.dedup_hits;
      try {
        if (!res.ok) {
          results[j] = res;
          results[j].label = reqs[j].label;
        } else if (cfg.dedup == BatchDedup::Canonical) {
          if (canon_src == nullptr) {
            results[j] = prep_failure(reqs[j].label, preps[j].opts.backend,
                                      "failed to materialize result");
            continue;
          }
          // The member's instance shares the canonical class but not the
          // leaf ids: replay through ITS permutation, exactly like a
          // Service cache hit or coalesced waiter.
          results[j] = remapped_from_canonical(*canon_src, *preps[j].form);
          results[j].label = reqs[j].label;
        } else {
          // Identical trees: replay is the identity.
          results[j] = res;
          results[j].label = reqs[j].label;
        }
      } catch (...) {
        results[j] = prep_failure(reqs[j].label, preps[j].opts.backend,
                                  "failed to materialize result");
      }
    }
    results[rep] = std::move(res);
  };

  // ---- per group: cache probe, then one solve --------------------------
  // The frame token (the first request's) and the rep's own options token
  // are polled before every group's solve: the kernel never polls, so a
  // trip lands between groups, and every group not yet solved answers with
  // the structured cancellation failure.
  util::CancelToken* const frame_tok = reqs.front().cancel.get();
  const auto tripped = [frame_tok](const SolveOptions& opts) -> const char* {
    for (util::CancelToken* tok : {frame_tok, opts.cancel}) {
      if (tok != nullptr && tok->poll()) {
        return util::CancelToken::message(tok->reason());
      }
    }
    return nullptr;
  };
  for (Group& g : groups) {
    const std::size_t rep = g.members.front();
    const Prep& rp = preps[rep];
    if (cfg.cache != nullptr && rp.form != nullptr) {
      const CacheKeyRef key = make_cache_key(*rp.form, rp.opts);
      std::shared_ptr<const SolveResult> hit = cfg.cache->lookup(key);
      if (hit == nullptr && cfg.l2 != nullptr) {
        // L1 miss: probe the persistent tier and promote a hit so the
        // group's twins in future batches stay RAM-warm.
        hit = cfg.l2->lookup(key);
        if (hit != nullptr) {
          cfg.cache->insert(key, hit);
          ++out.l2_hits;
        }
      } else if (hit != nullptr) {
        ++out.cache_hits;
      }
      if (hit != nullptr) {
        out.dedup_hits += g.members.size() - 1;
        for (const std::size_t j : g.members) {
          try {
            results[j] = remapped_from_canonical(*hit, *preps[j].form);
            results[j].label = reqs[j].label;
          } catch (...) {
            results[j] = prep_failure(reqs[j].label, preps[j].opts.backend,
                                      "failed to materialize cache hit");
          }
        }
        continue;
      }
    }
    const std::string& label = reqs[rep].label;
    const Backend backend = rp.opts.backend;
    if (const char* reason = tripped(rp.opts)) {
      finish_group(g, solve_failure(label, backend, reason));
      continue;
    }
    if (!core::is_host_sweep(backend)) {
      finish_group(g, fallback(reqs[rep], rp.opts));
      continue;
    }
    SolveResult res;
    try {
      // Canonical mode deferred resolution to here — the groups that
      // actually solve; a decode/parse failure fails this group alone.
      res = solve_sweep(reqs[rep].instance.resolve(), label, rp.opts, arena);
      ++out.packed_solves;
    } catch (const std::exception& e) {
      res = solve_failure(label, backend, e.what());
    } catch (...) {
      res = solve_failure(label, backend, "non-standard exception");
    }
    finish_group(g, std::move(res));
  }
  return results;
}

}  // namespace copath::service
