#include "service/result_cache.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/math.hpp"

namespace copath::service {
namespace {

/// Folds the packed options into the shard/bucket hash with the same mixer
/// the canonicalizer uses (util::hash_mix) — word-at-a-time, no string.
std::uint64_t fold_options(std::uint64_t h, const OptionsKey& k) {
  h = util::hash_mix(h, k.processors);
  h = util::hash_mix(h, k.max_repair_rounds);
  h = util::hash_mix(
      h, (static_cast<std::uint64_t>(k.backend) << 24) |
             (static_cast<std::uint64_t>(k.policy) << 16) |
             (static_cast<std::uint64_t>(k.rank_engine) << 8) |
             static_cast<std::uint64_t>(k.flags));
  return h;
}

void remap_into(const std::vector<cograph::VertexId>& path,
                std::vector<cograph::VertexId>& out,
                const std::vector<cograph::VertexId>& map) {
  out.resize(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    COPATH_DCHECK(path[i] >= 0 &&
                  static_cast<std::size_t>(path[i]) < map.size());
    out[i] = map[static_cast<std::size_t>(path[i])];
  }
}

void remap_vertices(std::vector<cograph::VertexId>& path,
                    const std::vector<cograph::VertexId>& map) {
  for (auto& v : path) {
    COPATH_DCHECK(v >= 0 && static_cast<std::size_t>(v) < map.size());
    v = map[static_cast<std::size_t>(v)];
  }
}

SolveResult remap_result(SolveResult res,
                         const std::vector<cograph::VertexId>& map) {
  for (auto& path : res.cover.paths) remap_vertices(path, map);
  if (res.cycle.has_value()) remap_vertices(*res.cycle, map);
  return res;
}

}  // namespace

OptionsKey options_key(const SolveOptions& opts) {
  OptionsKey k;
  // Byte-stability: value-init covers the members (including the explicit
  // pad array), but a memset makes the guarantee independent of member
  // layout edits — the persistent tier memcmps and hashes these 24 bytes
  // raw, so no byte may ever be indeterminate.
  std::memset(&k, 0, sizeof(k));
  k.processors = opts.processors;
  k.max_repair_rounds = opts.pipeline.max_repair_rounds;
  k.backend = static_cast<std::uint8_t>(opts.backend);
  k.policy = static_cast<std::uint8_t>(opts.policy);
  k.rank_engine = static_cast<std::uint8_t>(opts.pipeline.rank_engine);
  k.flags = static_cast<std::uint8_t>(
      (opts.collect_trace ? 1u : 0u) | (opts.validate ? 2u : 0u) |
      (opts.want_hamiltonian_cycle ? 4u : 0u) |
      (opts.compute_verdicts ? 8u : 0u));
  return k;
}

std::string options_fingerprint(const SolveOptions& opts) {
  std::ostringstream os;
  os << "b=" << static_cast<int>(opts.backend)
     << ";p=" << opts.processors
     << ";pol=" << static_cast<int>(opts.policy)
     << ";re=" << static_cast<int>(opts.pipeline.rank_engine)
     << ";rr=" << opts.pipeline.max_repair_rounds
     << ";tr=" << opts.collect_trace
     << ";val=" << opts.validate
     << ";hc=" << opts.want_hamiltonian_cycle
     << ";verd=" << opts.compute_verdicts;
  return os.str();
}

CacheKeyRef make_cache_key(const cograph::CanonicalForm& form,
                           const SolveOptions& opts) {
  CacheKeyRef key;
  key.signature = form.signature;
  key.opts = options_key(opts);
  key.hash = fold_options(form.hash, key.opts);
  return key;
}

CacheKey own_key(const CacheKeyRef& key) {
  return CacheKey{key.hash, std::string(key.signature), key.opts};
}

SolveResult to_canonical_space(SolveResult res,
                               const cograph::CanonicalForm& form) {
  res.label.clear();
  return remap_result(std::move(res), form.to_canonical);
}

SolveResult from_canonical_space(SolveResult res,
                                 const cograph::CanonicalForm& form) {
  return remap_result(std::move(res), form.from_canonical);
}

SolveResult remapped_from_canonical(const SolveResult& canonical,
                                 const cograph::CanonicalForm& form) {
  // The hit path: one pass builds the remapped copy directly — no
  // copy-then-rewrite double walk over the paths.
  SolveResult res;
  res.ok = canonical.ok;
  res.error = canonical.error;
  res.backend = canonical.backend;
  res.routed = canonical.routed;
  res.vertex_count = canonical.vertex_count;
  res.optimal_size = canonical.optimal_size;
  res.minimum = canonical.minimum;
  res.hamiltonian_path = canonical.hamiltonian_path;
  res.hamiltonian_cycle = canonical.hamiltonian_cycle;
  res.stats = canonical.stats;
  res.stats_valid = canonical.stats_valid;
  res.trace = canonical.trace;
  res.trace_valid = canonical.trace_valid;
  res.validation = canonical.validation;
  res.wall_ms = canonical.wall_ms;
  const auto& map = form.from_canonical;
  res.cover.paths.resize(canonical.cover.paths.size());
  for (std::size_t i = 0; i < canonical.cover.paths.size(); ++i) {
    remap_into(canonical.cover.paths[i], res.cover.paths[i], map);
  }
  if (canonical.cycle.has_value()) {
    res.cycle.emplace();
    remap_into(*canonical.cycle, *res.cycle, map);
  }
  return res;
}

ResultCache::ResultCache(Config cfg) {
  const std::size_t shards = std::max<std::size_t>(1, cfg.shards);
  const std::size_t capacity = std::max(cfg.capacity, shards);
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const SolveResult> ResultCache::lookup(
    const CacheKeyRef& key) {
  Shard& sh = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto bucket = sh.by_hash.find(key.hash);
  if (bucket != sh.by_hash.end()) {
    for (const auto it : bucket->second) {
      if (it->key.ref() == key) {
        sh.lru.splice(sh.lru.begin(), sh.lru, it);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->result;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ResultCache::insert(const CacheKeyRef& key,
                         std::shared_ptr<const SolveResult> canonical_result) {
  Shard& sh = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto& bucket = sh.by_hash[key.hash];
  for (const auto it : bucket) {
    if (it->key.ref() == key) {
      // Refresh (concurrent misses on one key double-insert harmlessly).
      it->result = std::move(canonical_result);
      sh.lru.splice(sh.lru.begin(), sh.lru, it);
      return;
    }
  }
  if (sh.lru.size() >= per_shard_capacity_) {
    const auto victim = std::prev(sh.lru.end());
    auto vb = sh.by_hash.find(victim->key.hash);
    auto& vec = vb->second;
    vec.erase(std::find(vec.begin(), vec.end(), victim));
    if (vec.empty()) sh.by_hash.erase(vb);
    sh.lru.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  sh.lru.push_front(Entry{own_key(key), std::move(canonical_result)});
  sh.by_hash[key.hash].push_back(sh.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    total += sh->lru.size();
  }
  return total;
}

void ResultCache::clear() {
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->lru.clear();
    sh->by_hash.clear();
  }
  // Counters describe the entries' epoch: dropping the entries without
  // resetting them left the Stats verb reporting a hit rate blended across
  // epochs.
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace copath::service
