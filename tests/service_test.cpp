// The service layer: MpmcQueue semantics, ResultCache unit behavior
// (full-key collision check, LRU eviction, stats), the canonical-space
// result remapping, and copath::Service end to end — the >= 100-instance
// cache differential (cached results bitwise-equal to the uncached path),
// permuted-twin soundness, error paths, and shutdown draining. Every
// Service test ends by asserting the quiescent counter invariants.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "copath.hpp"
#include "invariants.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace copath {
namespace {

// ------------------------------------------------------------- MpmcQueue

TEST(MpmcQueue, FifoAcrossProducersAndConsumersDrainsEverything) {
  util::MpmcQueue<int> q(16);
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        ASSERT_TRUE(q.push(item));
      }
    });
  }
  std::atomic<int> seen{0};
  std::vector<std::thread> consumers;
  std::array<std::atomic<int>, kProducers * kPerProducer> got{};
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.pop()) {
        got[static_cast<std::size_t>(*item)].fetch_add(1);
        seen.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.load(), kProducers * kPerProducer);
  for (const auto& g : got) EXPECT_EQ(g.load(), 1);  // exactly-once delivery
}

TEST(MpmcQueue, PushBlocksOnFullUntilAConsumerDrains) {
  util::MpmcQueue<int> q(1);
  int first = 1;
  ASSERT_TRUE(q.push(first));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    int second = 2;
    ASSERT_TRUE(q.push(second));  // must block: capacity 1, queue full
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_pushed.load());  // still parked on backpressure
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(MpmcQueue, CloseFailsPushesKeepsItemAndDrainsTheRest) {
  util::MpmcQueue<int> q(4);
  int a = 1, b = 2;
  ASSERT_TRUE(q.push(a));
  ASSERT_TRUE(q.push(b));
  q.close();
  int c = 42;
  EXPECT_FALSE(q.push(c));
  EXPECT_EQ(c, 42);  // rejected item left intact for the caller
  EXPECT_FALSE(q.try_push(c));
  EXPECT_EQ(q.pop().value(), 1);  // pre-close items still delivered
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);  // closed and drained
}

// ----------------------------------------------------------- ResultCache

std::shared_ptr<const SolveResult> result_with_size(std::int64_t marker) {
  SolveResult res;
  res.ok = true;
  res.optimal_size = marker;
  return std::make_shared<const SolveResult>(std::move(res));
}

/// Binary signature of "(+ v v)" / "(* v v)": two leaves then the
/// internal tag with LEB128 arity 2 — hand-assembled so the collision
/// tests exercise exactly the byte-stream the canonicalizer emits.
std::string sig2(char kind_tag) {
  std::string s;
  s += cograph::kSigLeaf;
  s += cograph::kSigLeaf;
  s += kind_tag;
  s += '\x02';
  return s;
}

TEST(ResultCache, HashCollisionsAreDisambiguatedByTheFullKey) {
  service::ResultCache cache(service::ResultCache::Config{2, 16});
  // Three keys engineered onto the same 64-bit hash (and so the same
  // shard): only the full binary key — signature memcmp plus the packed
  // options — tells them apart.
  service::OptionsKey seq;
  seq.backend = 0;
  service::OptionsKey pram;
  pram.backend = 2;
  service::CacheKey k1{42, sig2(cograph::kSigUnion), seq};
  service::CacheKey k2{42, sig2(cograph::kSigJoin), seq};
  service::CacheKey k3{42, sig2(cograph::kSigUnion), pram};
  cache.insert(k1.ref(), result_with_size(101));
  cache.insert(k2.ref(), result_with_size(202));
  cache.insert(k3.ref(), result_with_size(303));
  EXPECT_EQ(cache.lookup(k1.ref())->optimal_size, 101);
  EXPECT_EQ(cache.lookup(k2.ref())->optimal_size, 202);
  EXPECT_EQ(cache.lookup(k3.ref())->optimal_size, 303);
  EXPECT_EQ(cache.size(), 3u);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.insertions, 3u);
}

TEST(ResultCache, SignaturePrefixAndLengthCollisionsMiss) {
  // Signatures that are prefixes of one another (same hash, same options)
  // must not compare equal: the length check guards the memcmp.
  service::ResultCache cache(service::ResultCache::Config{1, 8});
  std::string shallow = sig2(cograph::kSigUnion);       // (+ v v)
  std::string deep = shallow + sig2(cograph::kSigJoin)  // two subtrees…
                     + static_cast<char>(cograph::kSigUnion);
  deep += '\x02';  // …joined under a '+' root
  service::CacheKey a{7, shallow, {}};
  service::CacheKey b{7, deep, {}};
  cache.insert(a.ref(), result_with_size(1));
  EXPECT_EQ(cache.lookup(b.ref()), nullptr);
  cache.insert(b.ref(), result_with_size(2));
  EXPECT_EQ(cache.lookup(a.ref())->optimal_size, 1);
  EXPECT_EQ(cache.lookup(b.ref())->optimal_size, 2);
}

TEST(ResultCache, LruEvictionPerShardWithStats) {
  service::ResultCache cache(service::ResultCache::Config{1, 2});
  service::CacheKey k1{1, "a", {}};
  service::CacheKey k2{2, "b", {}};
  service::CacheKey k3{3, "c", {}};
  cache.insert(k1.ref(), result_with_size(1));
  cache.insert(k2.ref(), result_with_size(2));
  ASSERT_NE(cache.lookup(k1.ref()), nullptr);  // k1 refreshed; k2 now LRU
  cache.insert(k3.ref(), result_with_size(3));  // evicts k2
  EXPECT_EQ(cache.lookup(k2.ref()), nullptr);
  EXPECT_NE(cache.lookup(k1.ref()), nullptr);
  EXPECT_NE(cache.lookup(k3.ref()), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(cache.size(), 2u);

  // Re-inserting an existing key refreshes in place (no eviction).
  cache.insert(k1.ref(), result_with_size(11));
  EXPECT_EQ(cache.lookup(k1.ref())->optimal_size, 11);
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(k1.ref()), nullptr);
}

TEST(ResultCache, CanonicalSpaceRoundTripRemapsCoverAndCycle) {
  const Cotree t = Cotree::parse("(* (+ a b) c)");
  const auto form = canonical_form(t);
  SolveResult res;
  res.ok = true;
  res.cover.paths = {{0, 2, 1}};
  res.cycle = std::vector<VertexId>{0, 2, 1};
  const SolveResult canon = service::to_canonical_space(res, form);
  // to_canonical then from_canonical is the identity on this instance.
  const SolveResult back = service::from_canonical_space(canon, form);
  EXPECT_EQ(back.cover.paths, res.cover.paths);
  EXPECT_EQ(back.cycle, res.cycle);
  // And the canonical-space cover is a permutation image, not a copy.
  std::vector<VertexId> expect = res.cover.paths[0];
  for (auto& v : expect) v = form.to_canonical[static_cast<std::size_t>(v)];
  EXPECT_EQ(canon.cover.paths[0], expect);
}

// --------------------------------------------------------------- Service

/// Builds "r<round>-<i>" without operator+ chains (GCC 12's -Wrestrict
/// false-positives on nested string operator+ under heavy inlining).
std::string run_label(unsigned round, unsigned i) {
  std::string s = "r";
  s += std::to_string(round);
  s += '-';
  s += std::to_string(i);
  return s;
}

void expect_equal_core(const SolveResult& got, const SolveResult& want,
                       const std::string& what) {
  ASSERT_EQ(got.ok, want.ok) << what << ": " << got.error;
  EXPECT_EQ(got.backend, want.backend) << what;
  EXPECT_EQ(got.vertex_count, want.vertex_count) << what;
  EXPECT_EQ(got.cover.paths, want.cover.paths) << what;
  EXPECT_EQ(got.optimal_size, want.optimal_size) << what;
  EXPECT_EQ(got.minimum, want.minimum) << what;
  EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path) << what;
  EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle) << what;
  EXPECT_EQ(got.cycle, want.cycle) << what;
}

TEST(Service, CacheDifferentialOn120RandomInstancesMatchesUncachedBitwise) {
  // The acceptance bar: >= 100 random instances, every cached answer —
  // cold miss AND warm hit — bitwise-equal to the uncached Solver path on
  // covers, minima, and verdicts.
  std::vector<Cotree> keep;
  keep.reserve(120);
  for (unsigned i = 0; i < 120; ++i) {
    keep.push_back(testing::random_cotree(1 + (i * 11) % 90, 660000 + i));
  }

  Service::Options sopts;
  sopts.workers = 2;
  sopts.solve.validate = true;
  Service svc(sopts);
  const Solver uncached(sopts.solve);

  for (unsigned round = 0; round < 2; ++round) {  // round 1 is all-warm
    std::vector<std::future<SolveResult>> futures;
    futures.reserve(keep.size());
    for (unsigned i = 0; i < keep.size(); ++i) {
      SolveRequest req;
      req.instance = Instance::view(keep[i]);
      req.label = run_label(round, i);
      if (i % 7 == 0) {
        SolveOptions o = sopts.solve;
        o.want_hamiltonian_cycle = true;
        req.options = o;
      }
      futures.push_back(svc.submit(std::move(req)));
    }
    for (unsigned i = 0; i < keep.size(); ++i) {
      SolveRequest ref_req;
      ref_req.instance = Instance::view(keep[i]);
      if (i % 7 == 0) {
        SolveOptions o = sopts.solve;
        o.want_hamiltonian_cycle = true;
        ref_req.options = o;
      }
      const SolveResult want = uncached.solve(ref_req);
      const SolveResult got = futures[i].get();
      expect_equal_core(got, want, run_label(round, i));
      EXPECT_EQ(got.label, run_label(round, i));
      EXPECT_TRUE(got.validation.ok) << got.validation.error;
    }
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 240u);
  EXPECT_EQ(stats.completed, 240u);
  // Round 2 is fully warm; round 1 may already hit duplicates.
  EXPECT_GE(stats.cache_hits, 120u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 240u);
  testing::expect_quiescent(stats);
}

TEST(Service, PermutedAndRelabeledTwinsHitTheCacheAndStaySound) {
  util::Rng rng(505);
  Service::Options sopts;
  sopts.workers = 2;
  Service svc(sopts);
  std::uint64_t expected_hits = 0;
  for (unsigned i = 0; i < 40; ++i) {
    const Cotree base = testing::random_cotree(2 + (i * 9) % 70, 88000 + i);
    const Cotree twin = testing::random_twin(base, rng);
    const auto want_size = path_cover_size(base);

    auto fb = svc.submit(SolveRequest{Instance::view(base), {}, "base"});
    const SolveResult rb = fb.get();
    ASSERT_TRUE(rb.ok) << rb.error;

    auto ft = svc.submit(SolveRequest{Instance::view(twin), {}, "twin"});
    const SolveResult rt = ft.get();
    ASSERT_TRUE(rt.ok) << rt.error;
    ++expected_hits;

    // Verdicts and minima are isomorphism invariants: bitwise equal.
    EXPECT_EQ(rt.optimal_size, want_size);
    EXPECT_EQ(rt.optimal_size, rb.optimal_size);
    EXPECT_EQ(rt.minimum, rb.minimum);
    EXPECT_EQ(rt.hamiltonian_path, rb.hamiltonian_path);
    EXPECT_EQ(rt.hamiltonian_cycle, rb.hamiltonian_cycle);
    // The replayed cover must be a *valid minimum cover of the twin* (it
    // need not be the cover a direct solve of the twin would emit).
    const auto report = validate_path_cover(twin, rt.cover,
                                            /*require_minimum=*/true);
    EXPECT_TRUE(report.ok) << i << ": " << report.error;
  }
  EXPECT_GE(svc.stats().cache_hits, expected_hits);
  testing::expect_quiescent(svc);
}

/// The fields a default Service answer shares with a direct
/// Backend::Sequential solve, plus the routing metadata.
void expect_sequential_answer(const SolveResult& got, const SolveResult& want,
                              const std::string& what) {
  ASSERT_TRUE(got.ok) << what << ": " << got.error;
  EXPECT_EQ(got.backend, Backend::Sequential) << what;
  EXPECT_EQ(got.routed, Backend::Sequential) << what;
  EXPECT_EQ(got.vertex_count, want.vertex_count) << what;
  EXPECT_EQ(got.cover.paths, want.cover.paths) << what;
  EXPECT_EQ(got.optimal_size, want.optimal_size) << what;
  EXPECT_EQ(got.minimum, want.minimum) << what;
  EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path) << what;
  EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle) << what;
}

/// An isomorphic twin of `t` with every child list shuffled, numbered in
/// the shuffled DFS order through Cotree::from_parts, so vertex labels move
/// with the shuffle. Iterative: testing::random_twin goes through the
/// recursive CotreeBuilder, too deep for a caterpillar at n = 2^14.
Cotree shuffled_twin(const Cotree& t, util::Rng& rng) {
  std::vector<cograph::NodeKind> kind;
  std::vector<cograph::NodeId> parent;
  kind.reserve(t.size());
  parent.reserve(t.size());
  // (original node, its parent's new id); preorder ids keep every child
  // list in its shuffled order.
  std::vector<std::pair<cograph::NodeId, cograph::NodeId>> stack{
      {t.root(), cograph::kNull}};
  while (!stack.empty()) {
    const auto [v, p] = stack.back();
    stack.pop_back();
    const auto id = static_cast<cograph::NodeId>(kind.size());
    kind.push_back(t.kind(v));
    parent.push_back(p);
    if (t.is_leaf(v)) continue;
    std::vector<cograph::NodeId> kids(t.children(v).begin(),
                                      t.children(v).end());
    for (std::size_t i = kids.size(); i-- > 1;) {
      std::swap(kids[i], kids[rng.below(i + 1)]);
    }
    for (std::size_t i = kids.size(); i-- > 0;) stack.emplace_back(kids[i], id);
  }
  return Cotree::from_parts(std::move(kind), std::move(parent), 0);
}

TEST(ServiceAboveFloor, LeasedSolvesMatchDirectSequentialSolves) {
  // At n >= 2^14 a default Service miss runs the sequential kernel inline
  // on the express lane, like every smaller one. Every answer must match a
  // direct Backend::Sequential solve — with the cache off, on a cold cache
  // miss, and on a warm hit replayed to a permuted twin — and no miss
  // claims a thread lease.
  const std::size_t big = std::size_t{1} << 14;
  const Solver sequential;  // Backend::Sequential defaults
  util::Rng rng(1414);
  for (const std::size_t n : {big, big + 1, 2 * big}) {
    std::vector<Cotree> shapes;
    shapes.push_back(testing::random_cotree(n, 14000 + n));
    shapes.push_back(cograph::caterpillar(n));
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const Cotree& t = shapes[s];
      const Cotree twin = shuffled_twin(t, rng);
      const std::string what =
          "n=" + std::to_string(n) + " shape " + std::to_string(s);
      const Instance base = Instance::view(t);
      const Instance twin_inst = Instance::view(twin);
      const SolveResult want = sequential.solve(base);
      ASSERT_TRUE(want.ok) << what << ": " << want.error;

      {
        Service::Options sopts;
        sopts.workers = 2;
        sopts.use_cache = false;
        Service svc(sopts);
        const SolveResult got =
            svc.submit(SolveRequest{base, {}, "off"}).get();
        expect_sequential_answer(got, want, what + " cache off");
        EXPECT_EQ(svc.stats().lease_acquires, 0u) << what;
        EXPECT_EQ(svc.stats().express_solves, 1u) << what;
        testing::expect_quiescent(svc);
      }

      Service::Options sopts;
      sopts.workers = 2;
      Service svc(sopts);
      const SolveResult cold =
          svc.submit(SolveRequest{base, {}, "cold"}).get();
      expect_sequential_answer(cold, want, what + " cold");
      EXPECT_EQ(svc.stats().express_solves, 1u) << what;

      // The twin hits the cache: the stored canonical-space answer replayed
      // through the twin's own permutation, with no second solve.
      const SolveResult warm =
          svc.submit(SolveRequest{twin_inst, {}, "warm"}).get();
      const SolveResult replayed = service::remapped_from_canonical(
          service::to_canonical_space(want, base.canonical()),
          twin_inst.canonical());
      expect_sequential_answer(warm, replayed, what + " warm twin");
      EXPECT_EQ(warm.optimal_size, want.optimal_size) << what;
      EXPECT_TRUE(validate_path_cover(twin, warm.cover,
                                      /*require_minimum=*/true)
                      .ok)
          << what;
      const auto stats = svc.stats();
      EXPECT_EQ(stats.lease_acquires, 0u) << what;
      EXPECT_EQ(stats.cache_hits, 1u) << what;
      EXPECT_EQ(stats.express_solves, 1u) << what;
      testing::expect_quiescent(stats);
    }
  }
}

TEST(Service, DisablingTheCacheStillServesCorrectly) {
  Service::Options sopts;
  sopts.workers = 2;
  sopts.use_cache = false;
  Service svc(sopts);
  // Mirror the serving default (Backend::Sequential) in the reference.
  const Solver reference(sopts.solve);
  for (unsigned i = 0; i < 10; ++i) {
    const Cotree t = testing::random_cotree(1 + i * 5, 313 + i);
    auto fut = svc.submit(SolveRequest{Instance::view(t), {}, {}});
    expect_equal_core(fut.get(), reference.solve(Instance::view(t)),
                      "uncached inst " + std::to_string(i));
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache.insertions, 0u);
  testing::expect_quiescent(stats);
}

TEST(Service, NonStandardThrowingBackendFailsStructurally) {
  // A plug-in engine throwing something that is not a std::exception must
  // come back as an ok == false result — not std::terminate the worker.
  const auto throwing = static_cast<Backend>(220);
  BackendRegistry::instance().add(
      throwing, "throws-int",
      [](const Cotree&, const core::BackendConfig&) -> core::BackendOutput {
        throw 42;  // NOLINT(hicpp-exception-baseclass)
      },
      /*exact=*/false);
  const Cotree t = cograph::independent_set(4);
  for (const bool use_cache : {true, false}) {
    Service::Options sopts;
    sopts.workers = 2;
    sopts.solve.backend = throwing;
    sopts.use_cache = use_cache;
    Service svc(sopts);
    auto fut = svc.submit(SolveRequest{Instance::view(t), {}, "boom"});
    const SolveResult res = fut.get();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("non-standard"), std::string::npos)
        << res.error;
    EXPECT_EQ(res.label, "boom");
    // The worker survives: a normal request still succeeds afterwards.
    SolveOptions ok_opts;
    auto ok_fut =
        svc.submit(SolveRequest{Instance::view(t), ok_opts, "after"});
    EXPECT_TRUE(ok_fut.get().ok);
    testing::expect_quiescent(svc);
  }
}

TEST(Service, BadInstancesFailStructurallyWithoutPoisoning) {
  Service svc(Service::Options{});
  auto bad = svc.submit(SolveRequest{Instance::text("(* broken"), {}, "b"});
  const SolveResult rb = bad.get();
  EXPECT_FALSE(rb.ok);
  EXPECT_FALSE(rb.error.empty());
  EXPECT_EQ(rb.label, "b");

  auto empty = svc.submit(SolveRequest{});
  EXPECT_FALSE(empty.get().ok);

  auto good = svc.submit(SolveRequest{Instance::text("(* x y)"), {}, "g"});
  const SolveResult rg = good.get();
  ASSERT_TRUE(rg.ok) << rg.error;
  EXPECT_TRUE(rg.hamiltonian_path);
  // Failures are not cached.
  EXPECT_EQ(svc.stats().cache.insertions, 1u);
  testing::expect_quiescent(svc);
}

TEST(Service, EvictionUnderTinyCapacityKeepsServingCorrectly) {
  Service::Options sopts;
  sopts.workers = 1;
  sopts.cache.shards = 1;
  sopts.cache.capacity = 2;
  Service svc(sopts);
  std::vector<Cotree> keep;
  for (unsigned i = 0; i < 6; ++i) {
    keep.push_back(testing::random_cotree(5 + i * 7, 41000 + i));
  }
  for (unsigned round = 0; round < 3; ++round) {
    for (const auto& t : keep) {
      auto fut = svc.submit(SolveRequest{Instance::view(t), {}, {}});
      const SolveResult res = fut.get();
      ASSERT_TRUE(res.ok) << res.error;
      EXPECT_EQ(static_cast<std::int64_t>(res.cover.size()),
                path_cover_size(t));
    }
  }
  EXPECT_GT(svc.stats().cache.evictions, 0u);
  testing::expect_quiescent(svc);
}

TEST(Service, ShutdownDrainsQueuedWorkAndFailsLateSubmits) {
  Service::Options sopts;
  sopts.workers = 1;
  Service svc(sopts);
  std::vector<Cotree> keep;
  std::vector<std::future<SolveResult>> futures;
  for (unsigned i = 0; i < 12; ++i) {
    keep.push_back(testing::random_cotree(10 + i, 99000 + i));
  }
  for (const auto& t : keep) {
    futures.push_back(svc.submit(SolveRequest{Instance::view(t), {}, {}}));
  }
  svc.shutdown();  // everything already enqueued must still be answered
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok);
  }
  auto late = svc.submit(SolveRequest{Instance::text("(* a b)"), {}, {}});
  const SolveResult res = late.get();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("shut down"), std::string::npos) << res.error;
  svc.shutdown();  // idempotent
  testing::expect_quiescent(svc);
}

TEST(Service, DrainRefusesWithItsOwnReasonAndAdvertisesState) {
  // drain() and shutdown() (the destructor path) are distinct teardowns:
  // the daemon advertises a drain to clients, so refusals must say
  // "draining" — a retryable condition — and stats().draining must flip.
  Service svc;
  EXPECT_TRUE(svc.submit(SolveRequest{Instance::text("(+ a b)"), {}, {}})
                  .get()
                  .ok);
  EXPECT_FALSE(svc.stats().draining);

  svc.drain();  // blocks until everything accepted has been answered
  EXPECT_TRUE(svc.stats().draining);
  EXPECT_EQ(svc.stats().in_flight, 0u);

  auto late = svc.submit(SolveRequest{Instance::text("(* a b)"), {}, {}});
  const SolveResult res = late.get();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("draining"), std::string::npos) << res.error;
  svc.drain();  // idempotent, like shutdown()
  testing::expect_quiescent(svc);
}

TEST(Service, StatsTrackQueueDepthAndInFlight) {
  // A one-worker service with a slow plug-in backend: while the worker
  // sleeps inside request #1, requests #2 and #3 must be visible as
  // queue_depth, and all three as in_flight — the numbers the daemon's
  // backpressure window is calibrated against. After the futures resolve,
  // both gauges must read zero.
  BackendRegistry::instance().add(
      static_cast<Backend>(212), "slow-for-stats",
      [](const Cotree& t, const core::BackendConfig&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        core::BackendOutput out;
        for (std::size_t v = 0; v < t.vertex_count(); ++v) {
          out.cover.paths.push_back({static_cast<VertexId>(v)});
        }
        return out;
      },
      /*exact=*/false);
  Service::Options sopts;
  sopts.workers = 1;
  sopts.use_cache = false;  // three distinct computes
  sopts.solve.backend = static_cast<Backend>(212);
  Service svc(sopts);

  std::vector<std::future<SolveResult>> futures;
  futures.push_back(svc.submit(SolveRequest{Instance::text("(+ a b)"), {}, {}}));
  futures.push_back(svc.submit(SolveRequest{Instance::text("(* a b)"), {}, {}}));
  futures.push_back(
      svc.submit(SolveRequest{Instance::text("(+ a b c)"), {}, {}}));

  // The lone worker holds request #1 for 200ms; sample inside that window.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Service::Stats mid = svc.stats();
  EXPECT_EQ(mid.in_flight, 3u);
  EXPECT_GE(mid.queue_depth, 1u);  // the worker may have popped #2 already

  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok);
  }
  const Service::Stats done = svc.stats();
  EXPECT_EQ(done.in_flight, 0u);
  EXPECT_EQ(done.queue_depth, 0u);
  EXPECT_EQ(done.submitted, 3u);
  EXPECT_EQ(done.completed, 3u);
  testing::expect_quiescent(done);
}

}  // namespace
}  // namespace copath
