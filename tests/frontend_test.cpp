// The zero-allocation request front-end (PR 5): the iterative SoA parser
// against the retired recursive-descent oracle (old-vs-new differential +
// deep-spine inputs past the old recursion depth), the binary canonical
// signature (injectivity via an actual decoder, twin/distinct properties),
// the express lane (bitwise-equal to the generic dispatch path, claims no
// thread lease), and the whole-request allocation regression: warm
// Service requests perform zero arena-fresh allocations, proven by the
// instrumented arena counters the Service aggregates per worker. The CI
// ASan job runs this suite with leak detection on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "copath.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace copath {
namespace {

// ------------------------------------------------------------- the parser

/// Full structural equality, node ids and vertex ids included — the
/// differential bar is "the new parser emits byte-identical SoA arrays".
void expect_same_tree(const Cotree& a, const Cotree& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.vertex_count(), b.vertex_count()) << what;
  EXPECT_EQ(a.root(), b.root()) << what;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto id = static_cast<cograph::NodeId>(v);
    EXPECT_EQ(static_cast<int>(a.kind(id)), static_cast<int>(b.kind(id)))
        << what << " node " << v;
    EXPECT_EQ(a.parent(id), b.parent(id)) << what << " node " << v;
    ASSERT_EQ(a.child_count(id), b.child_count(id)) << what << " node " << v;
    const auto ca = a.children(id);
    const auto cb = b.children(id);
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i], cb[i]) << what << " node " << v << " child " << i;
    }
    if (a.is_leaf(id)) {
      EXPECT_EQ(a.vertex_of(id), b.vertex_of(id)) << what << " node " << v;
    }
  }
  for (std::size_t x = 0; x < a.vertex_count(); ++x) {
    const auto vx = static_cast<VertexId>(x);
    EXPECT_EQ(a.leaf_of(vx), b.leaf_of(vx)) << what << " vertex " << x;
    // The new parser normalizes away names equal to their synthetic
    // fallback ("v<id>"); the oracle stores every token. Either the names
    // agree, or the new side elided exactly the regenerable one.
    const std::string& na = a.name_of(vx);
    const std::string& nb = b.name_of(vx);
    EXPECT_TRUE(na == nb ||
                (na.empty() && nb == "v" + std::to_string(x)))
        << what << " vertex " << x << ": `" << na << "` vs `" << nb << "`";
  }
  EXPECT_EQ(a.format(), b.format()) << what;
}

TEST(FrontendParser, HandcraftedNormalizationCasesMatchTheOracle) {
  // The normalization corners: same-kind merges (left- and right-nested),
  // single-child collapse, collapse-then-merge, whitespace soup,
  // multi-byte names, a bare leaf.
  const char* cases[] = {
      "a",
      "  spaced_leaf\t",
      "(+ a b)",
      "(* (+ a b) c)",
      "(+ (+ a b) (+ c d))",
      "(+ (* (+ a b)) c)",
      "(* (* (* a b) c) d)",
      "(+ a (+ b (+ c d)))",
      "(+ (* a) b)",
      "(* (+ (* a) ) b)",
      "\n(+\ta \n b)\r",
      "(* longname_with_underscores x0 x1 (+ y-1 y-2))",
      "(+ (* a b) (* c d) (+ e f) g)",
  };
  for (const char* text : cases) {
    const Cotree got = Cotree::parse(text);
    const Cotree want = Cotree::parse_reference(text);
    expect_same_tree(got, want, std::string("case `") + text + "`");
    got.validate();
  }
}

TEST(FrontendParser, MalformedInputsRejectIdenticallyToTheOracle) {
  const char* cases[] = {
      "",      "   ",      "(",        ")",       "(+)",      "(+ )",
      "(a b)", "(+ a",     "a b",      "(+ a b))", "(* (+ a b)",
      "((+ a b))", "(+ a ) b", "(- a b)",
  };
  for (const char* text : cases) {
    EXPECT_THROW((void)Cotree::parse(text), util::CheckError) << text;
    EXPECT_THROW((void)Cotree::parse_reference(text), util::CheckError)
        << text;
  }
}

TEST(FrontendParser, DifferentialOverTheRandomCotreeHarness) {
  // format() of a random cotree exercises arbitrary arity, skew, and
  // nesting; both parsers must reconstruct the identical SoA layout.
  for (unsigned trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + (trial * 17) % 220;
    const Cotree t = testing::random_cotree(n, 52000 + trial);
    const std::string text = t.format();
    const Cotree got = Cotree::parse(text);
    const Cotree want = Cotree::parse_reference(text);
    expect_same_tree(got, want, "trial " + std::to_string(trial));
    // And the round trip itself is the identity on the algebra text.
    EXPECT_EQ(got.format(), text) << "trial " << trial;
  }
}

TEST(FrontendParser, CommutativeShufflesStillCanonicalizeIdentically) {
  // parse() feeds the canonical cache key; shuffled presentations of one
  // graph must keep resolving to one signature.
  util::Rng rng(77123);
  for (unsigned trial = 0; trial < 20; ++trial) {
    const Cotree t = testing::random_cotree(2 + trial * 9, 8800 + trial);
    const auto base = canonical_form(Cotree::parse(t.format()));
    const Cotree twin = testing::shuffle_children(t, rng);
    const auto shuffled = canonical_form(Cotree::parse(twin.format()));
    EXPECT_EQ(base.signature, shuffled.signature) << trial;
    EXPECT_EQ(base.hash, shuffled.hash) << trial;
  }
}

/// Alternating right-spine comb of the given depth built iteratively
/// (from_parts never recurses): spine node i owns one leaf and the next
/// spine node; the bottom owns two leaves.
Cotree deep_spine(std::size_t depth) {
  const std::size_t n = 2 * depth + 1;
  std::vector<cograph::NodeKind> kind(n);
  std::vector<cograph::NodeId> parent(n);
  for (std::size_t i = 0; i < depth; ++i) {
    kind[i] = i % 2 == 0 ? cograph::NodeKind::Join : cograph::NodeKind::Union;
    parent[i] = i == 0 ? cograph::kNull : static_cast<cograph::NodeId>(i - 1);
  }
  for (std::size_t i = 0; i < depth; ++i) {
    kind[depth + i] = cograph::NodeKind::Leaf;
    parent[depth + i] = static_cast<cograph::NodeId>(i);
  }
  kind[2 * depth] = cograph::NodeKind::Leaf;
  parent[2 * depth] = static_cast<cograph::NodeId>(depth - 1);
  return Cotree::from_parts(std::move(kind), std::move(parent), 0);
}

TEST(FrontendParser, DeepSpinesPastTheOldRecursionDepthParse) {
  // 5000 nested levels: far past the recursive oracle's 512 cap (which
  // existed to protect its call stack). The iterative parser takes it in
  // stride; the oracle must refuse rather than overflow.
  const Cotree t = deep_spine(5000);
  const std::string text = t.format();
  const Cotree back = Cotree::parse(text);
  back.validate();
  EXPECT_EQ(back.format(), text);
  EXPECT_EQ(back.vertex_count(), t.vertex_count());
  EXPECT_EQ(canonical_form(back).signature, canonical_form(t).signature);
  EXPECT_THROW((void)Cotree::parse_reference(text), util::CheckError);
}

TEST(FrontendParser, TheCapIsAnInputSanityBoundNotAStackLimit) {
  // Nesting right at the (now much larger) cap parses; one past throws.
  // Builds ~6 * depth bytes of text — the point of the cap being an
  // input-size bound.
  const std::size_t depth = 3000;
  std::string ok;
  for (std::size_t d = 0; d < depth; ++d) {
    ok += d % 2 == 0 ? "(* x " : "(+ x ";
  }
  ok += 'y';
  ok.append(depth, ')');
  const Cotree t = Cotree::parse(ok);
  t.validate();
  EXPECT_EQ(t.vertex_count(), depth + 1);
}

// --------------------------------------------------- the binary signature

/// Stack-machine decoder for the post-order kind/arity stream — the
/// injectivity argument of DESIGN.md §8, executed: if the stream decodes
/// back to a tree with the same canonical signature, two distinct
/// canonical trees cannot share a stream.
Cotree decode_signature(const std::string& sig) {
  CotreeBuilder b;
  std::vector<cograph::NodeId> stack;
  std::size_t i = 0;
  while (i < sig.size()) {
    const char tag = sig[i++];
    if (tag == cograph::kSigLeaf) {
      stack.push_back(b.leaf());
      continue;
    }
    std::size_t arity = 0;
    int shift = 0;
    while (true) {
      const auto byte = static_cast<unsigned char>(sig[i++]);
      arity |= static_cast<std::size_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    COPATH_CHECK(arity >= 2 && arity <= stack.size());
    const std::span<const cograph::NodeId> kids(
        stack.data() + (stack.size() - arity), arity);
    const cograph::NodeId node =
        b.node(tag == cograph::kSigUnion ? cograph::NodeKind::Union
                                         : cograph::NodeKind::Join,
               kids);
    stack.resize(stack.size() - arity);
    stack.push_back(node);
  }
  COPATH_CHECK(stack.size() == 1);
  return std::move(b).build(stack.back());
}

TEST(BinarySignature, DecodesBackToTheSameCanonicalClass) {
  for (unsigned trial = 0; trial < 40; ++trial) {
    const Cotree t = testing::random_cotree(1 + trial * 7, 9100 + trial);
    const auto form = canonical_form(t);
    const Cotree decoded = decode_signature(form.signature);
    const auto again = canonical_form(decoded);
    EXPECT_EQ(again.signature, form.signature) << trial;
    EXPECT_EQ(again.key, form.key) << trial;
    EXPECT_EQ(again.hash, form.hash) << trial;
  }
}

TEST(BinarySignature, TwinsShareItDistinctClassesDoNot) {
  util::Rng rng(41990);
  std::vector<std::string> signatures;
  for (const auto& t : testing::large_families()) {
    const auto base = canonical_form(t);
    // Every member of the equivalence class: same bytes.
    const Cotree twin = testing::random_twin(t, rng);
    EXPECT_EQ(canonical_form(twin).signature, base.signature);
    signatures.push_back(base.signature);
  }
  // Distinct families: distinct bytes (they are non-isomorphic graphs).
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    for (std::size_t j = i + 1; j < signatures.size(); ++j) {
      EXPECT_NE(signatures[i], signatures[j]) << i << " vs " << j;
    }
  }
}

TEST(BinarySignature, ComplementFlipsTheSignature) {
  const Cotree t = testing::random_cotree(40, 321);
  EXPECT_NE(canonical_form(t).signature,
            canonical_form(t.complement()).signature);
}

// --------------------------------------------------------- the express lane

void expect_equal_results(const SolveResult& got, const SolveResult& want,
                          const std::string& what) {
  ASSERT_EQ(got.ok, want.ok) << what << ": " << got.error;
  EXPECT_EQ(got.backend, want.backend) << what;
  EXPECT_EQ(got.routed, want.routed) << what;
  EXPECT_EQ(got.vertex_count, want.vertex_count) << what;
  EXPECT_EQ(got.cover.paths, want.cover.paths) << what;
  EXPECT_EQ(got.optimal_size, want.optimal_size) << what;
  EXPECT_EQ(got.minimum, want.minimum) << what;
  EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path) << what;
  EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle) << what;
  EXPECT_EQ(got.cycle, want.cycle) << what;
  EXPECT_EQ(got.stats_valid, want.stats_valid) << what;
  EXPECT_EQ(got.trace_valid, want.trace_valid) << what;
}

TEST(ExpressLane, BitwiseEqualToTheGenericDispatchPath) {
  // The express solve IS the sequential sweep: identical covers, verdicts,
  // cycles, and routing metadata to Solver's registry path, across the
  // family sweeps and options combinations.
  const Solver solver;
  exec::Arena arena;
  for (const auto& t : testing::large_families()) {
    for (const Backend b : {Backend::Sequential, Backend::Adaptive}) {
      for (const bool cycle : {false, true}) {
        SolveOptions opts;
        opts.backend = b;
        opts.want_hamiltonian_cycle = cycle;
        opts.validate = true;
        ASSERT_TRUE(
            service::express_eligible(t.vertex_count(), opts));
        const Instance inst = Instance::view(t);
        const SolveResult express =
            service::solve_express(inst, "x", opts, arena);
        const SolveResult generic =
            solver.solve(SolveRequest{Instance::view(t), opts, "x"});
        expect_equal_results(express, generic, core::to_string(b));
        EXPECT_TRUE(express.validation.ok) << express.validation.error;
        EXPECT_EQ(express.label, "x");
      }
    }
  }
  // compute_verdicts off: the -1 sentinel and the cycle-attempt verdict.
  for (unsigned trial = 0; trial < 25; ++trial) {
    const Cotree t = testing::random_cotree(1 + trial * 13, 66100 + trial);
    SolveOptions opts;
    opts.backend = Backend::Adaptive;
    opts.compute_verdicts = false;
    opts.want_hamiltonian_cycle = trial % 2 == 0;
    const Instance inst = Instance::view(t);
    const SolveResult express =
        service::solve_express(inst, {}, opts, arena);
    const SolveResult generic =
        solver.solve(SolveRequest{Instance::view(t), opts, {}});
    expect_equal_results(express, generic, "verdictless " +
                                               std::to_string(trial));
    EXPECT_EQ(express.optimal_size, -1);
  }
}

TEST(ExpressLane, EligibleForEveryHostSweepRequest) {
  for (const Backend b : {Backend::Sequential, Backend::Adaptive}) {
    SolveOptions opts;
    opts.backend = b;
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{1} << 14, std::size_t{1} << 22}) {
      EXPECT_TRUE(service::express_eligible(n, opts))
          << core::to_string(b) << " n=" << n;
    }
  }
  for (const Backend b : {Backend::Native, Backend::Pram, Backend::Parallel}) {
    SolveOptions opts;
    opts.backend = b;
    EXPECT_FALSE(service::express_eligible(4, opts)) << core::to_string(b);
  }
}

TEST(ExpressLane, StructuredFailuresOnBadInstances) {
  exec::Arena arena;
  SolveOptions opts;
  const SolveResult res =
      service::solve_express(Instance::text("(* oops"), "bad", opts, arena);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
  EXPECT_EQ(res.label, "bad");
}

TEST(ExpressLane, ServiceSmallRequestsClaimNoNativeThreadLease) {
  Service::Options sopts;
  sopts.workers = 2;
  Service svc(sopts);
  std::vector<std::future<SolveResult>> futs;
  for (unsigned i = 0; i < 24; ++i) {
    const std::string text =
        testing::random_cotree(1 + i * 9, 7000 + i).format();
    futs.push_back(svc.submit(SolveRequest{Instance::text(text), {},
                                           std::to_string(i)}));
  }
  for (auto& f : futs) ASSERT_TRUE(f.get().ok);
  const auto stats = svc.stats();
  // Every computed request (i.e. every cache miss) went express; nobody
  // claimed a thread lease.
  EXPECT_EQ(stats.lease_acquires, 0u);
  EXPECT_EQ(stats.express_solves, stats.cache_misses);
  EXPECT_GT(stats.express_solves, 0u);

  // An explicit Native request takes the generic path, still lease-free.
  SolveOptions native = sopts.solve;
  native.backend = Backend::Native;
  const Cotree t = testing::random_cotree(60, 1);  // outlives the worker
  auto f = svc.submit(SolveRequest{Instance::view(t), native, "native"});
  ASSERT_TRUE(f.get().ok);
  EXPECT_EQ(svc.stats().express_solves, stats.express_solves);
  EXPECT_EQ(svc.stats().lease_acquires, 0u);
}

// ------------------------------------------------- the sequential kernel

TEST(SolveKernel, SolverHostSweepBinarizesOnce) {
  // A warm Solver::solve on the host-sweep route must draw exactly the
  // arena buffers of one kernel call: one binarization shared by the
  // cover and every verdict. A second binarization (a verdict helper
  // re-deriving the tree) adds a whole binarize + leftist set of acquires.
  exec::Arena& arena = exec::Arena::for_this_thread();
  const std::size_t big = std::size_t{1} << 14;
  for (const auto& [backend, n] :
       {std::pair{Backend::Sequential, std::size_t{300}},
        std::pair{Backend::Sequential, big},
        std::pair{Backend::Adaptive, big}}) {
    const std::string what =
        std::string(core::to_string(backend)) + " n=" + std::to_string(n);
    const Cotree t = testing::random_cotree(n, 5150 + n);
    SolveOptions opts;
    opts.backend = backend;
    const Solver solver(opts);
    ASSERT_TRUE(solver.solve(Instance::view(t)).ok) << what;  // warm-up

    std::uint64_t before = arena.stats().acquires;
    const SolveResult via_solver = solver.solve(Instance::view(t));
    const std::uint64_t solver_acquires = arena.stats().acquires - before;
    before = arena.stats().acquires;
    const SolveResult direct = service::solve_sweep(t, {}, opts, arena);
    const std::uint64_t kernel_acquires = arena.stats().acquires - before;

    ASSERT_TRUE(via_solver.ok) << what << ": " << via_solver.error;
    ASSERT_TRUE(direct.ok) << what;
    EXPECT_GT(kernel_acquires, 0u) << what;
    EXPECT_EQ(solver_acquires, kernel_acquires) << what;
    EXPECT_EQ(via_solver.routed, Backend::Sequential) << what;
    expect_equal_results(via_solver, direct, what);
  }
}

// ------------------------------------------- whole-request allocation budget

/// The zero-allocation steady state, end to end: after warm-up, repeated
/// Service requests — cache hits AND full express solves — perform zero
/// arena-fresh allocations (every parse stack, canonicalization buffer,
/// binarize worklist, leaf-count array, and sweep structure is a recycled
/// arena buffer). The Service aggregates its workers' arena counters per
/// request, so the property is observable from outside; a single worker
/// makes the accounting deterministic, and a warm sentinel request fences
/// the final aggregation before the counters are read.
void expect_zero_fresh_allocs_when_warm(bool use_cache) {
  Service::Options sopts;
  sopts.workers = 1;
  sopts.use_cache = use_cache;
  Service svc(sopts);
  std::vector<std::string> texts;
  for (unsigned i = 0; i < 8; ++i) {
    texts.push_back(
        testing::random_cotree(16 + i * 37, 90210 + i).format());
  }
  const auto round = [&] {
    std::vector<std::future<SolveResult>> futs;
    futs.reserve(texts.size());
    for (const auto& text : texts) {
      futs.push_back(svc.submit(SolveRequest{Instance::text(text), {}, {}}));
    }
    for (auto& f : futs) ASSERT_TRUE(f.get().ok);
  };
  // Two warm-up rounds: the first populates the arena's size classes (and
  // the cache, when enabled), the second fences its own aggregation.
  round();
  round();
  const auto warm = svc.stats();
  EXPECT_GT(warm.arena_acquires, 0u);  // scratch IS arena-routed

  for (int r = 0; r < 5; ++r) round();
  const auto after = svc.stats();
  EXPECT_EQ(after.arena_fresh_allocs, warm.arena_fresh_allocs)
      << "steady-state requests must reuse arena buffers, never allocate "
         "fresh ones (use_cache = "
      << use_cache << ")";
  EXPECT_GT(after.arena_acquires, warm.arena_acquires);
  if (use_cache) {
    EXPECT_GT(after.cache_hits, 0u);
  } else {
    EXPECT_EQ(after.express_solves, after.cache_misses + 8 * 7)
        << "cache off: every request is a full express solve";
  }
}

TEST(FrontendAllocations, WarmCacheHitsAreArenaFreshFree) {
  expect_zero_fresh_allocs_when_warm(/*use_cache=*/true);
}

TEST(FrontendAllocations, WarmExpressSolvesAreArenaFreshFree) {
  expect_zero_fresh_allocs_when_warm(/*use_cache=*/false);
}

TEST(FrontendAllocations, ParseAloneIsArenaFreshFreeWhenWarm) {
  // Unit-level version of the same property: repeated parses of the same
  // shape stop touching the heap for scratch after the first.
  exec::Arena& arena = exec::Arena::for_this_thread();
  const std::string text = testing::random_cotree(900, 5).format();
  (void)Cotree::parse(text);
  (void)canonical_form(Cotree::parse(text));
  const auto warm = arena.stats().fresh_allocs;
  for (int r = 0; r < 4; ++r) {
    const Cotree t = Cotree::parse(text);
    (void)canonical_form(t);
  }
  EXPECT_EQ(arena.stats().fresh_allocs, warm);
}

}  // namespace
}  // namespace copath
