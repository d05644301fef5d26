// The fused batch path end to end: Service::submit_batch bitwise-equal to
// N independent submits (cold AND warm, families + 120 random instances
// including permuted twins), dedup soundness against the independent
// validator, empty/singleton/all-duplicate shapes, per-slot failure
// isolation, the Solver::solve_batch host-sweep lane differential,
// a TSan stress mixing concurrent batches with singles and drain, the
// BatchSolve wire round trip, and the daemon serving a whole batch in one
// frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "copath.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace copath {
namespace {

namespace proto = net::protocol;

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

/// The differential corpus: families + random instances + exact duplicates
/// + permuted/relabeled twins (the canonical-dedup stressors).
std::vector<Cotree> differential_corpus() {
  std::vector<Cotree> keep = testing::small_families();
  util::Rng rng(520001);
  const std::size_t families = keep.size();
  for (unsigned i = 0; keep.size() < families + 120; ++i) {
    keep.push_back(testing::random_cotree(1 + (i * 13) % 80, 520100 + i));
    if (i % 4 == 0) {
      // A fully adversarial member of the same canonical class.
      keep.push_back(testing::random_twin(keep.back(), rng));
    }
    if (i % 5 == 0) {
      // An exact structural duplicate (same resolved tree).
      keep.push_back(keep[keep.size() - 1 - i % 3]);
    }
  }
  return keep;
}

TEST(ServiceBatch, DifferentialAgainstIndependentSubmitsColdAndWarm) {
  const std::vector<Cotree> keep = differential_corpus();

  // workers = 1 on BOTH services: independent submits then process in FIFO
  // order, so the first member of every canonical group computes directly
  // — the same representative the batch core elects — and bitwise equality
  // holds member by member, not just group by group.
  Service::Options sopts;
  sopts.workers = 1;
  sopts.solve.validate = true;
  Service batch_svc(sopts);
  Service indep_svc(sopts);

  for (unsigned round = 0; round < 2; ++round) {  // round 1 is all-warm
    std::vector<SolveRequest> reqs;
    reqs.reserve(keep.size());
    for (unsigned i = 0; i < keep.size(); ++i) {
      SolveRequest req;
      req.instance = Instance::view(keep[i]);
      req.label = "b" + std::to_string(round) + "-" + std::to_string(i);
      if (i % 6 == 0) {
        SolveOptions o = sopts.solve;
        o.want_hamiltonian_cycle = true;
        req.options = o;
      }
      reqs.push_back(std::move(req));
    }

    std::vector<std::future<SolveResult>> singles;
    singles.reserve(reqs.size());
    for (const SolveRequest& req : reqs) {
      singles.push_back(indep_svc.submit(req));
    }
    auto batched = batch_svc.submit_batch(std::move(reqs)).get();
    ASSERT_EQ(batched.size(), keep.size());
    for (unsigned i = 0; i < keep.size(); ++i) {
      expect_equal_core(batched[i], singles[i].get(),
                        "round " + std::to_string(round) + " instance " +
                            std::to_string(i));
    }
  }

  const Service::Stats s = batch_svc.stats();
  EXPECT_EQ(s.batch_submits, 2u);
  EXPECT_GT(s.batch_dedup_hits, 0u);  // duplicates + twins were grouped
  EXPECT_GT(s.packed_solves, 0u);     // groups solved by the kernel
  EXPECT_EQ(s.completed, 2 * keep.size());
}

TEST(ServiceBatch, CachelessDifferentialStaysBitwiseEqual) {
  // use_cache = false flips the core to IdenticalTree dedup; permuted
  // twins must then be solved separately, exactly like independent
  // cacheless submits solve them.
  const std::vector<Cotree> keep = differential_corpus();
  Service::Options sopts;
  sopts.workers = 1;
  sopts.use_cache = false;
  Service batch_svc(sopts);
  Service indep_svc(sopts);

  std::vector<SolveRequest> reqs;
  for (unsigned i = 0; i < keep.size(); ++i) {
    reqs.push_back(SolveRequest{Instance::view(keep[i]), {}, {}});
  }
  std::vector<std::future<SolveResult>> singles;
  for (const SolveRequest& req : reqs) {
    singles.push_back(indep_svc.submit(req));
  }
  auto batched = batch_svc.submit_batch(std::move(reqs)).get();
  ASSERT_EQ(batched.size(), keep.size());
  for (unsigned i = 0; i < keep.size(); ++i) {
    expect_equal_core(batched[i], singles[i].get(),
                      "cacheless instance " + std::to_string(i));
  }
}

TEST(ServiceBatch, DedupedResultsSurviveTheIndependentValidator) {
  // Dedup soundness: every fanned-out result must be a valid MINIMUM cover
  // of its own instance per the independent oracle — not merely equal to
  // the representative's answer.
  std::vector<Cotree> keep;
  util::Rng rng(91001);
  for (unsigned i = 0; i < 24; ++i) {
    keep.push_back(testing::random_cotree(2 + i * 3, 91100 + i));
    keep.push_back(testing::random_twin(keep.back(), rng));  // same class
    keep.push_back(keep[keep.size() - 2]);                   // exact dup
  }
  Service svc;
  std::vector<SolveRequest> reqs;
  for (const Cotree& t : keep) {
    reqs.push_back(SolveRequest{Instance::view(t), {}, {}});
  }
  auto results = svc.submit_batch(std::move(reqs)).get();
  ASSERT_EQ(results.size(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    const auto report = core::validate_path_cover(
        keep[i], results[i].cover, /*require_minimum=*/true);
    EXPECT_TRUE(report.ok) << "instance " << i << ": " << report.error;
  }
  const Service::Stats s = svc.stats();
  EXPECT_GE(s.batch_dedup_hits, keep.size() / 3);  // twins AND dups hit
}

TEST(ServiceBatch, EmptySingletonAndAllDuplicateShapes) {
  Service svc;
  EXPECT_TRUE(svc.submit_batch(std::vector<SolveRequest>{}).get().empty());

  const Cotree t = Cotree::parse("(* (+ a b) (+ c d))");
  auto single = svc.submit_batch(
      std::vector<SolveRequest>{SolveRequest{Instance::view(t), {}, {}}});
  auto direct = svc.submit(SolveRequest{Instance::view(t), {}, {}});
  auto sres = single.get();
  ASSERT_EQ(sres.size(), 1u);
  expect_equal_core(sres[0], direct.get(), "singleton");

  // All-duplicate batch: one solve, k - 1 dedup hits, identical answers.
  const std::uint64_t dedup_before = svc.stats().batch_dedup_hits;
  std::vector<SolveRequest> dups;
  for (unsigned i = 0; i < 16; ++i) {
    dups.push_back(SolveRequest{Instance::view(t), {}, {}});
  }
  auto dres = svc.submit_batch(std::move(dups)).get();
  ASSERT_EQ(dres.size(), 16u);
  for (const SolveResult& r : dres) {
    ASSERT_TRUE(r.ok) << r.error;
    expect_equal_core(r, dres[0], "all-duplicate member");
  }
  EXPECT_EQ(svc.stats().batch_dedup_hits - dedup_before, 15u);
}

TEST(ServiceBatch, InstanceConvenienceOverloadMatchesRequestForm) {
  Service svc;
  const Cotree a = Cotree::parse("(+ (* a b) c)");
  const Cotree b = Cotree::parse("(* (+ x y) (+ z w))");
  const std::vector<Instance> instances = {Instance::view(a),
                                           Instance::view(b)};
  auto res = svc.submit_batch(std::span<const Instance>(instances)).get();
  ASSERT_EQ(res.size(), 2u);
  expect_equal_core(res[0], svc.submit({Instance::view(a), {}, {}}).get(),
                    "span overload slot 0");
  expect_equal_core(res[1], svc.submit({Instance::view(b), {}, {}}).get(),
                    "span overload slot 1");
}

TEST(ServiceBatch, FailuresAreIsolatedPerSlot) {
  Service svc;
  std::vector<SolveRequest> reqs;
  reqs.push_back(SolveRequest{Instance::text("(* a (+ b c))"), {}, "good0"});
  reqs.push_back(SolveRequest{Instance::text("(* broken"), {}, "bad1"});
  reqs.push_back(SolveRequest{Instance::text("(+ x y)"), {}, "good2"});
  reqs.push_back(SolveRequest{Instance::text(""), {}, "bad3"});
  // A duplicate of a failing slot: failure must fan out per slot too.
  reqs.push_back(SolveRequest{Instance::text("(* broken"), {}, "bad4"});
  auto res = svc.submit_batch(std::move(reqs)).get();
  ASSERT_EQ(res.size(), 5u);
  EXPECT_TRUE(res[0].ok) << res[0].error;
  EXPECT_FALSE(res[1].ok);
  EXPECT_FALSE(res[1].error.empty());
  EXPECT_TRUE(res[2].ok) << res[2].error;
  EXPECT_FALSE(res[3].ok);
  EXPECT_FALSE(res[4].ok);
  // Labels ride through both the success and failure paths.
  EXPECT_EQ(res[0].label, "good0");
  EXPECT_EQ(res[1].label, "bad1");
  EXPECT_EQ(res[4].label, "bad4");
}

TEST(ServiceBatch, DrainRefusesWholeBatchStructurally) {
  Service svc;
  svc.drain();
  std::vector<SolveRequest> reqs;
  reqs.push_back(SolveRequest{Instance::text("(+ a b)"), {}, "x"});
  reqs.push_back(SolveRequest{Instance::text("(* c d)"), {}, "y"});
  auto res = svc.submit_batch(std::move(reqs)).get();
  ASSERT_EQ(res.size(), 2u);
  for (const SolveResult& r : res) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "service is draining");
  }
}

// ---------------------------------------------------------- Solver lane

TEST(SolverBatch, RerouteBitwiseEqualToPerInstanceSolves) {
  // Host-sweep instances (through the fused core), large ones, duplicates,
  // and a parse failure — positional results must match per-instance
  // solve() exactly.
  std::vector<Cotree> keep;
  for (unsigned i = 0; i < 40; ++i) {
    keep.push_back(testing::random_cotree(1 + (i * 7) % 70, 73000 + i));
  }
  keep.push_back(cograph::clique(300));
  std::vector<SolveRequest> reqs;
  for (const Cotree& t : keep) {
    reqs.push_back(SolveRequest{Instance::view(t), {}, {}});
  }
  reqs.push_back(reqs[3]);  // exact duplicate -> IdenticalTree group
  reqs.push_back(SolveRequest{Instance::text("(+ oops"), {}, "broken"});

  SolveOptions defaults;
  defaults.validate = true;
  defaults.batch_workers = 3;
  Solver solver(defaults);
  const auto batch = solver.solve_batch(reqs);
  ASSERT_EQ(batch.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expect_equal_core(batch[i], solver.solve(reqs[i]),
                      "solver batch slot " + std::to_string(i));
  }
  EXPECT_FALSE(batch.back().ok);  // the parse failure stayed isolated
}

TEST(SolverBatch, AdaptiveBatchStillBitwiseEqualToSequential) {
  // The adaptive_test acceptance shape, against the fused lane: Adaptive
  // instances through solve_batch == per-request Sequential.
  std::vector<Cotree> keep;
  for (unsigned i = 0; i < 60; ++i) {
    keep.push_back(testing::random_cotree(1 + (i * 11) % 50, 74000 + i));
  }
  SolveOptions aopt;
  aopt.backend = Backend::Adaptive;
  Solver asolver(aopt);
  std::vector<SolveRequest> reqs;
  for (const Cotree& t : keep) {
    reqs.push_back(SolveRequest{Instance::view(t), {}, {}});
  }
  const auto ares = asolver.solve_batch(reqs);

  SolveOptions sopt;
  sopt.backend = Backend::Sequential;
  const Solver ssolver(sopt);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const SolveResult sres = ssolver.solve(Instance::view(keep[i]));
    ASSERT_TRUE(ares[i].ok) << ares[i].error;
    EXPECT_EQ(ares[i].routed, Backend::Sequential);
    EXPECT_EQ(ares[i].cover.paths, sres.cover.paths) << i;
    EXPECT_EQ(ares[i].optimal_size, sres.optimal_size) << i;
    EXPECT_EQ(ares[i].hamiltonian_cycle, sres.hamiltonian_cycle) << i;
  }
}

// -------------------------------------------------------------- stress

TEST(BatchStress, ConcurrentBatchesSinglesAndDrainStayStructured) {
  // TSan coverage: batches and singles racing through one small-queue
  // service while drain fires mid-flight. Every future must resolve to ok
  // or a structured refusal — no crashes, no hangs, no lost sinks.
  Service::Options sopts;
  sopts.workers = 3;
  sopts.queue_capacity = 8;
  Service svc(sopts);

  std::vector<Cotree> keep;
  for (unsigned i = 0; i < 12; ++i) {
    keep.push_back(testing::random_cotree(2 + i * 5, 95000 + i));
  }

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> resolved{0};
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      while (!go.load()) std::this_thread::yield();
      for (unsigned round = 0; round < 10; ++round) {
        if ((tid + round) % 2 == 0) {
          std::vector<SolveRequest> reqs;
          for (unsigned k = 0; k < 6; ++k) {
            reqs.push_back(SolveRequest{
                Instance::view(keep[(tid * 7 + round + k) % keep.size()]),
                {},
                {}});
          }
          auto res = svc.submit_batch(std::move(reqs)).get();
          for (const SolveResult& r : res) {
            EXPECT_TRUE(r.ok || !r.error.empty());
          }
          resolved.fetch_add(res.size());
        } else {
          auto res =
              svc.submit(SolveRequest{
                     Instance::view(keep[(tid + round) % keep.size()]),
                     {},
                     {}})
                  .get();
          EXPECT_TRUE(res.ok || !res.error.empty());
          resolved.fetch_add(1);
        }
      }
    });
  }
  go.store(true);
  std::this_thread::yield();
  svc.drain();  // races the submitters: refusals must stay structured
  for (auto& t : threads) t.join();
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.completed, s.submitted);
  EXPECT_EQ(resolved.load(), s.submitted);
}

// ------------------------------------------------------------- protocol

TEST(BatchProtocol, RequestRoundTripsThroughParsers) {
  const std::string text = "(* (+ a b) c)";
  const Cotree t = Cotree::parse(text);
  const std::string sig =
      canonical_form(t, /*with_algebra_key=*/false).signature;
  const proto::BatchItem items[] = {
      proto::BatchItem{false, text},
      proto::BatchItem{true, sig},
  };
  proto::WireOptions wopts;
  wopts.flags = proto::kOptWantVerdicts | proto::kOptValidate;
  std::string wire;
  proto::append_batch_request(wire, 42, wopts, items);

  std::string payload;
  ASSERT_EQ(proto::extract_frame(wire, &payload), proto::Extract::Frame);
  proto::Request req;
  ASSERT_TRUE(proto::parse_request(payload, &req));
  EXPECT_EQ(req.verb, proto::Verb::BatchSolve);
  EXPECT_EQ(req.seq, 42u);
  EXPECT_EQ(req.opts, wopts);

  std::vector<proto::BatchItem> parsed;
  std::string why;
  ASSERT_TRUE(proto::parse_batch_body(req.body, proto::kMaxBatchItems,
                                      &parsed, &why))
      << why;
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_FALSE(parsed[0].is_signature);
  EXPECT_EQ(parsed[0].body, text);
  EXPECT_TRUE(parsed[1].is_signature);
  EXPECT_EQ(parsed[1].body, sig);
}

TEST(BatchProtocol, MalformedBodiesAreRejectedWithStructuredReasons) {
  std::vector<proto::BatchItem> items;
  std::string why;
  const auto why_of = [&](std::string body, std::size_t cap) {
    EXPECT_FALSE(proto::parse_batch_body(body, cap, &items, &why));
    EXPECT_TRUE(items.empty());
    return why;
  };
  using std::string;
  // Truncated before the count.
  EXPECT_NE(why_of(string("\x01", 1), 8).find("truncated"), string::npos);
  // Zero items.
  EXPECT_NE(why_of(string("\x00\x00", 2), 8).find("zero"), string::npos);
  // Count above the operational cap.
  EXPECT_NE(why_of(string("\x09\x00", 2), 8).find("exceeds cap"),
            string::npos);
  // Count above the protocol ceiling, whatever the server configured.
  EXPECT_NE(why_of(string("\xff\x7f", 2), 1u << 20).find("exceeds cap"),
            string::npos);
  // Item header truncated.
  EXPECT_NE(why_of(string("\x01\x00\x01", 3), 8).find("header truncated"),
            string::npos);
  // Unknown item kind.
  EXPECT_NE(why_of(string("\x01\x00\x07\x01\x00\x00\x00x", 8), 8)
                .find("unknown kind"),
            string::npos);
  // Empty item body.
  EXPECT_NE(why_of(string("\x01\x00\x01\x00\x00\x00\x00", 7), 8)
                .find("is empty"),
            string::npos);
  // Item body truncated (claims 4 bytes, has 1).
  EXPECT_NE(why_of(string("\x01\x00\x01\x04\x00\x00\x00x", 8), 8)
                .find("body truncated"),
            string::npos);
  // Trailing bytes after the last item.
  EXPECT_NE(why_of(string("\x01\x00\x01\x01\x00\x00\x00xZZ", 10), 8)
                .find("trailing"),
            string::npos);
}

TEST(BatchProtocol, ResponseRoundTripsAndRejectsTruncation) {
  SolveResult ok_res;
  ok_res.ok = true;
  ok_res.vertex_count = 3;
  ok_res.optimal_size = 1;
  ok_res.minimum = true;
  ok_res.hamiltonian_path = true;
  ok_res.cover.paths = {{0, 2, 1}};
  const proto::BatchResponseEntry entries[] = {
      proto::BatchResponseEntry{proto::Status::Ok, &ok_res, {}},
      proto::BatchResponseEntry{proto::Status::InvalidSignature, nullptr,
                                "bad sig"},
      proto::BatchResponseEntry{proto::Status::SolveError, nullptr,
                                "engine said no"},
  };
  std::string frame = proto::encode_batch_response_frame(7, entries);
  std::string payload;
  ASSERT_EQ(proto::extract_frame(frame, &payload), proto::Extract::Frame);
  proto::Response out;
  ASSERT_TRUE(proto::parse_response(payload, &out));
  EXPECT_EQ(out.verb, proto::Verb::BatchSolve);
  EXPECT_EQ(out.seq, 7u);
  EXPECT_EQ(out.status, proto::Status::Ok);
  ASSERT_EQ(out.batch.size(), 3u);
  EXPECT_EQ(out.batch[0].status, proto::Status::Ok);
  EXPECT_TRUE(out.batch[0].result.ok);
  EXPECT_EQ(out.batch[0].result.paths,
            (std::vector<std::vector<std::uint32_t>>{{0, 2, 1}}));
  EXPECT_EQ(out.batch[1].status, proto::Status::InvalidSignature);
  EXPECT_EQ(out.batch[1].error, "bad sig");
  EXPECT_EQ(out.batch[2].status, proto::Status::SolveError);
  EXPECT_EQ(out.batch[2].error, "engine said no");

  // Exact-consumption hardening: every strict prefix must be rejected.
  for (std::size_t cut = 10; cut < payload.size(); ++cut) {
    EXPECT_FALSE(proto::parse_response(
        std::string_view(payload).substr(0, cut), &out))
        << "prefix of " << cut << " bytes decoded";
  }
}

// --------------------------------------------------------------- daemon

struct DaemonFixture {
  explicit DaemonFixture(net::Server::Options opts = {}) {
    opts.port = 0;
    server = std::make_unique<net::Server>(std::move(opts));
    thread = std::thread([this] { server->run(); });
  }
  ~DaemonFixture() {
    if (server != nullptr) {
      server->request_drain();
      thread.join();
    }
  }
  [[nodiscard]] net::Client connect() const {
    return net::Client("127.0.0.1", server->port());
  }

  std::unique_ptr<net::Server> server;
  std::thread thread;
};

TEST(DaemonBatch, OneFrameDifferentialAgainstInProcessService) {
  DaemonFixture daemon;
  net::Client cli = daemon.connect();
  Service svc;

  std::vector<Cotree> keep;
  std::vector<std::string> texts;
  std::vector<std::string> sigs;
  for (unsigned i = 0; i < 10; ++i) {
    keep.push_back(testing::random_cotree(2 + i * 9, 97000 + i));
    texts.push_back(keep.back().format());
    sigs.push_back(
        canonical_form(keep.back(), /*with_algebra_key=*/false).signature);
  }
  std::vector<proto::BatchItem> items;
  for (unsigned i = 0; i < keep.size(); ++i) {
    items.push_back(proto::BatchItem{false, texts[i]});
    items.push_back(proto::BatchItem{true, sigs[i]});  // canonical twin
  }
  const proto::Response res = cli.solve_batch(items);
  ASSERT_EQ(res.status, proto::Status::Ok) << res.error;
  ASSERT_EQ(res.batch.size(), items.size());
  for (unsigned i = 0; i < keep.size(); ++i) {
    const SolveResult local =
        svc.submit({Instance::view(keep[i]), {}, {}}).get();
    ASSERT_TRUE(local.ok) << local.error;
    for (const std::size_t slot : {2 * i, 2 * i + 1}) {
      const auto& got = res.batch[slot];
      ASSERT_EQ(got.status, proto::Status::Ok) << got.error;
      EXPECT_EQ(got.result.vertex_count, local.vertex_count) << slot;
      EXPECT_EQ(got.result.optimal_size, local.optimal_size) << slot;
      EXPECT_EQ(got.result.minimum, local.minimum) << slot;
      EXPECT_EQ(got.result.paths.size(), local.cover.paths.size()) << slot;
    }
  }

  // The daemon's dedup counters moved: each signature item shares its text
  // twin's canonical group inside the one batch.
  const proto::Response st = cli.stats();
  std::uint64_t batches = 0, dedup = 0;
  for (const auto& [k, v] : st.stats) {
    if (k == "batch_submits") batches = v;
    if (k == "batch_dedup_hits") dedup = v;
  }
  EXPECT_EQ(batches, 1u);
  EXPECT_GE(dedup, keep.size());
}

TEST(DaemonBatch, PerSlotInvalidSignatureLeavesTheRestSolving) {
  DaemonFixture daemon;
  net::Client cli = daemon.connect();
  const std::string good_text = "(* (+ a b) c)";
  const std::string bad_sig = "\x07\x07\x07";  // unknown tag bytes
  const std::string bad_text = "(* broken";
  std::vector<proto::BatchItem> items = {
      proto::BatchItem{false, good_text},
      proto::BatchItem{true, bad_sig},
      proto::BatchItem{false, bad_text},
  };
  const proto::Response res = cli.solve_batch(items);
  ASSERT_EQ(res.status, proto::Status::Ok) << res.error;
  ASSERT_EQ(res.batch.size(), 3u);
  EXPECT_EQ(res.batch[0].status, proto::Status::Ok) << res.batch[0].error;
  EXPECT_TRUE(res.batch[0].result.ok);
  EXPECT_EQ(res.batch[1].status, proto::Status::InvalidSignature);
  EXPECT_FALSE(res.batch[1].error.empty());
  EXPECT_EQ(res.batch[2].status, proto::Status::SolveError);
  EXPECT_FALSE(res.batch[2].error.empty());
}

TEST(DaemonBatch, StructuralRefusalsComeBackAsBadFrame) {
  net::Server::Options opts;
  opts.max_batch_items = 4;
  DaemonFixture daemon(std::move(opts));
  net::Client cli = daemon.connect();

  // Zero items: the encoder will happily write count 0; the server must
  // refuse it with a reason, not dispatch it.
  const proto::Response zero = cli.solve_batch({});
  EXPECT_EQ(zero.status, proto::Status::BadFrame);
  EXPECT_NE(zero.error.find("zero"), std::string::npos) << zero.error;

  // Above the server's operational cap.
  const std::string text = "(+ a b)";
  std::vector<proto::BatchItem> many(5, proto::BatchItem{false, text});
  const proto::Response big = cli.solve_batch(many);
  EXPECT_EQ(big.status, proto::Status::BadFrame);
  EXPECT_NE(big.error.find("exceeds cap"), std::string::npos) << big.error;

  // The connection survives structural refusals: a well-formed batch on
  // the same socket still solves.
  std::vector<proto::BatchItem> fine(3, proto::BatchItem{false, text});
  const proto::Response ok = cli.solve_batch(fine);
  ASSERT_EQ(ok.status, proto::Status::Ok) << ok.error;
  ASSERT_EQ(ok.batch.size(), 3u);
  for (const auto& slot : ok.batch) {
    EXPECT_EQ(slot.status, proto::Status::Ok) << slot.error;
  }
}

}  // namespace
}  // namespace copath
