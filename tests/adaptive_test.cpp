// Backend::Adaptive and Backend::Native — aliases of Backend::Sequential
// kept for the wire (bytes 8 and 7) and existing clients. The contract
// under test: each alias is registered under its own name, and its answers
// are bitwise-equal to Backend::Sequential — covers, minima, verdicts,
// routed == Sequential — across family sweeps, 120 random instances,
// solve_batch, Service concurrency, counting, and the wire; the Service
// default is Sequential itself, and no entry point claims a thread lease.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

#include "copath.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "testing.hpp"

namespace copath {
namespace {

TEST(Adaptive, RegisteredWithRoundTrippingNameAndExact) {
  const auto entry = BackendRegistry::instance().find(Backend::Adaptive);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "adaptive");
  EXPECT_TRUE(entry->exact);
  EXPECT_EQ(core::backend_from_string("adaptive"), Backend::Adaptive);
}

TEST(Adaptive, BitwiseEqualToSequentialOnFamilySweeps) {
  SolveOptions aopt;
  aopt.backend = Backend::Adaptive;
  aopt.validate = true;
  SolveOptions sopt = aopt;
  sopt.backend = Backend::Sequential;
  for (const auto& t : testing::large_families()) {
    const auto ares = Solver(aopt).solve(Instance::view(t));
    const auto sres = Solver(sopt).solve(Instance::view(t));
    ASSERT_TRUE(ares.ok) << ares.error;
    ASSERT_TRUE(sres.ok) << sres.error;
    EXPECT_EQ(ares.cover.paths, sres.cover.paths) << t.vertex_count();
    EXPECT_EQ(ares.optimal_size, sres.optimal_size);
    EXPECT_EQ(ares.minimum, sres.minimum);
    EXPECT_EQ(ares.hamiltonian_path, sres.hamiltonian_path);
    EXPECT_EQ(ares.hamiltonian_cycle, sres.hamiltonian_cycle);
    EXPECT_TRUE(ares.validation.ok) << ares.validation.error;
    EXPECT_EQ(ares.backend, Backend::Adaptive);
    EXPECT_EQ(ares.routed, Backend::Sequential);
  }
  for (const auto& t : testing::small_families()) {
    const auto ares = Solver(aopt).solve(Instance::view(t));
    const auto sres = Solver(sopt).solve(Instance::view(t));
    ASSERT_TRUE(ares.ok && sres.ok);
    EXPECT_EQ(ares.cover.paths, sres.cover.paths);
  }
}

TEST(Adaptive, BitwiseEqualToSequentialOn120RandomInstancesViaBatch) {
  // The acceptance differential: 120 random instances through
  // solve_batch under Backend::Adaptive, instance-by-instance
  // bitwise-equal to per-request Sequential solves.
  std::vector<cograph::Cotree> keep;
  keep.reserve(120);
  for (unsigned i = 0; i < 120; ++i) {
    keep.push_back(testing::random_cotree(1 + (i * 13) % 150, 515000 + i));
  }
  std::vector<SolveRequest> reqs(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    reqs[i].instance = Instance::view(keep[i]);
  }

  SolveOptions aopt;
  aopt.backend = Backend::Adaptive;
  aopt.batch_workers = 3;
  Solver asolver(aopt);
  const auto ares = asolver.solve_batch(reqs);

  SolveOptions sopt;
  sopt.backend = Backend::Sequential;
  const Solver ssolver(sopt);
  ASSERT_EQ(ares.size(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const auto sres = ssolver.solve(Instance::view(keep[i]));
    ASSERT_TRUE(ares[i].ok) << i << ": " << ares[i].error;
    ASSERT_TRUE(sres.ok) << i << ": " << sres.error;
    EXPECT_EQ(ares[i].cover.paths, sres.cover.paths) << i;
    EXPECT_EQ(ares[i].optimal_size, sres.optimal_size) << i;
    EXPECT_EQ(ares[i].minimum, sres.minimum) << i;
    EXPECT_EQ(ares[i].hamiltonian_path, sres.hamiltonian_path) << i;
    EXPECT_EQ(ares[i].hamiltonian_cycle, sres.hamiltonian_cycle) << i;
  }
}

TEST(Adaptive, BitwiseEqualToSequentialUnderServiceConcurrency) {
  // Hammer a cache-less Adaptive Service from the test thread and compare
  // every future against direct Sequential.
  Service::Options sopts;
  sopts.workers = 4;
  sopts.use_cache = false;
  sopts.solve.backend = Backend::Adaptive;
  Service svc(sopts);

  std::vector<cograph::Cotree> keep;
  std::vector<std::future<SolveResult>> futures;
  for (unsigned i = 0; i < 120; ++i) {
    keep.push_back(testing::random_cotree(1 + (i * 7) % 120, 303000 + i));
  }
  futures.reserve(keep.size());
  for (auto& t : keep) {
    futures.push_back(svc.submit(SolveRequest{Instance::view(t), {}, {}}));
  }
  SolveOptions seq;
  seq.backend = Backend::Sequential;
  const Solver ssolver(seq);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const auto got = futures[i].get();
    const auto want = ssolver.solve(Instance::view(keep[i]));
    ASSERT_TRUE(got.ok) << i << ": " << got.error;
    EXPECT_EQ(got.cover.paths, want.cover.paths) << i;
    EXPECT_EQ(got.optimal_size, want.optimal_size) << i;
    EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path) << i;
    EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle) << i;
  }
}

/// A loopback copathd for the wire leg, drained on destruction.
struct LoopbackDaemon {
  LoopbackDaemon() : server([] {
    net::Server::Options opts;
    opts.port = 0;
    opts.service.workers = 2;
    return opts;
  }()) {
    thread = std::thread([this] { server.run(); });
  }
  ~LoopbackDaemon() {
    server.request_drain();
    thread.join();
  }
  net::Server server;
  std::thread thread;
};

void expect_sequential_answer(const SolveResult& got, Backend backend,
                              const SolveResult& want,
                              const std::string& what) {
  ASSERT_TRUE(got.ok) << what << ": " << got.error;
  EXPECT_EQ(got.backend, backend) << what;
  EXPECT_EQ(got.routed, Backend::Sequential) << what;
  EXPECT_EQ(got.cover.paths, want.cover.paths) << what;
  EXPECT_EQ(got.optimal_size, want.optimal_size) << what;
  EXPECT_EQ(got.minimum, want.minimum) << what;
  EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path) << what;
  EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle) << what;
}

TEST(Adaptive, AliasAnswersLikeSequentialOnEveryEntryPoint) {
  // Explicit Adaptive and Native requests through Solver::solve,
  // Solver::count, Service::submit and wire bytes 8 and 7 answer
  // bitwise-equal to Sequential with routed == Sequential; a default
  // Service answer reports Sequential; and no miss or batch claims a
  // thread lease, including at n = 2^14.
  constexpr std::size_t kBig = std::size_t{1} << 14;
  std::vector<Cotree> keep;
  for (unsigned i = 0; i < 6; ++i) {
    keep.push_back(testing::random_cotree(1 + i * 37, 818000 + i));
  }
  keep.push_back(testing::random_cotree(kBig, 818100));
  keep.push_back(cograph::caterpillar(kBig));

  SolveOptions ada;
  ada.backend = Backend::Adaptive;
  const Solver sequential;  // Backend::Sequential defaults
  const std::vector<std::pair<Backend, std::uint8_t>> aliases = {
      {Backend::Adaptive, 8}, {Backend::Native, 7}};

  Service::Options sopts;
  sopts.workers = 2;
  Service svc(sopts);
  ASSERT_EQ(svc.options().solve.backend, Backend::Sequential);

  LoopbackDaemon daemon;
  net::Client cli("127.0.0.1", daemon.server.port());

  for (std::size_t i = 0; i < keep.size(); ++i) {
    const Cotree& t = keep[i];
    const std::string what = "instance " + std::to_string(i) +
                             " n=" + std::to_string(t.vertex_count());
    const SolveResult want = sequential.solve(Instance::view(t));
    ASSERT_TRUE(want.ok) << what << ": " << want.error;
    const CountResult want_count =
        sequential.count(SolveRequest{Instance::view(t), {}, {}});
    ASSERT_TRUE(want_count.ok) << what << ": " << want_count.error;
    expect_sequential_answer(
        svc.submit(SolveRequest{Instance::view(t), {}, "d"}).get(),
        Backend::Sequential, want, what + " service default");

    // The wire leg solves the text form, so compare against a direct solve
    // of that same text.
    const std::string text = t.format();
    const SolveResult want_text = sequential.solve(Instance::text(text));
    ASSERT_TRUE(want_text.ok) << what;

    for (const auto& [alias, byte] : aliases) {
      const std::string as = what + " " + core::to_string(alias);
      SolveOptions opts;
      opts.backend = alias;
      const Solver solver(opts);
      expect_sequential_answer(solver.solve(Instance::view(t)), alias, want,
                               as + " solver");
      expect_sequential_answer(
          svc.submit(SolveRequest{Instance::view(t), opts, "a"}).get(),
          alias, want, as + " service");

      const CountResult c =
          solver.count(SolveRequest{Instance::view(t), {}, {}});
      ASSERT_TRUE(c.ok) << as << ": " << c.error;
      EXPECT_EQ(c.vertex_count, want_count.vertex_count) << as;
      EXPECT_EQ(c.path_cover_size, want_count.path_cover_size) << as;
      EXPECT_EQ(c.hamiltonian_path, want_count.hamiltonian_path) << as;
      EXPECT_EQ(c.hamiltonian_cycle, want_count.hamiltonian_cycle) << as;
      EXPECT_FALSE(c.stats_valid) << as;

      net::protocol::WireOptions wire;
      wire.flags = net::protocol::kOptWantVerdicts |
                   net::protocol::kOptExplicitBackend;
      wire.backend = static_cast<std::uint8_t>(alias);
      ASSERT_EQ(wire.backend, byte) << as;
      const net::protocol::Response res = cli.solve_text(text, wire);
      ASSERT_EQ(res.status, net::protocol::Status::Ok) << as << res.error;
      ASSERT_EQ(res.result.paths.size(), want_text.cover.paths.size()) << as;
      for (std::size_t p = 0; p < res.result.paths.size(); ++p) {
        const auto& want_path = want_text.cover.paths[p];
        EXPECT_EQ(res.result.paths[p], std::vector<std::uint32_t>(
                                           want_path.begin(), want_path.end()))
            << as << " path " << p;
      }
      EXPECT_EQ(res.result.optimal_size, want_text.optimal_size) << as;
      EXPECT_EQ(res.result.hamiltonian_path, want_text.hamiltonian_path)
          << as;
      EXPECT_EQ(res.result.hamiltonian_cycle, want_text.hamiltonian_cycle)
          << as;
    }
  }

  // A batch of fresh n = 2^14 instances (default and Adaptive members).
  const Cotree b0 = testing::random_cotree(kBig, 818200);
  const Cotree b1 = testing::random_cotree(kBig + 1, 818201);
  std::vector<SolveRequest> batch;
  batch.push_back(SolveRequest{Instance::view(b0), {}, "b0"});
  batch.push_back(SolveRequest{Instance::view(b1), ada, "b1"});
  batch.push_back(SolveRequest{Instance::view(b0), {}, "b0 again"});
  const auto got = svc.submit_batch(std::move(batch)).get();
  ASSERT_EQ(got.size(), 3u);
  const SolveResult want0 = sequential.solve(Instance::view(b0));
  const SolveResult want1 = sequential.solve(Instance::view(b1));
  expect_sequential_answer(got[0], Backend::Sequential, want0, "batch 0");
  expect_sequential_answer(got[1], Backend::Adaptive, want1, "batch 1");
  expect_sequential_answer(got[2], Backend::Sequential, want0, "batch 2");

  const auto stats = svc.stats();
  EXPECT_EQ(stats.lease_acquires, 0u);
  // One kernel solve per single-request miss, plus the batch's two groups.
  EXPECT_EQ(stats.express_solves, (1 + aliases.size()) * keep.size() + 2u);
}

TEST(Adaptive, CountRoutesHostSweepAndMatchesVerdicts) {
  SolveOptions aopt;
  aopt.backend = Backend::Adaptive;
  const Solver solver(aopt);
  for (const auto& t : testing::large_families()) {
    const auto c = solver.count(SolveRequest{Instance::view(t), {}, {}});
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_EQ(c.path_cover_size, path_cover_size(t));
    EXPECT_EQ(c.hamiltonian_path, has_hamiltonian_path(t));
    EXPECT_EQ(c.hamiltonian_cycle, has_hamiltonian_cycle(t));
    EXPECT_FALSE(c.stats_valid);
  }
}

TEST(NativeBackend, RegisteredAndSelectableThroughSolver) {
  auto& reg = BackendRegistry::instance();
  const auto entry = reg.find(Backend::Native);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "native");
  EXPECT_TRUE(entry->exact);
  EXPECT_EQ(core::backend_from_string("native"), Backend::Native);
}

TEST(NativeBackend, CountAndVerdictHelpersAgreeWithHost) {
  for (const auto& t : testing::large_families()) {
    SolveOptions opts;
    opts.backend = Backend::Native;
    const auto c = Solver(opts).count(SolveRequest{Instance::view(t), {}, {}});
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_EQ(c.path_cover_size, path_cover_size(t));
    EXPECT_EQ(c.hamiltonian_path, has_hamiltonian_path(t));
    EXPECT_EQ(c.hamiltonian_cycle, has_hamiltonian_cycle(t));
    EXPECT_FALSE(c.stats_valid);
  }
}

}  // namespace
}  // namespace copath
