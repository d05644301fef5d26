// TSan stress suite for copath::Service: many submitter threads hammering
// submit() with a duplicate-heavy workload (few canonical classes, many
// shuffled/relabeled twins), concurrent stats() readers, and submit racing
// shutdown. Functional assertions are deliberately coarse (every future
// resolves, minima match the class) — the point of this suite is to give
// ThreadSanitizer a dense interleaving of queue, cache-shard and promise
// traffic; the CI tsan job runs it by suite name.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "copath.hpp"
#include "invariants.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace copath {
namespace {

TEST(ServiceStress, ManyThreadsDuplicateHeavyHammer) {
  // 6 canonical classes x 4 presentations each; every submitter cycles
  // through all 24, so almost every request has concurrent twins.
  constexpr std::size_t kClasses = 6;
  constexpr std::size_t kVariantsPerClass = 4;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 30;

  std::vector<std::vector<Cotree>> variants(kClasses);
  std::vector<std::int64_t> expected(kClasses);
  util::Rng rng(6161);
  for (std::size_t c = 0; c < kClasses; ++c) {
    const Cotree base =
        testing::random_cotree(8 + c * 11, 550000 + c);
    expected[c] = path_cover_size(base);
    variants[c].push_back(base);
    for (std::size_t v = 1; v < kVariantsPerClass; ++v) {
      variants[c].push_back(testing::random_twin(variants[c][0], rng));
    }
  }

  Service::Options sopts;
  sopts.workers = 4;
  sopts.queue_capacity = 32;  // small enough that backpressure engages
  sopts.cache.shards = 4;
  sopts.cache.capacity = 64;
  Service svc(sopts);

  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {  // concurrent stats() traffic (TSan coverage;
    std::uint64_t sink = 0;  // counters are relaxed, so no ordering claims)
    while (!stop_reader.load()) {
      sink += svc.stats().completed;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    (void)sink;
  });

  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int th = 0; th < kThreads; ++th) {
    submitters.emplace_back([&, th] {
      std::vector<std::pair<std::size_t, std::future<SolveResult>>> futs;
      futs.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t c =
            static_cast<std::size_t>(th + i) % kClasses;
        const std::size_t v =
            static_cast<std::size_t>(i) % kVariantsPerClass;
        std::string label = "t";
        label += std::to_string(th);
        futs.emplace_back(
            c, svc.submit(SolveRequest{Instance::view(variants[c][v]),
                                       {},
                                       std::move(label)}));
      }
      for (auto& [c, fut] : futs) {
        const SolveResult res = fut.get();
        if (!res.ok ||
            static_cast<std::int64_t>(res.cover.size()) != expected[c] ||
            res.optimal_size != expected[c] || !res.minimum) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  stop_reader.store(true);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  const auto stats = svc.stats();
  const auto total = static_cast<std::uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.completed, total);
  // Every request performs exactly one cache probe.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total);
  // Duplicate-heavy by construction: the vast majority must be served
  // without recomputation (24 distinct presentations exist; allow slack
  // for first-touch misses and concurrent misses on one class).
  EXPECT_GE(stats.cache_hits, total - 48);
  testing::expect_quiescent(stats);
}

TEST(ServiceStress, SubmitRacesShutdownEveryFutureResolves) {
  for (int round = 0; round < 4; ++round) {
    Service::Options sopts;
    sopts.workers = 2;
    sopts.queue_capacity = 8;
    Service svc(sopts);
    const Cotree t = testing::random_cotree(12, 777);

    std::vector<std::thread> submitters;
    std::atomic<int> resolved{0};
    std::atomic<int> bad{0};
    for (int th = 0; th < 4; ++th) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 25; ++i) {
          auto fut =
              svc.submit(SolveRequest{Instance::view(t), {}, {}});
          const SolveResult res = fut.get();
          resolved.fetch_add(1);
          // Either a real answer or the structured shutdown failure.
          const bool ok_answer = res.ok && res.cover.size() >= 1;
          const bool shut =
              !res.ok && res.error.find("shut down") != std::string::npos;
          if (!ok_answer && !shut) bad.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
    svc.shutdown();
    for (auto& th : submitters) th.join();
    EXPECT_EQ(resolved.load(), 100);
    EXPECT_EQ(bad.load(), 0);
    testing::expect_quiescent(svc);
  }
}

}  // namespace
}  // namespace copath
