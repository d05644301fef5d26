// Daemon concurrency stress: many pipelining clients against a deliberately
// small server (tiny service queue, tiny per-connection window) so the
// backpressure machinery — parked requests, paused reads, completion-order
// responses — actually engages, plus graceful drain racing live traffic.
//
// The suite name matches the TSan CI job's -R filter: the interesting bugs
// here are cross-thread (solver workers encode responses and touch the
// completion queue while the loop thread owns the sockets), so this file's
// main value is under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "copath.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "invariants.hpp"
#include "testing.hpp"

namespace copath {
namespace {

namespace proto = net::protocol;
using proto::Status;

struct Workload {
  std::vector<std::string> texts;
  std::vector<std::string> signatures;
};

Workload make_workload(std::size_t count) {
  Workload w;
  for (std::size_t i = 0; i < count; ++i) {
    const Cotree t = testing::random_cotree(3 + i * 5 % 40, 71000 + i);
    w.texts.push_back(t.format());
    w.signatures.push_back(
        canonical_form(t, /*with_algebra_key=*/false).signature);
  }
  return w;
}

std::uint64_t stat(const proto::Response& res, std::string_view key) {
  for (const auto& [k, v] : res.stats) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "missing stats key: " << key;
  return 0;
}

TEST(DaemonStress, PipelinedClientsSaturateATinyServerWithoutLoss) {
  // Small everything: 2 solver workers, an 8-deep service queue, and a
  // 4-request connection window, so clients that pipeline 40 requests at
  // once force parking and read-pausing constantly. Every request must
  // still come back exactly once, Ok, with its own sequence id.
  net::Server::Options sopts;
  sopts.service.workers = 2;
  sopts.service.queue_capacity = 8;
  sopts.inflight_window = 4;
  net::Server server(std::move(sopts));
  const std::uint16_t port = server.port();
  std::thread loop([&server] { server.run(); });

  const Workload w = make_workload(8);
  constexpr int kThreads = 6;
  constexpr int kRequests = 40;
  std::atomic<int> ok{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([&, tid] {
      net::Client cli("127.0.0.1", port);
      std::set<std::uint64_t> pending;
      for (int i = 0; i < kRequests; ++i) {
        const std::size_t pick = (tid * 13 + i * 7) % w.texts.size();
        pending.insert(i % 2 == 0
                           ? cli.send_solve_text(w.texts[pick])
                           : cli.send_solve_signature(w.signatures[pick]));
      }
      cli.flush();
      for (int i = 0; i < kRequests; ++i) {
        const proto::Response res = cli.recv();
        // Each seq answered exactly once, whatever the completion order.
        if (pending.erase(res.seq) == 1 && res.status == Status::Ok &&
            res.result.ok) {
          ok.fetch_add(1);
        } else {
          bad.fetch_add(1);
        }
      }
      EXPECT_TRUE(pending.empty());
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kThreads * kRequests);
  EXPECT_EQ(bad.load(), 0);

  {
    net::Client cli("127.0.0.1", port);
    const proto::Response res = cli.stats();
    ASSERT_EQ(res.status, Status::Ok);
    EXPECT_EQ(stat(res, "completed"),
              static_cast<std::uint64_t>(kThreads * kRequests));
    EXPECT_EQ(stat(res, "bad_frames"), 0u);
    // 8 distinct instances under 480 requests: the canonical cache must
    // have fired.
    EXPECT_GT(stat(res, "cache_hits"), 0u);
    testing::expect_quiescent(res);
    EXPECT_EQ(cli.drain().status, Status::Ok);
  }
  loop.join();
}

TEST(DaemonStress, DrainRacesLiveTrafficAndAlwaysTerminates) {
  net::Server::Options sopts;
  sopts.service.workers = 2;
  sopts.service.queue_capacity = 16;
  net::Server server(std::move(sopts));
  const std::uint16_t port = server.port();
  std::thread loop([&server] { server.run(); });

  const Workload w = make_workload(4);
  constexpr int kThreads = 4;
  std::atomic<int> ok{0};
  std::atomic<int> refused{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([&, tid] {
      // Hammer until the drain cuts the connection. Every response seen
      // must be Ok or a structured Draining refusal — anything else (or a
      // crash, or a hang) is the bug this test exists to catch.
      try {
        net::Client cli("127.0.0.1", port);
        for (int i = 0; i < 100000; ++i) {
          const proto::Response res =
              cli.solve_text(w.texts[(tid + i) % w.texts.size()]);
          if (res.status == Status::Ok) {
            ok.fetch_add(1);
          } else if (res.status == Status::Draining) {
            refused.fetch_add(1);
          } else {
            unexpected.fetch_add(1);
          }
        }
      } catch (const util::CheckError&) {
        // Connection torn down by the drain — the expected exit.
      }
    });
  }

  // Let real traffic build, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.request_drain();
  loop.join();  // must terminate: drain always completes
  for (auto& t : clients) t.join();

  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(unexpected.load(), 0);
}

}  // namespace
}  // namespace copath
