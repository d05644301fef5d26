// End-to-end resilience under deterministic fault injection:
//
//  * ChaosFaultInjector — the injector itself: seeded decision sequences
//    reproduce exactly, Nth-hit plans fire the planned hits and no others,
//    disarm_all silences every registered point.
//  * ResilienceRetryPolicy — the client backoff schedule is deterministic
//    in (seed, retry), jittered within [cap/2, cap], and retries only the
//    statuses that are refusals (never timeouts, never structural errors).
//  * ChaosEventLoop — the timed tick fires without IO traffic (the fix for
//    poll(-1) blocking sweeps forever).
//  * ResilienceDeadline — deadline-expired queued work is SHED with a
//    structured failure and the solve never runs (a counting backend
//    proves it), at the Service layer and over the wire.
//  * ResilienceOverload — bounded parking: past the caps the server
//    answers Overloaded instead of buffering, and a retrying client rides
//    through injected admission refusals.
//  * ChaosPersist — every persist-tier fault point (pwrite, mmap,
//    checksum) degrades to skipped appends or cold misses, never a crash
//    or a wrong answer.
//  * ChaosDaemon — an injected socket-write fault destroys one connection
//    exactly like a real peer reset; the server (and a retrying client)
//    survive.
//  * ChaosKillRestart — the headline drill: kill -9 a daemon child process
//    mid-batch, restart it on the same port and cache directory, and a
//    well-behaved client's RetryPolicy makes the outage invisible while
//    the persistent cache heals the restarted process.
//
// Every suite name starts with Chaos or Resilience so the CI TSan job
// picks the file up with one regex token. This file has a custom main():
// when COPATH_CHAOS_SERVER is set it runs a daemon instead of tests —
// that's how the kill -9 drill gets a clean child process to murder.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "copath.hpp"
#include "net/client.hpp"
#include "net/event_loop.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "testing.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"

namespace copath {
namespace {

namespace proto = net::protocol;
using proto::Status;
using proto::Verb;

/// No fault stays armed past its test, even on assertion failure.
struct FaultGuard {
  FaultGuard() { util::FaultInjector::instance().disarm_all(); }
  ~FaultGuard() { util::FaultInjector::instance().disarm_all(); }
};

/// A fresh cache directory under TMPDIR, recursively removed on exit.
struct TempDir {
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "copath_chaos_XXXXXX")
                           .string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

std::uint64_t counter(const proto::Response& resp, std::string_view key) {
  for (const auto& [k, v] : resp.stats) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "counter not in response: " << key;
  return 0;
}

/// Polls the server's Stats counter `key` until it reaches `value`.
bool wait_for_counter(net::Client& observer, std::string_view key,
                      std::uint64_t value) {
  for (int spin = 0; spin < 1500; ++spin) {
    if (counter(observer.stats(), key) >= value) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// Plug-in backends for deadline/ordering control. 212 blocks on large
// instances while a test holds the sleepy gate (occupies a worker until the
// test releases it); 213 counts invocations (proves a shed request was
// never solved).
constexpr std::uint8_t kSleepyBackend = 212;
constexpr std::uint8_t kCountingBackend = 213;
std::atomic<std::uint64_t> g_counting_solves{0};

/// The gate chaos-sleepy solves wait on. Open unless a test holds it.
class SleepyGate {
 public:
  void hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !held_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;  // guarded by mu_
};

SleepyGate& sleepy_gate() {
  static SleepyGate gate;
  return gate;
}

/// Holds the sleepy gate for one test. release() lets the blocked solves
/// finish; the destructor releases too, so a failed assertion cannot leave
/// a worker blocked and hang the server's teardown.
class SleepyHold {
 public:
  SleepyHold() { sleepy_gate().hold(); }
  ~SleepyHold() { release(); }
  SleepyHold(const SleepyHold&) = delete;
  SleepyHold& operator=(const SleepyHold&) = delete;
  void release() { sleepy_gate().release(); }
};

core::BackendOutput singleton_cover(const Cotree& t) {
  core::BackendOutput out;
  for (std::size_t v = 0; v < t.vertex_count(); ++v) {
    out.cover.paths.push_back({static_cast<VertexId>(v)});
  }
  return out;
}

void ensure_backends() {
  static const bool once = [] {
    BackendRegistry::instance().add(
        static_cast<Backend>(kSleepyBackend), "chaos-sleepy",
        [](const Cotree& t, const core::BackendConfig&) {
          if (t.vertex_count() >= 16) sleepy_gate().wait();
          return singleton_cover(t);
        },
        /*exact=*/false);
    BackendRegistry::instance().add(
        static_cast<Backend>(kCountingBackend), "chaos-counting",
        [](const Cotree& t, const core::BackendConfig&) {
          g_counting_solves.fetch_add(1, std::memory_order_relaxed);
          return singleton_cover(t);
        },
        /*exact=*/false);
    return true;
  }();
  (void)once;
}

// ------------------------------------------------------ ChaosFaultInjector

TEST(ChaosFaultInjector, SameSeedReproducesTheExactDecisionSequence) {
  FaultGuard guard;
  auto& fi = util::FaultInjector::instance();

  const auto run = [&fi](std::uint64_t seed) {
    fi.arm("persist.pwrite", 0.5, seed);
    std::vector<bool> decisions;
    for (int i = 0; i < 200; ++i) {
      decisions.push_back(fi.should_fail("persist.pwrite"));
    }
    return decisions;
  };

  const std::vector<bool> a = run(42);
  const auto st = fi.stats("persist.pwrite");
  EXPECT_EQ(st.evaluations, 200u);
  const auto injected =
      static_cast<std::uint64_t>(std::count(a.begin(), a.end(), true));
  EXPECT_EQ(st.injected, injected);
  // p = 0.5 over 200 draws: both outcomes must actually occur.
  EXPECT_GT(injected, 0u);
  EXPECT_LT(injected, 200u);

  EXPECT_EQ(run(42), a);        // re-arm, same seed: identical sequence
  EXPECT_NE(run(43), a);        // different seed: different sequence
}

TEST(ChaosFaultInjector, ArmedPointsAreIndependentStreams) {
  // Arming a second point must not perturb the first point's decisions —
  // each has its own PRNG stream keyed by (seed, name).
  FaultGuard guard;
  auto& fi = util::FaultInjector::instance();

  fi.arm("persist.pwrite", 0.5, 7);
  std::vector<bool> alone;
  for (int i = 0; i < 100; ++i) {
    alone.push_back(fi.should_fail("persist.pwrite"));
  }

  fi.arm("persist.pwrite", 0.5, 7);
  fi.arm("server.write", 0.5, 7);
  std::vector<bool> together;
  for (int i = 0; i < 100; ++i) {
    together.push_back(fi.should_fail("persist.pwrite"));
    (void)fi.should_fail("server.write");
  }
  EXPECT_EQ(together, alone);
}

TEST(ChaosFaultInjector, NthPlanFailsExactlyThePlannedHits) {
  FaultGuard guard;
  auto& fi = util::FaultInjector::instance();
  fi.arm_nth("service.admit", /*skip=*/2, /*count=*/3);
  std::vector<bool> got;
  for (int i = 0; i < 8; ++i) got.push_back(fi.should_fail("service.admit"));
  const std::vector<bool> want = {false, false, true, true,
                                  true,  false, false, false};
  EXPECT_EQ(got, want);
  EXPECT_EQ(fi.stats("service.admit").injected, 3u);
}

TEST(ChaosFaultInjector, DisarmAllSilencesEveryRegisteredPoint) {
  FaultGuard guard;
  auto& fi = util::FaultInjector::instance();
  for (const std::string_view point : util::kFaultPoints) {
    fi.arm(point, 1.0, 1);
    EXPECT_TRUE(util::fault_point(point)) << point;
  }
  fi.disarm_all();
  EXPECT_FALSE(fi.armed());
  for (const std::string_view point : util::kFaultPoints) {
    EXPECT_FALSE(util::fault_point(point)) << point;
  }
}

// --------------------------------------------------- ResilienceRetryPolicy

TEST(ResilienceRetryPolicy, BackoffIsDeterministicJitteredAndCapped) {
  net::RetryPolicy rp;
  rp.base_delay_ms = 10;
  rp.max_delay_ms = 100;
  rp.seed = 9;

  for (std::uint32_t retry = 1; retry <= 10; ++retry) {
    const std::uint32_t d = rp.delay_ms(retry);
    EXPECT_EQ(d, rp.delay_ms(retry)) << "non-deterministic at " << retry;
    const std::uint64_t cap = std::min<std::uint64_t>(
        rp.max_delay_ms, std::uint64_t{rp.base_delay_ms} << (retry - 1));
    EXPECT_GE(d, cap / 2) << retry;
    EXPECT_LE(d, cap) << retry;
  }
  // Same policy, different seed: some delay in the schedule differs
  // (that's the jitter; a fleet sharing a restart doesn't stampede).
  net::RetryPolicy other = rp;
  other.seed = 10;
  bool any_differs = false;
  for (std::uint32_t retry = 1; retry <= 10; ++retry) {
    any_differs = any_differs || other.delay_ms(retry) != rp.delay_ms(retry);
  }
  EXPECT_TRUE(any_differs);
}

TEST(ResilienceRetryPolicy, OnlyRefusalStatusesAreRetryable) {
  EXPECT_TRUE(net::RetryPolicy::retryable(Status::Draining));
  EXPECT_TRUE(net::RetryPolicy::retryable(Status::Overloaded));
  EXPECT_FALSE(net::RetryPolicy::retryable(Status::Ok));
  EXPECT_FALSE(net::RetryPolicy::retryable(Status::BadFrame));
  EXPECT_FALSE(net::RetryPolicy::retryable(Status::InvalidSignature));
  EXPECT_FALSE(net::RetryPolicy::retryable(Status::SolveError));
  EXPECT_FALSE(net::RetryPolicy::retryable(Status::VersionMismatch));
  // DeadlineExceeded means the budget is SPENT — retrying would blow
  // through the caller's latency contract, so the caller must decide.
  EXPECT_FALSE(net::RetryPolicy::retryable(Status::DeadlineExceeded));
}

// --------------------------------------------------------- ChaosEventLoop

TEST(ChaosEventLoop, TickFiresWithoutAnyIoTraffic) {
  // Regression for the poll(-1) event loop: with no fd activity and no
  // wake(), a tick must still fire (the server's sweeps depend on it).
  net::EventLoop loop;
  int ticks = 0;
  loop.set_tick(5, [&] {
    if (++ticks == 3) loop.stop();
  });
  const std::uint64_t t0 = util::steady_now_ms();
  loop.run();
  EXPECT_EQ(ticks, 3);
  EXPECT_GE(util::steady_now_ms() - t0, 10u);  // 3 ticks, 5ms apart
}

// ------------------------------------------------------ ResilienceDeadline

TEST(ResilienceDeadline, ExpiredQueuedRequestIsShedAndNeverSolved) {
  ensure_backends();
  Service::Options o;
  o.workers = 1;  // one worker: the sleepy job blocks the queue
  Service svc(o);
  SleepyHold hold;

  SolveOptions slow_opts;
  slow_opts.backend = static_cast<Backend>(kSleepyBackend);
  SolveOptions count_opts;
  count_opts.backend = static_cast<Backend>(kCountingBackend);
  g_counting_solves.store(0, std::memory_order_relaxed);

  // The sleepy request occupies the only worker until released; the doomed
  // request's 40ms budget expires while it sits in the queue.
  auto slow = svc.submit(SolveRequest{
      Instance::text(testing::random_cotree(64, 1).format()), slow_opts,
      {}, 0});
  auto doomed = svc.submit(SolveRequest{
      Instance::text(testing::random_cotree(20, 2).format()), count_opts,
      {}, 40});
  // Only a lower bound matters: once 40ms have passed, the doomed request
  // is expired whenever the worker reaches it.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  hold.release();

  const SolveResult slow_res = slow.get();
  EXPECT_TRUE(slow_res.ok) << slow_res.error;
  const SolveResult doomed_res = doomed.get();
  ASSERT_FALSE(doomed_res.ok);
  EXPECT_EQ(doomed_res.error, kErrDeadlineExceeded);
  // The whole point of shedding: zero worker time on dead work.
  EXPECT_EQ(g_counting_solves.load(std::memory_order_relaxed), 0u);

  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.shed_expired, 1u);
  EXPECT_EQ(s.completed, s.submitted);
}

TEST(ResilienceDeadline, ExpiredBatchIsShedPerSlot) {
  ensure_backends();
  Service::Options o;
  o.workers = 1;
  Service svc(o);
  SleepyHold hold;

  SolveOptions slow_opts;
  slow_opts.backend = static_cast<Backend>(kSleepyBackend);
  auto slow = svc.submit(SolveRequest{
      Instance::text(testing::random_cotree(64, 3).format()), slow_opts,
      {}, 0});

  std::vector<SolveRequest> batch;
  for (unsigned i = 0; i < 4; ++i) {
    batch.push_back(SolveRequest{
        Instance::text(testing::random_cotree(6 + i, 40 + i).format()),
        {}, {}, 30});
  }
  auto doomed = svc.submit_batch(std::move(batch));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // > 30ms
  hold.release();

  EXPECT_TRUE(slow.get().ok);
  const std::vector<SolveResult> results = doomed.get();
  ASSERT_EQ(results.size(), 4u);
  for (const SolveResult& r : results) {
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, kErrDeadlineExceeded);
  }
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.shed_expired, 4u);  // counted per slot, not per dispatch
  EXPECT_EQ(s.completed, s.submitted);
}

TEST(ResilienceDeadline, DeadlineExceededTravelsTheWire) {
  ensure_backends();
  net::Server::Options sopts;
  sopts.service.workers = 1;
  auto server = std::make_unique<net::Server>(std::move(sopts));
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", server->port());
    net::Client observer("127.0.0.1", server->port());
    SleepyHold hold;
    proto::WireOptions slow_opts;
    slow_opts.flags = proto::kOptWantVerdicts | proto::kOptExplicitBackend;
    slow_opts.backend = kSleepyBackend;
    const std::uint64_t slow_seq = cli.send_solve_text(
        testing::random_cotree(64, 5).format(), slow_opts);
    const std::uint64_t doomed_seq = cli.send_solve_text(
        testing::random_cotree(8, 6).format(), {}, /*deadline_ms=*/50);
    cli.flush();
    // The doomed request's budget starts at admission: wait until it is
    // queued, then until its 50ms have certainly passed.
    ASSERT_TRUE(wait_for_counter(observer, "queue_depth", 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    hold.release();

    const proto::Response first = cli.recv();
    const proto::Response second = cli.recv();
    EXPECT_EQ(first.seq, slow_seq);
    EXPECT_EQ(first.status, Status::Ok);
    EXPECT_EQ(second.seq, doomed_seq);
    EXPECT_EQ(second.status, Status::DeadlineExceeded) << second.error;

    const proto::Response st = cli.stats();
    EXPECT_EQ(counter(st, "shed_expired"), 1u);
  }
  server->request_drain();
  loop.join();
}

// ------------------------------------------------------ ResilienceOverload

TEST(ResilienceOverload, InjectedAdmissionRefusalIsStructured) {
  FaultGuard guard;
  util::FaultInjector::instance().arm("service.admit", 1.0, 3);
  Service svc;
  const SolveResult res = svc.submit(SolveRequest{
      Instance::text("(+ a b)"), {}, {}, 0}).get();
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.error, kErrOverloaded);
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.completed, s.submitted);
}

TEST(ResilienceOverload, WireOverloadedSurfacesAndRetryClientRecovers) {
  FaultGuard guard;
  auto server = std::make_unique<net::Server>(net::Server::Options{});
  std::thread loop([&server] { server->run(); });
  {
    // A no-retry client surfaces the refusal as a status.
    net::Client plain("127.0.0.1", server->port());
    util::FaultInjector::instance().arm("service.admit", 1.0, 3);
    const proto::Response refused = plain.solve_text("(+ a b)");
    EXPECT_EQ(refused.status, Status::Overloaded);
    util::FaultInjector::instance().disarm("service.admit");

    // A retrying client rides through exactly two injected refusals and
    // succeeds on its third attempt.
    net::Client::Config cfg;
    cfg.retry.max_attempts = 4;
    cfg.retry.base_delay_ms = 1;
    cfg.retry.max_delay_ms = 4;
    net::Client retrying("127.0.0.1", server->port(), cfg);
    util::FaultInjector::instance().arm_nth("service.admit", 0, 2);
    const proto::Response ok = retrying.solve_text("(* a b c)");
    EXPECT_EQ(ok.status, Status::Ok) << ok.error;
    EXPECT_EQ(
        util::FaultInjector::instance().stats("service.admit").injected,
        2u);
  }
  server->request_drain();
  loop.join();
}

TEST(ResilienceOverload, BatchRetryMatchesTheSingleSolveConvenience) {
  // solve_batch routes through the same roundtrip_with_retry as
  // solve_text: a whole-frame Overloaded refusal (queue full, parking
  // disabled) is retried under the policy and the eventual reply carries
  // per-item results — parity with the single-solve conveniences, pinned
  // so a refactor cannot quietly drop batch retries.
  FaultGuard guard;
  ensure_backends();
  net::Server::Options sopts;
  sopts.max_parked = 0;  // queue-full refuses Overloaded immediately
  sopts.service.workers = 1;
  sopts.service.queue_capacity = 1;
  sopts.service.use_cache = false;
  auto server = std::make_unique<net::Server>(std::move(sopts));
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", server->port());
    net::Client observer("127.0.0.1", server->port());
    SleepyHold hold;
    proto::WireOptions slow_opts;
    slow_opts.flags = proto::kOptWantVerdicts | proto::kOptExplicitBackend;
    slow_opts.backend = kSleepyBackend;

    // Occupy the worker and fill the 1-slot queue with sleepy solves.
    (void)cli.send_solve_text(testing::random_cotree(64, 4700).format(),
                              slow_opts);
    cli.flush();
    const auto wait_for = [&observer](std::string_view key,
                                      std::uint64_t value) {
      for (int spin = 0; spin < 500; ++spin) {
        if (counter(observer.stats(), key) == value) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      return false;
    };
    ASSERT_TRUE(wait_for("in_flight", 1));
    (void)cli.send_solve_text(testing::random_cotree(65, 4701).format(),
                              slow_opts);
    cli.flush();
    ASSERT_TRUE(wait_for("queue_depth", 1));

    const proto::BatchItem items[] = {{false, "(+ a b)"}, {false, "(* c d)"}};

    // A no-retry client surfaces the whole-frame refusal as a status —
    // exactly what solve_text does in the same state.
    net::Client plain("127.0.0.1", server->port());
    const proto::Response refused = plain.solve_batch(items);
    EXPECT_EQ(refused.status, Status::Overloaded);

    // A retrying client rides through the refusals and lands the batch
    // once the sleepy pipeline drains a queue slot: the gate opens only
    // after the server has refused the retrying client at least once.
    const std::uint64_t refusals = counter(observer.stats(), "parked_refused");
    std::jthread opener([&observer, &hold, refusals] {
      (void)wait_for_counter(observer, "parked_refused", refusals + 1);
      hold.release();
    });
    net::Client::Config cfg;
    cfg.retry.max_attempts = 10;
    cfg.retry.base_delay_ms = 40;
    cfg.retry.max_delay_ms = 80;
    net::Client retrying("127.0.0.1", server->port(), cfg);
    const proto::Response ok = retrying.solve_batch(items);
    opener.join();
    EXPECT_EQ(ok.status, Status::Ok) << ok.error;
    ASSERT_EQ(ok.batch.size(), 2u);
    for (const auto& item : ok.batch) {
      EXPECT_EQ(item.status, Status::Ok) << item.error;
    }

    // Drain the sleepy pipeline so teardown is clean.
    EXPECT_EQ(cli.recv().status, Status::Ok);
    EXPECT_EQ(cli.recv().status, Status::Ok);
  }
  server->request_drain();
  loop.join();
}

TEST(ResilienceOverload, ParkingDisabledRefusesOverloadedAtQueueFull) {
  ensure_backends();
  net::Server::Options sopts;
  sopts.max_parked = 0;  // never park: queue-full refuses immediately
  sopts.service.workers = 1;
  sopts.service.queue_capacity = 1;
  auto server = std::make_unique<net::Server>(std::move(sopts));
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", server->port());
    net::Client observer("127.0.0.1", server->port());
    SleepyHold hold;
    proto::WireOptions slow_opts;
    slow_opts.flags = proto::kOptWantVerdicts | proto::kOptExplicitBackend;
    slow_opts.backend = kSleepyBackend;

    // Occupy the worker, then fill the 1-slot queue (distinct instances:
    // identical ones would coalesce, not queue).
    const std::uint64_t busy_seq = cli.send_solve_text(
        testing::random_cotree(64, 7).format(), slow_opts);
    cli.flush();
    const auto wait_for = [&observer](std::string_view key,
                                      std::uint64_t value) {
      for (int spin = 0; spin < 500; ++spin) {
        if (counter(observer.stats(), key) == value) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      return false;
    };
    ASSERT_TRUE(wait_for("in_flight", 1));  // worker holds the sleepy job
    const std::uint64_t queued_seq = cli.send_solve_text(
        testing::random_cotree(65, 8).format(), slow_opts);
    cli.flush();
    ASSERT_TRUE(wait_for("queue_depth", 1));

    // Third request: queue full, parking disabled — refused Overloaded
    // without waiting for anything to finish.
    const std::uint64_t refused_seq = cli.send_solve_text(
        testing::random_cotree(8, 9).format(), slow_opts);
    const proto::Response refused = cli.recv();
    EXPECT_EQ(refused.seq, refused_seq);
    EXPECT_EQ(refused.status, Status::Overloaded);

    // The occupied pipeline still completes in order of completion.
    hold.release();
    const proto::Response r1 = cli.recv();
    const proto::Response r2 = cli.recv();
    EXPECT_EQ(r1.seq, busy_seq);
    EXPECT_EQ(r2.seq, queued_seq);
    EXPECT_EQ(r1.status, Status::Ok);
    EXPECT_EQ(r2.status, Status::Ok);
    EXPECT_GE(counter(observer.stats(), "parked_refused"), 1u);
  }
  server->request_drain();
  loop.join();
}

// --------------------------------------------------------- ChaosPersist

TEST(ChaosPersist, PwriteFaultSkipsAppendsNeverCrashes) {
  FaultGuard guard;
  TempDir dir;
  Service::Options o;
  o.workers = 2;
  o.persist.dir = dir.path;
  Service svc(o);
  util::FaultInjector::instance().arm("persist.pwrite", 1.0, 5);
  for (unsigned i = 0; i < 6; ++i) {
    const SolveResult res = svc.submit(SolveRequest{
        Instance::text(testing::random_cotree(4 + i * 9, 300 + i).format()),
        {}, {}, 0}).get();
    EXPECT_TRUE(res.ok) << res.error;  // the answer never depends on L2
  }
  const Service::Stats s = svc.stats();
  EXPECT_TRUE(s.persist_enabled);
  EXPECT_EQ(s.persist.appends, 0u);
  EXPECT_GE(s.persist.append_skips, 6u);  // every write-through skipped
}

TEST(ChaosPersist, MmapFaultDegradesToColdMisses) {
  FaultGuard guard;
  TempDir dir;
  Service::Options o;
  o.workers = 2;
  o.persist.dir = dir.path;
  const std::string text = testing::random_cotree(24, 91).format();

  // The reader opens FIRST, while the log holds only its header, so its
  // mapping covers nothing. A second handle then appends a record; serving
  // it to the reader requires growing the mapping — the exact site where
  // the mmap fault is injected.
  Service reader(o);
  {
    Service writer(o);
    const SolveResult seeded = writer.submit(SolveRequest{
        Instance::text(text), {}, {}, 0}).get();
    ASSERT_TRUE(seeded.ok) << seeded.error;
    EXPECT_GE(writer.stats().persist.appends, 1u);
  }

  util::FaultInjector::instance().arm("persist.mmap", 1.0, 5);
  const SolveResult res = reader.submit(SolveRequest{
      Instance::text(text), {}, {}, 0}).get();
  EXPECT_TRUE(res.ok) << res.error;  // recomputed; never depends on L2
  EXPECT_GT(util::FaultInjector::instance().stats("persist.mmap").injected,
            0u);
  const Service::Stats s = reader.stats();
  EXPECT_EQ(s.persist.hits, 0u);    // lookup threw inside → cold miss
  EXPECT_GE(s.persist.misses, 1u);
  EXPECT_EQ(s.persist.appends, 0u);
  EXPECT_GE(s.persist.append_skips, 1u);  // write-through threw → skip
}

TEST(ChaosPersist, ChecksumFaultDropsRecordsNotCorrectness) {
  FaultGuard guard;
  TempDir dir;
  Service::Options o;
  o.workers = 2;
  o.persist.dir = dir.path;
  const std::string text = testing::random_cotree(28, 92).format();

  SolveResult first;
  {
    Service writer(o);
    first = writer.submit(SolveRequest{Instance::text(text), {}, {},
                                       0}).get();
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_GE(writer.stats().persist.appends, 1u);
  }

  // Restarted service, every checksum verification injected to fail: the
  // on-disk record is unreadable, so the instance recomputes — same
  // answer, no hit, no crash.
  util::FaultInjector::instance().arm("persist.checksum", 1.0, 5);
  Service reader(o);
  const SolveResult again = reader.submit(SolveRequest{
      Instance::text(text), {}, {}, 0}).get();
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.cover.paths, first.cover.paths);
  EXPECT_EQ(again.optimal_size, first.optimal_size);
  EXPECT_EQ(reader.stats().persist.hits, 0u);
}

// ----------------------------------------------------------- ChaosDaemon

TEST(ChaosDaemon, InjectedWriteFaultKillsTheConnNotTheServer) {
  FaultGuard guard;
  auto server = std::make_unique<net::Server>(net::Server::Options{});
  std::thread loop([&server] { server->run(); });
  {
    net::Client victim("127.0.0.1", server->port());
    util::FaultInjector::instance().arm("server.write", 1.0, 11);
    // The response write is injected to fail: the server destroys the
    // connection exactly as on a real ECONNRESET, and the client sees a
    // closed connection — a structured error, not a hang or a crash.
    EXPECT_THROW((void)victim.solve_text("(+ a b)"), util::CheckError);
    util::FaultInjector::instance().disarm("server.write");

    // The server is fine: a fresh connection solves normally.
    net::Client healthy("127.0.0.1", server->port());
    EXPECT_EQ(healthy.solve_text("(+ a b)").status, Status::Ok);
  }
  server->request_drain();
  loop.join();
}

TEST(ChaosDaemon, RetryClientRidesThroughAnInjectedPeerReset) {
  FaultGuard guard;
  auto server = std::make_unique<net::Server>(net::Server::Options{});
  std::thread loop([&server] { server->run(); });
  {
    net::Client::Config cfg;
    cfg.retry.max_attempts = 4;
    cfg.retry.base_delay_ms = 1;
    cfg.retry.max_delay_ms = 4;
    net::Client cli("127.0.0.1", server->port(), cfg);
    // Exactly the next server write fails (the response to our solve);
    // the handshake of the retry connection and the re-sent solve's
    // response are hits #2 and #3 and succeed.
    util::FaultInjector::instance().arm_nth("server.write", 0, 1);
    const proto::Response res = cli.solve_text("(* a b c)");
    EXPECT_EQ(res.status, Status::Ok) << res.error;
    EXPECT_EQ(util::FaultInjector::instance().stats("server.write").injected,
              1u);
  }
  server->request_drain();
  loop.join();
}

// ------------------------------------------------------- ChaosKillRestart

std::uint16_t pick_free_port() {
  std::uint16_t port = 0;
  const net::Fd listener = net::listen_tcp("127.0.0.1", 0, &port);
  return port;  // closed on return; SO_REUSEADDR lets the child rebind
}

/// Forks a child that re-execs THIS test binary in daemon mode (see
/// main() below). Returns the child pid once it is accepting connections.
pid_t spawn_chaos_server(std::uint16_t port, const std::string& cache_dir) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setenv("COPATH_CHAOS_SERVER", "1", 1);
    ::setenv("COPATH_CHAOS_PORT", std::to_string(port).c_str(), 1);
    ::setenv("COPATH_CHAOS_DIR", cache_dir.c_str(), 1);
    ::execl("/proc/self/exe", "chaos_server", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  EXPECT_GT(pid, 0);
  return pid;
}

bool wait_for_server(std::uint16_t port, int timeout_ms = 15000) {
  const std::uint64_t deadline =
      util::steady_now_ms() + static_cast<std::uint64_t>(timeout_ms);
  while (util::steady_now_ms() < deadline) {
    try {
      net::Client probe("127.0.0.1", port);
      if (probe.health().status == Status::Ok) return true;
    } catch (const util::CheckError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return false;
}

/// Kills and reaps the child on scope exit, whatever the test did.
struct ChildGuard {
  explicit ChildGuard(pid_t p) : pid(p) {}
  ~ChildGuard() { reap(SIGKILL); }
  void reap(int sig) {
    if (pid <= 0) return;
    ::kill(pid, sig);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }
  pid_t pid;
};

TEST(ChaosKillRestart, Kill9MidBatchThenRestartIsInvisibleToRetryClient) {
  ensure_backends();
  TempDir dir;
  const std::uint16_t port = pick_free_port();

  auto child = std::make_unique<ChildGuard>(spawn_chaos_server(port,
                                                               dir.path));
  ASSERT_TRUE(wait_for_server(port));

  net::Client::Config cfg;
  cfg.request_timeout_ms = 20000;
  cfg.retry.max_attempts = 10;
  cfg.retry.base_delay_ms = 20;
  cfg.retry.max_delay_ms = 200;
  cfg.retry.seed = 7;
  net::Client cli("127.0.0.1", port, cfg);

  // Phase 1: populate the persistent cache over the wire and remember the
  // answers.
  std::vector<std::string> texts;
  for (unsigned i = 0; i < 8; ++i) {
    texts.push_back(testing::random_cotree(3 + i * 11, 9300 + i).format());
  }
  std::vector<proto::Response> first;
  for (const auto& t : texts) {
    first.push_back(cli.solve_text(t));
    ASSERT_EQ(first.back().status, Status::Ok) << first.back().error;
  }

  // Phase 2: put a slow batch plus a burst of pipelined solves in flight,
  // then kill -9 the daemon mid-work. Nothing about this is graceful.
  proto::WireOptions slow_opts;
  slow_opts.flags = proto::kOptWantVerdicts | proto::kOptExplicitBackend;
  slow_opts.backend = kSleepyBackend;
  const std::string big = testing::random_cotree(80, 9400).format();
  const proto::BatchItem items[] = {{false, big}, {false, big}};
  (void)cli.send_solve_batch(items, slow_opts);
  for (const auto& t : texts) (void)cli.send_solve_text(t);
  cli.flush();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  child->reap(SIGKILL);

  // Phase 3: restart on the same port and cache directory. The SAME
  // client object keeps working — its conveniences reconnect and retry
  // under the policy, so the outage is invisible to the caller.
  child = std::make_unique<ChildGuard>(spawn_chaos_server(port, dir.path));
  ASSERT_TRUE(wait_for_server(port));
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const proto::Response again = cli.solve_text(texts[i]);
    ASSERT_EQ(again.status, Status::Ok) << again.error;
    EXPECT_EQ(again.result.optimal_size, first[i].result.optimal_size) << i;
    EXPECT_EQ(again.result.paths, first[i].result.paths) << i;
  }

  // The L2 healed the restarted process: phase-1 work served from disk,
  // and the new daemon's ledger balances.
  const proto::Response st = cli.stats();
  EXPECT_GE(counter(st, "l2_hits"), 1u);
  EXPECT_EQ(counter(st, "completed"), counter(st, "submitted"));

  // Graceful exit this time: drain and reap a clean 0.
  EXPECT_EQ(cli.drain().status, Status::Ok);
  int status = -1;
  ASSERT_EQ(::waitpid(child->pid, &status, 0), child->pid);
  child->pid = -1;
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ------------------------------------------------------- ResilienceStress

TEST(ResilienceStress, EveryRequestIsAnsweredExactlyOnceUnderChurn) {
  // Mixed churn: tight deadlines (some shed), 20% injected admission
  // refusals, four submitting threads. The invariant that holds the whole
  // resilience story together: every request is answered exactly once,
  // with ok or a structured refusal — completed == submitted, no sink
  // lost, no sink doubled.
  FaultGuard guard;
  Service::Options o;
  o.workers = 2;
  o.queue_capacity = 16;
  Service svc(o);
  util::FaultInjector::instance().arm("service.admit", 0.2, 77);

  std::vector<std::string> texts;
  for (unsigned i = 0; i < 6; ++i) {
    texts.push_back(testing::random_cotree(3 + i * 5, 7100 + i).format());
  }
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> malformed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SolveRequest req{Instance::text(texts[(t + i) % texts.size()]),
                         {}, {}, (i % 3 == 0) ? 1u : 0u};
        svc.submit_async(std::move(req), [&](SolveResult res) {
          answered.fetch_add(1, std::memory_order_relaxed);
          const bool structured =
              res.ok || res.error == kErrDeadlineExceeded ||
              res.error == kErrOverloaded || res.error == kErrDraining ||
              res.error == kErrShutDown;
          if (!structured) malformed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  svc.drain();

  EXPECT_EQ(answered.load(), std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(malformed.load(), 0u);
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.submitted, std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(s.completed, s.submitted);
}

// --------------------------------------------------------- ChaosWatchdog

TEST(ChaosWatchdog, StalledSolveIsFreedWithinOneIntervalNotTheStallCap) {
  // The headline watchdog drill over the wire: a solve that stops
  // heartbeating (injected solve.stall) past --watchdog-ms gets its token
  // tripped and answers Cancelled in watchdog time — far below the 5s
  // stall cap, which is what the worker would burn if nobody tripped it.
  FaultGuard guard;
  net::Server::Options sopts;
  sopts.service.workers = 1;
  sopts.service.watchdog_ms = 50;
  auto server = std::make_unique<net::Server>(std::move(sopts));
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", server->port());
    util::FaultInjector::instance().arm_nth("solve.stall", 0, 1);
    const std::uint64_t t0 = util::steady_now_ms();
    const proto::Response res =
        cli.solve_text(testing::random_cotree(48, 4100).format());
    const std::uint64_t waited = util::steady_now_ms() - t0;
    EXPECT_EQ(res.status, Status::Cancelled) << res.error;
    EXPECT_EQ(res.error, util::kCancelledMsg);
    EXPECT_LT(waited, 3000u);  // watchdog time, not stall-cap time

    EXPECT_GE(counter(cli.stats(), "watchdog_cancels"), 1u);
    // The worker came back: the next solve is served normally.
    EXPECT_EQ(
        cli.solve_text(testing::random_cotree(12, 4101).format()).status,
        Status::Ok);
  }
  server->request_drain();
  loop.join();
}

TEST(ChaosWatchdog, StalledSolvePastItsDeadlineAnswersDeadlineExceeded) {
  // Same stall, but the request carries a deadline that passes while the
  // worker is wedged: the watchdog picks kDeadline over kCancelled, so
  // the client learns the truthful reason — its budget is spent.
  FaultGuard guard;
  net::Server::Options sopts;
  sopts.service.workers = 1;
  sopts.service.watchdog_ms = 50;
  auto server = std::make_unique<net::Server>(std::move(sopts));
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", server->port());
    util::FaultInjector::instance().arm_nth("solve.stall", 0, 1);
    const proto::Response res = cli.solve_text(
        testing::random_cotree(48, 4200).format(), {}, /*deadline_ms=*/30);
    EXPECT_EQ(res.status, Status::DeadlineExceeded) << res.error;
    EXPECT_EQ(res.error, util::kDeadlineMsg);
  }
  server->request_drain();
  loop.join();
}

// ----------------------------------------------------------- ChaosCancel

TEST(ChaosCancel, WireCancelCatchesAnInFlightSolve) {
  // Cancel an in-flight request by seq: the ack comes back Ok under the
  // Cancel frame's seq, and the target answers Cancelled under its own —
  // in cancel time, not in stall-cap time.
  FaultGuard guard;
  net::Server::Options sopts;
  sopts.service.workers = 1;
  auto server = std::make_unique<net::Server>(std::move(sopts));
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", server->port());
    net::Client observer("127.0.0.1", server->port());
    util::FaultInjector::instance().arm_nth("solve.stall", 0, 1);

    const std::uint64_t t0 = util::steady_now_ms();
    const std::uint64_t seq =
        cli.send_solve_text(testing::random_cotree(40, 4300).format());
    cli.flush();
    ASSERT_TRUE(wait_for_counter(observer, "in_flight", 1));
    const std::uint64_t cseq = cli.send_cancel(seq);
    cli.flush();

    proto::Response ack, victim;
    for (int i = 0; i < 2; ++i) {
      proto::Response r = cli.recv();
      (r.seq == cseq ? ack : victim) = std::move(r);
    }
    const std::uint64_t waited = util::steady_now_ms() - t0;
    EXPECT_EQ(ack.seq, cseq);
    EXPECT_EQ(ack.status, Status::Ok);
    EXPECT_EQ(victim.seq, seq);
    EXPECT_EQ(victim.status, Status::Cancelled) << victim.error;
    EXPECT_LT(waited, 3000u);

    EXPECT_GE(counter(observer.stats(), "cancel_frames"), 1u);
    EXPECT_EQ(cli.solve_text("(+ a b)").status, Status::Ok);
  }
  server->request_drain();
  loop.join();
}

TEST(ChaosCancel, QueuedRequestIsCancelledBeforeItEverRuns) {
  // Cancelling a request that is still QUEUED must refund the work
  // entirely: the counting backend proves the solve never executed.
  FaultGuard guard;
  ensure_backends();
  net::Server::Options sopts;
  sopts.service.workers = 1;
  sopts.service.use_cache = false;
  auto server = std::make_unique<net::Server>(std::move(sopts));
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", server->port());
    net::Client observer("127.0.0.1", server->port());
    SleepyHold hold;
    proto::WireOptions slow;
    slow.flags = proto::kOptWantVerdicts | proto::kOptExplicitBackend;
    slow.backend = kSleepyBackend;
    proto::WireOptions counted;
    counted.flags = proto::kOptWantVerdicts | proto::kOptExplicitBackend;
    counted.backend = kCountingBackend;

    // Occupy the single worker, then queue a counted request behind it.
    const std::uint64_t busy_seq = cli.send_solve_text(
        testing::random_cotree(64, 4400).format(), slow);
    cli.flush();
    ASSERT_TRUE(wait_for_counter(observer, "in_flight", 1));
    g_counting_solves.store(0, std::memory_order_relaxed);
    const std::uint64_t queued_seq = cli.send_solve_text(
        testing::random_cotree(32, 4401).format(), counted);
    cli.flush();
    ASSERT_TRUE(wait_for_counter(observer, "queue_depth", 1));

    const std::uint64_t cseq = cli.send_cancel(queued_seq);
    cli.flush();

    // While the gate holds the busy solve, the only possible answer is the
    // cancel's ack — after it the queued request's token has tripped.
    const proto::Response ack = cli.recv();
    EXPECT_EQ(ack.seq, cseq);
    EXPECT_EQ(ack.status, Status::Ok);
    hold.release();

    bool saw_cancelled = false;
    for (int i = 0; i < 2; ++i) {
      const proto::Response r = cli.recv();
      if (r.seq == queued_seq) {
        EXPECT_EQ(r.status, Status::Cancelled) << r.error;
        saw_cancelled = true;
      } else {
        EXPECT_EQ(r.seq, busy_seq);
        EXPECT_EQ(r.status, Status::Ok);
      }
    }
    EXPECT_TRUE(saw_cancelled);
    EXPECT_EQ(g_counting_solves.load(), 0) << "cancelled solve ran anyway";
  }
  server->request_drain();
  loop.join();
}

// ----------------------------------------------------- ResilienceDisconnect

TEST(ResilienceDisconnect, ClientGoneMidSolveFreesTheWorker) {
  // A peer that vanishes mid-solve must not strand its worker: the server
  // trips the connection's tokens on EOF, the stalled solve unwinds, and
  // the worker serves the next client — within cancel time, not the 5s
  // stall cap.
  FaultGuard guard;
  net::Server::Options sopts;
  sopts.service.workers = 1;
  auto server = std::make_unique<net::Server>(std::move(sopts));
  std::thread loop([&server] { server->run(); });
  {
    net::Client observer("127.0.0.1", server->port());
    util::FaultInjector::instance().arm_nth("solve.stall", 0, 1);
    {
      net::Client victim("127.0.0.1", server->port());
      (void)victim.send_solve_text(
          testing::random_cotree(40, 4500).format());
      victim.flush();
      ASSERT_TRUE(wait_for_counter(observer, "in_flight", 1));
    }  // victim's socket closes here, solve still stalled in the worker

    // The disconnect cancels the orphan (cancelled counter moves) and the
    // worker drains back to idle.
    ASSERT_TRUE(wait_for_counter(observer, "cancelled", 1));
    ASSERT_TRUE(wait_for_counter(observer, "completed", 1));
    const std::uint64_t t0 = util::steady_now_ms();
    EXPECT_EQ(observer.solve_text("(+ a b)").status, Status::Ok);
    EXPECT_LT(util::steady_now_ms() - t0, 3000u);
  }
  server->request_drain();
  loop.join();
}

// ----------------------------------------------------- ChaosCancelStorm

TEST(ChaosCancelStorm, EverySolveAnswersExactlyOnceUnderRacingCancels) {
  // The storm: a pipelined burst of slow solves, then a Cancel for every
  // one of them racing the completions. The exactly-once ledger must
  // balance — each solve seq answers once (Ok if the cancel lost the
  // race, Cancelled if it won), each cancel seq acks once, nothing is
  // dropped, doubled, or left hanging.
  FaultGuard guard;
  ensure_backends();
  net::Server::Options sopts;
  sopts.service.workers = 2;
  sopts.service.use_cache = false;  // identical-shape jobs must not coalesce
  auto server = std::make_unique<net::Server>(std::move(sopts));
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", server->port());
    SleepyHold hold;
    proto::WireOptions slow;
    slow.flags = proto::kOptWantVerdicts | proto::kOptExplicitBackend;
    slow.backend = kSleepyBackend;

    constexpr unsigned kJobs = 10;
    std::vector<std::uint64_t> solve_seqs, cancel_seqs;
    for (unsigned i = 0; i < kJobs; ++i) {
      solve_seqs.push_back(cli.send_solve_text(
          testing::random_cotree(24 + i, 4600 + i).format(), slow));
    }
    cli.flush();
    for (const std::uint64_t seq : solve_seqs) {
      cancel_seqs.push_back(cli.send_cancel(seq));
    }
    cli.flush();
    hold.release();  // the completions now race the cancels

    std::map<std::uint64_t, proto::Response> by_seq;
    for (unsigned i = 0; i < 2 * kJobs; ++i) {
      proto::Response r = cli.recv();
      const auto [it, fresh] = by_seq.emplace(r.seq, std::move(r));
      ASSERT_TRUE(fresh) << "seq " << it->first << " answered twice";
    }

    unsigned completed = 0, cancelled = 0;
    for (const std::uint64_t seq : solve_seqs) {
      const auto it = by_seq.find(seq);
      ASSERT_NE(it, by_seq.end()) << "solve seq " << seq << " unanswered";
      ASSERT_TRUE(it->second.status == Status::Ok ||
                  it->second.status == Status::Cancelled)
          << proto::to_string(it->second.status);
      (it->second.status == Status::Ok ? completed : cancelled) += 1;
    }
    for (const std::uint64_t seq : cancel_seqs) {
      const auto it = by_seq.find(seq);
      ASSERT_NE(it, by_seq.end()) << "cancel seq " << seq << " unacked";
      EXPECT_EQ(it->second.status, Status::Ok);
    }
    EXPECT_EQ(completed + cancelled, kJobs);  // the ledger balances

    // The server's own ledger agrees, and it is still fully serviceable.
    const proto::Response st = cli.stats();
    EXPECT_EQ(counter(st, "completed"), counter(st, "submitted"));
    EXPECT_EQ(cli.solve_text("(+ a b)").status, Status::Ok);
  }
  server->request_drain();
  loop.join();
}

}  // namespace
}  // namespace copath

/// Daemon mode for the kill -9 drill: when COPATH_CHAOS_SERVER is set,
/// this binary IS the server child (fresh process, clean under ASan/TSan —
/// no fork-without-exec). Otherwise run the tests. This main() wins over
/// the one in gtest_main because the test object file is linked first.
int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // dead peers are errors, not signals
  if (std::getenv("COPATH_CHAOS_SERVER") != nullptr) {
    copath::ensure_backends();  // the kill -9 drill solves on backend 212
    // Never released: a sleepy solve stays in flight until the kill.
    copath::sleepy_gate().hold();
    copath::net::Server::Options opts;
    opts.port = static_cast<std::uint16_t>(
        std::atoi(std::getenv("COPATH_CHAOS_PORT")));
    opts.service.workers = 2;
    opts.service.persist.dir = std::getenv("COPATH_CHAOS_DIR");
    copath::net::Server server(std::move(opts));
    server.run();  // until drained — or killed, that's the point
    return 0;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
