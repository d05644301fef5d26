// Cooperative cancellation (util/cancel.hpp) and its solver plumbing:
// CancelToken semantics (first trip wins, deadline self-trip, heartbeat
// stamping, canonical error strings), SolveOptions::cancel end to end
// through every backend (a pre-tripped token unwinds into a structured
// Cancelled result, never a throw), the armed-but-untripped differential
// (attaching a token must not perturb answers), and the Service-level
// watchdog/deadline surface (watchdog_cancels, mid-solve deadline trips).
//
// Suite names start with Cancel / Watchdog so the CI TSan job picks the
// whole file up with its suite regex.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "copath.hpp"
#include "service/batch.hpp"
#include "testing.hpp"
#include "util/cancel.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"

namespace copath {
namespace {

// ------------------------------------------------------------ CancelToken

TEST(CancelToken, StartsDisarmedAndUntripped) {
  util::CancelToken tok;
  EXPECT_FALSE(tok.cancelled());
  EXPECT_EQ(tok.reason(), util::CancelToken::Reason::kNone);
  EXPECT_EQ(tok.deadline_at_ms(), 0u);
  EXPECT_EQ(tok.last_beat_ms(), 0u);
  EXPECT_FALSE(tok.poll());
  EXPECT_NO_THROW(tok.checkpoint());
}

TEST(CancelToken, FirstTripWinsOverLaterReasons) {
  util::CancelToken tok;
  tok.cancel(util::CancelToken::Reason::kDeadline);
  EXPECT_TRUE(tok.cancelled());
  EXPECT_EQ(tok.reason(), util::CancelToken::Reason::kDeadline);
  // A later explicit cancel must not rewrite the recorded reason: the
  // first cause is the one the client gets told about.
  tok.cancel(util::CancelToken::Reason::kCancelled);
  EXPECT_EQ(tok.reason(), util::CancelToken::Reason::kDeadline);
}

TEST(CancelToken, PollStampsTheHeartbeat) {
  util::CancelToken tok;
  const std::uint64_t before = util::steady_now_ms();
  EXPECT_FALSE(tok.poll());
  const std::uint64_t beat = tok.last_beat_ms();
  EXPECT_GE(beat, before);
  EXPECT_LE(beat, util::steady_now_ms());
}

TEST(CancelToken, PollSelfTripsOnceTheDeadlinePasses) {
  util::CancelToken tok;
  tok.set_deadline(util::steady_now_ms() + std::uint64_t{60} * 60 * 1000);
  EXPECT_FALSE(tok.poll());  // an hour out: not yet
  tok.set_deadline(1);       // the distant past
  EXPECT_TRUE(tok.poll());
  EXPECT_EQ(tok.reason(), util::CancelToken::Reason::kDeadline);
  // Disarming after the trip does not untrip — trips are permanent.
  tok.set_deadline(0);
  EXPECT_TRUE(tok.cancelled());
}

TEST(CancelToken, CheckpointThrowsTheCanonicalMessage) {
  {
    util::CancelToken tok;
    tok.cancel(util::CancelToken::Reason::kCancelled);
    EXPECT_THROW(
        {
          try {
            tok.checkpoint();
          } catch (const util::CancelledError& e) {
            EXPECT_STREQ(e.what(), util::kCancelledMsg);
            throw;
          }
        },
        util::CancelledError);
  }
  {
    util::CancelToken tok;
    tok.set_deadline(1);
    EXPECT_THROW(
        {
          try {
            tok.checkpoint();
          } catch (const util::CancelledError& e) {
            EXPECT_STREQ(e.what(), util::kDeadlineMsg);
            throw;
          }
        },
        util::CancelledError);
  }
}

TEST(CancelToken, ConcurrentTripsAgreeOnOneReason) {
  // Many threads race cancel() with both reasons; afterwards exactly one
  // reason is recorded and every observer agrees on it.
  util::CancelToken tok;
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&tok, i] {
      tok.cancel(i % 2 == 0 ? util::CancelToken::Reason::kCancelled
                            : util::CancelToken::Reason::kDeadline);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(tok.cancelled());
  const auto reason = tok.reason();
  EXPECT_TRUE(reason == util::CancelToken::Reason::kCancelled ||
              reason == util::CancelToken::Reason::kDeadline);
}

// --------------------------------------------------- Solver-level unwind

/// Every backend here checks the token once before solving (a pre-tripped
/// token never does work); Pram and Parallel additionally checkpoint at
/// each pipeline stage boundary, which is where mid-solve trips land.
std::vector<Backend> cancel_backends() {
  return {Backend::Sequential, Backend::Parallel, Backend::Pram,
          Backend::Adaptive};
}

/// (backend, instance) pairs for the up-front refusal tests: every backend
/// on `small`, plus the host-sweep backends on `big` (n = 2^14), where
/// Solver runs the sequential kernel inline instead of a registry engine
/// and must still refuse before any work.
std::vector<std::pair<Backend, const Cotree*>> refusal_cases(
    const Cotree& small, const Cotree& big) {
  std::vector<std::pair<Backend, const Cotree*>> cases;
  for (const Backend b : cancel_backends()) cases.emplace_back(b, &small);
  for (const Backend b : {Backend::Sequential, Backend::Adaptive}) {
    cases.emplace_back(b, &big);
  }
  return cases;
}

TEST(CancelSolve, PreTrippedTokenAnswersCancelledNotAThrow) {
  const Cotree small = testing::random_cotree(300, 4242);
  const Cotree big =
      testing::random_cotree(std::size_t{1} << 14, 4244);
  for (const auto& [b, t] : refusal_cases(small, big)) {
    util::CancelToken tok;
    tok.cancel(util::CancelToken::Reason::kCancelled);
    SolveOptions opts;
    opts.backend = b;
    opts.cancel = &tok;
    const Solver solver(opts);
    const SolveResult res = solver.solve(Instance::view(*t));
    const std::string what = std::string(core::to_string(b)) +
                             " n=" + std::to_string(t->vertex_count());
    EXPECT_FALSE(res.ok) << what;
    EXPECT_EQ(res.error, util::kCancelledMsg) << what;
  }
}

TEST(CancelSolve, ExpiredDeadlineAnswersDeadlineExceeded) {
  const Cotree small = testing::random_cotree(300, 4243);
  const Cotree big =
      testing::random_cotree(std::size_t{1} << 14, 4245);
  for (const auto& [b, t] : refusal_cases(small, big)) {
    util::CancelToken tok;
    tok.set_deadline(1);  // long past; first checkpoint self-trips
    SolveOptions opts;
    opts.backend = b;
    opts.cancel = &tok;
    const Solver solver(opts);
    const SolveResult res = solver.solve(Instance::view(*t));
    const std::string what = std::string(core::to_string(b)) +
                             " n=" + std::to_string(t->vertex_count());
    EXPECT_FALSE(res.ok) << what;
    EXPECT_EQ(res.error, util::kDeadlineMsg) << what;
    EXPECT_EQ(tok.reason(), util::CancelToken::Reason::kDeadline) << what;
  }
}

TEST(CancelSolve, ArmedButUntrippedTokenChangesNothing) {
  // The differential: the same instances solved with no token and with an
  // armed-but-never-tripped token (far-future deadline, so every poll
  // does real work) must produce identical structured results.
  for (unsigned i = 0; i < 6; ++i) {
    const Cotree t = testing::random_cotree(40 + i * 90, 9100 + i);
    SolveOptions plain;
    plain.backend = Backend::Pram;
    const SolveResult want = Solver(plain).solve(Instance::view(t));
    ASSERT_TRUE(want.ok) << want.error;

    util::CancelToken tok;
    tok.set_deadline(util::steady_now_ms() + std::uint64_t{10} * 60 * 1000);
    SolveOptions armed = plain;
    armed.cancel = &tok;
    const SolveResult got = Solver(armed).solve(Instance::view(t));
    ASSERT_TRUE(got.ok) << got.error;

    EXPECT_EQ(got.cover.paths, want.cover.paths) << "instance " << i;
    EXPECT_EQ(got.optimal_size, want.optimal_size) << "instance " << i;
    EXPECT_EQ(got.minimum, want.minimum) << "instance " << i;
    EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path)
        << "instance " << i;
    EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle)
        << "instance " << i;
    EXPECT_EQ(got.validation.ok, want.validation.ok) << "instance " << i;
    // The solve beat the heartbeat at least once (checkpoints ran), yet
    // the token never tripped.
    EXPECT_GT(tok.last_beat_ms(), 0u) << "instance " << i;
    EXPECT_FALSE(tok.cancelled()) << "instance " << i;
  }
}

TEST(CancelSolve, BatchMembersAfterATripAreCancelledToo) {
  // solve_batch shares one coordinator: once the token trips, remaining
  // members answer structurally instead of burning CPU — on the pool
  // (Pram) and in the fused host-sweep lane (Sequential) alike.
  for (const Backend b : {Backend::Pram, Backend::Sequential}) {
    util::CancelToken tok;
    std::vector<Cotree> trees;
    std::vector<SolveRequest> reqs;
    for (unsigned i = 0; i < 4; ++i) {
      trees.push_back(testing::random_cotree(200, 7300 + i));
    }
    SolveOptions opts;
    opts.backend = b;
    opts.cancel = &tok;
    for (const auto& t : trees) {
      SolveRequest r;
      r.instance = Instance::view(t);
      r.options = opts;
      reqs.push_back(std::move(r));
    }
    tok.cancel(util::CancelToken::Reason::kCancelled);
    Solver solver(opts);
    const auto results = solver.solve_batch(reqs);
    ASSERT_EQ(results.size(), reqs.size());
    for (const auto& res : results) {
      EXPECT_FALSE(res.ok) << core::to_string(b);
      EXPECT_EQ(res.error, util::kCancelledMsg) << core::to_string(b);
    }
  }
}

TEST(CancelSolve, PramTripMidSolveStopsWithinAStage) {
  // A Pram solve at n = 2^14 runs for a long while on the checked
  // simulator. A token tripped ~50 ms in must stop it at the next stage
  // boundary: the answer is Cancelled, and it arrives well before an
  // uncancelled solve of the same instance finishes.
  const Cotree t = testing::random_cotree(std::size_t{1} << 14, 4246);
  SolveOptions opts;
  opts.backend = Backend::Pram;
  const auto millis_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  const auto t_full = std::chrono::steady_clock::now();
  const SolveResult full = Solver(opts).solve(Instance::view(t));
  const double full_ms = millis_since(t_full);
  ASSERT_TRUE(full.ok) << full.error;

  util::CancelToken tok;
  opts.cancel = &tok;
  const auto t_cut = std::chrono::steady_clock::now();
  std::thread tripper([&tok] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    tok.cancel(util::CancelToken::Reason::kCancelled);
  });
  const SolveResult cut = Solver(opts).solve(Instance::view(t));
  const double cut_ms = millis_since(t_cut);
  tripper.join();

  EXPECT_FALSE(cut.ok);
  EXPECT_EQ(cut.error, util::kCancelledMsg);
  EXPECT_LT(cut_ms, full_ms / 2)
      << "cancelled solve took " << cut_ms << " ms; uncancelled " << full_ms
      << " ms";
}

// ------------------------------------------------- batch core frame token

TEST(CancelBatch, TrippedFrameTokenAnswersEveryUnsolvedGroup) {
  // solve_batch_fused polls the frame token (the first request's
  // SolveRequest::cancel) before every group's solve; the kernel itself
  // never polls. Tripped before the call, every member — small host-sweep
  // ones and duplicates included — answers with the structured reason.
  std::vector<Cotree> trees;
  for (unsigned i = 0; i < 5; ++i) {
    trees.push_back(testing::random_cotree(20 + i, 7400 + i));
  }
  for (const auto reason : {util::CancelToken::Reason::kCancelled,
                            util::CancelToken::Reason::kDeadline}) {
    auto tok = std::make_shared<util::CancelToken>();
    tok->cancel(reason);
    std::vector<SolveRequest> reqs;
    for (const auto& t : trees) {
      reqs.push_back(SolveRequest{Instance::view(t), {}, "m"});
    }
    reqs.push_back(reqs[1]);  // a duplicate rides its group's answer
    reqs.front().cancel = tok;
    int fallbacks = 0;
    service::BatchOutcome outcome;
    const auto results = service::solve_batch_fused(
        reqs, SolveOptions{}, service::BatchConfig{},
        [&fallbacks](const SolveRequest& r, const SolveOptions& o) {
          ++fallbacks;
          return Solver().solve(r.instance, r.label, o);
        },
        exec::Arena::for_this_thread(), &outcome);
    ASSERT_EQ(results.size(), reqs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_FALSE(results[i].ok) << i;
      EXPECT_EQ(results[i].error, util::CancelToken::message(reason)) << i;
      EXPECT_EQ(results[i].label, "m") << i;
    }
    EXPECT_EQ(outcome.packed_solves, 0u);
    EXPECT_EQ(fallbacks, 0);
  }
}

TEST(CancelBatch, TripMidBatchStopsTheGroupsAfterIt) {
  // A trip while group 2 solves (its fallback trips the frame token) lands
  // between groups: groups 0-2 keep their answers, 3-4 answer Cancelled.
  std::vector<Cotree> trees;
  for (unsigned i = 0; i < 5; ++i) {
    trees.push_back(testing::random_cotree(30 + i, 7500 + i));
  }
  auto tok = std::make_shared<util::CancelToken>();
  std::vector<SolveRequest> reqs;
  for (const auto& t : trees) {
    reqs.push_back(SolveRequest{Instance::view(t), {}, {}});
  }
  SolveOptions pram_opts;
  pram_opts.backend = Backend::Pram;
  reqs[2].options = pram_opts;
  reqs.front().cancel = tok;
  service::BatchOutcome outcome;
  const auto results = service::solve_batch_fused(
      reqs, SolveOptions{}, service::BatchConfig{},
      [&tok](const SolveRequest& r, const SolveOptions& o) {
        const SolveResult res = Solver().solve(r.instance, r.label, o);
        tok->cancel(util::CancelToken::Reason::kCancelled);
        return res;
      },
      exec::Arena::for_this_thread(), &outcome);
  ASSERT_EQ(results.size(), reqs.size());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(results[i].ok) << i << ": " << results[i].error;
  }
  for (std::size_t i = 3; i < 5; ++i) {
    EXPECT_FALSE(results[i].ok) << i;
    EXPECT_EQ(results[i].error, util::kCancelledMsg) << i;
  }
  EXPECT_EQ(outcome.packed_solves, 2u);
}

// ------------------------------------------------------ Service watchdog

TEST(WatchdogService, DeadlineTripsMidSolveNotJustAtAdmission) {
  // A solve that is already RUNNING when its deadline passes must still
  // come back DeadlineExceeded: admission-time shedding alone cannot do
  // this — the mid-flight trip is the tentpole behavior.
  util::FaultInjector::instance().disarm_all();
  Service::Options sopts;
  sopts.workers = 1;
  sopts.use_cache = false;
  sopts.solve.backend = Backend::Pram;
  Service svc(sopts);
  const Cotree t = testing::random_cotree(600, 31007);
  SolveRequest req;
  req.instance = Instance::view(t);
  req.deadline_ms = 1;  // expires while queued or mid-solve
  auto fut = svc.submit(std::move(req));
  const SolveResult res = fut.get();
  // Either the queue shed it (still DeadlineExceeded) or the solve was
  // entered and tripped at a checkpoint; both are the same structured
  // answer.
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, kErrDeadlineExceeded);
  svc.drain();
}

TEST(WatchdogService, SilentWorkerIsTrippedWithinTheInterval) {
  // solve.stall makes the worker sit without heartbeating; the supervisor
  // must trip its token within ~one watchdog interval and the request
  // must answer structurally (the thread is never killed).
  util::FaultInjector::instance().disarm_all();
  Service::Options sopts;
  sopts.workers = 1;
  sopts.use_cache = false;
  sopts.watchdog_ms = 50;
  sopts.solve.backend = Backend::Pram;
  Service svc(sopts);
  util::FaultInjector::instance().arm("solve.stall", 1.0, 1);

  const auto t0 = util::steady_now_ms();
  SolveRequest req;
  req.instance = Instance::text("(* (+ a b) (+ c d))");
  auto fut = svc.submit(std::move(req));
  const SolveResult res = fut.get();
  const auto waited = util::steady_now_ms() - t0;
  util::FaultInjector::instance().disarm_all();

  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, kErrCancelled);
  // Generous bound (sanitizer builds are slow), but far below the 5s
  // stall cap: proves the watchdog freed the worker, not the stall timer.
  EXPECT_LT(waited, 3000u);
  const auto stats = svc.stats();
  EXPECT_GE(stats.watchdog_cancels, 1u);
  EXPECT_GE(stats.cancelled, 1u);

  // The freed worker keeps serving: the next request succeeds.
  SolveRequest next;
  next.instance = Instance::text("(* a b c)");
  const SolveResult after = svc.submit(std::move(next)).get();
  EXPECT_TRUE(after.ok) << after.error;
  svc.drain();
}

TEST(WatchdogService, BeatingSolvesAreNeverTripped) {
  // A healthy (heartbeating) solve under a tight watchdog must complete
  // normally — the watchdog watches silence, not latency. A Pram solve
  // beats at its stage boundaries. The interval is over 4x the slowest
  // stage measured at these sizes in the sanitizer builds (n = 340: ~22 ms
  // under ASan+UBSan, ~280 ms under TSan, where a whole solve outlasts the
  // interval).
  util::FaultInjector::instance().disarm_all();
  Service::Options sopts;
  sopts.workers = 2;
  sopts.use_cache = false;
  sopts.watchdog_ms = 1200;
  sopts.solve.backend = Backend::Pram;
  Service svc(sopts);
  std::vector<std::future<SolveResult>> futs;
  std::vector<Cotree> trees;
  for (unsigned i = 0; i < 8; ++i) {
    trees.push_back(testing::random_cotree(200 + i * 20, 6200 + i));
  }
  for (const auto& t : trees) {
    SolveRequest req;
    req.instance = Instance::view(t);
    futs.push_back(svc.submit(std::move(req)));
  }
  for (auto& f : futs) {
    const SolveResult res = f.get();
    EXPECT_TRUE(res.ok) << res.error;
  }
  EXPECT_EQ(svc.stats().watchdog_cancels, 0u);
  svc.drain();
}

}  // namespace
}  // namespace copath
