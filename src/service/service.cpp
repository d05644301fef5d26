#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "exec/arena.hpp"
#include "service/batch.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace copath {
namespace {

SolveResult failure(const std::string& label, Backend backend,
                    std::string error) {
  SolveResult res;
  res.label = label;
  res.backend = backend;
  res.error = std::move(error);
  return res;
}

/// A job shares one queue slot, so it expires as a unit: the tightest
/// nonzero slot deadline governs the whole dispatch.
std::uint64_t job_deadline_at(const std::vector<SolveRequest>& reqs) {
  std::uint64_t tightest = 0;
  const std::uint64_t now = util::steady_now_ms();
  for (const SolveRequest& r : reqs) {
    if (r.deadline_ms == 0) continue;
    const std::uint64_t at = now + r.deadline_ms;
    if (tightest == 0 || at < tightest) tightest = at;
  }
  return tightest;
}

/// True when a failed result is a cancellation outcome (either reason).
bool is_cancel_error(const SolveResult& res) {
  return !res.ok &&
         (res.error == kErrCancelled || res.error == kErrDeadlineExceeded);
}

/// The "solve.stall" fault: spin WITHOUT heartbeating until the job's
/// token trips, so the solve looks exactly like a hung backend to the
/// watchdog and to deadline enforcement. Hard-capped so a mis-armed test
/// (no watchdog, no deadline, nobody to trip the token) cannot wedge a
/// worker forever.
void stall_for_token(util::CancelToken* token) {
  const std::uint64_t cap_at = util::steady_now_ms() + 5000;
  while (util::steady_now_ms() < cap_at) {
    if (token != nullptr && token->cancelled()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

/// RAII registration of a worker's in-solve cancel token with the
/// watchdog. No-op (no lock touched) when the watchdog is off or the job
/// carries no token.
class WatchGuard {
 public:
  WatchGuard(Service& s, std::size_t worker,
             const std::shared_ptr<util::CancelToken>& token)
      : s_(s), worker_(worker) {
    if (s_.opts_.watchdog_ms == 0 || token == nullptr) return;
    token->poll();  // heartbeat at solve start: the watchdog clock begins now
    std::lock_guard<std::mutex> lock(s_.watch_mu_);
    s_.watch_[worker_] = Service::WatchSlot{token, util::steady_now_ms()};
    armed_ = true;
  }
  ~WatchGuard() {
    if (!armed_) return;
    std::lock_guard<std::mutex> lock(s_.watch_mu_);
    s_.watch_[worker_] = Service::WatchSlot{};
  }
  WatchGuard(const WatchGuard&) = delete;
  WatchGuard& operator=(const WatchGuard&) = delete;

 private:
  Service& s_;
  std::size_t worker_;
  bool armed_ = false;
};

Service::Service(Options opts)
    : opts_(std::move(opts)),
      solver_(opts_.solve),
      cache_(opts_.cache),
      // The L2 keys canonically like L1 (use_cache computes the canonical
      // form it needs), so it rides the same master switch.
      persist_(opts_.use_cache && !opts_.persist.dir.empty()
                   ? std::make_unique<service::PersistCache>(opts_.persist)
                   : nullptr),
      queue_(opts_.queue_capacity) {
  const std::size_t workers = opts_.workers == 0
                                  ? util::ThreadPool::default_workers()
                                  : opts_.workers;
  watch_.resize(workers);
  if (opts_.watchdog_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Service::~Service() { shutdown(); }

void Service::stop_workers() {
  queue_.close();
  // close() wakes every producer/consumer; already-enqueued jobs are still
  // popped and processed, so joining the workers IS the wait-for-in-flight
  // half of drain. call_once makes concurrent drain()/shutdown() safe.
  std::call_once(join_once_, [this] {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    // Workers are gone (every slot cleared), so the supervisor has nothing
    // left to watch: stop it last.
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      watch_stop_ = true;
    }
    watch_cv_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
  });
}

void Service::drain() {
  draining_.store(true, std::memory_order_relaxed);
  stop_workers();
}

void Service::shutdown() { stop_workers(); }

SolveOptions Service::effective_options(const SolveRequest& req) const {
  return req.options.value_or(opts_.solve);
}

void Service::arm_job_cancel(Job& job) {
  job.cancel = job.reqs.empty() ? nullptr : job.reqs.front().cancel;
  if (job.cancel == nullptr && !job.reqs.empty() &&
      (job.deadline_at != 0 || opts_.watchdog_ms > 0)) {
    // Nobody handed us a token but this job needs one: a deadline must be
    // enforceable mid-solve, and the watchdog needs something to trip.
    // Stored back as slot 0's token, where the batch core polls it
    // between groups.
    job.cancel = std::make_shared<util::CancelToken>();
    job.reqs.front().cancel = job.cancel;
  }
  if (job.cancel != nullptr && job.deadline_at != 0) {
    job.cancel->set_deadline(job.deadline_at);
  }
}

void Service::watchdog_loop() {
  // Wake ~4x per interval so a stall is detected within about 1.25
  // intervals worst case; the cv exists only for prompt shutdown.
  const auto period = std::chrono::milliseconds(
      std::max<std::uint32_t>(1, opts_.watchdog_ms / 4));
  std::unique_lock<std::mutex> lock(watch_mu_);
  while (!watch_stop_) {
    watch_cv_.wait_for(lock, period);
    if (watch_stop_) break;
    const std::uint64_t now = util::steady_now_ms();
    for (WatchSlot& slot : watch_) {
      if (slot.token == nullptr) continue;
      const std::uint64_t beat =
          std::max(slot.token->last_beat_ms(), slot.started_ms);
      if (now < beat + opts_.watchdog_ms) continue;
      if (slot.token->cancelled()) continue;  // tripped; waiting to unwind
      // No checkpoint progress for a whole interval: reclaim the worker.
      // A passed deadline reports as DeadlineExceeded (the client's
      // budget expired — that it expired inside a stuck solve is detail);
      // otherwise the caller sees an explicit Cancelled.
      const std::uint64_t dl = slot.token->deadline_at_ms();
      slot.token->cancel(dl != 0 && now >= dl
                             ? util::CancelToken::Reason::kDeadline
                             : util::CancelToken::Reason::kCancelled);
      watchdog_cancels_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::future<SolveResult> Service::submit(SolveRequest req) {
  // std::promise is move-only and std::function requires copyable
  // callables, so the future path shares the promise.
  auto promise = std::make_shared<std::promise<SolveResult>>();
  auto fut = promise->get_future();
  submit_async(std::move(req), [promise](SolveResult res) {
    promise->set_value(std::move(res));
  });
  return fut;
}

void Service::submit_async(SolveRequest req, ResultSink sink) {
  Job job;
  job.reqs.push_back(std::move(req));
  job.sink = [sink = std::move(sink)](std::vector<SolveResult> results) {
    sink(std::move(results.front()));
  };
  (void)admit(job, /*block=*/true);
}

std::future<std::vector<SolveResult>> Service::submit_batch(
    std::vector<SolveRequest> reqs) {
  auto promise =
      std::make_shared<std::promise<std::vector<SolveResult>>>();
  auto fut = promise->get_future();
  submit_batch_async(std::move(reqs),
                     [promise](std::vector<SolveResult> results) {
                       promise->set_value(std::move(results));
                     });
  return fut;
}

std::future<std::vector<SolveResult>> Service::submit_batch(
    std::span<const Instance> instances) {
  std::vector<SolveRequest> reqs;
  reqs.reserve(instances.size());
  for (const Instance& inst : instances) {
    SolveRequest req;
    req.instance = inst;
    reqs.push_back(std::move(req));
  }
  return submit_batch(std::move(reqs));
}

void Service::refuse_job(Job& job, const char* reason) {
  std::vector<SolveResult> out;
  out.reserve(job.reqs.size());
  for (const SolveRequest& r : job.reqs) {
    out.push_back(failure(r.label, effective_options(r).backend, reason));
  }
  completed_.fetch_add(job.reqs.size(), std::memory_order_relaxed);
  job.sink(std::move(out));
}

bool Service::admit(Job& job, bool block) {
  job.deadline_at = job_deadline_at(job.reqs);
  arm_job_cancel(job);
  // One queue slot, k requests: backpressure is per dispatch, the
  // request-level counters stay per request. A blocking submit counts
  // before it waits; a non-blocking one only once the job is consumed.
  const std::size_t n = job.reqs.size();
  if (block) submitted_.fetch_add(n, std::memory_order_relaxed);
  // The injected admission refusal consumes the job (sink fires inline,
  // like a post-drain refusal): structured Overloaded, not a park-and-retry
  // — chaos tests prove callers survive the refusal path.
  if (util::fault_point("service.admit")) {
    if (!block) submitted_.fetch_add(n, std::memory_order_relaxed);
    refuse_job(job, kErrOverloaded);
    return true;
  }
  if (block ? queue_.push(job) : queue_.try_push(job)) {
    if (!block) submitted_.fetch_add(n, std::memory_order_relaxed);
    return true;
  }
  if (!block && !queue_.closed()) return false;  // full: caller parks
  if (!block) submitted_.fetch_add(n, std::memory_order_relaxed);
  refuse_job(job, refusal_reason());
  return true;
}

void Service::submit_batch_async(std::vector<SolveRequest> reqs,
                                 BatchSink sink) {
  batch_submits_.fetch_add(1, std::memory_order_relaxed);
  Job job;
  job.reqs = std::move(reqs);
  job.sink = std::move(sink);
  (void)admit(job, /*block=*/true);
}

bool Service::try_submit_batch_async(std::vector<SolveRequest>& reqs,
                                     BatchSink& sink) {
  Job job;
  job.reqs = std::move(reqs);
  job.sink = std::move(sink);
  if (!admit(job, /*block=*/false)) {
    // Queue full: hand the pieces back so the caller can park and retry.
    reqs = std::move(job.reqs);
    sink = std::move(job.sink);
    return false;
  }
  batch_submits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Service::worker_loop(std::size_t worker) {
  // Per-request arena accounting: everything this worker's front end and
  // engines carve from the thread arena lands in the aggregate counters,
  // so tests and dashboards can watch fresh_allocs go flat as the worker
  // warms up.
  exec::Arena& arena = exec::Arena::for_this_thread();
  exec::Arena::Stats last = arena.stats();
  while (auto job = queue_.pop()) {
    // Cancellation/deadline check at pickup, before any cache or
    // canonicalization work: a dead job is dead work and the caller has
    // (by contract) stopped waiting — shed it for the price of a clock
    // read. poll() also folds the deadline into the token, so a queued
    // Cancel and a queued expiry land in the same place.
    if (job->cancel != nullptr && job->cancel->poll()) {
      shed_job(std::move(*job),
               util::CancelToken::message(job->cancel->reason()));
    } else if (job->deadline_at != 0 &&
               util::steady_now_ms() >= job->deadline_at) {
      shed_job(std::move(*job), kErrDeadlineExceeded);
    } else {
      process_batch(std::move(*job), worker);
    }
    const exec::Arena::Stats& now = arena.stats();
    arena_acquires_.fetch_add(now.acquires - last.acquires,
                              std::memory_order_relaxed);
    arena_reuses_.fetch_add(now.reuses - last.reuses,
                            std::memory_order_relaxed);
    arena_fresh_.fetch_add(now.fresh_allocs - last.fresh_allocs,
                           std::memory_order_relaxed);
    last = now;
  }
}

void Service::shed_job(Job job, const char* reason) {
  // Deadline expiries keep their historical counter (shed_expired);
  // explicit cancels observed at pickup count as cancellations. Counted
  // per slot, not per dispatch.
  auto& counter = reason == kErrCancelled ? cancelled_ : shed_;
  counter.fetch_add(job.reqs.size(), std::memory_order_relaxed);
  refuse_job(job, reason);
}

void Service::process_batch(Job job, std::size_t worker) {
  util::CancelToken* const tok = job.cancel.get();
  // The whole job is one dispatch, so it is one watchdog unit too: the
  // guard covers canonicalization and the cache probe as well as the solve.
  WatchGuard wg(*this, worker, job.cancel);
  if (util::fault_point("solve.stall")) {
    // Manufactured hang: spin silently (no heartbeat) until someone — the
    // watchdog, a deadline, a wire Cancel — trips the token.
    stall_for_token(tok);
  }
  if (tok != nullptr && tok->poll()) {
    shed_job(std::move(job), util::CancelToken::message(tok->reason()));
    return;
  }

  service::BatchConfig cfg;
  // The cacheless differential baseline must still be bitwise-equal to
  // independent submits, which solve permuted twins separately — so dedup
  // degrades to exact-tree grouping when the cache is off (batch.hpp).
  cfg.dedup = opts_.use_cache ? service::BatchDedup::Canonical
                              : service::BatchDedup::IdenticalTree;
  cfg.cache = opts_.use_cache ? &cache_ : nullptr;
  cfg.l2 = opts_.use_cache ? persist_.get() : nullptr;

  // Non-host-sweep groups solve through Solver::solve under the frame
  // token, which engines with checkpoints poll mid-solve; the batch core
  // itself polls it before every group (host-sweep groups included).
  const service::BatchFallback fallback =
      [&](const SolveRequest& req, const SolveOptions& opts) -> SolveResult {
    SolveOptions with_token = opts;
    with_token.cancel = tok;
    try {
      return solver_.solve(req.instance, req.label, with_token);
    } catch (...) {  // solve() catches std::exception; plug-ins may not
      return failure(req.label, opts.backend, "non-standard exception");
    }
  };

  service::BatchOutcome outcome;
  std::vector<SolveResult> results = service::solve_batch_fused(
      job.reqs, opts_.solve, cfg, fallback,
      exec::Arena::for_this_thread(), &outcome);

  batch_dedup_.fetch_add(outcome.dedup_hits, std::memory_order_relaxed);
  express_.fetch_add(outcome.packed_solves, std::memory_order_relaxed);
  promotions_.fetch_add(outcome.l2_hits, std::memory_order_relaxed);
  for (const SolveResult& r : results) {
    if (is_cancel_error(r)) cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  completed_.fetch_add(job.reqs.size(), std::memory_order_relaxed);
  job.sink(std::move(results));
}

Service::Stats Service::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  // completed_ never passes submitted_, but the two loads are not one
  // snapshot — clamp instead of wrapping.
  s.in_flight = s.submitted >= s.completed ? s.submitted - s.completed : 0;
  s.draining = draining_.load(std::memory_order_relaxed);
  s.shed_expired = shed_.load(std::memory_order_relaxed);
  s.express_solves = express_.load(std::memory_order_relaxed);
  s.batch_submits = batch_submits_.load(std::memory_order_relaxed);
  s.batch_dedup_hits = batch_dedup_.load(std::memory_order_relaxed);
  s.arena_acquires = arena_acquires_.load(std::memory_order_relaxed);
  s.arena_reuses = arena_reuses_.load(std::memory_order_relaxed);
  s.arena_fresh_allocs = arena_fresh_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  // The service performs exactly one probe per cache-enabled request, so
  // the cache's own counters ARE the request-level hit/miss numbers.
  s.cache_hits = s.cache.hits;
  s.cache_misses = s.cache.misses;
  s.persist_enabled = persist_ != nullptr;
  s.persist_promotions = promotions_.load(std::memory_order_relaxed);
  if (persist_ != nullptr) s.persist = persist_->stats();
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.watchdog_cancels = watchdog_cancels_.load(std::memory_order_relaxed);
  if (opts_.watchdog_ms > 0) {
    // A stuck worker is one whose solve was (or is about to be) cancelled
    // by the watchdog but has not unwound: no heartbeat for a full
    // interval. Tripped-and-polling solves disappear from here quickly;
    // anything that lingers is genuinely wedged capacity.
    const std::uint64_t now = util::steady_now_ms();
    std::lock_guard<std::mutex> lock(watch_mu_);
    for (const WatchSlot& slot : watch_) {
      if (slot.token == nullptr) continue;
      const std::uint64_t beat =
          std::max(slot.token->last_beat_ms(), slot.started_ms);
      if (now >= beat + opts_.watchdog_ms) ++s.stuck_workers;
    }
  }
  return s;
}

Service::CompactReport Service::compact_caches() {
  CompactReport report;
  // Clearing L1 first is safe even mid-traffic: every ok result in L1 was
  // written through to L2 (when configured), so dropped entries are one
  // disk probe away; with no L2 this is just a cache flush. clear() also
  // resets the L1 counters — the post-compact Stats verb reports the new
  // epoch only.
  report.l1_dropped = cache_.size();
  cache_.clear();
  if (persist_ != nullptr) {
    report.l2_enabled = true;
    report.l2 = persist_->compact();
  }
  return report;
}

}  // namespace copath
