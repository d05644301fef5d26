// copath::Service — the concurrent, cache-aware front-end over Solver.
//
// Where Solver::solve_batch is a synchronous fan-out over a span the caller
// already holds, Service is the traffic-serving shape: requests arrive one
// at a time from many threads, `submit()` hands back a std::future
// immediately, and a fixed pool of solver workers drains a bounded MPMC
// queue. Four mechanisms turn repeated/small traffic into cheap traffic:
//
//  * Canonical memo cache — every request is canonicalized
//    (cograph/canonical.hpp) and looked up in a sharded ResultCache by its
//    binary structural signature; a hit replays the stored canonical-space
//    result through the requesting instance's own leaf permutation and
//    never touches a solve engine.
//  * In-flight coalescing — a request whose (canonical signature, options)
//    twin is *currently being solved* parks on that computation instead of
//    starting its own; when the twin finishes, every parked waiter is
//    fulfilled from the one result. Concurrent identical requests compute
//    once.
//  * Express lane — every host-sweep request (Backend::Sequential, the
//    default, and its alias Backend::Adaptive) skips backend/registry
//    dispatch entirely and runs parse -> binarize -> sequential sweep
//    inline on the worker thread (service/express.hpp), with all scratch
//    drawn from the worker's thread-local exec::Arena. Steady-state
//    requests perform zero arena-fresh allocations from request text to
//    SolveResult; the per-worker arena counters aggregated in Stats prove
//    it continuously. Other backends go through Solver::solve with the
//    request's options unchanged.
//  * Backpressure — the submit queue is bounded; producers block in
//    submit() when solvers fall behind, so bursts cost latency, not
//    memory.
//
// Failures stay structured: a bad instance resolves to an ok == false
// SolveResult on the future, exactly like Solver. Results for cache hits
// and coalesced twins are bitwise-identical to a direct solve for repeated
// instances, and isomorphism-equivalent (valid cover of the same minimum
// size, identical verdicts) for permuted/relabeled ones — see
// DESIGN.md §6 for the soundness argument and §8 for the front-end
// allocation budget.
//
//   copath::Service svc;
//   auto f1 = svc.submit({copath::Instance::text("(* (+ a b) c)")});
//   auto f2 = svc.submit({copath::Instance::text("(* c (+ b a))")});  // hit
//   SolveResult r1 = f1.get(), r2 = f2.get();
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "copath_solver.hpp"
#include "service/persist_cache.hpp"
#include "service/result_cache.hpp"
#include "util/mpmc_queue.hpp"

namespace copath {

// The structured failure strings Service emits for refusals it originates
// (as SolveResult::error on an ok == false result). They are part of the
// service's contract: the serving tier (net/server.cpp) maps each onto a
// distinct wire status, so compare against these constants, not ad-hoc
// literals.
inline constexpr const char* kErrDraining = "service is draining";
inline constexpr const char* kErrShutDown = "service is shut down";
/// The request's deadline passed — either while it was queued (the solve
/// never ran) or mid-solve (the cancel token tripped and the engine
/// unwound). Aliases util::kDeadlineMsg: the exec layer emits the same
/// string when a token trips with Reason::kDeadline, so the wire mapping
/// needs exactly one comparison.
inline constexpr const char* kErrDeadlineExceeded = util::kDeadlineMsg;
/// The request was cancelled — wire Cancel verb, client disconnect, or the
/// worker watchdog. Aliases util::kCancelledMsg (see above).
inline constexpr const char* kErrCancelled = util::kCancelledMsg;
/// Admission refused under overload pressure (today only injected via
/// util::FaultInjector's "service.admit" point; a real admission limiter
/// would reuse the same string).
inline constexpr const char* kErrOverloaded = "service overloaded";

class Service {
 public:
  struct Options {
    /// Default solve options for requests that carry none: the sequential
    /// sweep (Backend::Sequential), run inline on the express lane.
    SolveOptions solve{};
    /// Solver worker threads draining the queue; 0 = hardware concurrency.
    std::size_t workers = 0;
    /// Bound of the submit queue — the backpressure knob. submit() blocks
    /// while the queue holds this many undispatched requests.
    std::size_t queue_capacity = 256;
    /// Master switch for the memo cache AND in-flight coalescing (off =
    /// every request computes; the differential-test baseline).
    bool use_cache = true;
    service::ResultCache::Config cache{};
    /// Persistent L2 tier (service/persist_cache.hpp). persist.dir empty =
    /// RAM-only (no files touched). The L2 is keyed canonically like L1,
    /// so it requires use_cache; probe order is L1 -> L2 (promote on hit)
    /// and every fresh ok solve is written through.
    service::PersistCache::Config persist{};
    /// Worker watchdog interval in ms; 0 = off. When on, a supervisor
    /// thread watches each worker's in-solve cancel-token heartbeat: a
    /// solve that makes no checkpoint progress for this long gets its
    /// token tripped (Stats::watchdog_cancels) and unwinds with a
    /// structured Cancelled/DeadlineExceeded result at its next poll.
    /// Threads are never killed — a stuck solve that never polls (foreign
    /// backend stuck in a syscall) is only *reported* via
    /// Stats::stuck_workers / the Health verb.
    std::uint32_t watchdog_ms = 0;
  };

  struct Stats {
    std::uint64_t submitted = 0;
    /// Futures fulfilled (hits + misses computed + coalesced + failures).
    std::uint64_t completed = 0;
    /// Requests sitting in the submit queue, undispatched — the
    /// backpressure signal the daemon maps its per-connection read window
    /// onto (stop reading sockets when this approaches queue_capacity).
    std::uint64_t queue_depth = 0;
    /// Accepted requests not yet fulfilled (queued + being solved +
    /// parked on an in-flight twin) = submitted - completed.
    std::uint64_t in_flight = 0;
    /// True once drain() has begun: new submits get structured refusals.
    bool draining = false;
    /// Mirrors of cache.hits / cache.misses (one probe per cache-enabled
    /// request, so the cache counters are the request-level numbers).
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    /// Requests fulfilled by parking on an in-flight twin computation.
    std::uint64_t coalesced = 0;
    /// Requests shed at the worker because their deadline passed while
    /// they sat in the queue: answered with a structured "deadline
    /// exceeded" failure, the solve never ran. Counted per request (a
    /// whole expired batch adds its slot count).
    std::uint64_t shed_expired = 0;
    /// Requests solved inline on the express lane (no registry dispatch).
    std::uint64_t express_solves = 0;
    /// submit_batch calls accepted (each is ONE queue slot and ONE worker
    /// dispatch however many requests it carries).
    std::uint64_t batch_submits = 0;
    /// Batch requests answered from another request in the SAME batch
    /// (intra-batch dedup by canonical signature — cache hits are counted
    /// by cache_hits as usual, once per unique group).
    std::uint64_t batch_dedup_hits = 0;
    /// Unique batch groups solved by the sequential solve kernel (see
    /// service/batch.hpp).
    std::uint64_t packed_solves = 0;
    /// Always 0: the Service claims no thread leases. Kept only because
    /// the perfbench ledger reads it.
    std::uint64_t lease_acquires = 0;
    /// Thread-local front-end arena counters summed over the workers
    /// (request scratch: parse, canonicalize, binarize, sweep).
    /// fresh_allocs flat across
    /// warm requests == the zero-allocation steady state; the regression
    /// test in tests/frontend_test.cpp pins it.
    std::uint64_t arena_acquires = 0;
    std::uint64_t arena_reuses = 0;
    std::uint64_t arena_fresh_allocs = 0;
    /// Requests answered with a structured cancellation failure because
    /// their cancel token tripped (explicit Cancel, client disconnect, or
    /// watchdog) — at pickup or mid-solve. Deadline-at-pop refusals stay
    /// in shed_expired; a mid-solve deadline trip counts here.
    std::uint64_t cancelled = 0;
    /// Tokens tripped by the worker watchdog (no checkpoint progress for
    /// Options::watchdog_ms while on a worker).
    std::uint64_t watchdog_cancels = 0;
    /// Workers currently past the watchdog interval with no heartbeat —
    /// solves that were cancelled but have not unwound (not polling). The
    /// Health verb's strongest degradation signal: these workers are lost
    /// capacity until their solve returns.
    std::uint64_t stuck_workers = 0;
    service::CacheStats cache{};
    /// Persistent tier counters (zeros when no cache dir is configured).
    bool persist_enabled = false;
    /// L2 hits promoted into L1 (single submits + batch groups).
    std::uint64_t persist_promotions = 0;
    service::PersistCache::Stats persist{};
  };

  Service() : Service(Options{}) {}
  explicit Service(Options opts);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Completion callback for the async submit paths. Invoked exactly once
  /// per accepted or refused request, on whichever thread finishes it
  /// (a solver worker, the worker computing a coalesced twin, or — for
  /// refusals — the submitting thread itself). Must not throw.
  using ResultSink = std::function<void(SolveResult)>;

  /// Enqueues a request and returns the future of its result. Blocks while
  /// the queue is full (backpressure). After drain()/shutdown() the future
  /// resolves immediately to a structured refusal failure.
  [[nodiscard]] std::future<SolveResult> submit(SolveRequest req);

  /// Callback form of submit(): `sink` is invoked with the result instead
  /// of a future resolving. The daemon's completion path — no promise
  /// shared state, and the worker thread runs the sink inline (response
  /// encoding happens off the event loop). Same backpressure/refusal
  /// contract as submit().
  void submit_async(SolveRequest req, ResultSink sink);

  /// Non-blocking submit_async: returns false when the queue is full,
  /// leaving `req`/`sink` intact so the caller can park them and retry
  /// (the daemon pauses the connection's reads instead of blocking its
  /// event loop). Refusals after drain()/shutdown() consume the request —
  /// the sink is invoked inline with the structured refusal — and return
  /// true.
  [[nodiscard]] bool try_submit_async(SolveRequest& req, ResultSink& sink);

  /// Completion callback for the batch submit paths: invoked exactly once
  /// with results positionally aligned to the submitted requests. Must not
  /// throw.
  using BatchSink = std::function<void(std::vector<SolveResult>)>;

  /// Enqueues a whole batch as ONE queue slot and solves it fused on one
  /// worker (service/batch.hpp): intra-batch dedup by canonical signature,
  /// one cache probe per unique group, then one solve per surviving group
  /// (the sequential kernel for host-sweep groups), the frame's cancel
  /// token polled before each. Results are positionally aligned with
  /// `reqs` and bitwise-equal to N independent submit() calls (DESIGN.md
  /// §10). Blocks
  /// while the queue is full; after drain()/shutdown() every slot resolves
  /// to a structured refusal. Batches bypass in-flight coalescing — dedup
  /// against concurrent singles happens through the cache instead.
  [[nodiscard]] std::future<std::vector<SolveResult>> submit_batch(
      std::vector<SolveRequest> reqs);

  /// Convenience: wraps bare instances in default-option requests.
  [[nodiscard]] std::future<std::vector<SolveResult>> submit_batch(
      std::span<const Instance> instances);

  /// Callback form of submit_batch (the daemon's completion path).
  void submit_batch_async(std::vector<SolveRequest> reqs, BatchSink sink);

  /// Non-blocking submit_batch_async: returns false when the queue is
  /// full, leaving `reqs`/`sink` intact for the caller to park and retry.
  /// Refusals after drain()/shutdown() consume the batch — the sink runs
  /// inline with one structured refusal per slot — and return true.
  [[nodiscard]] bool try_submit_batch_async(std::vector<SolveRequest>& reqs,
                                            BatchSink& sink);

  /// Graceful teardown: refuses every submit from this point on (callers
  /// get a structured "service is draining" failure), waits until every
  /// already-accepted request has been fulfilled, then stops the workers.
  /// Idempotent and safe to race with shutdown()/submit() from other
  /// threads.
  void drain();

  /// Destructor teardown: same worker stop as drain() (accepted requests
  /// are still fulfilled — the queue delivers already-enqueued items after
  /// close), but refusals say "shut down" and no draining state is
  /// advertised in stats(). Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] std::size_t workers() const { return threads_.size(); }

  /// The admin compaction: clears + stat-resets the RAM tier (safe — every
  /// ok result was written through to L2 when one is configured) and
  /// compacts the persistent tier. Callable any time, including while
  /// workers are solving.
  struct CompactReport {
    /// L1 entries dropped by the clear (its counters reset too).
    std::uint64_t l1_dropped = 0;
    bool l2_enabled = false;
    service::PersistCache::CompactReport l2{};
  };
  CompactReport compact_caches();

 private:
  struct Job {
    SolveRequest req;
    ResultSink sink;
    /// Batch variant: when `is_batch`, `batch`/`batch_sink` carry the whole
    /// submit_batch payload and `req`/`sink` are unused. One Job = one
    /// queue slot either way — a batch occupies a single backpressure unit.
    std::vector<SolveRequest> batch;
    BatchSink batch_sink;
    bool is_batch = false;
    /// Absolute steady-clock expiry (util::steady_now_ms domain; 0 =
    /// none), stamped at ADMISSION from the request's relative
    /// deadline_ms so queue time counts against the budget. A batch
    /// carries the tightest nonzero deadline among its slots.
    std::uint64_t deadline_at = 0;
    /// This job's cancel token: the request's own (set by net::Server) or
    /// one the Service created at admission because a deadline or the
    /// watchdog needs one (see arm_job_cancel). A batch's token is its
    /// frame token (slot 0's SolveRequest::cancel, which a created token is
    /// stored into). nullptr = job is not cancellable.
    std::shared_ptr<util::CancelToken> cancel;
  };
  /// A request parked on an in-flight twin. Keeps its whole SolveRequest
  /// (instance moved, cheap) so fulfillment can replay through that
  /// instance's canonical permutation — and so a waiter whose leader got
  /// *cancelled* can be re-queued as its own request instead of inheriting
  /// a cancellation it never asked for.
  struct Waiter {
    ResultSink sink;
    SolveRequest req;
    std::uint64_t deadline_at = 0;
  };
  struct InFlight {
    std::vector<Waiter> waiters;
  };
  /// In-flight twins are keyed by the owned binary cache key; the 64-bit
  /// canonical-and-options hash is the map hash (full keys disambiguate).
  struct FlightHash {
    std::size_t operator()(const service::CacheKey& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };

  void worker_loop(std::size_t worker);
  void process(Job job, std::size_t worker);
  void process_batch(Job job, std::size_t worker);
  /// Deadline/cancellation shedding: answers every slot of a dead job with
  /// the structured `reason` failure without touching cache or engine —
  /// the whole point is to not spend worker time on dead work. `reason` is
  /// kErrDeadlineExceeded or kErrCancelled.
  void shed_job(Job job, const char* reason);
  /// Populates Job::cancel (creating a token when a deadline or the
  /// watchdog needs one) and arms the token's absolute deadline.
  void arm_job_cancel(Job& job);
  /// Supervisor: trips the token of any worker whose solve heartbeat is
  /// older than Options::watchdog_ms.
  void watchdog_loop();
  /// Answers a parked waiter after its leader was cancelled: with the
  /// waiter's own cancellation if ITS token tripped, otherwise by
  /// re-queuing it as a fresh job (refused Overloaded if the queue is
  /// full) — one client's cancel never poisons another's twin request.
  void requeue_waiter(Waiter w);
  /// One structured refusal per slot, invoked inline on the submitting
  /// thread (mirrors the single-request refusal path). `reason` is one of
  /// the kErr* contract strings above.
  void refuse_batch(std::vector<SolveRequest>& reqs, BatchSink& sink,
                    const char* reason);
  /// Shared close-and-join half of drain()/shutdown().
  void stop_workers();
  [[nodiscard]] SolveOptions effective_options(const SolveRequest& req) const;
  [[nodiscard]] const char* refusal_reason() const {
    return draining_.load(std::memory_order_relaxed) ? kErrDraining
                                                     : kErrShutDown;
  }

  Options opts_;
  Solver solver_;
  service::ResultCache cache_;
  /// The L2 tier; null when Options::persist.dir is empty.
  std::unique_ptr<service::PersistCache> persist_;
  util::MpmcQueue<Job> queue_;
  std::mutex inflight_mu_;
  std::unordered_map<service::CacheKey, InFlight, FlightHash> inflight_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> express_{0};
  std::atomic<std::uint64_t> batch_submits_{0};
  std::atomic<std::uint64_t> batch_dedup_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> packed_{0};
  std::atomic<std::uint64_t> arena_acquires_{0};
  std::atomic<std::uint64_t> arena_reuses_{0};
  std::atomic<std::uint64_t> arena_fresh_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> watchdog_cancels_{0};
  std::atomic<bool> draining_{false};
  /// Watchdog state: one slot per worker, registered while that worker is
  /// inside a solve (WatchGuard in service.cpp). Guarded by watch_mu_;
  /// watch_cv_ wakes the supervisor for shutdown.
  struct WatchSlot {
    std::shared_ptr<util::CancelToken> token;
    std::uint64_t started_ms = 0;
  };
  friend class WatchGuard;
  mutable std::mutex watch_mu_;
  std::vector<WatchSlot> watch_;
  std::condition_variable watch_cv_;
  bool watch_stop_ = false;  // guarded by watch_mu_
  std::once_flag join_once_;
  /// Supervisor thread (running only when Options::watchdog_ms > 0);
  /// ordered just before threads_ for the same built-*this reason.
  std::thread watchdog_;
  std::vector<std::thread> threads_;  // last member: workers see a built *this
};

}  // namespace copath
