// copath::Solver — the one-stop request/response facade over every path
// cover engine in the library.
//
// A SolveRequest carries an Instance (a parsed cotree, cotree-algebra text,
// or an edge-list graph routed through the cograph recognizer) plus
// optional per-request SolveOptions overriding the solver's defaults. A
// SolveResult bundles everything the engines can report: the cover, the
// exact minimum (from the independently-tested counting recursion), the
// Hamiltonian path/cycle verdicts, the pipeline stage trace, the simulated
// PRAM cost, an optional independent validation report, and wall time.
//
//   copath::Solver solver;
//   auto res = solver.solve({copath::Instance::text("(* (+ a b) c)")});
//   // res.cover, res.optimal_size, res.hamiltonian_path, ...
//
// Host-sweep requests (Backend::Sequential and its alias Backend::Adaptive)
// run the sequential solve kernel (service/express.hpp) inline; every
// other backend dispatches through core::BackendRegistry
// (core/backend.hpp), so new engines plug in without touching callers.
// Solver::solve_batch runs host-sweep requests through the fused batch
// core on the calling thread and fans the rest over one lazily-created
// util::ThreadPool that is reused across calls; per-instance machines run
// inline on the pool's workers so thread setup is paid once per Solver,
// not once per instance.
#pragma once

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "cograph/canonical.hpp"
#include "cograph/cotree.hpp"
#include "cograph/graph.hpp"
#include "cograph/recognition.hpp"
#include "core/backend.hpp"
#include "core/path_cover.hpp"
#include "core/pipeline.hpp"
#include "pram/stats.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace copath {

using core::Backend;

/// A problem instance in whichever form the caller has it. Resolution to a
/// cotree (parsing text / recognizing a graph) is lazy and cached — batch
/// pipelines pay it exactly once per instance, copies share the cache, and
/// the first resolution runs under a mutex so sharing one Instance across
/// threads is safe. A failed resolution is cached too: every later call
/// rethrows the same exception.
class Instance {
 public:
  Instance() = default;

  /// An already-built cotree (owned).
  static Instance cotree(cograph::Cotree t);
  /// Cotree-algebra text, e.g. "(* (+ a b) (+ c d e))".
  static Instance text(std::string algebra);
  /// An explicit graph; resolution routes through recognize_cograph and
  /// fails (with the P4 witness in the error) unless it is a cograph.
  static Instance graph(cograph::Graph g);
  /// Raw binary canonical-signature bytes (CanonicalForm::signature) — the
  /// daemon's hot wire format. canonical() computes the form straight from
  /// the bytes (cograph::decode_signature_form: identity leaf
  /// permutations, hash folded during one validating walk) WITHOUT
  /// materializing the cotree, so a warm cache hit never builds a tree;
  /// resolve() runs the bounds-checked cograph::decode_signature
  /// (structured failure on malformed/untrusted bytes, never a crash) on
  /// the miss path that actually solves.
  static Instance signature(std::string signature_bytes);
  /// A non-owning view of a caller-held cotree (caller guarantees the
  /// cotree outlives the Instance; no copy is made).
  static Instance view(const cograph::Cotree& t);

  [[nodiscard]] bool empty() const {
    return std::holds_alternative<std::monostate>(source_);
  }

  /// The cotree form, materializing it on first use. Throws
  /// util::CheckError on parse failure or when a graph is not a cograph.
  [[nodiscard]] const cograph::Cotree& resolve() const;

  /// The canonical form (binary structural signature, structural hash,
  /// leaf permutations — see cograph/canonical.hpp), materialized on
  /// first use and shared by copies, so memoizing layers pay
  /// canonicalization once per logical instance. The human-facing algebra
  /// `key` is NOT built on this path (the field stays empty — call
  /// cograph::canonical_form(resolve()) when you want it); identity
  /// checks belong on `signature`/`hash`. Resolves the instance first;
  /// throws like resolve() on bad input.
  [[nodiscard]] const cograph::CanonicalForm& canonical() const;

  /// The undecoded source bytes, for byte-identity pre-dedup: (is_signature,
  /// bytes) for text- and signature-sourced instances, nullopt otherwise
  /// (tree/graph sources have no cheap byte identity). Identical bytes of
  /// the same kind denote the same logical instance, so a batch layer may
  /// share one resolution across them. The view borrows from this
  /// Instance; it dies with it.
  [[nodiscard]] std::optional<std::pair<bool, std::string_view>> raw_bytes()
      const {
    if (const auto* algebra = std::get_if<std::string>(&source_)) {
      return std::make_pair(false, std::string_view(*algebra));
    }
    if (const auto* sig = std::get_if<SignatureBytes>(&source_)) {
      return std::make_pair(true, std::string_view(sig->bytes));
    }
    return std::nullopt;
  }

 private:
  /// Distinguishes signature bytes from algebra text in the source variant.
  struct SignatureBytes {
    std::string bytes;
  };
  /// A value computed once under a mutex, or the exception computing it
  /// threw, which every later get() rethrows. (std::call_once would retry
  /// after a throw, which GCC's TSan pthread_once interceptor cannot do.)
  template <typename T>
  struct Memo {
    std::mutex mu;
    std::atomic<bool> done{false};
    std::optional<T> value;
    std::exception_ptr error;

    template <typename F>
    const T& get(F&& compute) {
      if (!done.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(mu);
        if (!done.load(std::memory_order_relaxed)) {
          try {
            value.emplace(compute());
          } catch (...) {
            error = std::current_exception();
          }
          done.store(true, std::memory_order_release);
        }
      }
      if (error) std::rethrow_exception(error);
      return *value;
    }
  };
  using ResolveCache = Memo<cograph::Cotree>;
  using CanonCache = Memo<cograph::CanonicalForm>;

  std::variant<std::monostate, cograph::Cotree, std::string, cograph::Graph,
               const cograph::Cotree*, SignatureBytes>
      source_;
  /// Created by the text/graph factories; shared by copies so resolution
  /// happens once per logical instance.
  std::shared_ptr<ResolveCache> cache_;
  /// Created by every factory; shared by copies (canonicalization once per
  /// logical instance).
  std::shared_ptr<CanonCache> canon_;
};

/// Per-solve knobs. Everything beyond `backend` is advisory for backends
/// that do not use a PRAM machine.
struct SolveOptions {
  Backend backend = Backend::Sequential;
  /// Physical worker threads for PRAM machines (1 = inline execution). For
  /// Backend::Native, 0 selects hardware concurrency. solve_batch runs
  /// every non-host-sweep request with 1 (see solve_batch).
  std::size_t workers = 1;
  /// Virtual processor budget; 0 = the paper's n / log2(n).
  std::size_t processors = 0;
  /// Access discipline enforced by PRAM machines.
  pram::Policy policy = pram::Policy::EREW;
  /// Pipeline knobs (rank engine, repair cap) for PRAM backends.
  core::PipelineOptions pipeline{};
  /// Collect the per-stage PipelineTrace where supported.
  bool collect_trace = false;
  /// Run the independent validator on the produced cover (minimality is
  /// required only for exact backends).
  bool validate = false;
  /// Construct the Hamiltonian cycle order when one exists.
  bool want_hamiltonian_cycle = false;
  /// Compute optimal_size / minimum / Hamiltonicity verdicts (one extra
  /// O(n) host pass). Hot paths that only need the cover turn this off;
  /// SolveResult::optimal_size is then -1 and the verdict flags stay false
  /// (want_hamiltonian_cycle still works — the cycle attempt itself is the
  /// verdict).
  bool compute_verdicts = true;
  /// Worker threads for solve_batch; 0 = hardware concurrency. Read from
  /// the Solver's *defaults* when its pool is first created (per-request
  /// overrides are ignored — the pool is shared across the whole batch and
  /// reused for the Solver's lifetime).
  std::size_t batch_workers = 0;
  /// Cooperative cancellation token, polled at pipeline stage boundaries
  /// and inside Native's pfor chunks (see util/cancel.hpp). Borrowed: must
  /// outlive the solve. When it trips, the solve unwinds into a failed
  /// SolveResult whose error is util::kCancelledMsg or util::kDeadlineMsg.
  /// Excluded from cache keys (it never changes the computed answer).
  util::CancelToken* cancel = nullptr;
};

struct SolveRequest {
  Instance instance;
  /// Overrides the Solver's default options when set.
  std::optional<SolveOptions> options;
  /// Free-form tag copied into the result (batch bookkeeping).
  std::string label;
  /// Relative completion budget in milliseconds (0 = none). Honored by
  /// copath::Service, which stamps it to an absolute steady-clock deadline
  /// at admission and SHEDS the request — a structured "deadline exceeded"
  /// failure, the work never runs — if it is still queued when the budget
  /// ends. The synchronous Solver ignores it (a direct solve has no queue
  /// to expire in).
  std::uint32_t deadline_ms = 0;
  /// Owning handle for this request's cancel token (copath::Service arms
  /// the deadline on it and registers it with the worker watchdog; the
  /// net::Server trips it on client disconnect or a wire Cancel). Created
  /// by the Service at admission when absent and needed. The per-solve
  /// borrow in SolveOptions::cancel is derived from this, never set by
  /// callers directly.
  std::shared_ptr<util::CancelToken> cancel = nullptr;
};

/// Structured response. `ok` is false when the instance could not be
/// resolved or the backend rejected it; `error` then carries the reason and
/// every other field is default-initialized.
struct SolveResult {
  bool ok = false;
  std::string error;
  std::string label;
  Backend backend = Backend::Sequential;
  /// The engine that actually ran: equal to `backend`, except that
  /// Backend::Adaptive answers report Sequential (the kernel they ran).
  Backend routed = Backend::Sequential;

  std::size_t vertex_count = 0;
  core::PathCover cover;
  /// The exact minimum path cover size (Lemma 2.4 counting recursion) —
  /// independent of the backend, so heuristic covers can be scored.
  /// -1 when options.compute_verdicts is off.
  std::int64_t optimal_size = 0;
  /// cover.size() == optimal_size (always true for exact backends).
  bool minimum = false;
  bool hamiltonian_path = false;
  bool hamiltonian_cycle = false;
  /// Set when options.want_hamiltonian_cycle and a cycle exists.
  std::optional<std::vector<cograph::VertexId>> cycle;

  /// Simulated PRAM cost (PRAM backends only; see stats_valid).
  pram::Stats stats{};
  bool stats_valid = false;
  /// Pipeline stage trace (when options.collect_trace and supported).
  core::PipelineTrace trace{};
  bool trace_valid = false;
  /// Independent validation (when options.validate).
  core::ValidationReport validation{};

  /// Wall time of the backend run alone (excludes instance resolution,
  /// verdicts, and validation).
  double wall_ms = 0.0;
};

/// Count-only response (Lemma 2.4 workloads: path cover size and the
/// Hamiltonicity verdicts without reporting a cover).
struct CountResult {
  bool ok = false;
  std::string error;
  std::size_t vertex_count = 0;
  std::int64_t path_cover_size = 0;
  bool hamiltonian_path = false;
  bool hamiltonian_cycle = false;
  pram::Stats stats{};
  bool stats_valid = false;
  double wall_ms = 0.0;
};

class Solver {
 public:
  Solver() = default;
  explicit Solver(SolveOptions defaults) : defaults_(std::move(defaults)) {}

  [[nodiscard]] const SolveOptions& defaults() const { return defaults_; }

  /// Solves one request. Does not throw: resolution/backend failures come
  /// back as ok == false results with the reason in `error`.
  [[nodiscard]] SolveResult solve(const SolveRequest& req) const;
  /// Convenience: one instance, the solver's default options. The instance
  /// is not copied, so its resolution cache benefits repeat calls.
  [[nodiscard]] SolveResult solve(const Instance& inst) const {
    return solve_with(inst, {}, defaults_);
  }
  /// Borrowing form of solve(): explicit label and options, the instance
  /// neither copied nor moved (the Service keeps the instance — and the
  /// canonical form its cache key views — alive across the solve and the
  /// cache store).
  [[nodiscard]] SolveResult solve(const Instance& inst,
                                  const std::string& label,
                                  const SolveOptions& opts) const {
    return solve_with(inst, label, opts);
  }

  /// Solves every request. Results are positionally aligned with `reqs`
  /// and identical to per-request solve() up to wall-clock fields.
  /// Host-sweep requests go through the fused batch core
  /// (service/batch.hpp) on the calling thread, exact duplicates solved
  /// once. Every other request runs one instance per worker of one shared
  /// util::ThreadPool (created lazily, reused across calls) with
  /// workers = 1 — parallelism comes from the batch. Results are identical
  /// for any worker count.
  [[nodiscard]] std::vector<SolveResult> solve_batch(
      std::span<const SolveRequest> reqs);

  /// Count-only entry (Lemma 2.4): the minimum path cover size and the
  /// Hamiltonicity verdicts. Always runs the built-in counting engines —
  /// the backend (which must be registered) only selects the PRAM tree
  /// contraction (machine cost reported) vs the host post-order sweep;
  /// plug-in cover engines are not consulted here.
  [[nodiscard]] CountResult count(const SolveRequest& req) const;

 private:
  SolveResult solve_with(const Instance& inst, const std::string& label,
                         const SolveOptions& opts) const;

  SolveOptions defaults_;
  std::unique_ptr<util::ThreadPool> pool_;  // lazily built by solve_batch
};

}  // namespace copath
