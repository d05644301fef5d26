// Backend registry: the dispatch substrate behind copath::Solver.
//
// Every path cover engine in the library — the sequential sweep, the PRAM
// pipeline under various machine configurations, the host reference
// pipeline, and the baselines — is wrapped as a `BackendFn` and registered
// under a `Backend` id in the process-wide `BackendRegistry`. The Solver
// facade (copath_solver.hpp) resolves requests through the registry, so new
// engines (sharded, async, GPU, ...) plug in by registering themselves and
// become reachable from every example, bench, and batch workload without
// touching call sites.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cograph/cotree.hpp"
#include "core/path_cover.hpp"
#include "core/pipeline.hpp"
#include "pram/machine.hpp"
#include "util/cancel.hpp"

namespace copath::core {

/// The built-in path cover engines. The registry is open: ids beyond the
/// enum can be added (or replaced) at runtime through BackendRegistry::add.
enum class Backend : std::uint8_t {
  /// Lemma 2.3 — the O(n) sequential sweep (host, no PRAM machine).
  Sequential,
  /// Theorem 5.3 on an EREW machine with the paper's P = n/log2(n) budget
  /// (the former core::min_path_cover_parallel convenience path).
  Parallel,
  /// Theorem 5.3 on a fully configurable machine: policy, processor budget,
  /// rank engine, and trace collection are honored.
  Pram,
  /// Held–Karp bitmask DP over the materialized graph (exact oracle;
  /// rejects n > 20, and is already slow well before that).
  BruteForce,
  /// Min-degree greedy heuristic on the materialized graph. The only
  /// backend with no minimality guarantee.
  Greedy,
  /// The level-synchronous strawman the paper dismisses (Θ(height) time).
  NaiveParallel,
  /// The host execution of the full bracket pipeline (differential oracle).
  Reference,
  /// An alias of Backend::Sequential, kept because wire byte 7 and
  /// existing clients name it: the same kernel, bitwise-equal covers,
  /// SolveResult::routed == Sequential. The cover is the sweep's — the
  /// same size as the Theorem 5.3 pipeline's, but it may differ path by
  /// path (DESIGN.md §7.3).
  Native,
  /// An alias of Backend::Sequential, like Native: the same kernel,
  /// bitwise-equal covers, SolveResult::routed == Sequential. Kept as its
  /// own id because wire byte 8 and existing clients name it.
  Adaptive,
};

[[nodiscard]] const char* to_string(Backend b);
[[nodiscard]] std::optional<Backend> backend_from_string(std::string_view s);

/// Machine/engine tuning knobs a backend receives. Backends ignore the
/// fields that do not apply to them (Sequential ignores everything).
struct BackendConfig {
  /// Virtual processor budget; 0 selects the paper's n / log2(n).
  std::size_t processors = 0;
  /// Access discipline the machine enforces.
  pram::Policy policy = pram::Policy::EREW;
  /// Pipeline knobs (rank engine, repair round cap) for PRAM backends.
  PipelineOptions pipeline{};
  /// Collect a PipelineTrace where the engine supports one.
  bool collect_trace = false;
  /// Cooperative cancellation token (util/cancel.hpp); nullptr = never
  /// cancelled. Borrowed — must outlive the solve. Engines that honor it
  /// (the sweep checks it once up front; the Theorem 5.3 pipeline polls it
  /// at every stage boundary and repair round) unwind with
  /// util::CancelledError when it trips.
  util::CancelToken* cancel = nullptr;
};

/// What a backend hands back: always a cover; machine stats and a stage
/// trace when the engine ran on a PRAM machine / through the pipeline.
struct BackendOutput {
  PathCover cover;
  pram::Stats stats{};
  PipelineTrace trace{};
  /// True iff `stats` reflects a real machine run.
  bool used_pram = false;
  /// True iff `trace` was populated.
  bool traced = false;
};

using BackendFn =
    std::function<BackendOutput(const cograph::Cotree&, const BackendConfig&)>;

/// Process-wide backend table. add/find/registered are mutex-guarded, and
/// find hands out shared ownership of an immutable Entry, so registering
/// (or replacing) an engine concurrently with running solvers is safe: a
/// backend mid-execution keeps its Entry alive even after replacement.
class BackendRegistry {
 public:
  struct Entry {
    Backend id;
    std::string name;
    BackendFn fn;
    /// False for heuristics whose cover may exceed the minimum (Greedy).
    bool exact = true;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  static BackendRegistry& instance();

  /// Registers (or replaces) a backend.
  void add(Backend id, std::string name, BackendFn fn, bool exact = true);

  /// nullptr when the id is not registered.
  [[nodiscard]] EntryPtr find(Backend id) const;
  [[nodiscard]] EntryPtr find(std::string_view name) const;

  /// Registered ids, in registration order.
  [[nodiscard]] std::vector<Backend> registered() const;

 private:
  BackendRegistry();
  mutable std::mutex mu_;
  std::vector<EntryPtr> entries_;
};

/// The paper's processor budget: max(1, n / log2(n)).
[[nodiscard]] std::size_t paper_processors(std::size_t n);

/// True for the built-in engines that execute on a pram::Machine (and so
/// report meaningful pram::Stats).
[[nodiscard]] bool uses_pram_machine(Backend b);

/// True for the backends Solver and Service run as the host sweep
/// (service::solve_sweep): Sequential and its aliases Native and Adaptive.
[[nodiscard]] bool is_host_sweep(Backend b);

/// Applies per-backend fixed contracts to a config: Backend::Parallel pins
/// the historical EREW + paper-budget machine whatever the caller asked
/// for. Other backends pass through unchanged. Used by both the solve and
/// count paths so the contracts cannot drift apart.
[[nodiscard]] BackendConfig apply_backend_contract(Backend b,
                                                   BackendConfig cfg);

/// Machine configuration a PRAM backend derives from `cfg` for an n-vertex
/// instance (resolves processors == 0 to the paper budget).
[[nodiscard]] pram::Machine::Config machine_config(std::size_t n,
                                                   const BackendConfig& cfg);

/// Substrate micro-probe used by the simulator benchmarks (E7): runs a
/// work-optimal exclusive scan of `n` ones on a machine built from `cfg`
/// and reports the simulated cost plus wall time. Lives behind the facade
/// so benches never wire up pram::Machine themselves.
struct ScanProbeResult {
  pram::Stats stats{};
  double wall_ms = 0.0;
  std::int64_t checksum = 0;  // last prefix = n - 1
};
[[nodiscard]] ScanProbeResult probe_scan_substrate(std::size_t n,
                                                   const BackendConfig& cfg);

}  // namespace copath::core
