// Cooperative cancellation: a token the serving layer arms and the solver
// layer polls.
//
// Threads are never killed. A CancelToken is a tiny shared state — an
// atomic trip flag with a reason, an optional absolute deadline, and a
// heartbeat timestamp — that the Service (or a test) hands to a solve via
// SolveOptions::cancel. Solves poll it on the thread driving them:
//
//  * the sweep and the PRAM pipeline check it once before any work, and
//    the batch core checks the frame's token between groups;
//  * the Theorem 5.3 pipeline (core/pipeline.cpp) also calls checkpoint()
//    at every stage boundary and every repair round, so a long PRAM solve
//    stops within one stage once the token trips.
//
// checkpoint() throws CancelledError, which unwinds through the normal
// Solver::solve error path into a structured failed SolveResult whose
// .error is exactly kCancelledMsg or kDeadlineMsg (the service/wire layers
// map those strings to Status codes).
//
// poll() doubles as the progress heartbeat: every call stamps
// last_beat_ms, which the Service watchdog reads to distinguish a slow
// solve (beating) from a stuck one (silent past --watchdog-ms).
//
// Cost when disarmed: cancelled() is one relaxed load; the pipeline's
// checkpoint hook is a nullptr test when no token is attached.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/check.hpp"
#include "util/clock.hpp"

namespace copath::util {

/// Canonical error strings for the two trip reasons. service::kErrCancelled
/// and service::kErrDeadlineExceeded alias these — the wire layer matches
/// result.error against them to pick a Status code, so the literals are a
/// cross-layer contract.
inline constexpr const char* kCancelledMsg = "cancelled";
inline constexpr const char* kDeadlineMsg = "deadline exceeded";

/// Thrown by CancelToken::checkpoint() on the coordinator thread when the
/// token has tripped. Derives CheckError so it rides the existing
/// catch(std::exception) -> SolveResult.error path in Solver::solve; its
/// what() is exactly the canonical reason string.
class CancelledError : public CheckError {
 public:
  explicit CancelledError(const char* msg) : CheckError(msg) {}
};

class CancelToken {
 public:
  enum class Reason : std::uint8_t {
    kNone = 0,
    kCancelled = 1,  // explicit cancel (wire Cancel verb, disconnect, watchdog)
    kDeadline = 2,   // absolute deadline passed
  };

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trips the token. The first trip wins: a later cancel() with a
  /// different reason does not overwrite the recorded one.
  void cancel(Reason reason = Reason::kCancelled) noexcept {
    std::uint8_t expected = 0;
    state_.compare_exchange_strong(expected,
                                   static_cast<std::uint8_t>(reason),
                                   std::memory_order_relaxed,
                                   std::memory_order_relaxed);
  }

  /// Arms (or re-arms) the absolute deadline, in util::steady_now_ms()
  /// time. 0 disarms. poll() self-trips with Reason::kDeadline once the
  /// clock passes it.
  void set_deadline(std::uint64_t at_ms) noexcept {
    deadline_at_ms_.store(at_ms, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t deadline_at_ms() const noexcept {
    return deadline_at_ms_.load(std::memory_order_relaxed);
  }

  /// One relaxed load; safe and meaningful from any thread.
  [[nodiscard]] bool cancelled() const noexcept {
    return state_.load(std::memory_order_relaxed) != 0;
  }

  [[nodiscard]] Reason reason() const noexcept {
    return static_cast<Reason>(state_.load(std::memory_order_relaxed));
  }

  /// Timestamp (steady ms) of the most recent poll(); 0 before the first.
  /// The Service watchdog compares this against --watchdog-ms.
  [[nodiscard]] std::uint64_t last_beat_ms() const noexcept {
    return last_beat_ms_.load(std::memory_order_relaxed);
  }

  /// Heartbeat + deadline check + trip test, in one call. Stamps progress,
  /// self-trips with Reason::kDeadline when the armed deadline has passed,
  /// and returns whether the token is (now) tripped. Never throws.
  bool poll() noexcept {
    const std::uint64_t now = steady_now_ms();
    last_beat_ms_.store(now, std::memory_order_relaxed);
    if (state_.load(std::memory_order_relaxed) != 0) return true;
    const std::uint64_t deadline = deadline_at_ms_.load(std::memory_order_relaxed);
    if (deadline != 0 && now >= deadline) {
      cancel(Reason::kDeadline);
      return true;
    }
    return false;
  }

  /// poll(), then throw CancelledError if tripped. Only on the thread
  /// driving the solve: never inside a util::ThreadPool task (the pool
  /// terminates the process on an escaping exception).
  void checkpoint() {
    if (poll()) [[unlikely]]
      throw CancelledError(message(reason()));
  }

  /// The canonical error string for a trip reason.
  [[nodiscard]] static const char* message(Reason reason) noexcept {
    return reason == Reason::kDeadline ? kDeadlineMsg : kCancelledMsg;
  }

 private:
  std::atomic<std::uint8_t> state_{0};
  std::atomic<std::uint64_t> deadline_at_ms_{0};
  std::atomic<std::uint64_t> last_beat_ms_{0};
};

}  // namespace copath::util
