// The open-loop load generator: one thread, at most four non-blocking
// load connections multiplexed with ppoll, requests framed by
// net::protocol's codec.
//
// Every request is timed from its SCHEDULED send time, not from when it
// actually left: a stall anywhere (server, kernel, or this thread) is
// charged to every request that was due during it, instead of slowing the
// sender down and vanishing from the numbers (coordinated omission, in
// the wrk2 method's terms). How late this thread itself dispatched each
// request against the schedule is reported separately as lag, so a run
// whose generator fell behind can be recognized and thrown out.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "workload.hpp"

namespace perfbench {

using Counters = std::map<std::string, std::uint64_t, std::less<>>;

/// Optional side traffic during a window (the traced run): a Health probe
/// on its own connection (it never enters the Service, so its round trip
/// isolates the event-loop thread) and Stats polls on another.
struct Probes {
  double health_hz = 0;
  double stats_hz = 0;
};

struct WindowResult {
  std::size_t sent = 0;
  std::size_t ok = 0;
  /// Refused, failed or unanswered (latency +inf).
  std::size_t failed = 0;
  /// Ok answers that failed the check (latency +inf; the run is wrong).
  std::size_t wrong = 0;
  std::string first_wrong;
  /// Per arrival: ms from scheduled send to the full response.
  std::vector<double> latency_ms;
  /// Per arrival: ms between scheduled and actual dispatch.
  std::vector<double> lag_ms;
  std::size_t backlog_max = 0;
  /// Steady-clock ns of the schedule's origin (arrival i was due at
  /// start_ns + Stream::at_ns[i]).
  std::int64_t start_ns = 0;
  std::uint64_t req_bytes = 0;
  std::uint64_t resp_bytes = 0;
  /// Sampled answers kept for the full validation: (arrival, payload).
  std::vector<std::pair<std::size_t, std::string>> samples;
  std::vector<double> health_rtt_us;
  std::vector<double> queue_depth;
};

/// False when the generator dispatched its requests later than `limit_ms`
/// behind schedule at the 99th percentile: it did not offer the scheduled
/// load, so the window is invalid rather than reported.
[[nodiscard]] bool kept_schedule(const WindowResult& r, double limit_ms);

class Loadgen {
 public:
  /// Connects `connections` load connections plus one admin connection
  /// to 127.0.0.1:port and completes each handshake.
  Loadgen(std::uint16_t port, std::size_t connections);
  ~Loadgen();
  Loadgen(const Loadgen&) = delete;
  Loadgen& operator=(const Loadgen&) = delete;

  /// Sends `s` on its schedule (or closed-loop with up to 128 requests
  /// outstanding when it has none), checks every answer, and waits up to
  /// `drain_s` past the last send for stragglers.
  WindowResult run(const Stream& s, const Probes& probes, double drain_s);

  /// One blocking Stats round trip on the admin connection.
  [[nodiscard]] Counters stats();

  /// Test seam: called once per loop iteration with the iteration's
  /// timestamp (a test stalls the generator through it).
  std::function<void(std::int64_t)> on_iteration;

 private:
  struct Conn;
  Conn open_conn(std::uint16_t port);

  std::vector<Conn> conns_;
  std::vector<Conn> probe_conns_;  // health, stats
  copath::net::Fd admin_;
  std::uint64_t next_seq_ = 1;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
