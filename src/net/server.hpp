// net::Server — the copathd serving core: one event-loop thread multiplexing
// pipelined protocol connections onto a copath::Service worker pool.
//
// Threading model (the whole design in four sentences): the loop thread owns
// every connection object and all socket IO; solver workers run each
// request's ResultSink inline, which ENCODES the response bytes off the loop
// thread (the expensive part of completion) and hands the finished frame to
// the loop through a mutex-guarded completion queue plus an
// async-signal-safe wake. The loop thread then does nothing per completion
// but append-and-flush. No connection state is ever touched off the loop
// thread.
//
// Backpressure is a two-level window mapped onto the Service's bounded MPMC
// queue: a connection stops being read (its fd leaves the poll set) when it
// has `inflight_window` unanswered solves OR the service queue rejects a
// submit (the decoded request is parked and retried as completions drain) OR
// its outbuf exceeds the write high-water mark. TCP then pushes back on the
// client; a slow or greedy peer costs itself latency, never the server
// memory.
//
// Graceful drain (SIGTERM or the Drain verb): new solves get structured
// Draining refusals while already-accepted ones keep completing; each
// connection closes once it has nothing in flight and nothing buffered, and
// when the last one is gone the Service itself drains and the loop stops.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/service.hpp"
#include "util/cancel.hpp"

namespace copath::net {

class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; read the actual port from port() after construction.
    std::uint16_t port = 0;
    /// Max unanswered solve requests per connection before its reads pause.
    /// A BatchSolve frame counts as ONE toward the window however many
    /// items it carries — the window bounds dispatches, and a batch is one
    /// dispatch (the service packs it onto one worker).
    std::size_t inflight_window = 64;
    /// Operational cap on BatchSolve items per frame; clamped to the
    /// protocol ceiling (protocol::kMaxBatchItems). Oversized batches are
    /// refused as BadFrame with a structured reason.
    std::size_t max_batch_items = protocol::kMaxBatchItems;
    /// Pause reads while a connection's outbuf exceeds this many bytes.
    std::size_t outbuf_high_water = 4u << 20;
    /// Overload bound: max parked (queue-refused, waiting-to-retry)
    /// requests per connection. Past it the request is refused with
    /// Status::Overloaded instead of parked; 0 disables parking entirely
    /// (every queue-full refuses). The old behavior — park without bound —
    /// let a slow service turn decoded request bodies into unbounded
    /// server memory.
    std::size_t max_parked = 64;
    /// Aggregate decoded-body bytes across ALL parked requests; a park
    /// that would exceed it is refused Overloaded. Bounds worst-case
    /// parked memory server-wide (a single batch frame can carry 16 MiB).
    std::size_t max_parked_bytes = 64u << 20;
    /// Close a connection that has made no protocol progress (no frame
    /// completed, no response sent) for this long, unless it has a solve
    /// in flight. Catches both silent idlers and slowloris peers trickling
    /// half a frame forever. 0 = never (the default: tests and pipelining
    /// clients may legitimately sit idle).
    std::uint32_t idle_timeout_ms = 0;
    /// Deadline applied to solve frames that carry none (0 = none). Frames
    /// with their own deadline_ms keep it.
    std::uint32_t default_deadline_ms = 0;
    /// Cadence of the periodic sweep (idle closes, parked-deadline sheds)
    /// via EventLoop::set_tick. 0 disables sweeps — parked deadlines then
    /// only resolve when completions wake the loop.
    std::uint32_t tick_interval_ms = 100;
    Service::Options service{};
  };

  /// Binds and listens immediately (throws util::CheckError on failure);
  /// serving starts with run().
  explicit Server(Options opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread until drain completes.
  void run();

  /// Requests a graceful drain from any thread or signal handler
  /// (async-signal-safe: one atomic store and one self-pipe write).
  void request_drain();

 private:
  /// Decoded solve frame en route to (or through) the service: a
  /// BatchSolve frame, or a Solve frame as a one-slot batch. Slots refused
  /// on the loop thread (invalid batch signatures) are prefilled here; the
  /// rest map positionally onto `reqs`. Shared with the worker-side sink,
  /// which needs the slot plan to encode the response frame.
  struct BatchPlan {
    /// The frame's verb: SolveText/SolveSignature get a Solve response
    /// frame for slot 0, BatchSolve the batch frame.
    protocol::Verb verb = protocol::Verb::BatchSolve;
    struct Slot {
      bool prefilled = false;
      protocol::Status status = protocol::Status::Ok;
      std::string error;
    };
    std::vector<Slot> slots;
    /// Submitted subset in slot order; moved into the service on dispatch.
    std::vector<SolveRequest> reqs;
    /// Slot index of each submitted request.
    std::vector<std::size_t> req_slot;
  };
  struct Parked {
    std::uint64_t seq;
    std::shared_ptr<BatchPlan> plan;
    /// Absolute steady-clock expiry anchored at FRAME ARRIVAL (0 = none):
    /// time spent parked counts against the request's deadline, and the
    /// tick sweep sheds expired entries without waiting for a queue slot.
    std::uint64_t deadline_at = 0;
    /// Decoded body bytes this entry pins (counted against
    /// Options::max_parked_bytes).
    std::size_t bytes = 0;
  };
  struct Conn {
    Fd fd;
    std::uint64_t id = 0;
    bool handshaken = false;
    /// Negotiated protocol version from the hello. Gates v2-only response
    /// shapes (the Health counter body) so a v1 client is served
    /// byte-identically to the v1 server.
    std::uint16_t version = protocol::kMinVersion;
    /// Poison: flush outbuf, then close (bad hello, corrupt framing).
    bool close_after_flush = false;
    std::size_t inflight = 0;
    std::string inbuf;
    std::string outbuf;
    /// Requests decoded but refused by a full service queue; retried in
    /// arrival order as completions free queue slots. Bounded by
    /// Options::max_parked / max_parked_bytes — past the caps the server
    /// answers Status::Overloaded instead of parking.
    std::deque<Parked> parked;
    /// steady_now_ms() of the last protocol progress (frame completed or
    /// response queued); the idle sweep's clock.
    std::uint64_t last_progress_ms = 0;
    /// Cancel token per dispatched (in-service) request, keyed by seq.
    /// Created on dispatch, erased when the completion frame comes back.
    /// The Cancel verb trips the target's token here; destroy_conn trips
    /// every one (a disconnected peer's solves stop consuming workers).
    std::unordered_map<std::uint64_t, std::shared_ptr<util::CancelToken>>
        tokens;
  };

  // The bool-returning members report whether the connection is still
  // alive (false = they destroyed it); callers must stop touching it on
  // false.
  void on_listener_ready();
  void on_conn_ready(std::uint64_t id, std::uint32_t events);
  void on_wake();

  bool read_conn(Conn& conn);
  bool consume_frames(Conn& conn);
  bool handle_frame(Conn& conn, std::string_view payload);
  /// Solve and BatchSolve frames: decode into a BatchPlan, then dispatch
  /// or park it. An invalid Solve signature is answered inline.
  bool handle_solve(Conn& conn, const protocol::Request& req);
  /// True if the plan entered the service (or was refused inline by a
  /// closed service — the sink fires either way); false = queue full,
  /// `plan->reqs` intact so the caller can park the plan and retry.
  bool try_dispatch_batch(Conn& conn, std::uint64_t seq,
                          const std::shared_ptr<BatchPlan>& plan);
  /// The response frame of a plan: a Solve response for a one-slot Solve
  /// plan; otherwise prefilled slots merged with the service's results
  /// (positionally aligned with plan.req_slot) into one batch frame. Runs
  /// on the solver worker for dispatched plans, on the loop thread when
  /// every slot was refused up front.
  [[nodiscard]] static std::string encode_plan_completion(
      std::uint64_t seq, const BatchPlan& plan,
      std::span<const SolveResult> results);
  bool send_stats(Conn& conn, std::uint64_t seq);
  /// Health: v1 conns get the legacy empty Ok frame byte-identically; v2
  /// conns get a degraded-state counter body (draining, parked pressure,
  /// L2 skipping, watchdog-stuck workers).
  bool send_health(Conn& conn, std::uint64_t seq);
  /// Cancel verb: trips the target seq's in-flight token (or sheds it from
  /// the parked queue), then acks Ok — idempotently, since the target may
  /// have completed concurrently.
  bool handle_cancel(Conn& conn, const protocol::Request& req);
  /// CacheCompact: clears+resets L1, compacts L2, answers with a counter
  /// body describing what happened.
  bool send_compact(Conn& conn, std::uint64_t seq);
  /// Retries parked requests (refusing them during drain) and resumes
  /// consuming buffered frames once the window allows.
  bool make_progress(Conn& conn);

  /// Parks `p` if the overload caps allow, else answers Overloaded.
  /// Returns the connection-alive contract like every bool member.
  bool park_or_refuse(Conn& conn, Parked p);
  /// Sheds parked entries whose deadline passed (DeadlineExceeded
  /// responses) and releases their byte accounting.
  bool shed_expired_parked(Conn& conn, std::uint64_t now);
  /// The EventLoop tick: parked-deadline sheds, idle closes, drain sweep.
  void on_tick();

  bool queue_frame(Conn& conn, std::string frame);
  bool flush_conn(Conn& conn);
  void update_interest(Conn& conn);
  [[nodiscard]] bool reads_paused(const Conn& conn) const;
  void destroy_conn(std::uint64_t id);

  void begin_drain();
  /// Closes drained connections; stops the loop when the last is gone.
  void sweep_drain();

  Options opts_;
  EventLoop loop_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  bool draining_ = false;
  std::atomic<bool> drain_requested_{false};

  // Loop-thread observability counters (surfaced via the Stats verb).
  std::uint64_t accepted_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t bad_frames_ = 0;
  std::uint64_t parked_total_ = 0;
  /// Requests refused Overloaded at the parked caps.
  std::uint64_t parked_refused_ = 0;
  /// Parked entries shed by the deadline sweep.
  std::uint64_t shed_parked_ = 0;
  /// Connections closed by the idle sweep.
  std::uint64_t idle_closed_ = 0;
  /// Cancel frames received (whether or not the target was still around).
  std::uint64_t cancel_frames_ = 0;
  /// Decoded bytes currently pinned by parked requests (all conns).
  std::size_t parked_bytes_ = 0;

  // Completed responses en route from solver workers to the loop thread.
  // `seq` rides along so the loop can retire the request's cancel token.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string frame;
  };
  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  /// Last member: its destructor joins the solver workers, so by the time
  /// anything above is torn down no sink can still be running.
  Service service_;
};

}  // namespace copath::net
