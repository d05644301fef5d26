#include "net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <span>

#include "cograph/canonical.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"

namespace copath::net {

namespace proto = protocol;

namespace {

/// Maps a failed SolveResult to its wire status via the Service's error
/// string contract (the kErr* constants in service.hpp) — the single place
/// service-level refusals become protocol statuses. Anything outside the
/// contract failed structurally inside the solve itself.
proto::Status failure_status(const SolveResult& res) {
  if (res.error == kErrDraining || res.error == kErrShutDown) {
    return proto::Status::Draining;
  }
  if (res.error == kErrDeadlineExceeded) {
    return proto::Status::DeadlineExceeded;
  }
  if (res.error == kErrCancelled) return proto::Status::Cancelled;
  if (res.error == kErrOverloaded) return proto::Status::Overloaded;
  return proto::Status::SolveError;
}

/// Built on the SOLVER WORKER thread — response encoding is the expensive
/// part of completion, and doing it here keeps the event loop's share of a
/// completion down to append-and-flush.
std::string encode_completion(std::uint64_t seq, proto::Verb verb,
                              const SolveResult& res) {
  if (res.ok) {
    return proto::encode_solve_response_frame(seq, verb, proto::Status::Ok,
                                              &res, {});
  }
  return proto::encode_solve_response_frame(seq, verb, failure_status(res),
                                            nullptr, res.error);
}

/// Effective relative deadline for a solve frame: the frame's own, else
/// the server default, else none.
std::uint32_t effective_deadline_ms(const proto::Request& req,
                                    const Server::Options& opts) {
  return req.deadline_ms != 0 ? req.deadline_ms : opts.default_deadline_ms;
}

std::uint64_t deadline_at_from(std::uint32_t deadline_ms) {
  return deadline_ms == 0 ? 0 : util::steady_now_ms() + deadline_ms;
}

std::uint64_t recover_seq(std::string_view payload) {
  if (payload.size() < 9) return 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    seq |= std::uint64_t{static_cast<std::uint8_t>(payload[1 + i])} << (8 * i);
  }
  return seq;
}

}  // namespace

Server::Server(Options opts)
    : opts_(std::move(opts)), service_(opts_.service) {
  // In the body, not the init list: listen_tcp writes the ephemeral port
  // through &port_, which must already be past its own initializer.
  listener_ = listen_tcp(opts_.host, opts_.port, &port_);
  loop_.set_wake_handler([this] { on_wake(); });
  if (opts_.tick_interval_ms > 0) {
    loop_.set_tick(opts_.tick_interval_ms, [this] { on_tick(); });
  }
  loop_.watch(listener_.get(), EventLoop::kRead,
              [this](std::uint32_t) { on_listener_ready(); });
}

Server::~Server() = default;

void Server::run() { loop_.run(); }

void Server::request_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  loop_.wake();
}

void Server::on_listener_ready() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient accept error — poll will re-arm
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = Fd(fd);
    conn->id = next_conn_id_++;
    conn->last_progress_ms = util::steady_now_ms();
    ++accepted_;
    const std::uint64_t id = conn->id;
    loop_.watch(fd, EventLoop::kRead,
                [this, id](std::uint32_t ev) { on_conn_ready(id, ev); });
    conns_.emplace(id, std::move(conn));
  }
}

void Server::on_conn_ready(std::uint64_t id, std::uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if ((events & EventLoop::kRead) != 0 && !read_conn(conn)) return;
  if ((events & EventLoop::kWrite) != 0 && !flush_conn(conn)) return;
  update_interest(conn);
  if (draining_) sweep_drain();
}

bool Server::read_conn(Conn& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t r = ::read(conn.fd.get(), buf, sizeof(buf));
    if (r > 0) {
      conn.inbuf.append(buf, static_cast<std::size_t>(r));
      if (static_cast<std::size_t>(r) < sizeof(buf)) break;
      continue;
    }
    if (r == 0) {  // peer closed; any in-service results are dropped
      destroy_conn(conn.id);
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    destroy_conn(conn.id);
    return false;
  }

  if (!conn.handshaken) {
    if (conn.inbuf.size() < proto::kHelloBytes) return true;
    std::uint16_t version = 0;
    const bool ok = proto::parse_hello(
        std::string_view(conn.inbuf).substr(0, proto::kHelloBytes), &version);
    if (!ok) {  // not our protocol at all — no reply owed
      destroy_conn(conn.id);
      return false;
    }
    conn.inbuf.erase(0, proto::kHelloBytes);
    // Accept the whole supported range, not just the current version: a v1
    // client's frames are a strict subset of v2's grammar, so they decode
    // unchanged.
    if (version < proto::kMinVersion || version > proto::kVersion) {
      conn.close_after_flush = true;
      return queue_frame(conn,
                         proto::make_hello_reply(
                             proto::Status::VersionMismatch));
    }
    conn.handshaken = true;
    conn.version = version;
    if (!queue_frame(conn, proto::make_hello_reply(proto::Status::Ok))) {
      return false;
    }
  }
  return consume_frames(conn);
}

bool Server::consume_frames(Conn& conn) {
  // Stop decoding while the connection is over its window or has parked
  // requests: the unread bytes stay in inbuf (and eventually in the kernel
  // buffer — TCP backpressure), and on_wake resumes consumption as
  // completions drain.
  std::string payload;
  while (!conn.close_after_flush && conn.parked.empty() &&
         conn.inflight < opts_.inflight_window) {
    switch (proto::extract_frame(conn.inbuf, &payload)) {
      case proto::Extract::NeedMore:
        return true;
      case proto::Extract::Corrupt:
        ++bad_frames_;
        conn.inbuf.clear();
        conn.close_after_flush = true;
        return queue_frame(conn, proto::encode_status_response_frame(
                                     0, proto::Verb::Health,
                                     proto::Status::BadFrame,
                                     "unframeable length prefix"));
      case proto::Extract::Frame:
        break;
    }
    if (!handle_frame(conn, payload)) return false;
  }
  return true;
}

bool Server::handle_frame(Conn& conn, std::string_view payload) {
  ++frames_;
  conn.last_progress_ms = util::steady_now_ms();
  proto::Request req;
  if (!proto::parse_request(payload, &req)) {
    ++bad_frames_;
    return queue_frame(conn, proto::encode_status_response_frame(
                                 recover_seq(payload), proto::Verb::Health,
                                 proto::Status::BadFrame,
                                 "malformed request payload"));
  }
  switch (req.verb) {
    case proto::Verb::Health:
      return send_health(conn, req.seq);
    case proto::Verb::Cancel:
      // Deliberately NOT gated on draining_: cancelling in-flight work is
      // exactly what a draining server wants to allow.
      return handle_cancel(conn, req);
    case proto::Verb::Stats:
      return send_stats(conn, req.seq);
    case proto::Verb::CacheCompact:
      return send_compact(conn, req.seq);
    case proto::Verb::Drain: {
      // Ack first, then request: begin_drain() tears at the connection
      // table, so it is deferred to the wake handler rather than run under
      // this frame's iteration.
      const bool alive = queue_frame(
          conn, proto::encode_status_response_frame(
                    req.seq, proto::Verb::Drain, proto::Status::Ok, {}));
      request_drain();
      return alive;
    }
    case proto::Verb::SolveText:
    case proto::Verb::SolveSignature:
    case proto::Verb::BatchSolve:
      return handle_solve(conn, req);
  }
  return true;
}

bool Server::handle_solve(Conn& conn, const proto::Request& req) {
  if (draining_) {
    return queue_frame(conn, proto::encode_status_response_frame(
                                 req.seq, req.verb, proto::Status::Draining,
                                 "server is draining"));
  }
  // Every solve frame becomes one BatchPlan: a Solve frame is a one-slot
  // batch answered with a Solve response frame.
  const bool batch = req.verb == proto::Verb::BatchSolve;
  std::vector<proto::BatchItem> items;
  if (batch) {
    // Structural validation on the loop thread: a malformed batch must not
    // cost a queue slot or worker wakeup.
    std::string why;
    if (!proto::parse_batch_body(req.body, opts_.max_batch_items, &items,
                                 &why)) {
      ++bad_frames_;
      return queue_frame(conn, proto::encode_status_response_frame(
                                   req.seq, req.verb,
                                   proto::Status::BadFrame, why));
    }
  } else {
    items.push_back(proto::BatchItem{
        req.verb == proto::Verb::SolveSignature, req.body});
  }
  auto plan = std::make_shared<BatchPlan>();
  plan->verb = req.verb;
  plan->slots.resize(items.size());
  plan->reqs.reserve(items.size());
  plan->req_slot.reserve(items.size());
  const std::optional<SolveOptions> opts =
      proto::apply_wire_options(req.opts, opts_.service.solve);
  // One frame, one deadline: every item in a batch shares it (the service
  // dispatches the frame as one unit anyway).
  const std::uint32_t deadline_ms = effective_deadline_ms(req, opts_);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const proto::BatchItem& item = items[i];
    if (item.is_signature) {
      // Validate the untrusted bytes here, on the loop thread: rejecting a
      // hostile signature must not cost a queue slot or a worker wakeup.
      std::string why;
      if (!cograph::signature_valid(item.body, &why)) {
        if (!batch) {
          return queue_frame(conn, proto::encode_status_response_frame(
                                       req.seq, req.verb,
                                       proto::Status::InvalidSignature, why));
        }
        // Per-slot isolation: one hostile signature refuses its slot, the
        // rest of the batch still solves.
        plan->slots[i].prefilled = true;
        plan->slots[i].status = proto::Status::InvalidSignature;
        plan->slots[i].error = std::move(why);
        continue;
      }
    }
    SolveRequest sreq;
    sreq.instance = item.is_signature
                        ? Instance::signature(std::string(item.body))
                        : Instance::text(std::string(item.body));
    sreq.options = opts;
    sreq.deadline_ms = deadline_ms;
    plan->req_slot.push_back(i);
    plan->reqs.push_back(std::move(sreq));
  }
  if (plan->reqs.empty()) {
    // Every slot refused up front — answer inline, nothing to dispatch.
    return queue_frame(conn, encode_plan_completion(req.seq, *plan, {}));
  }
  if (!try_dispatch_batch(conn, req.seq, plan)) {
    return park_or_refuse(conn, Parked{req.seq, std::move(plan),
                                       deadline_at_from(deadline_ms),
                                       req.body.size()});
  }
  return true;
}

std::string Server::encode_plan_completion(
    std::uint64_t seq, const BatchPlan& plan,
    std::span<const SolveResult> results) {
  if (plan.verb != proto::Verb::BatchSolve) {
    return encode_completion(seq, plan.verb, results.front());
  }
  std::vector<proto::BatchResponseEntry> entries(plan.slots.size());
  for (std::size_t i = 0; i < plan.slots.size(); ++i) {
    if (plan.slots[i].prefilled) {
      entries[i].status = plan.slots[i].status;
      entries[i].error = plan.slots[i].error;
    }
  }
  for (std::size_t k = 0; k < results.size() && k < plan.req_slot.size();
       ++k) {
    proto::BatchResponseEntry& e = entries[plan.req_slot[k]];
    const SolveResult& res = results[k];
    if (res.ok) {
      e.status = proto::Status::Ok;
      e.result = &res;
    } else {
      e.status = failure_status(res);
      e.error = res.error;
    }
  }
  return proto::encode_batch_response_frame(seq, entries);
}

bool Server::try_dispatch_batch(Conn& conn, std::uint64_t seq,
                                const std::shared_ptr<BatchPlan>& plan) {
  const std::uint64_t id = conn.id;
  // One token per frame, riding slot 0 (the service's job-token
  // convention): a Cancel or disconnect abandons the whole dispatch, which
  // matches the one-frame-one-deadline contract. Parked retries reuse the
  // token they already carry.
  if (plan->reqs.front().cancel == nullptr) {
    plan->reqs.front().cancel = std::make_shared<util::CancelToken>();
  }
  std::shared_ptr<util::CancelToken> token = plan->reqs.front().cancel;
  Service::BatchSink sink =
      [this, id, seq, plan](std::vector<SolveResult> results) {
        // Worker thread: encode the whole frame here, hand bytes to the
        // loop, which only appends and flushes.
        std::string frame = encode_plan_completion(seq, *plan, results);
        {
          std::lock_guard<std::mutex> lock(completions_mu_);
          completions_.push_back({id, seq, std::move(frame)});
        }
        loop_.wake();
      };
  if (!service_.try_submit_batch_async(plan->reqs, sink)) return false;
  conn.tokens.emplace(seq, std::move(token));
  ++conn.inflight;  // one window slot per frame: it is one dispatch
  return true;
}

bool Server::send_stats(Conn& conn, std::uint64_t seq) {
  const Service::Stats s = service_.stats();
  const std::pair<std::string_view, std::uint64_t> counters[] = {
      {"submitted", s.submitted},
      {"completed", s.completed},
      {"queue_depth", s.queue_depth},
      {"in_flight", s.in_flight},
      {"cache_hits", s.cache_hits},
      {"cache_misses", s.cache_misses},
      {"express_solves", s.express_solves},
      {"batch_submits", s.batch_submits},
      {"batch_dedup_hits", s.batch_dedup_hits},
      {"connections", conns_.size()},
      {"accepted", accepted_},
      {"frames", frames_},
      {"bad_frames", bad_frames_},
      {"parked", parked_total_},
      {"parked_refused", parked_refused_},
      {"parked_bytes", parked_bytes_},
      {"shed_expired", s.shed_expired},
      {"shed_parked", shed_parked_},
      {"idle_closed", idle_closed_},
      {"cancelled", s.cancelled},
      {"watchdog_cancels", s.watchdog_cancels},
      {"stuck_workers", s.stuck_workers},
      {"cancel_frames", cancel_frames_},
      {"draining", draining_ ? 1u : 0u},
      {"l2_enabled", s.persist_enabled ? 1u : 0u},
      {"l2_hits", s.persist.hits},
      {"l2_misses", s.persist.misses},
      {"l2_promotions", s.persist_promotions},
      {"l2_appends", s.persist.appends},
      {"l2_append_dups", s.persist.append_dups},
      {"l2_append_skips", s.persist.append_skips},
      {"l2_records", s.persist.records},
      {"l2_log_bytes", s.persist.log_bytes},
      {"l2_corrupt_dropped", s.persist.corrupt_dropped},
      {"l2_compactions", s.persist.compactions},
      {"l2_reopens", s.persist.reopens},
  };
  return queue_frame(conn,
                     proto::encode_stats_response_frame(seq, counters));
}

bool Server::send_health(Conn& conn, std::uint64_t seq) {
  if (conn.version < 2) {
    // The v1 Health reply is the empty-body Ok status frame — keep it
    // byte-for-byte so v1 clients (which reject unexpected bodies) still
    // parse it.
    return queue_frame(conn, proto::encode_status_response_frame(
                                 seq, proto::Verb::Health,
                                 proto::Status::Ok, {}));
  }
  // v2: a degraded-state surface, counter-shaped like Stats but curated —
  // only the gauges an operator's probe needs to decide "healthy, shedding,
  // or wedged", not the full counter dump.
  const Service::Stats s = service_.stats();
  std::size_t parked_now = 0;
  for (const auto& [cid, c] : conns_) parked_now += c->parked.size();
  const std::pair<std::string_view, std::uint64_t> counters[] = {
      {"draining", draining_ ? 1u : 0u},
      {"queue_depth", s.queue_depth},
      {"in_flight", s.in_flight},
      {"parked_now", parked_now},
      {"parked_bytes", parked_bytes_},
      {"parked_refused", parked_refused_},
      {"shed_expired", s.shed_expired},
      {"cancelled", s.cancelled},
      {"watchdog_cancels", s.watchdog_cancels},
      {"stuck_workers", s.stuck_workers},
      {"l2_enabled", s.persist_enabled ? 1u : 0u},
      {"l2_append_skips", s.persist.append_skips},
      {"l2_corrupt_dropped", s.persist.corrupt_dropped},
  };
  return queue_frame(conn, proto::encode_counters_response_frame(
                               seq, proto::Verb::Health, counters));
}

bool Server::handle_cancel(Conn& conn, const proto::Request& req) {
  ++cancel_frames_;
  const std::uint64_t target = req.target_seq;
  const auto tok = conn.tokens.find(target);
  if (tok != conn.tokens.end()) {
    // In flight: trip the token and let the job answer under ITS OWN seq
    // with Status::Cancelled once a solve checkpoint observes the trip (or
    // DeadlineExceeded if its budget raced us and won).
    tok->second->cancel(util::CancelToken::Reason::kCancelled);
  } else {
    // Not dispatched — maybe parked. (Rarely reachable today: reads pause
    // while anything is parked, so a Cancel frame usually waits out the
    // park. Kept for defense: the scan is cheap and the semantics must
    // hold if the backpressure rules ever loosen.)
    for (auto it = conn.parked.begin(); it != conn.parked.end(); ++it) {
      if (it->seq != target) continue;
      const proto::Verb verb = it->plan->verb;
      parked_bytes_ -= it->bytes;
      conn.parked.erase(it);
      if (!queue_frame(conn, proto::encode_status_response_frame(
                                 target, verb, proto::Status::Cancelled,
                                 util::kCancelledMsg))) {
        return false;
      }
      break;
    }
  }
  // Ack the Cancel frame itself unconditionally: an unknown or finished
  // target is a benign race (the caller sees its real response), not an
  // error worth distinguishing.
  return queue_frame(conn, proto::encode_status_response_frame(
                               req.seq, proto::Verb::Cancel,
                               proto::Status::Ok, {}));
}

bool Server::send_compact(Conn& conn, std::uint64_t seq) {
  // Admin verb, run inline on the loop thread: compaction does disk IO
  // under the cache file lock, which is acceptable for a rare operator
  // action (solve traffic is on the workers and keeps flowing; only frame
  // processing on THIS loop pauses).
  const Service::CompactReport r = service_.compact_caches();
  const std::pair<std::string_view, std::uint64_t> counters[] = {
      {"l1_dropped", r.l1_dropped},
      {"l2_enabled", r.l2_enabled ? 1u : 0u},
      {"l2_live_records", r.l2.live_records},
      {"l2_bytes_before", r.l2.bytes_before},
      {"l2_bytes_after", r.l2.bytes_after},
      {"l2_dropped_records", r.l2.dropped_records},
      {"l2_lru_dropped", r.l2.lru_dropped},
  };
  return queue_frame(conn, proto::encode_counters_response_frame(
                               seq, proto::Verb::CacheCompact, counters));
}

bool Server::park_or_refuse(Conn& conn, Parked p) {
  if (conn.parked.size() >= opts_.max_parked ||
      parked_bytes_ + p.bytes > opts_.max_parked_bytes) {
    // The bounded alternative to parking without limit: answer Overloaded
    // (retryable — the client backs off and tries again) instead of
    // letting refused work accumulate as server memory.
    ++parked_refused_;
    return queue_frame(
        conn, proto::encode_status_response_frame(
                  p.seq, p.plan->verb, proto::Status::Overloaded,
                  "service queue full and parked capacity exhausted"));
  }
  ++parked_total_;
  parked_bytes_ += p.bytes;
  conn.parked.push_back(std::move(p));
  return true;
}

bool Server::shed_expired_parked(Conn& conn, std::uint64_t now) {
  for (auto it = conn.parked.begin(); it != conn.parked.end();) {
    if (it->deadline_at == 0 || now < it->deadline_at) {
      ++it;
      continue;
    }
    const proto::Verb verb = it->plan->verb;
    const std::uint64_t seq = it->seq;
    parked_bytes_ -= it->bytes;
    ++shed_parked_;
    it = conn.parked.erase(it);
    if (!queue_frame(conn, proto::encode_status_response_frame(
                               seq, verb, proto::Status::DeadlineExceeded,
                               "deadline exceeded while parked"))) {
      return false;  // conn destroyed; `it` is gone with it
    }
  }
  return true;
}

void Server::on_tick() {
  const std::uint64_t now = util::steady_now_ms();
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    if (!shed_expired_parked(conn, now)) continue;
    if (opts_.idle_timeout_ms > 0 && conn.inflight == 0 &&
        conn.parked.empty() &&
        now - conn.last_progress_ms >= opts_.idle_timeout_ms) {
      // No frame completed, no response owed, nothing computing: silent
      // idlers and half-frame slowloris peers both land here. Reclaim the
      // fd instead of leaking it until process exit.
      ++idle_closed_;
      destroy_conn(id);
      continue;
    }
    // Shedding may have emptied `parked`, unblocking buffered frames.
    if (!make_progress(conn)) continue;
    const auto again = conns_.find(id);
    if (again != conns_.end()) update_interest(*again->second);
  }
  if (draining_) sweep_drain();
}

bool Server::queue_frame(Conn& conn, std::string frame) {
  conn.outbuf += frame;
  conn.last_progress_ms = util::steady_now_ms();
  return flush_conn(conn);
}

bool Server::flush_conn(Conn& conn) {
  while (!conn.outbuf.empty()) {
    if (util::fault_point("server.write")) {
      // Injected peer reset: exercise the same path a real mid-write
      // ECONNRESET takes.
      destroy_conn(conn.id);
      return false;
    }
    // MSG_NOSIGNAL: a mid-write peer reset must be a destroyed connection,
    // not a process-killing SIGPIPE.
    const ssize_t w = ::send(conn.fd.get(), conn.outbuf.data(),
                             conn.outbuf.size(), MSG_NOSIGNAL);
    if (w > 0) {
      conn.outbuf.erase(0, static_cast<std::size_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    destroy_conn(conn.id);
    return false;
  }
  if (conn.outbuf.empty() && conn.close_after_flush) {
    destroy_conn(conn.id);
    return false;
  }
  return true;
}

bool Server::reads_paused(const Conn& conn) const {
  return conn.inflight >= opts_.inflight_window || !conn.parked.empty() ||
         conn.outbuf.size() > opts_.outbuf_high_water;
}

void Server::update_interest(Conn& conn) {
  std::uint32_t events = 0;
  if (!conn.close_after_flush && !reads_paused(conn)) {
    events |= EventLoop::kRead;
  }
  if (!conn.outbuf.empty()) events |= EventLoop::kWrite;
  loop_.modify(conn.fd.get(), events);
}

void Server::destroy_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  for (const Parked& p : it->second->parked) parked_bytes_ -= p.bytes;
  // Disconnect cancels: nobody is left to read these results, so stop the
  // workers computing them. The sinks still fire (they hold the plan/seq
  // by value) and on_wake drops the frames for the missing conn id.
  for (auto& [seq, token] : it->second->tokens) {
    token->cancel(util::CancelToken::Reason::kCancelled);
  }
  loop_.unwatch(it->second->fd.get());
  conns_.erase(it);
}

bool Server::make_progress(Conn& conn) {
  while (!conn.parked.empty()) {
    if (draining_) {
      Parked p = std::move(conn.parked.front());
      conn.parked.pop_front();
      parked_bytes_ -= p.bytes;
      if (!queue_frame(conn, proto::encode_status_response_frame(
                                 p.seq, p.plan->verb, proto::Status::Draining,
                                 "server is draining"))) {
        return false;
      }
      continue;
    }
    Parked& p = conn.parked.front();
    if (p.deadline_at != 0) {
      const std::uint64_t now = util::steady_now_ms();
      if (now >= p.deadline_at) {
        // Expired while parked and a queue slot only now opened — shed it
        // here rather than waiting for the next tick.
        Parked dead = std::move(p);
        conn.parked.pop_front();
        parked_bytes_ -= dead.bytes;
        ++shed_parked_;
        if (!queue_frame(conn,
                         proto::encode_status_response_frame(
                             dead.seq, dead.plan->verb,
                             proto::Status::DeadlineExceeded,
                             "deadline exceeded while parked"))) {
          return false;
        }
        continue;
      }
      // Time spent parked counts against the budget: hand the service only
      // what remains, not the original relative deadline.
      const auto remaining = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(
              p.deadline_at - now,
              std::numeric_limits<std::uint32_t>::max()));
      for (SolveRequest& r : p.plan->reqs) r.deadline_ms = remaining;
    }
    if (!try_dispatch_batch(conn, p.seq, p.plan)) return true;
    parked_bytes_ -= conn.parked.front().bytes;
    conn.parked.pop_front();
  }
  if (!conn.close_after_flush && !conn.inbuf.empty() &&
      conn.inflight < opts_.inflight_window) {
    return consume_frames(conn);
  }
  return true;
}

void Server::on_wake() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    const auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // peer left mid-solve; drop
    Conn& conn = *it->second;
    conn.tokens.erase(c.seq);  // answered: nothing left to cancel
    if (conn.inflight > 0) --conn.inflight;
    (void)queue_frame(conn, std::move(c.frame));
  }

  if (drain_requested_.load(std::memory_order_relaxed) && !draining_) {
    begin_drain();
  }

  // Window slots and queue capacity may have freed: retry parked requests,
  // resume consuming buffered frames, and recompute poll interest.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    if (!make_progress(conn)) continue;
    const auto again = conns_.find(id);  // make_progress may destroy
    if (again != conns_.end()) update_interest(*again->second);
  }

  if (draining_) sweep_drain();
}

void Server::begin_drain() {
  draining_ = true;
  loop_.unwatch(listener_.get());
}

void Server::sweep_drain() {
  std::vector<std::uint64_t> dead;
  for (const auto& [id, conn] : conns_) {
    if (conn->inflight == 0 && conn->parked.empty() &&
        conn->outbuf.empty()) {
      dead.push_back(id);
    }
  }
  for (const std::uint64_t id : dead) destroy_conn(id);
  if (conns_.empty()) {
    // Every accepted request has been answered and flushed; drain the
    // worker pool (this joins the solver threads) and stop serving.
    service_.drain();
    loop_.stop();
  }
}

}  // namespace copath::net
