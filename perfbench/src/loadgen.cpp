#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "check.hpp"
#include "common.hpp"
#include "net/protocol.hpp"

namespace perfbench {

namespace proto = copath::net::protocol;

struct Loadgen::Conn {
  copath::net::Fd fd;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::size_t in_pos = 0;
  /// Probe connections: send time of the one outstanding probe (0 = none)
  /// and the next due time.
  std::int64_t probe_sent = 0;
  std::int64_t probe_due = 0;

  /// Writes as much of `out` as the socket takes.
  void flush() {
    while (out_pos < out.size()) {
      const ssize_t w = ::send(fd.get(), out.data() + out_pos,
                               out.size() - out_pos, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      out_pos += static_cast<std::size_t>(w);
    }
    if (out_pos == out.size()) {
      out.clear();
      out_pos = 0;
    } else if (out_pos > (std::size_t{4} << 20)) {
      out.erase(0, out_pos);
      out_pos = 0;
    }
  }

  /// Reads everything available. False when the peer closed.
  bool fill() {
    char buf[1 << 16];
    for (;;) {
      const ssize_t r = ::read(fd.get(), buf, sizeof buf);
      if (r > 0) {
        in.append(buf, static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      throw std::runtime_error(std::string("read: ") + std::strerror(errno));
    }
  }

  /// Next complete frame payload, or false. The view lives until the next
  /// fill().
  bool next_frame(std::string_view* payload) {
    if (in.size() - in_pos < proto::kFrameHeaderBytes) return false;
    std::uint32_t len = 0;
    std::memcpy(&len, in.data() + in_pos, sizeof len);
    if (len == 0 || len > proto::kMaxFrameBytes) {
      throw std::runtime_error("corrupt response frame length");
    }
    if (in.size() - in_pos < proto::kFrameHeaderBytes + len) return false;
    *payload = std::string_view(in).substr(in_pos + proto::kFrameHeaderBytes,
                                           len);
    in_pos += proto::kFrameHeaderBytes + len;
    return true;
  }

  void compact() {
    if (in_pos == in.size()) {
      in.clear();
      in_pos = 0;
    } else if (in_pos > (std::size_t{1} << 20)) {
      in.erase(0, in_pos);
      in_pos = 0;
    }
  }
};

namespace {

std::uint64_t payload_seq(std::string_view payload) {
  std::uint64_t seq = 0;
  if (payload.size() >= 9) std::memcpy(&seq, payload.data() + 1, sizeof seq);
  return seq;
}

}  // namespace

bool kept_schedule(const WindowResult& r, double limit_ms) {
  return quantile(r.lag_ms, 0.99) <= limit_ms;
}

Loadgen::Conn Loadgen::open_conn(std::uint16_t port) {
  Conn c;
  c.fd = copath::net::connect_tcp("127.0.0.1", port);
  const std::string hello = proto::make_hello();
  copath::net::write_all(c.fd.get(), hello.data(), hello.size());
  char reply[proto::kHelloReplyBytes];
  if (!copath::net::read_exact_timed(c.fd.get(), reply, sizeof reply,
                                     10000)) {
    throw std::runtime_error("daemon closed during the handshake");
  }
  proto::Status st = proto::Status::Ok;
  std::uint16_t version = 0;
  if (!proto::parse_hello_reply(std::string_view(reply, sizeof reply), &st,
                                &version) ||
      st != proto::Status::Ok) {
    throw std::runtime_error("handshake refused");
  }
  return c;
}

Loadgen::Loadgen(std::uint16_t port, std::size_t connections) : port_(port) {
  for (std::size_t i = 0; i < connections; ++i) {
    conns_.push_back(open_conn(port));
    copath::net::set_nonblocking(conns_.back().fd.get());
  }
  admin_ = std::move(open_conn(port).fd);
}

Loadgen::~Loadgen() = default;

Counters Loadgen::stats() {
  std::string out;
  proto::append_admin_request(out, proto::Verb::Stats, next_seq_++);
  copath::net::write_all(admin_.get(), out.data(), out.size());
  std::uint32_t len = 0;
  std::string payload;
  if (!copath::net::read_exact_timed(admin_.get(), &len, sizeof len, 10000) ||
      len == 0 || len > proto::kMaxFrameBytes) {
    throw std::runtime_error("Stats: bad reply");
  }
  payload.resize(len);
  if (!copath::net::read_exact_timed(admin_.get(), payload.data(), len,
                                     10000)) {
    throw std::runtime_error("Stats: truncated reply");
  }
  proto::Response resp;
  if (!proto::parse_response(payload, &resp) ||
      resp.status != proto::Status::Ok) {
    throw std::runtime_error("Stats: undecodable reply");
  }
  Counters c;
  for (auto& [k, v] : resp.stats) c[k] = v;
  return c;
}

WindowResult Loadgen::run(const Stream& s, const Probes& probes,
                          double drain_s) {
  constexpr std::size_t kClosedWindow = 128;
  const bool closed = s.at_ns.empty();
  const std::size_t n = s.arrivals();
  const std::size_t k = conns_.size();
  WindowResult r;
  r.latency_ms.assign(n, kInf);
  r.lag_ms.assign(n, 0.0);
  std::vector<std::int64_t> sched(n, 0);
  std::vector<std::uint8_t> done(n, 0);
  const std::uint64_t base = next_seq_;
  next_seq_ += n + 1;

  // Probe connections (index 0 health, 1 stats), opened on first use.
  const double hz[2] = {probes.health_hz, probes.stats_hz};
  while (probe_conns_.size() < 2 && (hz[0] > 0 || hz[1] > 0)) {
    probe_conns_.push_back(open_conn(port_));
    copath::net::set_nonblocking(probe_conns_.back().fd.get());
  }

  const std::int64_t start = now_ns() + 2'000'000;
  r.start_ns = start;
  for (std::size_t p = 0; p < probe_conns_.size(); ++p) {
    probe_conns_[p].probe_sent = 0;
    probe_conns_[p].probe_due = start;
  }
  const std::int64_t drain_ns = static_cast<std::int64_t>(drain_s * 1e9);
  std::size_t next = 0, outstanding = 0;
  std::int64_t last_send = start;
  std::vector<pollfd> pfds;

  const auto on_payload = [&](std::string_view payload, std::int64_t t) {
    const std::uint64_t seq = payload_seq(payload);
    if (seq < base) return;  // a straggler from an earlier window
    const std::uint64_t idx = seq - base;
    r.resp_bytes += payload.size() + proto::kFrameHeaderBytes;
    if (idx >= next || done[idx] != 0) {
      ++r.wrong;
      if (r.first_wrong.empty()) r.first_wrong = "unexpected sequence id";
      return;
    }
    done[idx] = 1;
    --outstanding;
    const Req& q = s.for_arrival(idx);
    std::string why;
    switch (check_response(
        payload, q,
        std::span<const Expect>(s.expects.data() + q.first_expect,
                                q.expect_count),
        &why)) {
      case Verdict::Ok:
        ++r.ok;
        r.latency_ms[idx] = static_cast<double>(t - sched[idx]) / 1e6;
        if (in_validation_sample(idx)) {
          r.samples.emplace_back(idx, std::string(payload));
        }
        break;
      case Verdict::Failed:
        ++r.failed;
        break;
      case Verdict::Wrong:
        ++r.wrong;
        if (r.first_wrong.empty()) r.first_wrong = why;
        break;
    }
  };

  for (;;) {
    std::int64_t t = now_ns();
    if (on_iteration) {
      on_iteration(t);
      t = now_ns();
    }
    while (next < n) {
      std::int64_t due = t;
      if (closed) {
        if (outstanding >= kClosedWindow) break;
      } else {
        due = start + s.at_ns[next];
        if (due > t) break;
      }
      const Req& q = s.for_arrival(next);
      Conn& c = conns_[next % k];
      const std::size_t pos = c.out.size();
      c.out += q.frame;
      const std::uint64_t seq = base + next;
      std::memcpy(c.out.data() + pos + kSeqOffset, &seq, sizeof seq);
      const std::int64_t now = now_ns();
      sched[next] = due;
      r.lag_ms[next] = static_cast<double>(now - due) / 1e6;
      r.req_bytes += q.frame.size();
      ++outstanding;
      ++next;
      r.backlog_max = std::max(r.backlog_max, outstanding);
      if (next == n) last_send = now;
    }
    for (std::size_t p = 0; p < probe_conns_.size(); ++p) {
      Conn& c = probe_conns_[p];
      if (hz[p] <= 0 || c.probe_sent != 0 || t < c.probe_due || next == n) {
        continue;
      }
      proto::append_admin_request(
          c.out, p == 0 ? proto::Verb::Health : proto::Verb::Stats,
          next_seq_++);
      c.probe_sent = t;
      c.probe_due += static_cast<std::int64_t>(1e9 / hz[p]);
    }
    for (Conn& c : conns_) c.flush();
    for (Conn& c : probe_conns_) c.flush();

    const bool probes_idle = probe_conns_.empty() ||
                             (probe_conns_[0].probe_sent == 0 &&
                              probe_conns_[1].probe_sent == 0);
    if (next == n && outstanding == 0 && probes_idle) break;
    if (next == n && t > last_send + drain_ns) break;

    std::int64_t wake = next == n ? last_send + drain_ns : t + 50'000'000;
    if (!closed && next < n) wake = std::min(wake, start + s.at_ns[next]);
    for (std::size_t p = 0; p < probe_conns_.size(); ++p) {
      if (hz[p] > 0 && probe_conns_[p].probe_sent == 0 && next < n) {
        wake = std::min(wake, probe_conns_[p].probe_due);
      }
    }
    pfds.clear();
    const auto watch = [&pfds](const Conn& c) {
      pfds.push_back({c.fd.get(),
                      static_cast<short>(POLLIN | (c.out_pos < c.out.size()
                                                       ? POLLOUT
                                                       : 0)),
                      0});
    };
    for (const Conn& c : conns_) watch(c);
    for (const Conn& c : probe_conns_) watch(c);
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now_ns());
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 &&
        errno != EINTR) {
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }
    const std::int64_t t_in = now_ns();
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const bool probe = i >= k;
      Conn& c = probe ? probe_conns_[i - k] : conns_[i];
      if (!c.fill()) throw std::runtime_error("daemon closed a connection");
      std::string_view payload;
      while (c.next_frame(&payload)) {
        if (!probe) {
          on_payload(payload, t_in);
          continue;
        }
        if (i - k == 0) {
          r.health_rtt_us.push_back(static_cast<double>(t_in - c.probe_sent) /
                                    1e3);
        } else {
          proto::Response resp;
          if (proto::parse_response(payload, &resp)) {
            for (const auto& [key, v] : resp.stats) {
              if (key == "queue_depth") {
                r.queue_depth.push_back(static_cast<double>(v));
              }
            }
          }
        }
        c.probe_sent = 0;
      }
      c.compact();
    }
  }

  r.sent = next;
  for (std::size_t i = 0; i < n; ++i) {
    if (done[i] == 0) ++r.failed;
  }
  return r;
}

}  // namespace perfbench
