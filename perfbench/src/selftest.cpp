// The benchmark's own checks (plain main, exits nonzero on any failure):
//
//  * the answer checker rejects corrupted answers: a dropped vertex, two
//    paths merged, a wrong minimum, a wrong vertex count, and (through the
//    full validation) a cover remapped onto the wrong vertex ids;
//  * coordinated omission: against a fake endpoint that stalls once for
//    ~100 ms, every request scheduled during the stall is charged the
//    wait; a generator that stalls itself shows up in its lag and fails
//    kept_schedule;
//  * determinism: the same seed gives the same stream hash whatever the
//    thread count, another seed another hash, and the hash is pinned.
//
//   perfbench_selftest
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "cograph/families.hpp"
#include "common.hpp"
#include "copath_solver.hpp"
#include "core/count.hpp"
#include "loadgen.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
namespace proto = copath::net::protocol;

int g_failures = 0;

/// stream_hash of cold_unique and batch_dup at seed 7 (see
/// test_stream_hash). A change to the generators, the codec or the
/// canonical form moves it; update it deliberately.
constexpr const char* kPinnedHashes = "7cae720a4e416b5b/e6e626d27021edc7";

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::cerr << __FILE__ << ":" << __LINE__ << ": FAILED " #cond "\n"; \
    }                                                                  \
  } while (0)

std::string payload_of(const std::string& frame) {
  return frame.substr(proto::kFrameHeaderBytes);
}

std::string text_request(const std::string& text) {
  std::string out;
  proto::append_solve_request(out, proto::Verb::SolveText, 7,
                              proto::WireOptions{}, text);
  return out;
}

std::string answer(const copath::SolveResult& res) {
  return payload_of(proto::encode_solve_response_frame(
      7, proto::Verb::SolveText, proto::Status::Ok, &res, {}));
}

// ------------------------------------------------------------- checker

void test_checker() {
  copath::cograph::RandomCotreeOptions gopt;
  gopt.seed = 11;
  gopt.join_root_probability = 0.0;  // a union root: several paths
  const copath::cograph::Cotree tree =
      copath::cograph::random_cotree(48, gopt);
  const std::string text = tree.format();
  const copath::Solver solver;
  const copath::SolveResult good =
      solver.solve(copath::Instance::text(text));
  EXPECT(good.ok);
  EXPECT(good.cover.size() >= 2);
  const Expect ex{static_cast<std::uint32_t>(tree.vertex_count()),
                  copath::core::path_cover_size(tree)};
  Req req;
  req.frame = text_request(text);
  const std::span<const Expect> one(&ex, 1);
  const auto verdict = [&](const copath::SolveResult& r) {
    std::string why;
    return check_response(answer(r), req, one, &why);
  };

  EXPECT(verdict(good) == Verdict::Ok);
  std::string why;
  EXPECT(validate_sample(req.frame, answer(good), &why));

  copath::SolveResult dropped = good;
  auto& longest = *std::max_element(
      dropped.cover.paths.begin(), dropped.cover.paths.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  longest.pop_back();
  EXPECT(verdict(dropped) == Verdict::Wrong);

  copath::SolveResult merged = good;
  auto& p = merged.cover.paths;
  p[0].insert(p[0].end(), p[1].begin(), p[1].end());
  p.erase(p.begin() + 1);
  EXPECT(verdict(merged) == Verdict::Wrong);

  copath::SolveResult bad_count = good;
  bad_count.optimal_size += 1;
  EXPECT(verdict(bad_count) == Verdict::Wrong);

  copath::SolveResult bad_n = good;
  bad_n.vertex_count += 1;
  EXPECT(verdict(bad_n) == Verdict::Wrong);

  // A remap bug: ids rotated, so the cover still partitions [0, n) with
  // the right count and passes the fast check, but is not a cover of the
  // requesting instance — only the full validation sees it.
  copath::SolveResult rotated = good;
  const auto n = static_cast<std::int32_t>(ex.n);
  for (auto& path : rotated.cover.paths) {
    for (auto& v : path) v = (v + 1) % n;
  }
  EXPECT(verdict(rotated) == Verdict::Ok);
  EXPECT(!validate_sample(req.frame, answer(rotated), &why));

  const std::string refused = payload_of(proto::encode_status_response_frame(
      7, proto::Verb::SolveText, proto::Status::Overloaded, "busy"));
  EXPECT(check_response(refused, req, one, &why) == Verdict::Failed);

  const std::string wrong_verb = payload_of(proto::encode_solve_response_frame(
      7, proto::Verb::SolveSignature, proto::Status::Ok, &good, {}));
  EXPECT(check_response(wrong_verb, req, one, &why) == Verdict::Wrong);
}

// ------------------------------------------------- coordinated omission

/// Answers every solve frame on every connection with a fixed one-vertex
/// cover, except that once, after `stall_after` answers, it stops for
/// `stall_ms` (records when).
class FakeEndpoint {
 public:
  FakeEndpoint(std::size_t stall_after, int stall_ms)
      : stall_after_(stall_after), stall_ms_(stall_ms) {
    listener_ = copath::net::listen_tcp("127.0.0.1", 0, &port_);
    copath::SolveResult one;
    one.ok = true;
    one.vertex_count = 1;
    one.optimal_size = 1;
    one.minimum = true;
    one.cover.paths = {{0}};
    result_ = one;
    acceptor_ = std::thread([this] { accept_loop(); });
  }
  ~FakeEndpoint() {
    stop_ = true;
    acceptor_.join();
    for (auto& t : workers_) t.join();
  }
  FakeEndpoint(const FakeEndpoint&) = delete;
  FakeEndpoint& operator=(const FakeEndpoint&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  std::atomic<std::int64_t> stall_begin{0}, stall_end{0};

 private:
  void accept_loop() {
    while (!stop_) {
      pollfd p{listener_.get(), POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const int fd = ::accept(listener_.get(), nullptr, nullptr);
      if (fd < 0) continue;
      workers_.emplace_back([this, fd] { serve(copath::net::Fd(fd)); });
    }
  }

  void serve(copath::net::Fd fd) {
    char hello[proto::kHelloBytes];
    if (!copath::net::read_exact(fd.get(), hello, sizeof hello)) return;
    const std::string reply = proto::make_hello_reply(proto::Status::Ok);
    copath::net::write_all(fd.get(), reply.data(), reply.size());
    std::string in, payload;
    char buf[4096];
    while (!stop_) {
      pollfd p{fd.get(), POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const ssize_t r = ::read(fd.get(), buf, sizeof buf);
      if (r <= 0) return;
      in.append(buf, static_cast<std::size_t>(r));
      std::string out;
      while (proto::extract_frame(in, &payload) == proto::Extract::Frame) {
        proto::Request req;
        if (!proto::parse_request(payload, &req)) return;
        if (answered_.fetch_add(1) == stall_after_) {
          stall_begin = now_ns();
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
          stall_end = now_ns();
        }
        out += proto::encode_solve_response_frame(req.seq, req.verb,
                                                  proto::Status::Ok, &result_,
                                                  {});
      }
      copath::net::write_all(fd.get(), out.data(), out.size());
    }
  }

  std::size_t stall_after_;
  int stall_ms_;
  copath::net::Fd listener_;
  std::uint16_t port_ = 0;
  copath::SolveResult result_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> answered_{0};
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

/// 1000 requests, one every millisecond.
Stream uniform_stream() {
  Stream s;
  Req r;
  r.frame = text_request("v0");
  s.reqs.push_back(r);
  s.expects.push_back({1, 1});
  s.rate = 1000;
  for (int i = 0; i < 1000; ++i) s.at_ns.push_back(i * 1'000'000LL);
  return s;
}

void test_endpoint_stall() {
  FakeEndpoint fake(/*stall_after=*/300, /*stall_ms=*/100);
  Loadgen gen(fake.port(), 1);
  const Stream s = uniform_stream();
  WindowResult r = gen.run(s, {}, 5.0);
  EXPECT(r.ok == 1000);
  EXPECT(r.failed == 0 && r.wrong == 0);
  const std::int64_t b = fake.stall_begin, e = fake.stall_end;
  EXPECT(e - b >= 90'000'000);
  // Every request due during the stall waited for its end, measured from
  // its schedule, not from whenever it happened to be sent.
  std::size_t charged = 0, due_in_stall = 0;
  for (std::size_t i = 0; i < s.at_ns.size(); ++i) {
    const std::int64_t due = r.start_ns + s.at_ns[i];
    if (due < b || due >= e) continue;
    ++due_in_stall;
    const double owed_ms = static_cast<double>(e - due) / 1e6;
    if (r.latency_ms[i] + 0.5 >= owed_ms) ++charged;
  }
  EXPECT(due_in_stall >= 80);
  EXPECT(charged == due_in_stall);
  std::vector<double> lat = r.latency_ms;
  EXPECT(quantile(lat, 0.95) >= 40.0);
  // The generator itself kept its schedule.
  EXPECT(kept_schedule(r, 5.0));
}

void test_generator_stall() {
  FakeEndpoint fake(/*stall_after=*/~std::size_t{0}, 0);
  Loadgen gen(fake.port(), 1);
  const Stream s = uniform_stream();
  std::int64_t origin = 0;
  bool stalled = false;
  gen.on_iteration = [&](std::int64_t t) {
    if (origin == 0) origin = t;
    if (!stalled && t - origin > 300'000'000) {
      stalled = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  };
  WindowResult r = gen.run(s, {}, 5.0);
  EXPECT(stalled);
  EXPECT(r.ok == 1000);
  std::vector<double> lag = r.lag_ms;
  EXPECT(quantile(lag, 0.99) >= 50.0);
  EXPECT(!kept_schedule(r, 5.0));
  // Requests held back by the generator are still charged from their
  // schedule: latency covers the lag.
  std::size_t undercharged = 0;
  for (std::size_t i = 0; i < r.lag_ms.size(); ++i) {
    if (r.latency_ms[i] + 1e-9 < r.lag_ms[i]) ++undercharged;
  }
  EXPECT(undercharged == 0);
}

// --------------------------------------------------------- determinism

void test_stream_hash() {
  const Spec& cold = *find_spec("cold_unique");
  const Spec& batch = *find_spec("batch_dup");
  const auto a = stream_hash(make_workload(cold, 7, 0.05, 1));
  const auto b = stream_hash(make_workload(cold, 7, 0.05, 4));
  const auto c = stream_hash(make_workload(cold, 8, 0.05, 4));
  EXPECT(a == b);
  EXPECT(a != c);
  const auto d = stream_hash(make_workload(batch, 7, 0.02, 3));
  const auto e = stream_hash(make_workload(batch, 7, 0.02, 2));
  EXPECT(d == e);
  char hex[40];
  std::snprintf(hex, sizeof hex, "%016llx/%016llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(d));
  std::cout << "stream hashes (cold_unique, batch_dup) seed 7: " << hex
            << "\n";
  EXPECT(std::string(hex) == kPinnedHashes);
}

}  // namespace

int main() {
  test_checker();
  test_endpoint_stall();
  test_generator_stall();
  test_stream_hash();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all checks passed\n";
  return 0;
}
