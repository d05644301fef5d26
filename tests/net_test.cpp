// The copathd wire protocol and serving tier, end to end:
//
//  * NetProtocol — pure codec coverage: golden frame bytes (the v1 layout
//    is a compatibility contract), handshake parsing, incremental frame
//    extraction under pathological fragmentation, oversized/zero-length
//    rejection, request/response round trips, truncation defense.
//  * Daemon — a real net::Server on an ephemeral loopback port driven by
//    net::Client and raw sockets: differential equivalence against an
//    in-process Service, pipelined out-of-order completion, malformed and
//    oversized frames answered structurally (connection survives or closes
//    per the protocol contract — the process never crashes), handshake
//    version refusal, invalid-signature refusal, graceful drain.
//
// The Daemon suite runs under TSan in CI (the loop thread, solver workers,
// and client threads share the completion queue and wake pipe).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "copath.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "invariants.hpp"
#include "testing.hpp"

namespace copath {
namespace {

namespace proto = net::protocol;
using proto::Status;
using proto::Verb;

std::string bytes(const char* data, std::size_t n) {
  return std::string(data, n);
}

// ---------------------------------------------------------- NetProtocol

TEST(NetProtocol, HelloGoldenBytesAndRoundTrip) {
  // v2 hello: "CPTH" magic (LE u32 0x48545043), version 2, reserved 0.
  EXPECT_EQ(proto::make_hello(), bytes("CPTH\x02\x00\x00\x00", 8));
  std::uint16_t version = 0;
  EXPECT_TRUE(proto::parse_hello(proto::make_hello(), &version));
  EXPECT_EQ(version, proto::kVersion);
  EXPECT_FALSE(proto::parse_hello(bytes("XPTH\x01\x00\x00\x00", 8),
                                  &version));
  EXPECT_FALSE(proto::parse_hello(bytes("CPTH\x01\x00\x00", 7), &version));

  Status status = Status::Ok;
  EXPECT_TRUE(proto::parse_hello_reply(
      proto::make_hello_reply(Status::VersionMismatch), &status, &version));
  EXPECT_EQ(status, Status::VersionMismatch);
  EXPECT_EQ(version, proto::kVersion);
}

TEST(NetProtocol, SolveRequestGoldenBytes) {
  std::string out;
  proto::WireOptions opts;  // flags = want-verdicts, backend 0
  proto::append_solve_request(out, Verb::SolveText, 7, opts, "(+ a b)");
  const std::string expected =
      bytes("\x14\x00\x00\x00", 4) +                       // frame length 20
      bytes("\x01", 1) +                                   // verb SolveText
      bytes("\x07\x00\x00\x00\x00\x00\x00\x00", 8) +       // seq 7
      bytes("\x01\x00\x00\x00", 4) +                       // options
      "(+ a b)";
  EXPECT_EQ(out, expected);
}

TEST(NetProtocol, DeadlineRidesBehindFlagAndV1FramesStillParse) {
  // A frame WITHOUT a deadline is byte-identical to the v1 encoding (the
  // golden test above) — that's the whole compatibility argument — and
  // decodes with deadline_ms == 0.
  std::string out;
  proto::WireOptions opts;
  proto::append_solve_request(out, Verb::SolveText, 7, opts, "(+ a b)");
  std::string payload;
  ASSERT_EQ(proto::extract_frame(out, &payload), proto::Extract::Frame);
  proto::Request req;
  ASSERT_TRUE(proto::parse_request(payload, &req));
  EXPECT_EQ(req.opts.flags & proto::kOptHasDeadline, 0u);
  EXPECT_EQ(req.deadline_ms, 0u);
  EXPECT_EQ(req.body, "(+ a b)");

  // With a deadline: kOptHasDeadline set, trailing u32 after the options
  // word, body undisturbed. The codec owns the flag — callers can't desync
  // flag and field.
  out.clear();
  proto::append_solve_request(out, Verb::SolveText, 8, opts, "(+ a b)",
                              /*deadline_ms=*/250);
  ASSERT_EQ(proto::extract_frame(out, &payload), proto::Extract::Frame);
  ASSERT_TRUE(proto::parse_request(payload, &req));
  EXPECT_NE(req.opts.flags & proto::kOptHasDeadline, 0u);
  EXPECT_EQ(req.deadline_ms, 250u);
  EXPECT_EQ(req.body, "(+ a b)");

  // Batch frames carry it the same way.
  out.clear();
  const proto::BatchItem items[] = {{false, "(+ a b)"}};
  proto::append_batch_request(out, 9, opts, items, /*deadline_ms=*/125);
  ASSERT_EQ(proto::extract_frame(out, &payload), proto::Extract::Frame);
  ASSERT_TRUE(proto::parse_request(payload, &req));
  EXPECT_EQ(req.verb, Verb::BatchSolve);
  EXPECT_EQ(req.deadline_ms, 125u);

  // A flagged frame truncated before the trailing u32 is malformed, not
  // a zero deadline.
  out.clear();
  proto::append_solve_request(out, Verb::SolveText, 10, opts, "x",
                              /*deadline_ms=*/250);
  ASSERT_EQ(proto::extract_frame(out, &payload), proto::Extract::Frame);
  payload.resize(payload.size() - 5);  // drop body byte + one deadline byte
  EXPECT_FALSE(proto::parse_request(payload, &req));
}

TEST(NetProtocol, CancelRequestGoldenBytesAndRoundTrip) {
  // v2 Cancel frame: verb u8 | seq u64 | target_seq u64, nothing else.
  std::string out;
  proto::append_cancel_request(out, /*seq=*/5, /*target_seq=*/3);
  const std::string expected =
      bytes("\x11\x00\x00\x00", 4) +                  // frame length 17
      bytes("\x08", 1) +                              // verb Cancel
      bytes("\x05\x00\x00\x00\x00\x00\x00\x00", 8) +  // seq 5
      bytes("\x03\x00\x00\x00\x00\x00\x00\x00", 8);   // target seq 3
  EXPECT_EQ(out, expected);

  std::string payload;
  ASSERT_EQ(proto::extract_frame(out, &payload), proto::Extract::Frame);
  proto::Request req;
  ASSERT_TRUE(proto::parse_request(payload, &req));
  EXPECT_EQ(req.verb, Verb::Cancel);
  EXPECT_EQ(req.seq, 5u);
  EXPECT_EQ(req.target_seq, 3u);

  // A short target and trailing garbage are both malformed, not lenient.
  EXPECT_FALSE(proto::parse_request(payload.substr(0, payload.size() - 1),
                                    &req));
  EXPECT_FALSE(proto::parse_request(payload + "x", &req));

  // The Cancelled status survives a response round trip.
  const std::string frame = proto::encode_status_response_frame(
      9, Verb::SolveText, Status::Cancelled, "cancelled");
  std::string rpayload;
  std::string stream = frame;
  ASSERT_EQ(proto::extract_frame(stream, &rpayload),
            proto::Extract::Frame);
  proto::Response res;
  ASSERT_TRUE(proto::parse_response(rpayload, &res));
  EXPECT_EQ(res.status, Status::Cancelled);
  EXPECT_EQ(res.error, "cancelled");
}

TEST(NetProtocol, FrameExtractionSurvivesBytewiseFragmentation) {
  // Three frames delivered one byte at a time must come out intact and in
  // order, with NeedMore at every incomplete boundary.
  std::string stream;
  proto::append_frame(stream, "alpha");
  proto::append_frame(stream, std::string(300, 'b'));
  proto::append_frame(stream, bytes("\x00\x01\x02", 3));

  std::string buf, payload;
  std::vector<std::string> frames;
  for (const char c : stream) {
    buf += c;
    for (;;) {
      const auto r = proto::extract_frame(buf, &payload);
      if (r != proto::Extract::Frame) {
        EXPECT_EQ(r, proto::Extract::NeedMore);
        break;
      }
      frames.push_back(payload);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "alpha");
  EXPECT_EQ(frames[1], std::string(300, 'b'));
  EXPECT_EQ(frames[2], bytes("\x00\x01\x02", 3));
  EXPECT_TRUE(buf.empty());
}

TEST(NetProtocol, ZeroAndOversizedLengthsAreCorruptNotAllocated) {
  std::string payload;
  std::string zero = bytes("\x00\x00\x00\x00junk", 8);
  EXPECT_EQ(proto::extract_frame(zero, &payload), proto::Extract::Corrupt);

  // Length prefix claiming kMaxFrameBytes + 1: corrupt immediately — the
  // extractor must not wait for (or reserve) 16 MiB.
  const std::uint32_t big = proto::kMaxFrameBytes + 1;
  std::string over;
  for (int i = 0; i < 4; ++i) {
    over += static_cast<char>((big >> (8 * i)) & 0xff);
  }
  EXPECT_EQ(proto::extract_frame(over, &payload), proto::Extract::Corrupt);

  // Exactly kMaxFrameBytes is legal framing — just not complete yet.
  std::string max;
  for (int i = 0; i < 4; ++i) {
    max += static_cast<char>((proto::kMaxFrameBytes >> (8 * i)) & 0xff);
  }
  EXPECT_EQ(proto::extract_frame(max, &payload), proto::Extract::NeedMore);
}

TEST(NetProtocol, RequestRoundTripAndRejection) {
  std::string out;
  proto::WireOptions wopts;
  wopts.flags = proto::kOptWantCycle | proto::kOptExplicitBackend;
  wopts.backend = 3;
  proto::append_solve_request(out, Verb::SolveSignature, 99, wopts, "sig");
  std::string payload;
  ASSERT_EQ(proto::extract_frame(out, &payload), proto::Extract::Frame);
  proto::Request req;
  ASSERT_TRUE(proto::parse_request(payload, &req));
  EXPECT_EQ(req.verb, Verb::SolveSignature);
  EXPECT_EQ(req.seq, 99u);
  EXPECT_EQ(req.opts, wopts);
  EXPECT_EQ(req.body, "sig");

  out.clear();
  proto::append_admin_request(out, Verb::Stats, 5);
  ASSERT_EQ(proto::extract_frame(out, &payload), proto::Extract::Frame);
  ASSERT_TRUE(proto::parse_request(payload, &req));
  EXPECT_EQ(req.verb, Verb::Stats);
  EXPECT_EQ(req.seq, 5u);
  EXPECT_TRUE(req.body.empty());

  // Rejections: empty, unknown verb, truncated header, truncated options,
  // empty solve body, admin verb with trailing junk.
  EXPECT_FALSE(proto::parse_request("", &req));
  EXPECT_FALSE(proto::parse_request(
      bytes("\xc8\x01\x00\x00\x00\x00\x00\x00\x00", 9), &req));
  EXPECT_FALSE(proto::parse_request(bytes("\x01\x01\x00", 3), &req));
  EXPECT_FALSE(proto::parse_request(
      bytes("\x01\x01\x00\x00\x00\x00\x00\x00\x00\x01", 10), &req));
  EXPECT_FALSE(proto::parse_request(
      bytes("\x01\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00", 13),
      &req));
  EXPECT_FALSE(proto::parse_request(
      bytes("\x04\x01\x00\x00\x00\x00\x00\x00\x00x", 10), &req));
}

SolveResult make_result() {
  SolveResult res;
  res.ok = true;
  res.vertex_count = 6;
  res.optimal_size = 2;
  res.minimum = true;
  res.hamiltonian_path = false;
  res.hamiltonian_cycle = false;
  res.wall_ms = 1.25;
  res.cover.paths = {{0, 2, 4}, {1, 3, 5}};
  res.cycle = std::vector<cograph::VertexId>{0, 1, 2, 3, 4, 5};
  return res;
}

TEST(NetProtocol, SolveResponseRoundTrip) {
  const SolveResult res = make_result();
  std::string frame = proto::encode_solve_response_frame(
      42, Verb::SolveSignature, Status::Ok, &res, {});
  std::string payload;
  ASSERT_EQ(proto::extract_frame(frame, &payload), proto::Extract::Frame);
  proto::Response out;
  ASSERT_TRUE(proto::parse_response(payload, &out));
  EXPECT_EQ(out.verb, Verb::SolveSignature);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.status, Status::Ok);
  EXPECT_TRUE(out.result.ok);
  EXPECT_TRUE(out.result.minimum);
  EXPECT_TRUE(out.result.has_verdicts);
  EXPECT_EQ(out.result.vertex_count, 6u);
  EXPECT_EQ(out.result.optimal_size, 2);
  EXPECT_DOUBLE_EQ(out.result.wall_ms, 1.25);
  ASSERT_EQ(out.result.paths.size(), 2u);
  EXPECT_EQ(out.result.paths[0], (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(out.result.paths[1], (std::vector<std::uint32_t>{1, 3, 5}));
  ASSERT_TRUE(out.result.cycle.has_value());
  EXPECT_EQ(out.result.cycle->size(), 6u);
}

TEST(NetProtocol, ErrorAndStatsResponsesRoundTrip) {
  std::string frame = proto::encode_status_response_frame(
      9, Verb::SolveText, Status::SolveError, "boom");
  std::string payload;
  ASSERT_EQ(proto::extract_frame(frame, &payload), proto::Extract::Frame);
  proto::Response out;
  ASSERT_TRUE(proto::parse_response(payload, &out));
  EXPECT_EQ(out.status, Status::SolveError);
  EXPECT_EQ(out.error, "boom");

  const std::pair<std::string_view, std::uint64_t> counters[] = {
      {"cache_hits", 17}, {"completed", 40}};
  frame = proto::encode_stats_response_frame(3, counters);
  ASSERT_EQ(proto::extract_frame(frame, &payload), proto::Extract::Frame);
  ASSERT_TRUE(proto::parse_response(payload, &out));
  EXPECT_EQ(out.verb, Verb::Stats);
  ASSERT_EQ(out.stats.size(), 2u);
  EXPECT_EQ(out.stats[0].first, "cache_hits");
  EXPECT_EQ(out.stats[0].second, 17u);
  EXPECT_EQ(out.stats[1].first, "completed");
  EXPECT_EQ(out.stats[1].second, 40u);
}

TEST(NetProtocol, TruncatedSolveResponsesAreRejected) {
  const SolveResult res = make_result();
  std::string frame = proto::encode_solve_response_frame(
      1, Verb::SolveText, Status::Ok, &res, {});
  std::string payload;
  ASSERT_EQ(proto::extract_frame(frame, &payload), proto::Extract::Frame);
  proto::Response out;
  ASSERT_TRUE(proto::parse_response(payload, &out));
  // Every strict prefix must be rejected — the decoder demands exact
  // consumption, so truncation can never silently yield fewer paths.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(
        proto::parse_response(std::string_view(payload).substr(0, cut),
                              &out))
        << "prefix of " << cut << " bytes decoded";
  }
}

// --------------------------------------------------------------- Daemon

/// A serving daemon on an ephemeral port, drained on destruction.
struct DaemonFixture {
  explicit DaemonFixture(net::Server::Options opts = {}) {
    opts.port = 0;
    server = std::make_unique<net::Server>(std::move(opts));
    thread = std::thread([this] { server->run(); });
  }
  ~DaemonFixture() {
    if (server != nullptr) {
      testing::expect_quiescent(connect().stats());
      server->request_drain();
      thread.join();
    }
  }
  [[nodiscard]] net::Client connect() const {
    return net::Client("127.0.0.1", server->port());
  }

  std::unique_ptr<net::Server> server;
  std::thread thread;
};

/// Raw socket with a completed handshake — for crafting hostile bytes the
/// Client API refuses to produce.
struct RawConn {
  explicit RawConn(std::uint16_t port,
                   std::uint16_t version = proto::kVersion) {
    fd = net::connect_tcp("127.0.0.1", port);
    std::string hello;
    hello += "CPTH";
    hello += static_cast<char>(version & 0xff);
    hello += static_cast<char>(version >> 8);
    hello += bytes("\x00\x00", 2);
    net::write_all(fd.get(), hello.data(), hello.size());
    char reply[proto::kHelloReplyBytes];
    EXPECT_TRUE(net::read_exact(fd.get(), reply, sizeof(reply)));
    EXPECT_TRUE(proto::parse_hello_reply(
        std::string_view(reply, sizeof(reply)), &status, &peer_version));
  }

  void send(std::string_view data) {
    net::write_all(fd.get(), data.data(), data.size());
  }

  /// Blocking read of one whole response frame, length prefix included.
  std::string read_frame() {
    std::string frame(4, '\0');
    EXPECT_TRUE(net::read_exact(fd.get(), frame.data(), frame.size()));
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<std::uint8_t>(frame[i]);
    }
    frame.resize(4 + len);
    EXPECT_TRUE(net::read_exact(fd.get(), frame.data() + 4, len));
    return frame;
  }

  /// Blocking read of one response frame's parsed payload.
  proto::Response read_response() {
    const std::string frame = read_frame();
    proto::Response res;
    EXPECT_TRUE(proto::parse_response(std::string_view(frame).substr(4), &res));
    return res;
  }

  /// True when the server has closed the connection cleanly.
  bool at_eof() {
    char c;
    return !net::read_exact(fd.get(), &c, 1);
  }

  net::Fd fd;
  Status status = Status::Ok;
  std::uint16_t peer_version = 0;
};

void expect_valid_cover(const proto::WireResult& r, std::size_t n) {
  std::vector<std::uint32_t> seen;
  for (const auto& path : r.paths) {
    EXPECT_FALSE(path.empty());
    seen.insert(seen.end(), path.begin(), path.end());
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::uint32_t> want(n);
  std::iota(want.begin(), want.end(), 0u);
  EXPECT_EQ(seen, want);  // every vertex exactly once
}

TEST(Daemon, TextAndSignatureDifferentialAgainstInProcessService) {
  DaemonFixture daemon;
  net::Client cli = daemon.connect();
  Service svc;
  for (unsigned trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + trial * 17 % 160;
    const Cotree t = testing::random_cotree(n, 90000 + trial);
    const std::string text = t.format();
    const auto form = canonical_form(t, /*with_algebra_key=*/false);

    const SolveResult local =
        svc.submit({Instance::text(text), {}, {}}).get();
    ASSERT_TRUE(local.ok) << local.error;

    const proto::Response rt = cli.solve_text(text);
    ASSERT_EQ(rt.status, Status::Ok) << rt.error;
    ASSERT_TRUE(rt.result.ok);
    const proto::Response rs = cli.solve_signature(form.signature);
    ASSERT_EQ(rs.status, Status::Ok) << rs.error;
    ASSERT_TRUE(rs.result.ok);

    for (const proto::Response* r : {&rt, &rs}) {
      EXPECT_EQ(r->result.vertex_count, local.vertex_count);
      EXPECT_EQ(r->result.optimal_size, local.optimal_size);
      EXPECT_EQ(r->result.minimum, local.minimum);
      EXPECT_EQ(r->result.hamiltonian_path, local.hamiltonian_path);
      EXPECT_EQ(r->result.hamiltonian_cycle, local.hamiltonian_cycle);
      EXPECT_EQ(r->result.paths.size(), local.cover.paths.size());
      expect_valid_cover(r->result, n);
    }
  }
  // The signature requests must have hit the entries their text twins
  // populated: same canonical identity, same options.
  const proto::Response st = cli.stats();
  std::uint64_t hits = 0;
  for (const auto& [k, v] : st.stats) {
    if (k == "cache_hits") hits = v;
  }
  EXPECT_GE(hits, 12u);
  testing::expect_quiescent(svc);
}

TEST(Daemon, HamiltonianCycleTravelsTheWire) {
  DaemonFixture daemon;
  net::Client cli = daemon.connect();
  proto::WireOptions opts;
  opts.flags = proto::kOptWantVerdicts | proto::kOptWantCycle;
  const proto::Response res = cli.solve_text("(* a b c)", opts);
  ASSERT_EQ(res.status, Status::Ok) << res.error;
  EXPECT_TRUE(res.result.hamiltonian_cycle);
  ASSERT_TRUE(res.result.cycle.has_value());
  EXPECT_EQ(res.result.cycle->size(), 3u);
  expect_valid_cover(res.result, 3);
}

TEST(Daemon, PipelinedResponsesArriveInCompletionOrder) {
  // A custom backend that sleeps on large instances: submit slow-then-fast
  // on one connection and the fast response must overtake the slow one —
  // the protocol's completion-order contract, exercised for real.
  const auto sleepy = static_cast<Backend>(211);
  BackendRegistry::instance().add(
      sleepy, "sleepy-by-size",
      [](const Cotree& t, const core::BackendConfig&) {
        if (t.vertex_count() >= 16) {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
        }
        core::BackendOutput out;
        for (std::size_t v = 0; v < t.vertex_count(); ++v) {
          out.cover.paths.push_back({static_cast<VertexId>(v)});
        }
        return out;
      },
      /*exact=*/false);

  net::Server::Options sopts;
  sopts.service.workers = 4;  // the two jobs must truly run concurrently
  DaemonFixture daemon(std::move(sopts));
  net::Client cli = daemon.connect();

  proto::WireOptions wopts;
  wopts.flags = proto::kOptWantVerdicts | proto::kOptExplicitBackend;
  wopts.backend = 211;
  const std::string slow = testing::random_cotree(64, 1).format();
  const std::string fast = testing::random_cotree(4, 2).format();
  const std::uint64_t slow_seq = cli.send_solve_text(slow, wopts);
  const std::uint64_t fast_seq = cli.send_solve_text(fast, wopts);
  cli.flush();

  const proto::Response first = cli.recv();
  const proto::Response second = cli.recv();
  EXPECT_EQ(first.seq, fast_seq);
  EXPECT_EQ(second.seq, slow_seq);
  EXPECT_EQ(first.status, Status::Ok);
  EXPECT_EQ(second.status, Status::Ok);
}

TEST(Daemon, MalformedPayloadGetsBadFrameAndConnectionSurvives) {
  DaemonFixture daemon;
  RawConn raw(daemon.server->port());
  ASSERT_EQ(raw.status, Status::Ok);

  // A framed payload that is not a request (unknown verb, short header).
  std::string frame;
  proto::append_frame(frame, bytes("\xff\x01", 2));
  raw.send(frame);
  const proto::Response bad = raw.read_response();
  EXPECT_EQ(bad.status, Status::BadFrame);
  EXPECT_FALSE(bad.error.empty());

  // The connection is still serviceable afterwards.
  frame.clear();
  proto::append_admin_request(frame, Verb::Health, 2);
  raw.send(frame);
  const proto::Response ok = raw.read_response();
  EXPECT_EQ(ok.status, Status::Ok);
  EXPECT_EQ(ok.seq, 2u);
}

TEST(Daemon, MalformedRequestKeepsItsSequenceId) {
  DaemonFixture daemon;
  RawConn raw(daemon.server->port());
  // verb 200 (unknown) but a complete 9-byte header: the error response
  // must echo seq 77 so a pipelining client can correlate the failure.
  std::string payload = bytes("\xc8", 1);
  payload += bytes("\x4d\x00\x00\x00\x00\x00\x00\x00", 8);
  std::string frame;
  proto::append_frame(frame, payload);
  raw.send(frame);
  const proto::Response res = raw.read_response();
  EXPECT_EQ(res.status, Status::BadFrame);
  EXPECT_EQ(res.seq, 77u);
}

TEST(Daemon, OversizedLengthPrefixAnswersThenCloses) {
  DaemonFixture daemon;
  RawConn raw(daemon.server->port());
  const std::uint32_t big = proto::kMaxFrameBytes + 1;
  std::string header;
  for (int i = 0; i < 4; ++i) {
    header += static_cast<char>((big >> (8 * i)) & 0xff);
  }
  raw.send(header);
  const proto::Response res = raw.read_response();
  EXPECT_EQ(res.status, Status::BadFrame);
  EXPECT_TRUE(raw.at_eof());  // the stream is poisoned: server hangs up
}

TEST(Daemon, RequestsSurviveBytewiseDelivery) {
  // The server's frame reassembly must tolerate arbitrarily fragmented
  // TCP delivery: one valid request trickled a few bytes at a time.
  DaemonFixture daemon;
  RawConn raw(daemon.server->port());
  std::string frame;
  proto::WireOptions wopts;
  proto::append_solve_request(frame, Verb::SolveText, 31, wopts,
                              "(* (+ a b) c)");
  for (std::size_t i = 0; i < frame.size(); i += 3) {
    raw.send(std::string_view(frame).substr(i, 3));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const proto::Response res = raw.read_response();
  EXPECT_EQ(res.status, Status::Ok);
  EXPECT_EQ(res.seq, 31u);
  expect_valid_cover(res.result, 3);
}

TEST(Daemon, WrongVersionIsRefusedAtHandshake) {
  DaemonFixture daemon;
  RawConn raw(daemon.server->port(), /*version=*/99);
  EXPECT_EQ(raw.status, Status::VersionMismatch);
  EXPECT_TRUE(raw.at_eof());
}

TEST(Daemon, InvalidSignatureIsRefusedStructurally) {
  DaemonFixture daemon;
  net::Client cli = daemon.connect();
  // Truncated LEB128: leaf, leaf, join tag, then nothing.
  const proto::Response res =
      cli.solve_signature(bytes("\x00\x00\x02", 3));
  EXPECT_EQ(res.status, Status::InvalidSignature);
  EXPECT_NE(res.error.find("truncated"), std::string::npos) << res.error;
  // Refusal is per-request, not per-connection.
  EXPECT_EQ(cli.health().status, Status::Ok);
}

TEST(Daemon, SolveFrameAnswersExactlyLikeAOneItemBatch) {
  // A Solve frame is served as a one-slot batch; the wire must not show
  // it. For text and signature bodies, with and without a deadline, the
  // Solve response frame is byte-identical to the encoding of an
  // in-process Service::submit result for the same bytes, and a one-item
  // BatchSolve of the same bytes carries that same result in its slot.
  // wall_ms is the engine's measured time, the one field two separate
  // solves cannot share, so the in-process result takes the daemon's.
  DaemonFixture daemon;
  RawConn raw(daemon.server->port());
  ASSERT_EQ(raw.status, Status::Ok);
  Service svc;
  const proto::WireOptions wopts{};
  std::uint64_t seq = 100;
  unsigned trial = 0;
  for (const Verb verb : {Verb::SolveText, Verb::SolveSignature}) {
    for (const std::uint32_t deadline_ms : {0u, 60000u}) {
      const std::string what = std::string(verb == Verb::SolveText
                                               ? "text"
                                               : "signature") +
                               " deadline " + std::to_string(deadline_ms);
      // A distinct instance per case: each Solve frame is a cold miss on
      // the daemon, like the in-process submit.
      const Cotree t = testing::random_cotree(20 + 7 * trial, 93000 + trial);
      ++trial;
      const bool sig = verb == Verb::SolveSignature;
      const std::string body =
          sig ? canonical_form(t, /*with_algebra_key=*/false).signature
              : t.format();

      const std::uint64_t solve_seq = ++seq;
      std::string out;
      proto::append_solve_request(out, verb, solve_seq, wopts, body,
                                  deadline_ms);
      raw.send(out);
      const std::string solve_frame = raw.read_frame();
      proto::Response decoded;
      ASSERT_TRUE(proto::parse_response(
          std::string_view(solve_frame).substr(4), &decoded))
          << what;
      ASSERT_EQ(decoded.status, Status::Ok) << what << ": " << decoded.error;

      SolveRequest local_req;
      local_req.instance = sig ? Instance::signature(body)
                               : Instance::text(body);
      local_req.options =
          proto::apply_wire_options(wopts, Service::Options{}.solve);
      local_req.deadline_ms = deadline_ms;
      SolveResult local = svc.submit(std::move(local_req)).get();
      ASSERT_TRUE(local.ok) << what << ": " << local.error;
      local.wall_ms = decoded.result.wall_ms;
      EXPECT_EQ(solve_frame,
                proto::encode_solve_response_frame(solve_seq, verb,
                                                   Status::Ok, &local, {}))
          << what;

      const std::uint64_t batch_seq = ++seq;
      out.clear();
      const proto::BatchItem item{sig, body};
      proto::append_batch_request(out, batch_seq, wopts,
                                  std::span<const proto::BatchItem>(&item, 1),
                                  deadline_ms);
      raw.send(out);
      const proto::BatchResponseEntry entry{Status::Ok, &local, {}};
      EXPECT_EQ(raw.read_frame(),
                proto::encode_batch_response_frame(
                    batch_seq,
                    std::span<const proto::BatchResponseEntry>(&entry, 1)))
          << what;
    }
  }

  // An invalid signature is still refused inline with a Solve-verb
  // InvalidSignature status frame, never as a batch slot.
  const std::string bad = bytes("\x00\x00\x02", 3);
  std::string why;
  ASSERT_FALSE(cograph::signature_valid(bad, &why));
  for (const std::uint32_t deadline_ms : {0u, 60000u}) {
    const std::uint64_t bad_seq = ++seq;
    std::string out;
    proto::append_solve_request(out, Verb::SolveSignature, bad_seq, wopts,
                                bad, deadline_ms);
    raw.send(out);
    EXPECT_EQ(raw.read_frame(),
              proto::encode_status_response_frame(
                  bad_seq, Verb::SolveSignature, Status::InvalidSignature,
                  why));
  }
  testing::expect_quiescent(svc);
}

TEST(Daemon, UnregisteredBackendFailsStructurally) {
  DaemonFixture daemon;
  net::Client cli = daemon.connect();
  proto::WireOptions wopts;
  wopts.flags = proto::kOptWantVerdicts | proto::kOptExplicitBackend;
  wopts.backend = 250;  // nobody registers this id
  const proto::Response res = cli.solve_text("(+ a b)", wopts);
  EXPECT_EQ(res.status, Status::SolveError);
  EXPECT_FALSE(res.error.empty());
  EXPECT_EQ(cli.health().status, Status::Ok);
}

TEST(Daemon, DrainAcknowledgesThenStopsTheServer) {
  auto server = std::make_unique<net::Server>([] {
    net::Server::Options opts;
    opts.port = 0;
    return opts;
  }());
  const std::uint16_t port = server->port();
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", port);
    ASSERT_EQ(cli.solve_text("(+ a b)").status, Status::Ok);
    testing::expect_quiescent(cli.stats());
    EXPECT_EQ(cli.drain().status, Status::Ok);
  }
  loop.join();  // run() returns exactly when the drain completes
  server.reset();
  // The port is released: a fresh connection attempt must be refused.
  EXPECT_THROW(net::Client("127.0.0.1", port), util::CheckError);
}

TEST(Daemon, OlderProtocolVersionIsStillAccepted) {
  // The v2 server accepts the whole [kMinVersion, kVersion] range: a v1
  // client (no deadline field anywhere) handshakes and solves unchanged.
  DaemonFixture daemon;
  RawConn raw(daemon.server->port(), /*version=*/1);
  ASSERT_EQ(raw.status, Status::Ok);
  EXPECT_EQ(raw.peer_version, proto::kVersion);

  std::string out;
  proto::append_solve_request(out, Verb::SolveText, 3, {}, "(+ a b)");
  raw.send(out);
  const proto::Response res = raw.read_response();
  EXPECT_EQ(res.seq, 3u);
  EXPECT_EQ(res.status, Status::Ok);
  EXPECT_EQ(res.result.vertex_count, 2u);
}

TEST(Daemon, HealthV1ReplyIsTheLegacyEmptyOkFrameByteForByte) {
  // A v1 client's Health probe must get EXACTLY the bytes the previous
  // release sent — the empty-body Ok status frame — because v1 parsers
  // reject unexpected bodies. The golden literal (not the encoder) is the
  // contract.
  DaemonFixture daemon;
  RawConn raw(daemon.server->port(), /*version=*/1);
  ASSERT_EQ(raw.status, Status::Ok);

  std::string out;
  proto::append_admin_request(out, Verb::Health, 6);
  raw.send(out);
  std::string reply(4 + 10, '\0');
  ASSERT_TRUE(net::read_exact(raw.fd.get(), reply.data(), reply.size()));
  const std::string expected =
      bytes("\x0a\x00\x00\x00", 4) +                  // frame length 10
      bytes("\x04", 1) +                              // verb Health
      bytes("\x06\x00\x00\x00\x00\x00\x00\x00", 8) +  // seq 6
      bytes("\x00", 1);                               // status Ok, no body
  EXPECT_EQ(reply, expected);
}

TEST(Daemon, HealthV2CarriesTheDegradedStateCounters) {
  DaemonFixture daemon;
  net::Client cli = daemon.connect();
  const proto::Response res = cli.health();
  ASSERT_EQ(res.status, Status::Ok) << res.error;
  ASSERT_FALSE(res.stats.empty());
  const auto has = [&res](std::string_view key) {
    for (const auto& [k, v] : res.stats) {
      if (k == key) return true;
    }
    return false;
  };
  for (const char* key :
       {"draining", "queue_depth", "in_flight", "parked_now",
        "parked_bytes", "parked_refused", "shed_expired", "cancelled",
        "watchdog_cancels", "stuck_workers", "l2_enabled"}) {
    EXPECT_TRUE(has(key)) << key;
  }
  // An idle just-started server is unambiguously healthy.
  for (const auto& [k, v] : res.stats) {
    if (k == "draining" || k == "in_flight" || k == "stuck_workers") {
      EXPECT_EQ(v, 0u) << k;
    }
  }
}

TEST(Daemon, CancelOfAnUnknownSeqIsAnIdempotentOkAck) {
  // Cancelling a finished (or never-sent) seq is a benign race by
  // contract: an Ok ack, the connection stays healthy.
  DaemonFixture daemon;
  net::Client cli = daemon.connect();
  const std::uint64_t cseq = cli.send_cancel(/*target_seq=*/424242);
  cli.flush();
  const proto::Response ack = cli.recv();
  EXPECT_EQ(ack.seq, cseq);
  EXPECT_EQ(ack.verb, Verb::Cancel);
  EXPECT_EQ(ack.status, Status::Ok);
  EXPECT_EQ(cli.solve_text("(+ a b)").status, Status::Ok);
}

}  // namespace
}  // namespace copath
