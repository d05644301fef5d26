// copathd wire protocol v2: length-prefixed binary frames over TCP.
//
// Everything is little-endian. A connection opens with a fixed-size
// handshake, then carries a stream of independent frames in both
// directions; requests are pipelined (a client may have many outstanding)
// and responses are tagged with the request's sequence id and written in
// COMPLETION order, not submission order — the sequence id, not stream
// position, is the correlation key.
//
// v2 is a minor revision of v1: the only frame-level change is an OPTIONAL
// trailing `deadline_ms u32` after WireOptions on the solve verbs, gated by
// a previously-reserved flag bit (kOptHasDeadline) — a v1 frame never sets
// the bit, so servers accept both versions on one connection type and v1
// clients keep working unchanged. (A v2 client against a v1 server is
// refused at the handshake; downgrade by not sending deadlines is the
// client's call, not the protocol's.)
//
//   handshake  client -> server   magic u32 | version u16 | reserved u16
//              server -> client   magic u32 | version u16 | status u8 | 0 u8
//              (status != Ok means the server is refusing — version
//               mismatch — and closes after the reply; servers accept any
//               version in [kMinVersion, kVersion])
//
//   frame                         length u32 | payload (length bytes)
//              `length` counts the payload only and must be in
//              (0, kMaxFrameBytes]; an oversized length is a framing
//              attack/corruption and closes the connection after a
//              structured BadFrame response.
//
//   request payload               verb u8 | seq u64 | body
//     (solve verbs: when WireOptions carries kOptHasDeadline, a
//      deadline_ms u32 sits between the options and the verb body)
//     SolveText       body = WireOptions (4 bytes) | cotree algebra text
//     SolveSignature  body = WireOptions (4 bytes) | CanonicalForm
//                     signature bytes (see cograph/canonical.hpp) — the
//                     hot path: the server skips text parsing AND
//                     canonical sorting, at the price of a full
//                     stack-machine re-validation of the untrusted bytes
//     Stats | Health | Drain | CacheCompact    body empty (admin verbs)
//     Cancel          body = target_seq u64 — cancel the in-flight or
//                     parked request this CONNECTION submitted under that
//                     sequence id (v2 verb). The Cancel frame itself is
//                     acked Ok (idempotently: cancelling a finished or
//                     unknown seq is a no-op ack); the cancelled request
//                     answers under ITS OWN seq with Status::Cancelled
//                     (or DeadlineExceeded if its budget expired first).
//     BatchSolve      body = WireOptions (4 bytes, shared by every item) |
//                     u16 count | count * (u8 kind | u32 len | len bytes)
//                     where kind selects the sub-body meaning (1 = algebra
//                     text, 2 = signature bytes). The whole batch is ONE
//                     frame, ONE sequence id, and ONE service dispatch:
//                     the server dedups/packs it (service/batch.hpp) and
//                     answers with ONE response frame carrying a
//                     positionally aligned status+body per item.
//
//   response payload              verb u8 | seq u64 | status u8 | body
//     status == Ok, solve verbs  body = encoded result (see WireResult)
//     status == Ok, BatchSolve   body = u16 count | count * (u8 status |
//                                u32 len | sub-body: encoded result when
//                                the slot status is Ok, UTF-8 error
//                                otherwise) — per-item failure isolation:
//                                one bad signature refuses its slot, not
//                                the batch
//     status == Ok, Stats | CacheCompact
//                                body = u32 count | count * (u8 keylen |
//                                key bytes | u64 value) — CacheCompact's
//                                counters report what the compaction did
//                                (L1 entries dropped, L2 live records and
//                                bytes before/after)
//     status != Ok               body = UTF-8 error message
//
// The encoding favors being obviously correct over squeezing bytes: fixed
// little-endian integers, one u32 per vertex id. The signature body is the
// compact part that matters — it is the same byte string the canonical
// cache keys on, so a client that caches signatures locally addresses the
// server's result cache directly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "copath_solver.hpp"

namespace copath::net::protocol {

inline constexpr std::uint32_t kMagic = 0x48545043u;  // "CPTH" on the wire
inline constexpr std::uint16_t kVersion = 2;
/// Oldest client version a server still accepts (v2 only ADDS an optional
/// flag-gated field, so v1 frames parse under the v2 decoder unchanged).
inline constexpr std::uint16_t kMinVersion = 1;
inline constexpr std::size_t kHelloBytes = 8;
inline constexpr std::size_t kHelloReplyBytes = 8;
inline constexpr std::size_t kFrameHeaderBytes = 4;
/// Hard payload bound: anything larger is corruption or an attack (a
/// 16 MiB signature frame already describes a multi-million-vertex
/// instance).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

enum class Verb : std::uint8_t {
  SolveText = 1,
  SolveSignature = 2,
  Stats = 3,
  Health = 4,
  Drain = 5,
  BatchSolve = 6,
  /// Admin: compact the persistent result cache (drop dead log bytes,
  /// rebuild the index) and clear + reset the RAM tier. Replies with a
  /// Stats-shaped counter body describing the compaction.
  CacheCompact = 7,
  /// v2: cancel an in-flight/parked request of THIS connection by its
  /// sequence id (body = target_seq u64). Acked Ok regardless of whether
  /// the target was found (it may have completed concurrently — the
  /// caller sees its real response either way); the target, if caught,
  /// answers with Status::Cancelled.
  Cancel = 8,
};

/// Protocol-level ceiling on BatchSolve items per frame (servers may
/// configure a lower operational cap). With the frame bound this caps the
/// worst-case per-frame work a client can demand in one dispatch.
inline constexpr std::size_t kMaxBatchItems = 1024;

// BatchSolve item kinds (the u8 `kind` on the wire).
inline constexpr std::uint8_t kBatchItemText = 1;
inline constexpr std::uint8_t kBatchItemSignature = 2;

enum class Status : std::uint8_t {
  Ok = 0,
  /// Frame structure was wrong (unknown verb, truncated body, oversized
  /// length). Oversized lengths also close the connection.
  BadFrame = 1,
  /// SolveSignature body failed the stack-machine validation
  /// (cograph::signature_valid) — refused before touching the service.
  InvalidSignature = 2,
  /// The instance was accepted but solving failed structurally (text that
  /// does not parse, unregistered backend, engine rejection); the body
  /// carries the structured error message.
  SolveError = 3,
  /// The server (or its service) is draining: the request was refused and
  /// will never be solved. Resubmit elsewhere.
  Draining = 4,
  /// Handshake refusal: protocol version mismatch.
  VersionMismatch = 5,
  /// The request carried a deadline and it expired before a worker picked
  /// the job up (or while it sat parked): the instance was never solved.
  /// Retrying is pointless unless the caller extends the deadline.
  DeadlineExceeded = 6,
  /// The server is past its overload caps (parked-request count/bytes, or
  /// injected admission pressure): the request was refused without being
  /// queued. Safe to retry after backoff.
  Overloaded = 7,
  /// v2: the request was cancelled before completing — a Cancel verb
  /// named its seq, its client disconnected (only observable server-side),
  /// or the worker watchdog reclaimed a stuck solve. Never retried
  /// automatically: the caller asked for this.
  Cancelled = 8,
};

[[nodiscard]] const char* to_string(Status s);

/// True for every status a conforming peer may emit — the decoder-side
/// range check (one place to extend when the enum grows).
[[nodiscard]] constexpr bool known_status(std::uint8_t s) {
  return s <= static_cast<std::uint8_t>(Status::Cancelled);
}

// WireOptions flag bits.
inline constexpr std::uint8_t kOptWantVerdicts = 1u << 0;
inline constexpr std::uint8_t kOptWantCycle = 1u << 1;
inline constexpr std::uint8_t kOptValidate = 1u << 2;
/// When set, `backend` selects the engine; otherwise the server's default
/// (Sequential under default daemon options) is used.
inline constexpr std::uint8_t kOptExplicitBackend = 1u << 3;
/// v2: when set, a `deadline_ms u32` follows the 4-byte WireOptions on the
/// solve verbs (SolveText/SolveSignature/BatchSolve — one deadline for the
/// whole batch). Absent in v1 frames; the codec manages the bit itself
/// (append_* set it from their deadline argument).
inline constexpr std::uint8_t kOptHasDeadline = 1u << 4;

/// The per-request knobs a client may set — deliberately the
/// result-affecting subset (OptionsKey's domain), so wire requests map
/// cleanly onto cache identities. 4 bytes on the wire (flags, backend,
/// u16 reserved).
struct WireOptions {
  std::uint8_t flags = kOptWantVerdicts;
  std::uint8_t backend = 0;

  [[nodiscard]] bool operator==(const WireOptions&) const = default;
};

/// Applies wire options onto the server's default SolveOptions. An
/// unregistered explicit backend is NOT rejected here — the registry is
/// open (plug-in engines), so the solve path reports it structurally.
[[nodiscard]] SolveOptions apply_wire_options(WireOptions w,
                                              SolveOptions base);

// ------------------------------------------------------------ handshake

[[nodiscard]] std::string make_hello();
[[nodiscard]] std::string make_hello_reply(Status s);
/// Validates magic; `version` receives the peer's claimed version.
[[nodiscard]] bool parse_hello(std::string_view bytes,
                               std::uint16_t* version);
[[nodiscard]] bool parse_hello_reply(std::string_view bytes, Status* status,
                                     std::uint16_t* version);

// -------------------------------------------------------------- framing

/// Appends `length | payload` to `out`.
void append_frame(std::string& out, std::string_view payload);

enum class Extract : std::uint8_t {
  NeedMore,
  Frame,
  /// Length prefix of zero or beyond kMaxFrameBytes — the stream is not
  /// trustworthy past this point; close after the error response.
  Corrupt,
};

/// Incremental frame extraction for partial reads: consumes one complete
/// frame from the front of `buf` into `payload`, or reports NeedMore /
/// Corrupt without consuming. Feed it bytes as they arrive and loop while
/// it yields Frame.
[[nodiscard]] Extract extract_frame(std::string& buf, std::string* payload);

// ------------------------------------------------------------- requests

struct Request {
  Verb verb = Verb::Health;
  std::uint64_t seq = 0;
  WireOptions opts{};
  /// Relative solve deadline (0 = none): the server sheds the request with
  /// Status::DeadlineExceeded if it is still queued/parked this many
  /// milliseconds after the frame arrived — and, since cancellation became
  /// cooperative, trips the solve mid-flight when the budget expires on a
  /// worker. v2 frames only.
  std::uint32_t deadline_ms = 0;
  /// Verb::Cancel only: the sequence id to cancel.
  std::uint64_t target_seq = 0;
  /// Views into the payload passed to parse_request (algebra text or
  /// signature bytes); valid while that payload lives.
  std::string_view body;
};

/// `deadline_ms` > 0 sets kOptHasDeadline and appends the v2 deadline
/// field; 0 emits a v1-identical frame.
void append_solve_request(std::string& out, Verb verb, std::uint64_t seq,
                          WireOptions opts, std::string_view body,
                          std::uint32_t deadline_ms = 0);
void append_admin_request(std::string& out, Verb verb, std::uint64_t seq);

/// v2: Cancel frame naming the in-flight request to abandon.
void append_cancel_request(std::string& out, std::uint64_t seq,
                           std::uint64_t target_seq);

/// False on structurally bad payloads (unknown verb, truncated header or
/// options). `req->seq` is still recovered when at least verb+seq were
/// present, so error responses can carry the right correlation id.
/// For Verb::BatchSolve, `req->body` is the raw item list after the shared
/// WireOptions — run parse_batch_body over it next.
[[nodiscard]] bool parse_request(std::string_view payload, Request* req);

// ------------------------------------------------------------ batch verb

/// One BatchSolve item: views into the request payload (text algebra or
/// signature bytes), valid while that payload lives.
struct BatchItem {
  bool is_signature = false;
  std::string_view body;
};

void append_batch_request(std::string& out, std::uint64_t seq,
                          WireOptions opts,
                          std::span<const BatchItem> items,
                          std::uint32_t deadline_ms = 0);

/// Structural validation + decode of a BatchSolve item list (the Request
/// body after the shared options). False on any malformation — zero
/// count, count above min(max_items, kMaxBatchItems), unknown item kind,
/// empty or truncated sub-body, trailing bytes — with a structured reason
/// in `*why` (the server's BadFrame message, mirroring signature_valid's
/// contract). Item views alias `body`.
[[nodiscard]] bool parse_batch_body(std::string_view body,
                                    std::size_t max_items,
                                    std::vector<BatchItem>* items,
                                    std::string* why);

// ------------------------------------------------------------ responses

/// The client-side view of a solve response body.
struct WireResult {
  bool ok = false;
  bool minimum = false;
  bool hamiltonian_path = false;
  bool hamiltonian_cycle = false;
  bool has_verdicts = false;
  std::int64_t optimal_size = -1;
  std::uint32_t vertex_count = 0;
  /// Server-side engine wall time (observability; excludes queueing).
  double wall_ms = 0.0;
  std::vector<std::vector<std::uint32_t>> paths;
  std::optional<std::vector<std::uint32_t>> cycle;
};

struct Response {
  Verb verb = Verb::Health;
  std::uint64_t seq = 0;
  Status status = Status::Ok;
  WireResult result{};          // solve verbs, status == Ok
  std::string error;            // status != Ok
  /// Verb::Stats and Verb::CacheCompact (counter-shaped bodies).
  std::vector<std::pair<std::string, std::uint64_t>> stats;
  /// Verb::BatchSolve, status == Ok: one slot per requested item, in
  /// request order.
  struct BatchSlot {
    Status status = Status::Ok;
    WireResult result{};  // status == Ok
    std::string error;    // status != Ok
  };
  std::vector<BatchSlot> batch;
};

/// One encoded BatchSolve response slot: Ok slots carry `*result`, others
/// carry `error`.
struct BatchResponseEntry {
  Status status = Status::Ok;
  const SolveResult* result = nullptr;
  std::string_view error;
};

/// Encodes the complete BatchSolve response FRAME (outer status Ok;
/// whole-batch refusals use encode_status_response_frame instead).
[[nodiscard]] std::string encode_batch_response_frame(
    std::uint64_t seq, std::span<const BatchResponseEntry> entries);

/// Encodes a complete response FRAME (header included) for a solve verb:
/// Ok responses carry the encoded `res`, refusals/errors carry `error`.
[[nodiscard]] std::string encode_solve_response_frame(std::uint64_t seq,
                                                      Verb verb,
                                                      Status status,
                                                      const SolveResult* res,
                                                      std::string_view error);

[[nodiscard]] std::string encode_stats_response_frame(
    std::uint64_t seq,
    std::span<const std::pair<std::string_view, std::uint64_t>> counters);

/// Generalized counter-body response frame (Stats-shaped body under any
/// admin verb — used by CacheCompact; encode_stats_response_frame
/// delegates here).
[[nodiscard]] std::string encode_counters_response_frame(
    std::uint64_t seq, Verb verb,
    std::span<const std::pair<std::string_view, std::uint64_t>> counters);

/// Status-only response frame (Health, Drain acks, BadFrame, refusals).
[[nodiscard]] std::string encode_status_response_frame(
    std::uint64_t seq, Verb verb, Status status, std::string_view error);

/// False on truncated/corrupt payloads (client-side defensive decode —
/// the server is trusted less than it trusts itself).
[[nodiscard]] bool parse_response(std::string_view payload, Response* out);

// ---------------------------------------------------- full result codec

/// Appends the FULL canonical SolveResult encoding to `out`: the wire
/// result body (paths/cycle/verdict flags) extended with every remaining
/// field — backend routing, error/label text, PRAM stats, pipeline trace,
/// validation report. This is the persistent L2 cache's record value
/// (service/persist_cache.hpp): decode reproduces the stored result
/// field-for-field, so a disk-warm hit is indistinguishable from a
/// RAM-warm one.
void encode_result_record(std::string& out, const SolveResult& res);

/// Defensive decode of encode_result_record bytes (cache files are less
/// trusted than the process that wrote them — they survive crashes and
/// other writers). False on any truncation or structural violation;
/// `*out` is then unspecified.
[[nodiscard]] bool decode_result_record(std::string_view bytes,
                                        SolveResult* out);

}  // namespace copath::net::protocol
