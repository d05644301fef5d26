// The four traffic shapes and their seeded request streams.
//
// Everything a run sends is generated here, from the seed alone, before
// the daemon starts: the request frames (encoded with net::protocol's
// codec, sequence id left zero and patched in at send time), the Poisson
// send schedule (fixed per workload), and for every solve the answer's
// expected shape (vertex count and the minimum path count from
// core::path_cover_size). The same seed therefore gives a byte-identical
// stream, which stream_hash() pins.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Shape : std::uint8_t { WarmZipf, ColdUnique, BatchDup, BigCold };

/// A workload's fixed parameters. Rates count requests per second, or
/// frames per second for batch_dup.
struct Spec {
  const char* name;
  Shape shape;
  double nominal_rate;
  /// Latency objective on the tail percentile. It scales how far the
  /// generator may fall behind its schedule and how long a window drains.
  double slo_ms;
  /// The tail latency_tail_ms reports (the highest percentile the
  /// nominal window's sample count supports with ten samples beyond it).
  double tail_q;
};

[[nodiscard]] const std::vector<Spec>& specs();
/// nullptr when no workload has that name.
[[nodiscard]] const Spec* find_spec(std::string_view name);

/// What a correct answer to one solve (or one batch slot) must satisfy.
struct Expect {
  std::uint32_t n = 0;
  std::int64_t paths = 0;
};

/// One pre-built request frame (length prefix included).
struct Req {
  std::string frame;
  /// Range of Stream::expects this request's answer is checked against:
  /// one entry for a solve, one per item (in item order) for a batch.
  std::uint32_t first_expect = 0;
  std::uint32_t expect_count = 1;
  bool batch = false;
};

/// Byte offset of the u64 sequence id inside a request frame (after the
/// u32 length prefix and the u8 verb).
inline constexpr std::size_t kSeqOffset = 5;

/// A request sequence plus its send schedule. Arrival i sends
/// reqs[i % reqs.size()]; only warm_zipf has fewer frames than arrivals
/// (its frames are all cache hits, so repeating them changes no work).
/// An empty schedule means "send every frame closed-loop" (pre-warm).
struct Stream {
  std::vector<Req> reqs;
  std::vector<Expect> expects;
  std::vector<std::int64_t> at_ns;
  double rate = 0;

  [[nodiscard]] const Req& for_arrival(std::size_t i) const {
    return reqs[i % reqs.size()];
  }
  [[nodiscard]] std::size_t arrivals() const {
    return at_ns.empty() ? reqs.size() : at_ns.size();
  }
};

struct Workload {
  const Spec* spec = nullptr;
  Stream prewarm;
  Stream nominal;
};

/// Builds every stream of one run. `threads` only splits the work; the
/// output does not depend on it.
[[nodiscard]] Workload make_workload(const Spec& spec, std::uint64_t seed,
                                     double seconds, unsigned threads);

/// FNV-1a over every frame and every scheduled send time, prewarm first.
[[nodiscard]] std::uint64_t stream_hash(const Workload& w);

}  // namespace perfbench
