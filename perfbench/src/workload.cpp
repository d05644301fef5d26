#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "cograph/canonical.hpp"
#include "cograph/families.hpp"
#include "core/count.hpp"
#include "net/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace proto = copath::net::protocol;
using copath::cograph::Cotree;
using copath::util::Rng;

namespace {

// Population and frame shapes (the rationale is in perfbench/README.md).
constexpr std::size_t kZipfPopulation = 16384;
constexpr std::size_t kZipfSizes[] = {64, 256, 1024};
/// warm_zipf frames are all cache hits, so the stream repeats after this
/// many distinct frames instead of holding one per arrival in memory.
constexpr std::size_t kZipfMaxFrames = 32768;
constexpr std::size_t kBatchUnique = 16;
constexpr std::size_t kBatchCopies = 4;
constexpr std::size_t kBatchN = 256;
constexpr std::size_t kBigN = std::size_t{1} << 18;
/// A nominal window always has enough samples for a p90 with ten beyond
/// it; only big_cold's low rate needs the floor (it then runs past
/// --seconds).
constexpr std::size_t kMinNominalArrivals = 100;

constexpr std::uint64_t kPhasePrewarm = 0;
constexpr std::uint64_t kPhaseNominal = 1;
constexpr std::uint64_t kPhasePopulation = 100;
constexpr std::uint64_t kScheduleSeed = 0x5eedf00dull;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ull);
  return copath::util::splitmix64(s);
}

std::uint64_t item_seed(std::uint64_t seed, std::uint64_t phase,
                        std::uint64_t i) {
  return mix(mix(seed, phase), i);
}

/// Runs body(i) for i in [0, count) on `threads` threads. Every index
/// writes only its own output slot, so results do not depend on the split.
template <typename F>
void parallel_for(std::size_t count, unsigned threads, const F& body) {
  threads = std::max(1u, std::min<unsigned>(threads, 16));
  if (threads == 1 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < count; i += threads) body(i);
    });
  }
  for (auto& th : pool) th.join();
}

/// The cotree's algebra text with every child list in a random order and
/// every leaf keeping its own vertex name: the same labeled graph, other
/// bytes, same canonical key.
std::string shuffled_text(const Cotree& t, Rng& rng) {
  std::string out;
  out.reserve(8 * t.size());
  struct Frame {
    copath::cograph::NodeId v;
    std::size_t idx;
    std::vector<copath::cograph::NodeId> kids;
  };
  const auto leaf = [&](copath::cograph::NodeId v) {
    out += 'v';
    out += std::to_string(t.vertex_of(v));
  };
  if (t.is_leaf(t.root())) {
    leaf(t.root());
    return out;
  }
  std::vector<Frame> st;
  const auto open = [&](copath::cograph::NodeId v) {
    out += '(';
    out += copath::cograph::kind_char(t.kind(v));
    Frame f{v, 0, {t.children(v).begin(), t.children(v).end()}};
    for (std::size_t i = f.kids.size(); i-- > 1;) {
      std::swap(f.kids[i], f.kids[rng.below(i + 1)]);
    }
    st.push_back(std::move(f));
  };
  open(t.root());
  while (!st.empty()) {
    Frame& f = st.back();
    if (f.idx == f.kids.size()) {
      out += ')';
      st.pop_back();
      continue;
    }
    const copath::cograph::NodeId c = f.kids[f.idx++];
    out += ' ';
    if (t.is_leaf(c)) {
      leaf(c);
    } else {
      open(c);
    }
  }
  return out;
}

struct Instance {
  std::uint32_t n = 0;
  std::int64_t paths = 0;
  std::string signature;
  Cotree tree;
};

/// A random n-vertex instance with its minimum path count; `want` picks
/// which of the signature and the tree the caller needs.
enum Want : unsigned { kSignature = 1, kTree = 2 };

Instance fresh_instance(std::size_t n, std::uint64_t seed, unsigned want) {
  copath::cograph::RandomCotreeOptions gopt;
  gopt.seed = seed;
  Instance out;
  Cotree tree = copath::cograph::random_cotree(n, gopt);
  out.n = static_cast<std::uint32_t>(tree.vertex_count());
  out.paths = copath::core::path_cover_size(tree);
  if ((want & kSignature) != 0) {
    out.signature =
        copath::cograph::canonical_form(tree, /*with_algebra_key=*/false)
            .signature;
  }
  if ((want & kTree) != 0) out.tree = std::move(tree);
  return out;
}

std::string solve_frame(bool signature, std::string_view body) {
  std::string out;
  proto::append_solve_request(
      out,
      signature ? proto::Verb::SolveSignature : proto::Verb::SolveText,
      /*seq=*/0, proto::WireOptions{}, body);
  return out;
}

/// Exponential gaps at `rate`, but a fixed count (rate * seconds, at
/// least `min_count`), so the sample count — and with it the tail
/// percentile it supports — does not vary with the seed.
std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           std::size_t min_count,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const auto count = std::max<std::size_t>(
      min_count, static_cast<std::size_t>(std::llround(rate * seconds)));
  std::vector<std::int64_t> at(count);
  double t = 0;
  for (auto& x : at) {
    x = static_cast<std::int64_t>(t * 1e9);
    t += -std::log1p(-rng.uniform()) / rate;
  }
  return at;
}

/// Fills `s.reqs`/`s.expects` with one frame per index from `make`, which
/// returns the frame and appends its expectations.
template <typename Make>
void build_frames(Stream& s, std::size_t count, unsigned threads,
                  const Make& make) {
  std::vector<std::vector<Expect>> exp(count);
  s.reqs.assign(count, Req{});
  parallel_for(count, threads, [&](std::size_t i) {
    s.reqs[i].frame = make(i, exp[i]);
  });
  for (std::size_t i = 0; i < count; ++i) {
    s.reqs[i].first_expect = static_cast<std::uint32_t>(s.expects.size());
    s.reqs[i].expect_count = static_cast<std::uint32_t>(exp[i].size());
    s.reqs[i].batch = exp[i].size() > 1;
    s.expects.insert(s.expects.end(), exp[i].begin(), exp[i].end());
  }
}

// ------------------------------------------------------------ warm_zipf

struct ZipfPopulation {
  std::vector<Instance> members;
  std::vector<double> cdf;

  [[nodiscard]] std::size_t draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                 cdf.size() - 1);
  }
};

ZipfPopulation make_population(std::uint64_t seed, unsigned threads) {
  ZipfPopulation pop;
  pop.members.resize(kZipfPopulation);
  parallel_for(kZipfPopulation, threads, [&](std::size_t i) {
    Rng rng(item_seed(seed, kPhasePopulation, i));
    const std::size_t n = kZipfSizes[rng.below(std::size(kZipfSizes))];
    pop.members[i] = fresh_instance(n, rng(), kSignature);
  });
  // Zipf(s = 1) over ranks; rank r is population member r.
  pop.cdf.resize(kZipfPopulation);
  double total = 0;
  for (std::size_t r = 0; r < kZipfPopulation; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    pop.cdf[r] = total;
  }
  for (double& c : pop.cdf) c /= total;
  return pop;
}

void zipf_frames(Stream& s, const ZipfPopulation& pop, std::uint64_t seed,
                 std::uint64_t phase, std::size_t count, unsigned threads) {
  build_frames(s, count, threads, [&](std::size_t i, std::vector<Expect>& e) {
    Rng rng(item_seed(seed, phase, i));
    const Instance& m = pop.members[pop.draw(rng)];
    e.push_back({m.n, m.paths});
    if (rng.chance(0.5)) return solve_frame(true, m.signature);
    const auto decoded = copath::cograph::decode_signature(m.signature);
    return solve_frame(false, shuffled_text(decoded.tree, rng));
  });
}

// ---------------------------------------------------------- cold_unique

void cold_frames(Stream& s, std::uint64_t seed, std::uint64_t phase,
                 std::size_t count, unsigned threads) {
  build_frames(s, count, threads, [&](std::size_t i, std::vector<Expect>& e) {
    Rng rng(item_seed(seed, phase, i));
    // n in {1024, 4096, 16384} weighted 6:3:1.
    const std::uint64_t w = rng.below(10);
    const std::size_t n = w < 6 ? 1024 : (w < 9 ? 4096 : 16384);
    const bool sig = rng.chance(0.5);
    Instance m = fresh_instance(n, rng(), sig ? kSignature : kTree);
    e.push_back({m.n, m.paths});
    return sig ? solve_frame(true, m.signature)
               : solve_frame(false, m.tree.format());
  });
}

// ------------------------------------------------------------ batch_dup

void batch_frames(Stream& s, std::uint64_t seed, std::uint64_t phase,
                  std::size_t count, unsigned threads) {
  build_frames(s, count, threads, [&](std::size_t i, std::vector<Expect>& e) {
    Rng rng(item_seed(seed, phase, i));
    struct Item {
      bool sig;
      std::string body;
      Expect expect;
    };
    std::vector<Item> items;
    items.reserve(kBatchUnique * kBatchCopies);
    for (std::size_t j = 0; j < kBatchUnique; ++j) {
      Instance m = fresh_instance(kBatchN, rng(), kSignature | kTree);
      const Expect ex{m.n, m.paths};
      // Two byte-identical copies (signature bytes for even j, text for
      // odd j), then two shuffled-text twins.
      const bool sig = j % 2 == 0;
      const std::string same = sig ? m.signature : m.tree.format();
      items.push_back({sig, same, ex});
      items.push_back({sig, same, ex});
      items.push_back({false, shuffled_text(m.tree, rng), ex});
      items.push_back({false, shuffled_text(m.tree, rng), ex});
    }
    for (std::size_t k = items.size(); k-- > 1;) {
      std::swap(items[k], items[rng.below(k + 1)]);
    }
    std::vector<proto::BatchItem> wire;
    wire.reserve(items.size());
    for (const Item& it : items) {
      wire.push_back({it.sig, it.body});
      e.push_back(it.expect);
    }
    std::string out;
    proto::append_batch_request(out, /*seq=*/0, proto::WireOptions{}, wire);
    return out;
  });
}

// -------------------------------------------------------------- big_cold

void big_frames(Stream& s, std::uint64_t seed, std::uint64_t phase,
                std::size_t count, unsigned threads) {
  build_frames(s, count, threads, [&](std::size_t i, std::vector<Expect>& e) {
    const Instance m =
        fresh_instance(kBigN, item_seed(seed, phase, i), kSignature);
    e.push_back({m.n, m.paths});
    return solve_frame(true, m.signature);
  });
}

}  // namespace

const std::vector<Spec>& specs() {
  // Nominal rates keep the 2 solver workers at or under ~50 % busy, so
  // host-speed drift moves the numbers as little as it can
  // (perfbench/README.md has the sizing).
  static const std::vector<Spec> all = {
      {"warm_zipf", Shape::WarmZipf, 8000, 2.0, 0.90},
      {"cold_unique", Shape::ColdUnique, 500, 25.0, 0.90},
      {"batch_dup", Shape::BatchDup, 200, 20.0, 0.90},
      {"big_cold", Shape::BigCold, 7, 1000.0, 0.90},
  };
  return all;
}

const Spec* find_spec(std::string_view name) {
  for (const Spec& s : specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Workload make_workload(const Spec& spec, std::uint64_t seed, double seconds,
                       unsigned threads) {
  Workload w;
  w.spec = &spec;
  // The send schedule depends on the workload, not on the seed: every run
  // sees the same Poisson clustering, so run-to-run spread in the tails
  // comes from the program and its instances, not from where bursts fell.
  w.nominal.rate = spec.nominal_rate;
  w.nominal.at_ns =
      poisson_schedule(spec.nominal_rate, seconds, kMinNominalArrivals,
                       item_seed(kScheduleSeed, kPhaseNominal, 0));
  const std::size_t arrivals = w.nominal.at_ns.size();
  switch (spec.shape) {
    case Shape::WarmZipf: {
      const ZipfPopulation pop = make_population(seed, threads);
      // The pre-warm solves the whole population once, as signatures.
      build_frames(w.prewarm, pop.members.size(), threads,
                   [&](std::size_t i, std::vector<Expect>& e) {
                     e.push_back({pop.members[i].n, pop.members[i].paths});
                     return solve_frame(true, pop.members[i].signature);
                   });
      zipf_frames(w.nominal, pop, seed, kPhaseNominal,
                  std::min(arrivals, kZipfMaxFrames), threads);
      break;
    }
    case Shape::ColdUnique:
      cold_frames(w.prewarm, seed, kPhasePrewarm, 64, threads);
      cold_frames(w.nominal, seed, kPhaseNominal, arrivals, threads);
      break;
    case Shape::BatchDup:
      batch_frames(w.prewarm, seed, kPhasePrewarm, 8, threads);
      batch_frames(w.nominal, seed, kPhaseNominal, arrivals, threads);
      break;
    case Shape::BigCold:
      big_frames(w.prewarm, seed, kPhasePrewarm, 2, threads);
      big_frames(w.nominal, seed, kPhaseNominal, arrivals, threads);
      break;
  }
  return w;
}

std::uint64_t stream_hash(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto eat = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  };
  const auto stream = [&](const Stream& s) {
    for (const Req& r : s.reqs) eat(r.frame);
    for (const std::int64_t t : s.at_ns) {
      eat(std::string_view(reinterpret_cast<const char*>(&t), sizeof t));
    }
  };
  stream(w.prewarm);
  stream(w.nominal);
  return h;
}

}  // namespace perfbench
