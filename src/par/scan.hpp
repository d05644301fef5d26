// Work-optimal EREW prefix sums (Lemma 5.1(2) of the paper) and friends.
//
// All functions are PRAM programs: they only touch memory through
// pram::Array cells inside machine steps, so running them on an EREW
// pram::Machine proves they respect the access discipline and yields their
// step/work counts.
//
// Scheduling: with the machine configured for P processors, an n-element
// scan runs in O(n/P + log n) steps and O(n + P) work — the classic
// three-phase blocked scan (sequential block reduce, Blelloch scan of the P
// block sums, sequential block re-sweep). With P = n / log2 n this is the
// paper's O(log n) time, O(n) work bound.
#pragma once

#include <algorithm>
#include <cstdint>

#include "par/ops.hpp"
#include "pram/array.hpp"
#include "pram/machine.hpp"
#include "util/math.hpp"

namespace copath::par {

namespace detail {

using util::ceil_div;
using util::next_pow2;

/// Number of blocks (= virtual processors for the blocked phases) the
/// machine's configuration implies for an n-element primitive.
inline std::size_t block_count(const pram::Machine& m, std::size_t n) {
  const std::size_t p = m.processors() == 0 ? n : m.processors();
  return std::min(n, p);
}

/// In-place Blelloch exclusive scan over a pow2-padded scratch array.
/// Steps: 2 log2(m), work O(m).
template <typename T, typename Op>
void blelloch_exclusive_pow2(pram::Machine& m, pram::Array<T>& t, Op op) {
  const std::size_t size = t.size();
  // Up-sweep (reduce).
  for (std::size_t stride = 2; stride <= size; stride <<= 1) {
    const std::size_t count = size / stride;
    m.pfor(count, [&](pram::Ctx& c, std::size_t j) {
      const std::size_t hi = (j + 1) * stride - 1;
      const std::size_t lo = hi - stride / 2;
      t.put(c, hi, op(t.get(c, lo), t.get(c, hi)));
    });
  }
  t.host(size - 1) = Op::identity();
  // Down-sweep.
  for (std::size_t stride = size; stride >= 2; stride >>= 1) {
    const std::size_t count = size / stride;
    m.pfor(count, [&](pram::Ctx& c, std::size_t j) {
      const std::size_t hi = (j + 1) * stride - 1;
      const std::size_t lo = hi - stride / 2;
      const T left = t.get(c, lo);
      const T here = t.get(c, hi);  // incoming prefix for this subtree
      t.put(c, lo, here);
      // The right subtree's prefix = incoming elements, then the left
      // subtree — op(here, left), not op(left, here); the distinction
      // matters for non-commutative operators (segmented/take-last scans).
      t.put(c, hi, op(here, left));
    });
  }
}

}  // namespace detail

/// In-place exclusive prefix scan of `a` under `op`. a[i] becomes
/// op(a[0], ..., a[i-1]) (identity for i = 0).
template <typename T, typename Op = Plus<T>>
void exclusive_scan(pram::Machine& m, pram::Array<T>& a, Op op = Op{}) {
  const std::size_t n = a.size();
  if (n == 0) return;
  const std::size_t blocks = detail::block_count(m, n);
  const std::size_t block = detail::ceil_div(n, blocks);

  pram::Array<T> sums(m, detail::next_pow2(blocks), Op::identity());
  // Phase 1: each processor reduces its contiguous block.
  m.blocked_step(blocks, [&](pram::Ctx& c, std::size_t b) -> std::uint64_t {
    const std::size_t lo = std::min(n, b * block);
    const std::size_t hi = std::min(n, lo + block);
    T acc = Op::identity();
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, a.get(c, i));
    sums.put(c, b, acc);
    return hi - lo;
  });
  // Phase 2: exclusive scan of the block sums.
  detail::blelloch_exclusive_pow2(m, sums, op);
  // Phase 3: each processor re-sweeps its block with its offset.
  m.blocked_step(blocks, [&](pram::Ctx& c, std::size_t b) -> std::uint64_t {
    const std::size_t lo = std::min(n, b * block);
    const std::size_t hi = std::min(n, lo + block);
    T acc = sums.get(c, b);
    for (std::size_t i = lo; i < hi; ++i) {
      const T v = a.get(c, i);
      a.put(c, i, acc);
      acc = op(acc, v);
    }
    return hi - lo;
  });
}

/// In-place inclusive prefix scan: a[i] becomes op(a[0], ..., a[i]).
template <typename T, typename Op = Plus<T>>
void inclusive_scan(pram::Machine& m, pram::Array<T>& a, Op op = Op{}) {
  const std::size_t n = a.size();
  if (n == 0) return;
  const std::size_t blocks = detail::block_count(m, n);
  const std::size_t block = detail::ceil_div(n, blocks);

  pram::Array<T> sums(m, detail::next_pow2(blocks), Op::identity());
  m.blocked_step(blocks, [&](pram::Ctx& c, std::size_t b) -> std::uint64_t {
    const std::size_t lo = std::min(n, b * block);
    const std::size_t hi = std::min(n, lo + block);
    T acc = Op::identity();
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, a.get(c, i));
    sums.put(c, b, acc);
    return hi - lo;
  });
  detail::blelloch_exclusive_pow2(m, sums, op);
  m.blocked_step(blocks, [&](pram::Ctx& c, std::size_t b) -> std::uint64_t {
    const std::size_t lo = std::min(n, b * block);
    const std::size_t hi = std::min(n, lo + block);
    T acc = sums.get(c, b);
    for (std::size_t i = lo; i < hi; ++i) {
      acc = op(acc, a.get(c, i));
      a.put(c, i, acc);
    }
    return hi - lo;
  });
}

/// Reduction of `a` under `op`.
template <typename T, typename Op = Plus<T>>
T reduce(pram::Machine& m, const pram::Array<T>& a, Op op = Op{}) {
  const std::size_t n = a.size();
  if (n == 0) return Op::identity();
  const std::size_t blocks = detail::block_count(m, n);
  const std::size_t block = detail::ceil_div(n, blocks);
  pram::Array<T> sums(m, detail::next_pow2(blocks), Op::identity());
  m.blocked_step(blocks, [&](pram::Ctx& c, std::size_t b) -> std::uint64_t {
    const std::size_t lo = std::min(n, b * block);
    const std::size_t hi = std::min(n, lo + block);
    T acc = Op::identity();
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, a.get(c, i));
    sums.put(c, b, acc);
    return hi - lo;
  });
  // Tree reduce over the pow2 scratch.
  for (std::size_t stride = 2; stride <= sums.size(); stride <<= 1) {
    const std::size_t count = sums.size() / stride;
    m.pfor(count, [&](pram::Ctx& c, std::size_t j) {
      const std::size_t hi = (j + 1) * stride - 1;
      const std::size_t lo = hi - stride / 2;
      sums.put(c, hi, op(sums.get(c, lo), sums.get(c, hi)));
    });
  }
  return sums.host(sums.size() - 1);
}

/// Segmented inclusive scan: `flag[i] != 0` marks the first element of a
/// segment; within each segment a[i] becomes op over the segment prefix.
/// Implemented as an ordinary scan over (flag, value) pairs with the
/// standard segmented-combine, which stays associative.
template <typename T, typename Op = Plus<T>>
void segmented_inclusive_scan(pram::Machine& m, pram::Array<T>& a,
                              const pram::Array<std::uint8_t>& flag,
                              Op op = Op{}) {
  const std::size_t n = a.size();
  COPATH_CHECK(flag.size() == n);
  if (n == 0) return;
  struct Pair {
    T value;
    std::uint8_t reset;
  };
  struct SegOp {
    Op op;
    static constexpr Pair identity() { return Pair{Op::identity(), 0}; }
    Pair operator()(Pair lhs, Pair rhs) const {
      if (rhs.reset) return rhs;
      return Pair{op(lhs.value, rhs.value),
                  static_cast<std::uint8_t>(lhs.reset | rhs.reset)};
    }
  };
  pram::Array<Pair> pairs(m, n);
  m.pfor(n, [&](pram::Ctx& c, std::size_t i) {
    pairs.put(c, i, Pair{a.get(c, i), flag.get(c, i)});
  });
  // Inline inclusive scan over Pair with SegOp (blocked, as above).
  const std::size_t blocks = detail::block_count(m, n);
  const std::size_t block = detail::ceil_div(n, blocks);
  SegOp seg{op};
  pram::Array<Pair> sums(m, detail::next_pow2(blocks), SegOp::identity());
  m.blocked_step(blocks, [&](pram::Ctx& c, std::size_t b) -> std::uint64_t {
    const std::size_t lo = std::min(n, b * block);
    const std::size_t hi = std::min(n, lo + block);
    Pair acc = SegOp::identity();
    for (std::size_t i = lo; i < hi; ++i) acc = seg(acc, pairs.get(c, i));
    sums.put(c, b, acc);
    return hi - lo;
  });
  detail::blelloch_exclusive_pow2(m, sums, seg);
  m.blocked_step(blocks, [&](pram::Ctx& c, std::size_t b) -> std::uint64_t {
    const std::size_t lo = std::min(n, b * block);
    const std::size_t hi = std::min(n, lo + block);
    Pair acc = sums.get(c, b);
    for (std::size_t i = lo; i < hi; ++i) {
      acc = seg(acc, pairs.get(c, i));
      a.put(c, i, acc.value);
    }
    return hi - lo;
  });
}

/// Stable compaction: copies the indices i with keep[i] != 0 into `out`
/// (which must have capacity >= number of kept items) and returns how many
/// were kept. O(n/P + log n) steps, O(n) work.
template <typename Index>
std::size_t compact_indices(pram::Machine& m,
                            const pram::Array<std::uint8_t>& keep,
                            pram::Array<Index>& out) {
  const std::size_t n = keep.size();
  if (n == 0) return 0;
  pram::Array<std::int64_t> pos(m, n);
  m.pfor(n, [&](pram::Ctx& c, std::size_t i) {
    pos.put(c, i, keep.get(c, i) != 0 ? 1 : 0);
  });
  exclusive_scan(m, pos);
  const std::size_t total =
      static_cast<std::size_t>(pos.host(n - 1)) +
      (keep.host(n - 1) != 0 ? 1u : 0u);
  COPATH_CHECK(out.size() >= total);
  m.pfor(n, [&](pram::Ctx& c, std::size_t i) {
    if (keep.get(c, i) != 0)
      out.put(c, static_cast<std::size_t>(pos.get(c, i)),
              static_cast<Index>(i));
  });
  return total;
}

/// Convenience: parallel fill.
template <typename T>
void fill(pram::Machine& m, pram::Array<T>& a, T value) {
  m.pfor(a.size(), [&](pram::Ctx& c, std::size_t i) { a.put(c, i, value); });
}

/// Convenience: parallel copy (same length).
template <typename T>
void copy(pram::Machine& m, const pram::Array<T>& src, pram::Array<T>& dst) {
  COPATH_CHECK(src.size() == dst.size());
  m.pfor(src.size(),
         [&](pram::Ctx& c, std::size_t i) { dst.put(c, i, src.get(c, i)); });
}

}  // namespace copath::par
