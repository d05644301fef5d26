// Counting the minimum path cover (paper §2, Lemma 2.4).
//
// The recurrence over the leftist binarized cotree:
//   p(leaf)   = 1
//   p(0-node) = p(left) + p(right)
//   p(1-node) = max(p(left) - L(right), 1)
// where L(x) is the number of descendant leaves.
//
// Host version: one post-order sweep (O(n)). PRAM version: binary tree
// contraction over the max-plus affine function family f(x) = max(x + a, b),
// which is closed under composition — O(log n) steps, O(n) work, EREW. This
// is exactly how Lin et al. [18] obtain Lemma 2.4.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cograph/binarize.hpp"
#include "cograph/cotree.hpp"
#include "exec/arena.hpp"
#include "pram/machine.hpp"

namespace copath::core {

/// Max-plus affine functions f(x) = max(x + a, b); the tree contraction
/// policy evaluating the p(u) recurrence (see par/contraction.hpp for the
/// policy contract).
struct PathCountPolicy {
  using Value = std::int64_t;
  struct Func {
    std::int64_t a;
    std::int64_t b;
  };
  struct NodeOp {
    std::uint8_t is_join;
    std::int64_t l_right;  // L(right child), fixed before contraction
  };

  static constexpr std::int64_t neg_inf() { return INT64_MIN / 4; }
  static std::int64_t sat_add(std::int64_t u, std::int64_t v) {
    return (u <= neg_inf() / 2 || v <= neg_inf() / 2) ? neg_inf() : u + v;
  }

  static Func identity() { return {0, neg_inf()}; }
  static Func compose(Func outer, Func inner) {
    // outer(inner(x)) = max(max(x + ai, bi) + ao, bo)
    //                 = max(x + ai + ao, max(bi + ao, bo)).
    return {sat_add(inner.a, outer.a),
            std::max(sat_add(inner.b, outer.a), outer.b)};
  }
  static Value apply(Func f, Value x) {
    return std::max(sat_add(x, f.a), f.b);
  }
  static Func partial_left(NodeOp op, Value left) {
    if (!op.is_join) return {left, neg_inf()};  // y -> y + left
    // Join ignores its right argument: constant function.
    return {neg_inf(), std::max<std::int64_t>(left - op.l_right, 1)};
  }
  static Func partial_right(NodeOp op, Value right) {
    if (!op.is_join) return {right, neg_inf()};  // x -> x + right
    return {-op.l_right, 1};  // x -> max(x - L(right), 1)
  }
  static Value full(NodeOp op, Value l, Value r) {
    if (!op.is_join) return l + r;
    (void)r;
    return std::max<std::int64_t>(l - op.l_right, 1);
  }
};

/// Host evaluation of p(u) for every node of a leftist binarized cotree.
/// `leaf_count` is the output of cograph::make_leftist.
std::vector<std::int64_t> path_counts_host(
    const cograph::BinarizedCotree& bc,
    const std::vector<std::int64_t>& leaf_count);

/// The §1 corollary verdicts: the minimum cover size, the Hamiltonian-path
/// verdict (p(root) == 1) and the Hamiltonian-cycle verdict (n >= 3 and
/// the root split join(V, W) has p(V) <= L(W)).
struct CountVerdicts {
  std::int64_t cover_size = 0;
  bool hamiltonian_path = false;
  bool hamiltonian_cycle = false;
};

/// The verdicts off any engine's p array over the leftist binarized view
/// `bc` — the one copy of the root-split cycle test.
CountVerdicts verdicts_of(const cograph::BinView& bc,
                          std::span<const std::int64_t> leaf_count,
                          std::span<const std::int64_t> p);

/// Every verdict from ONE host p-sweep (scratch from `arena`) — the
/// sequential solve kernel runs it on the tree it binarized for the sweep.
CountVerdicts count_verdicts(const cograph::BinView& bc,
                             std::span<const std::int64_t> leaf_count,
                             exec::Arena& arena);

/// Same, binarizing `t` once into the calling thread's arena.
CountVerdicts count_verdicts(const cograph::Cotree& t);

/// PRAM evaluation (Lemma 2.4): tree contraction over the max-plus affine
/// family — O(log n) steps, O(n) work, EREW.
std::vector<std::int64_t> path_counts_pram(
    pram::Machine& m, const cograph::BinarizedCotree& bc,
    const std::vector<std::int64_t>& leaf_count);

/// Convenience: the minimum path cover size of the cograph (host path).
std::int64_t path_cover_size(const cograph::Cotree& t);

/// Convenience: true iff the cograph has a Hamiltonian path.
bool has_hamiltonian_path(const cograph::Cotree& t);

}  // namespace copath::core
