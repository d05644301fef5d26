// Parallel binary-tree contraction (Abrahamson et al. [1] / JaJa §3),
// the engine behind the paper's Lemma 2.4.
//
// Evaluates a bottom-up expression over a rooted binary tree: every leaf
// carries a Value, every internal node an operator NodeOp, and the result is
// the Value of every node (not just the root — a reverse replay of the
// contraction log computes the interior).
//
// Requirements on the policy P:
//   using Value / Func / NodeOp                (trivially copyable)
//   static Func identity();
//   static Func compose(Func outer, Func inner);   // x -> outer(inner(x))
//   static Value apply(Func f, Value x);
//   static Func partial_left(NodeOp op, Value l);   // y -> op(l, y)
//   static Func partial_right(NodeOp op, Value r);  // x -> op(x, r)
//   static Value full(NodeOp op, Value l, Value r);
// Correctness needs Func closed under composition and the partials exact —
// for the path cover count this is the max-plus affine family
// f(x) = max(x + a, b) (see core/count.hpp).
//
// Schedule: leaves are numbered left-to-right (Euler tour); each round rakes
// all odd-numbered leaves, left children first, then right children, and
// halves the numbering. Classic argument: no two rakes in a substep touch a
// common node, so the whole algorithm is EREW; O(log n) rounds, O(n) work.
#pragma once

#include <cstdint>
#include <vector>

#include "par/bintree.hpp"
#include "par/euler.hpp"

namespace copath::par {

template <typename P>
std::vector<typename P::Value> tree_contract_eval(
    pram::Machine& m, const BinTree& t,
    const std::vector<typename P::Value>& leaf_value,
    const std::vector<typename P::NodeOp>& node_op,
    RankEngine engine = RankEngine::Contract) {
  using Value = typename P::Value;
  using Func = typename P::Func;
  using NodeOp = typename P::NodeOp;

  const std::size_t n = t.size();
  COPATH_CHECK(leaf_value.size() == n && node_op.size() == n);
  std::vector<Value> result(n, Value{});
  if (n == 0) return result;
  if (n == 1) {
    result[0] = leaf_value[0];
    return result;
  }
#ifndef NDEBUG
  t.validate();  // O(n) input self-check: debug builds only (hot path)
#endif


  // Leaf numbering (and nothing else) from the Euler tour.
  const EulerNumbers nums = euler_numbers(m, t, engine);

  // Mutable tree state.
  pram::Array<NodeId> parent(m, t.parent);
  pram::Array<NodeId> l_child(m, t.left);
  pram::Array<NodeId> r_child(m, t.right);
  pram::Array<Func> func(m, n, P::identity());
  pram::Array<NodeOp> op(m, node_op);
  pram::Array<Value> val(m, leaf_value);
  // side[v]: 0 = left child of its parent, 1 = right child.
  std::vector<std::uint8_t> side_init(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (t.right[v] != kNull)
      side_init[static_cast<std::size_t>(t.right[v])] = 1;
  }
  pram::Array<std::uint8_t> side(m, std::move(side_init));

  // Leaf list ordered by leaf number (two buffers, ping-pong compaction).
  std::size_t leaf_count = 0;
  for (std::size_t v = 0; v < n; ++v)
    if (nums.leafnum[v] >= 0) ++leaf_count;
  std::vector<NodeId> leaves_init(leaf_count, kNull);
  for (std::size_t v = 0; v < n; ++v) {
    if (nums.leafnum[v] >= 0)
      leaves_init[static_cast<std::size_t>(nums.leafnum[v])] =
          static_cast<NodeId>(v);
  }
  pram::Array<NodeId> leaves_a(m, std::move(leaves_init));
  pram::Array<NodeId> leaves_b(m, leaf_count);

  // Rake event log, indexed by the raked leaf.
  pram::Array<NodeId> ev_q(m, n, kNull);
  pram::Array<NodeId> ev_s(m, n, kNull);
  pram::Array<Value> ev_x(m, n, Value{});
  pram::Array<Func> ev_hs(m, n, P::identity());
  pram::Array<std::uint8_t> ev_side(m, n, std::uint8_t{0});
  // Per-round segments of raked leaves, in substep order (left rakes carry
  // ev_side 0, right rakes 1; both live in the same segment).
  pram::Array<NodeId> log_leaf(m, n, kNull);
  std::vector<std::size_t> round_offset{0};

  pram::Array<std::uint8_t> side_snap(m, leaf_count, std::uint8_t{0});

  bool use_a = true;
  std::size_t logged = 0;
  while (leaf_count > 1) {
    auto& leaves = use_a ? leaves_a : leaves_b;
    auto& next_leaves = use_a ? leaves_b : leaves_a;
    const std::size_t odd = leaf_count / 2;

    // Snapshot the sides of the odd leaves (they are stable across both
    // substeps; see the EREW analysis in the header comment).
    m.pfor(odd, [&](pram::Ctx& c, std::size_t j) {
      const NodeId l = leaves.get(c, 2 * j + 1);
      side_snap.put(c, j, side.get(c, static_cast<std::size_t>(l)));
      log_leaf.put(c, logged + j, l);
    });

    for (const std::uint8_t substep : {std::uint8_t{0}, std::uint8_t{1}}) {
      m.pfor(odd, [&](pram::Ctx& c, std::size_t j) {
        if (side_snap.get(c, j) != substep) return;
        const auto l =
            static_cast<std::size_t>(leaves.get(c, 2 * j + 1));
        const auto q = static_cast<std::size_t>(parent.get(c, l));
        const NodeOp q_op = op.get(c, q);
        const Func h_q = func.get(c, q);
        const std::uint8_t q_side = side.get(c, q);
        const NodeId g = parent.get(c, q);
        // q's cells are touched only by its (unique) raking child, so
        // reading the sibling pointer here is exclusive.
        const auto s = static_cast<std::size_t>(
            substep == 0 ? r_child.get(c, q) : l_child.get(c, q));
        const Value x = P::apply(func.get(c, l), val.get(c, l));
        const Func h_s = func.get(c, s);
        // Log the event.
        ev_q.put(c, l, static_cast<NodeId>(q));
        ev_s.put(c, l, static_cast<NodeId>(s));
        ev_x.put(c, l, x);
        ev_hs.put(c, l, h_s);
        ev_side.put(c, l, substep);
        // Splice q out: s takes q's place under g.
        const Func partial = substep == 0 ? P::partial_left(q_op, x)
                                          : P::partial_right(q_op, x);
        func.put(c, s, P::compose(h_q, P::compose(partial, h_s)));
        parent.put(c, s, g);
        side.put(c, s, q_side);
        if (g != kNull) {
          if (q_side == 0) {
            l_child.put(c, static_cast<std::size_t>(g),
                        static_cast<NodeId>(s));
          } else {
            r_child.put(c, static_cast<std::size_t>(g),
                        static_cast<NodeId>(s));
          }
        }
      });
    }

    // Compact to the even-numbered leaves.
    const std::size_t remaining = leaf_count - odd;
    m.pfor(remaining, [&](pram::Ctx& c, std::size_t j) {
      next_leaves.put(c, j, leaves.get(c, 2 * j));
    });
    logged += odd;
    round_offset.push_back(logged);
    leaf_count = remaining;
    use_a = !use_a;
  }

  // Expansion: replay rounds in reverse (right rakes before left rakes).
  m.pfor(n, [&](pram::Ctx& c, std::size_t v) {
    if (nums.leafnum[v] >= 0) val.put(c, v, leaf_value[v]);
  });
  for (std::size_t r = round_offset.size() - 1; r-- > 0;) {
    const std::size_t lo = round_offset[r];
    const std::size_t hi = round_offset[r + 1];
    for (const std::uint8_t substep : {std::uint8_t{1}, std::uint8_t{0}}) {
      m.pfor(hi - lo, [&](pram::Ctx& c, std::size_t k) {
        const auto l = static_cast<std::size_t>(log_leaf.get(c, lo + k));
        if (ev_side.get(c, l) != substep) return;
        const auto q = static_cast<std::size_t>(ev_q.get(c, l));
        const auto s = static_cast<std::size_t>(ev_s.get(c, l));
        const Value vs = P::apply(ev_hs.get(c, l), val.get(c, s));
        const Value x = ev_x.get(c, l);
        const NodeOp q_op = op.get(c, q);
        val.put(c, q,
                substep == 0 ? P::full(q_op, x, vs) : P::full(q_op, vs, x));
      });
    }
  }

  for (std::size_t v = 0; v < n; ++v) result[v] = val.host(v);
  return result;
}

}  // namespace copath::par
