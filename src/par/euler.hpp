// Euler-tour tree numbering for binary trees (Lemma 5.2 of the paper).
//
// Given a rooted binary tree, computes in O(log n) steps and O(n) work on
// the EREW machine (with P = n/log n processors):
//   preorder / inorder / postorder numbers, depth, subtree sizes,
//   descendant-leaf counts, and left-to-right leaf numbering.
//
// Construction: the tour is a linked list over directed edge items
// (down(c) = 2c enters c's subtree, up(c) = 2c+1 leaves it; the root has no
// items). Successors are computed in O(1) steps — parents fill in the
// successors of their children's `up` items so no cell is read twice in a
// step — and positions come from list ranking. All derived numbers are
// prefix sums over position-indexed indicator arrays.
#pragma once

#include <cstdint>
#include <vector>

#include "par/bintree.hpp"
#include "par/list_ranking.hpp"
#include "par/scan.hpp"

namespace copath::par {

/// Which list-ranking engine positions the tour.
enum class RankEngine {
  Contract,  // randomized contraction: O(n) expected work (default)
  Wyllie,    // pointer jumping: O(n log n) work, deterministic
};

struct EulerNumbers {
  // All vectors are indexed by node id; `n` entries each.
  std::vector<std::int64_t> pre;      // root = 0
  std::vector<std::int64_t> in;       // inorder (binary-tree semantics)
  std::vector<std::int64_t> post;     // root = n-1
  std::vector<std::int64_t> depth;    // root = 0
  std::vector<std::int64_t> leaves;   // descendant leaves (self included)
  std::vector<std::int64_t> subtree;  // subtree size (self included)
  std::vector<std::int64_t> leafnum;  // left-to-right rank among leaves;
                                      // -1 for internal nodes
  std::vector<std::int64_t> first_leaf;  // leaf rank of the leftmost
                                         // descendant leaf
  // Tour positions of each node's down/up items; -1 for the root.
  std::vector<std::int64_t> down_pos;
  std::vector<std::int64_t> up_pos;
  std::int64_t tour_length = 0;
};

inline EulerNumbers euler_numbers(pram::Machine& m, const BinTree& t,
                                  RankEngine engine = RankEngine::Contract) {
  const std::size_t n = t.size();
  EulerNumbers out;
  out.pre.assign(n, 0);
  out.in.assign(n, 0);
  out.post.assign(n, 0);
  out.depth.assign(n, 0);
  out.leaves.assign(n, 0);
  out.subtree.assign(n, 0);
  out.leafnum.assign(n, -1);
  out.first_leaf.assign(n, 0);
  out.down_pos.assign(n, -1);
  out.up_pos.assign(n, -1);
  if (n == 0) return out;
  if (n == 1) {
    out.leaves[0] = 1;
    out.subtree[0] = 1;
    out.leafnum[0] = 0;
    out.post[0] = 0;
    return out;
  }

  const auto root = static_cast<std::size_t>(t.root);
  const std::size_t items = 2 * n;
  const auto down = [](std::int64_t c) { return 2 * c; };
  const auto up = [](std::int64_t c) { return 2 * c + 1; };

  // Load the tree into shared memory (input tape).
  pram::Array<NodeId> left(m, t.left);
  pram::Array<NodeId> right(m, t.right);

  pram::Array<NodeId> succ(m, items, kNull);
  // Each node computes the successor of its own `down` item and the
  // successors of its children's `up` items (exclusive by construction).
  m.pfor(n, [&](pram::Ctx& c, std::size_t v) {
    const NodeId l = left.get(c, v);
    const NodeId r = right.get(c, v);
    if (v != root) {
      std::int64_t nxt;
      if (l != kNull) {
        nxt = down(l);
      } else if (r != kNull) {
        nxt = down(r);
      } else {
        nxt = up(static_cast<std::int64_t>(v));
      }
      succ.put(c, static_cast<std::size_t>(down(static_cast<std::int64_t>(v))),
               static_cast<NodeId>(nxt));
    }
    const bool v_is_root = (v == root);
    if (l != kNull) {
      const std::int64_t after_l =
          (r != kNull) ? down(r)
                       : (v_is_root ? -1 : up(static_cast<std::int64_t>(v)));
      succ.put(c, static_cast<std::size_t>(up(l)),
               static_cast<NodeId>(after_l));
    }
    if (r != kNull) {
      const std::int64_t after_r =
          v_is_root ? -1 : up(static_cast<std::int64_t>(v));
      succ.put(c, static_cast<std::size_t>(up(r)),
               static_cast<NodeId>(after_r));
    }
  });

  // Positions from ranks (rank = distance to tour tail).
  pram::Array<std::int64_t> rank(m, items, std::int64_t{0});
  if (engine == RankEngine::Contract) {
    list_rank_contract(m, succ, rank);
  } else {
    list_rank_wyllie(m, succ, rank);
  }
  const std::int64_t tour_len = static_cast<std::int64_t>(2 * (n - 1));
  out.tour_length = tour_len;

  pram::Array<std::int64_t> dpos(m, n, std::int64_t{-1});
  pram::Array<std::int64_t> upos(m, n, std::int64_t{-1});
  m.pfor(n, [&](pram::Ctx& c, std::size_t v) {
    if (v == root) return;
    const auto vi = static_cast<std::int64_t>(v);
    dpos.put(c, v,
             tour_len - 1 - rank.get(c, static_cast<std::size_t>(down(vi))));
    upos.put(c, v,
             tour_len - 1 - rank.get(c, static_cast<std::size_t>(up(vi))));
  });

  // Position-indexed indicators.
  const auto tlen = static_cast<std::size_t>(tour_len);
  pram::Array<std::int64_t> delta(m, tlen, std::int64_t{0});
  pram::Array<std::int64_t> downs(m, tlen, std::int64_t{0});
  pram::Array<std::int64_t> ups(m, tlen, std::int64_t{0});
  pram::Array<std::int64_t> leafdowns(m, tlen, std::int64_t{0});
  m.pfor(n, [&](pram::Ctx& c, std::size_t v) {
    if (v == root) return;
    const auto dp = static_cast<std::size_t>(dpos.get(c, v));
    const auto upp = static_cast<std::size_t>(upos.get(c, v));
    const bool leaf = left.get(c, v) == kNull && right.get(c, v) == kNull;
    delta.put(c, dp, 1);
    delta.put(c, upp, -1);
    downs.put(c, dp, 1);
    ups.put(c, upp, 1);
    if (leaf) leafdowns.put(c, dp, 1);
  });
  inclusive_scan(m, delta);
  inclusive_scan(m, downs);
  inclusive_scan(m, ups);
  inclusive_scan(m, leafdowns);

  // Gather per-node numbers.
  pram::Array<std::int64_t> pre(m, n, std::int64_t{0});
  pram::Array<std::int64_t> post(m, n, std::int64_t{0});
  pram::Array<std::int64_t> depth(m, n, std::int64_t{0});
  pram::Array<std::int64_t> leaves(m, n, std::int64_t{0});
  pram::Array<std::int64_t> subtree(m, n, std::int64_t{0});
  pram::Array<std::int64_t> leafnum(m, n, std::int64_t{-1});
  pram::Array<std::int64_t> firstleaf(m, n, std::int64_t{0});
  m.pfor(n, [&](pram::Ctx& c, std::size_t v) {
    if (v == root) return;  // root handled on the host below (its values
                            // would share cells with the last tour item)
    const bool leaf = left.get(c, v) == kNull && right.get(c, v) == kNull;
    const auto dp = static_cast<std::size_t>(dpos.get(c, v));
    const auto upp = static_cast<std::size_t>(upos.get(c, v));
    depth.put(c, v, delta.get(c, dp));
    const std::int64_t downs_at_dp = downs.get(c, dp);
    pre.put(c, v, downs_at_dp);
    post.put(c, v, ups.get(c, upp) - 1);
    const std::int64_t ld_dp = leafdowns.get(c, dp);
    leaves.put(c, v, leafdowns.get(c, upp) - ld_dp + (leaf ? 1 : 0));
    subtree.put(c, v, downs.get(c, upp) - downs_at_dp + 1);
    if (leaf) leafnum.put(c, v, ld_dp - 1);
    // Leaves strictly before this subtree = leafdowns before our down item.
    firstleaf.put(c, v, ld_dp - (leaf ? 1 : 0));
  });
  pre.host(root) = 0;
  post.host(root) = static_cast<std::int64_t>(n) - 1;
  depth.host(root) = 0;
  leaves.host(root) =
      leafdowns.host(static_cast<std::size_t>(tour_len) - 1);
  subtree.host(root) = static_cast<std::int64_t>(n);

  // Inorder via the "event position" trick: node v's inorder event sits at
  // up(left(v)) + 1 when v has a left child, at down(v) + 1 otherwise, and
  // at slot 0 for a left-childless root. Events are pairwise distinct.
  const std::size_t ev_len = static_cast<std::size_t>(tour_len) + 1;
  pram::Array<std::int64_t> events(m, ev_len, std::int64_t{0});
  pram::Array<std::int64_t> ev_of(m, n, std::int64_t{0});
  m.pfor(n, [&](pram::Ctx& c, std::size_t v) {
    const NodeId l = left.get(c, v);
    std::int64_t ev;
    if (l != kNull) {
      ev = upos.get(c, static_cast<std::size_t>(l)) + 1;
    } else if (v == root) {
      ev = 0;
    } else {
      ev = dpos.get(c, v) + 1;
    }
    ev_of.put(c, v, ev);
    events.put(c, static_cast<std::size_t>(ev), 1);
  });
  inclusive_scan(m, events);
  m.pfor(n, [&](pram::Ctx& c, std::size_t v) {
    out.in[v] =
        events.get(c, static_cast<std::size_t>(ev_of.get(c, v))) - 1;
  });

  // Export (host copies).
  for (std::size_t v = 0; v < n; ++v) {
    out.pre[v] = pre.host(v);
    out.post[v] = post.host(v);
    out.depth[v] = depth.host(v);
    out.leaves[v] = leaves.host(v);
    out.subtree[v] = subtree.host(v);
    out.leafnum[v] = leafnum.host(v);
    out.first_leaf[v] = firstleaf.host(v);
    out.down_pos[v] = dpos.host(v);
    out.up_pos[v] = upos.host(v);
  }
  return out;
}

}  // namespace copath::par
