#include "cograph/binarize.hpp"

namespace copath::cograph {

void BinarizedCotree::validate() const {
  tree.validate();
  const std::size_t n = tree.size();
  COPATH_CHECK(is_join.size() == n && vertex.size() == n);
  std::size_t leaves = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const bool leaf = tree.is_leaf(static_cast<par::NodeId>(v));
    if (leaf) {
      ++leaves;
      COPATH_CHECK(vertex[v] != kNull);
      COPATH_CHECK(
          leaf_of_vertex[static_cast<std::size_t>(vertex[v])] ==
          static_cast<par::NodeId>(v));
    } else {
      COPATH_CHECK(vertex[v] == kNull);
      // Exactly two children (property (4) after binarization).
      COPATH_CHECK(tree.left[v] != -1 && tree.right[v] != -1);
    }
  }
  COPATH_CHECK(leaves == leaf_of_vertex.size());
  COPATH_CHECK_MSG(n == 2 * leaves - 1,
                   "binarized cotree must have 2L-1 nodes");
}

/// The single binarization implementation (worklists from `arena`);
/// returns the root id. Node numbering is deterministic in `t` alone, so
/// vector-backed and arena-backed callers produce identical trees.
///
/// Id invariant the downstream sweeps rely on: ids are assigned in
/// creation order and every comb node is created after both its children,
/// so children always have smaller ids than their parent and the root is
/// id 2L-2 — ascending id order is a post-order. make_leftist, the
/// sequential sweep (core/sequential.cpp), and the counting sweeps
/// (core/count.cpp) all fold in one linear pass on the strength of this.
std::int32_t binarize_into(const Cotree& t, BinSpans out,
                           exec::Arena& arena) {
  // Every slot is written here, so callers hand in unfilled storage.
  std::int32_t next_id = 0;
  const auto new_node = [&](bool join) {
    const std::int32_t id = next_id++;
    const auto u = static_cast<std::size_t>(id);
    out.is_join[u] = join ? 1 : 0;
    out.left[u] = -1;
    out.right[u] = -1;
    out.vertex[u] = kNull;
    return id;
  };
  const auto link = [&](std::int32_t p, std::int32_t l, std::int32_t r) {
    out.left[static_cast<std::size_t>(p)] = l;
    out.right[static_cast<std::size_t>(p)] = r;
    out.parent[static_cast<std::size_t>(l)] = p;
    out.parent[static_cast<std::size_t>(r)] = p;
  };

  // Iterative post-order over the cotree; result[v] = binarized id of v.
  exec::ScratchVec<std::int32_t> result(arena, t.size(), -1);
  exec::ScratchVec<std::uint8_t> expanded(arena, t.size(), 0);
  exec::ScratchVec<NodeId> stack(arena);
  stack.reserve(t.size() + 1);
  stack.push_back(t.root());
  while (!stack.empty()) {
    const NodeId v = stack.back();
    const auto vu = static_cast<std::size_t>(v);
    if (t.is_leaf(v)) {
      stack.pop_back();
      const std::int32_t id = new_node(false);
      out.vertex[static_cast<std::size_t>(id)] = t.vertex_of(v);
      out.leaf_of_vertex[static_cast<std::size_t>(t.vertex_of(v))] = id;
      result[vu] = id;
      continue;
    }
    if (!expanded[vu]) {
      expanded[vu] = 1;
      const auto kids = t.children(v);
      for (std::size_t i = kids.size(); i-- > 0;) stack.push_back(kids[i]);
      continue;
    }
    stack.pop_back();
    const auto kids = t.children(v);
    const bool join = t.kind(v) == NodeKind::Join;
    // Left-deep comb (Fig 3).
    std::int32_t acc = result[static_cast<std::size_t>(kids[0])];
    for (std::size_t i = 1; i < kids.size(); ++i) {
      const std::int32_t node = new_node(join);
      link(node, acc, result[static_cast<std::size_t>(kids[i])]);
      acc = node;
    }
    result[vu] = acc;
  }
  const std::int32_t root = result[static_cast<std::size_t>(t.root())];
  COPATH_DCHECK(root == next_id - 1);  // the id-invariant anchor
  out.parent[static_cast<std::size_t>(root)] = -1;
  return root;
}

/// The single leftist implementation over mutable child spans: fills
/// descendant-leaf counts, then swaps wherever the right side outweighs
/// the left. Exploits the binarize_into id invariant (children before
/// parents): one ascending linear pass IS a post-order fold — no stack,
/// no order array, sequential memory access.
void make_leftist_into(std::span<std::int32_t> left,
                       std::span<std::int32_t> right,
                       std::span<std::int64_t> leaf_count) {
  const std::size_t n = left.size();
  for (std::size_t v = 0; v < n; ++v) {
    leaf_count[v] =
        left[v] == -1
            ? 1
            : leaf_count[static_cast<std::size_t>(left[v])] +
                  leaf_count[static_cast<std::size_t>(right[v])];
  }
  // ...then swap wherever the right subtree outweighs the left.
  for (std::size_t v = 0; v < n; ++v) {
    if (left[v] == -1) continue;
    if (leaf_count[static_cast<std::size_t>(left[v])] <
        leaf_count[static_cast<std::size_t>(right[v])]) {
      std::swap(left[v], right[v]);
    }
  }
}

BinarizedCotree binarize(const Cotree& t) {
  const std::size_t leaves = t.vertex_count();
  COPATH_CHECK(leaves > 0);
  BinarizedCotree out;
  const std::size_t bn = 2 * leaves - 1;
  out.tree = par::BinTree::with_size(bn);
  out.is_join.assign(bn, 0);
  out.vertex.assign(bn, kNull);
  out.leaf_of_vertex.assign(leaves, -1);
  out.tree.root = binarize_into(
      t,
      BinSpans{out.tree.parent, out.tree.left, out.tree.right, out.is_join,
               out.vertex, out.leaf_of_vertex},
      exec::Arena::for_this_thread());
#ifndef NDEBUG
  // Constructor self-check (O(n) + scratch): debug builds only — binarize
  // sits on the serving hot path and its output shape is enforced by the
  // test suite.
  out.validate();
#endif
  return out;
}

BinSpans ScratchBinarized::size_for(std::size_t leaves) {
  COPATH_CHECK(leaves > 0);
  const std::size_t bn = 2 * leaves - 1;
  parent.resize_for_overwrite(bn);
  left.resize_for_overwrite(bn);
  right.resize_for_overwrite(bn);
  is_join.resize_for_overwrite(bn);
  vertex.resize_for_overwrite(bn);
  leaf_of_vertex.resize_for_overwrite(leaves);
  return BinSpans{parent.span(),  left.span(),   right.span(),
                  is_join.span(), vertex.span(), leaf_of_vertex.span()};
}

void binarize_scratch(const Cotree& t, exec::Arena& arena,
                      ScratchBinarized& out) {
  out.root = binarize_into(t, out.size_for(t.vertex_count()), arena);
}

std::vector<std::int64_t> make_leftist(BinarizedCotree& bc) {
  std::vector<std::int64_t> leaf_count(bc.size(), 0);
  make_leftist_into(bc.tree.left, bc.tree.right, leaf_count);
  return leaf_count;
}

void make_leftist_scratch(ScratchBinarized& bc,
                          exec::ScratchVec<std::int64_t>& leaf_count) {
  leaf_count.resize_for_overwrite(bc.size());
  make_leftist_into(bc.left.span(), bc.right.span(), leaf_count.span());
}

}  // namespace copath::cograph
