#include "core/hamiltonian.hpp"

#include <algorithm>

#include "cograph/binarize.hpp"
#include "core/count.hpp"
#include "core/sequential.hpp"

namespace copath::core {

bool has_hamiltonian_cycle(const cograph::Cotree& t) {
  return count_verdicts(t).hamiltonian_cycle;
}

std::optional<std::vector<VertexId>> hamiltonian_path(
    const cograph::Cotree& t) {
  PathCover cover = min_path_cover_sequential(t);
  if (cover.paths.size() != 1) return std::nullopt;
  return std::move(cover.paths.front());
}

std::optional<std::vector<VertexId>> hamiltonian_cycle(
    const cograph::Cotree& t) {
  if (t.vertex_count() < 3) return std::nullopt;
  auto bc = cograph::binarize(t);
  const auto leaf_count = cograph::make_leftist(bc);
  const auto p = path_counts_host(bc, leaf_count);
  if (!verdicts_of(cograph::view_of(bc), leaf_count, p).hamiltonian_cycle) {
    return std::nullopt;
  }
  // Root split join(V, W), p(V) <= L(W).
  const auto root = static_cast<std::size_t>(bc.tree.root);
  const std::int32_t v_root = bc.tree.left[root];
  const std::int32_t w_root = bc.tree.right[root];

  // Minimum cover of G(V) (the root's left side): run the sequential
  // algorithm on the left subtree in isolation by temporarily re-rooting.
  // Simpler: run on the whole tree's left part via the cover of V computed
  // from the binarized structures — re-run the sweep on a pruned tree.
  cograph::BinarizedCotree left_bc;
  std::vector<std::int64_t> left_leaf_count;
  {
    // Extract the left subtree as its own BinarizedCotree (compact ids,
    // numbered in *reverse preorder* so descendants get smaller ids than
    // their ancestors — the binarize_core id invariant the linear-fold
    // sweeps in core/sequential.cpp and core/count.cpp require).
    const std::size_t bn = bc.size();
    std::vector<std::int32_t> map(bn, -1);
    std::vector<std::int32_t> order;
    order.reserve(bn);
    std::vector<std::int32_t> stack{v_root};
    while (!stack.empty()) {
      const std::int32_t v = stack.back();
      stack.pop_back();
      order.push_back(v);
      if (bc.tree.left[static_cast<std::size_t>(v)] != -1) {
        stack.push_back(bc.tree.left[static_cast<std::size_t>(v)]);
        stack.push_back(bc.tree.right[static_cast<std::size_t>(v)]);
      }
    }
    const std::size_t ln = order.size();
    for (std::size_t i = 0; i < ln; ++i) {
      map[static_cast<std::size_t>(order[i])] =
          static_cast<std::int32_t>(ln - 1 - i);
    }
    left_bc.tree = par::BinTree::with_size(ln);
    left_bc.is_join.assign(ln, 0);
    left_bc.vertex.assign(ln, cograph::kNull);
    left_leaf_count.assign(ln, 0);
    std::size_t leaves = 0;
    for (std::size_t pre = 0; pre < ln; ++pre) {
      const auto v = static_cast<std::size_t>(order[pre]);
      const std::size_t i = ln - 1 - pre;
      left_bc.is_join[i] = bc.is_join[v];
      left_leaf_count[i] = leaf_count[v];
      if (bc.tree.left[v] != -1) {
        left_bc.tree.left[i] = map[static_cast<std::size_t>(bc.tree.left[v])];
        left_bc.tree.right[i] =
            map[static_cast<std::size_t>(bc.tree.right[v])];
        left_bc.tree.parent[static_cast<std::size_t>(left_bc.tree.left[i])] =
            static_cast<std::int32_t>(i);
        left_bc.tree.parent[static_cast<std::size_t>(
            left_bc.tree.right[i])] = static_cast<std::int32_t>(i);
      } else {
        left_bc.vertex[i] = bc.vertex[v];
        ++leaves;
      }
    }
    left_bc.tree.root = static_cast<std::int32_t>(ln - 1);
    left_bc.leaf_of_vertex.assign(t.vertex_count(), -1);
    for (std::size_t i = 0; i < ln; ++i) {
      if (left_bc.vertex[i] != cograph::kNull)
        left_bc.leaf_of_vertex[static_cast<std::size_t>(left_bc.vertex[i])] =
            static_cast<std::int32_t>(i);
    }
    (void)leaves;
  }
  // Note: leaf_of_vertex is indexed by *global* vertex ids here; the
  // sequential sweep only walks paths via the vertex ids it encounters, so
  // the global-sized table is fine.
  PathCover vcover = min_path_cover_sequential(left_bc, left_leaf_count);

  // Gather W's vertices (leaf descendants of the root's right child).
  std::vector<VertexId> w;
  {
    std::vector<std::int32_t> stack{w_root};
    while (!stack.empty()) {
      const auto v = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      if (bc.tree.left[v] == -1) {
        w.push_back(bc.vertex[v]);
        continue;
      }
      stack.push_back(bc.tree.left[v]);
      stack.push_back(bc.tree.right[v]);
    }
  }
  COPATH_CHECK(static_cast<std::int64_t>(w.size()) ==
               leaf_count[static_cast<std::size_t>(w_root)]);
  COPATH_CHECK(static_cast<std::int64_t>(vcover.paths.size()) ==
               p[static_cast<std::size_t>(v_root)]);

  // Bridge the p(V) paths into a cycle with p(V) W-vertices, then insert
  // the remaining W-vertices into V-gaps (never two W's adjacent).
  std::vector<VertexId> cycle;
  cycle.reserve(t.vertex_count());
  std::size_t wi = 0;
  std::size_t inserts_left = w.size() - vcover.paths.size();
  for (const auto& path : vcover.paths) {
    for (std::size_t i = 0; i < path.size(); ++i) {
      cycle.push_back(path[i]);
      if (i + 1 < path.size() && inserts_left > 0) {
        cycle.push_back(w[vcover.paths.size() + --inserts_left]);
      }
    }
    cycle.push_back(w[wi++]);  // bridge to the next path (or close cycle)
  }
  COPATH_CHECK(inserts_left == 0);
  COPATH_CHECK(cycle.size() == t.vertex_count());
  return cycle;
}

}  // namespace copath::core
