#include "core/count.hpp"

#include "exec/scratch.hpp"
#include "par/contraction.hpp"

namespace copath::core {

namespace {

/// The p(u) recurrence over any binarized view, results into `p` (sized
/// by the caller). Binarized node ids are post-order (children before
/// parents — the binarize_core invariant), so one ascending linear pass
/// folds the whole recurrence.
void path_counts_core(const cograph::BinView& bc,
                      std::span<const std::int64_t> leaf_count,
                      std::span<std::int64_t> p) {
  const std::size_t n = bc.size();
  for (std::size_t v = 0; v < n; ++v) {
    if (bc.left[v] == -1) {
      p[v] = 1;
      continue;
    }
    const auto l = static_cast<std::size_t>(bc.left[v]);
    const auto r = static_cast<std::size_t>(bc.right[v]);
    p[v] = bc.is_join[v] ? std::max<std::int64_t>(p[l] - leaf_count[r], 1)
                         : p[l] + p[r];
  }
}

}  // namespace

std::vector<std::int64_t> path_counts_host(
    const cograph::BinarizedCotree& bc,
    const std::vector<std::int64_t>& leaf_count) {
  const std::size_t n = bc.size();
  COPATH_CHECK(leaf_count.size() == n);
  std::vector<std::int64_t> p(n, 0);
  path_counts_core(cograph::view_of(bc), leaf_count, p);
  return p;
}

CountVerdicts verdicts_of(const cograph::BinView& bc,
                          std::span<const std::int64_t> leaf_count,
                          std::span<const std::int64_t> p) {
  CountVerdicts out;
  const auto root = static_cast<std::size_t>(bc.root);
  out.cover_size = p[root];
  out.hamiltonian_path = out.cover_size == 1;
  // Cycle corollary: n >= 3 and the root split join(V, W) has p(V) <= L(W).
  if (bc.leaf_of_vertex.size() >= 3 && bc.left[root] != -1 &&
      bc.is_join[root] != 0) {
    const auto pv = p[static_cast<std::size_t>(bc.left[root])];
    const auto lw = leaf_count[static_cast<std::size_t>(bc.right[root])];
    out.hamiltonian_cycle = pv <= lw;
  }
  return out;
}

CountVerdicts count_verdicts(const cograph::BinView& bc,
                             std::span<const std::int64_t> leaf_count,
                             exec::Arena& arena) {
  const std::size_t n = bc.size();
  COPATH_CHECK(leaf_count.size() == n);
  exec::ScratchVec<std::int64_t> p(arena, n, 0);
  path_counts_core(bc, leaf_count, p.span());
  return verdicts_of(bc, leaf_count, p.span());
}

std::vector<std::int64_t> path_counts_pram(
    pram::Machine& m, const cograph::BinarizedCotree& bc,
    const std::vector<std::int64_t>& leaf_count) {
  const std::size_t n = bc.size();
  COPATH_CHECK(leaf_count.size() == n);
  std::vector<std::int64_t> leaf_value(n, 1);
  std::vector<PathCountPolicy::NodeOp> ops(n, {0, 0});
  for (std::size_t v = 0; v < n; ++v) {
    if (bc.tree.left[v] == -1) continue;
    ops[v].is_join = bc.is_join[v];
    ops[v].l_right =
        leaf_count[static_cast<std::size_t>(bc.tree.right[v])];
  }
  return par::tree_contract_eval<PathCountPolicy>(m, bc.tree, leaf_value,
                                                  ops);
}

CountVerdicts count_verdicts(const cograph::Cotree& t) {
  exec::Arena& arena = exec::Arena::for_this_thread();
  cograph::ScratchBinarized bc(arena);
  cograph::binarize_scratch(t, arena, bc);
  exec::ScratchVec<std::int64_t> leaf_count(arena);
  cograph::make_leftist_scratch(bc, leaf_count);
  return count_verdicts(bc.view(), leaf_count.span(), arena);
}

std::int64_t path_cover_size(const cograph::Cotree& t) {
  return count_verdicts(t).cover_size;
}

bool has_hamiltonian_path(const cograph::Cotree& t) {
  return path_cover_size(t) == 1;
}

}  // namespace copath::core
