// Cotree binarization (paper Fig 3) and the leftist transform — host
// reference implementations. (The PRAM versions that the measured pipeline
// uses live in core/pipeline; these are the independently-testable oracles.)
//
// Binarization replaces each internal node u with children v1..vk by a
// left-deep comb u1..u_{k-1}: u1 = (v1, v2), u_i = (u_{i-1}, v_{i+1}). The
// result always has exactly L leaves and L-1 internal nodes regardless of
// the original arity. Property (5) (label alternation) is lost — comb nodes
// share u's label — but (4) and (6) survive, which is all the algorithm
// needs.
//
// The leftist transform swaps children so that L(left) >= L(right) at every
// internal node (L = descendant leaf count), the precondition for the
// bridge/insert analysis of §2.
//
// Two storage shapes share one implementation:
//  * BinarizedCotree — std::vector-backed, the long-lived product form the
//    pipeline / count / oracle call sites keep.
//  * ScratchBinarized — the same arrays carved from an exec::Arena, for
//    the request front-end where the binarized tree is per-request scratch
//    that must not touch the heap on warm requests.
// BinView is the common read surface the sweeps consume (core/sequential,
// core/count); both shapes produce identical node layouts, so results are
// bitwise-equal whichever storage backed them. The internal worklists of
// both variants draw from the calling thread's arena.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cograph/cotree.hpp"
#include "exec/scratch.hpp"
#include "par/bintree.hpp"

namespace copath::cograph {

struct BinarizedCotree {
  par::BinTree tree;
  /// Per binarized node: 1 iff it carries the Join (1-node) label. Leaves
  /// hold 0.
  std::vector<std::uint8_t> is_join;
  /// Per binarized node: the cograph vertex for leaves, kNull otherwise.
  std::vector<VertexId> vertex;
  /// Inverse map: binarized leaf node per vertex id.
  std::vector<par::NodeId> leaf_of_vertex;

  [[nodiscard]] std::size_t size() const { return tree.size(); }
  void validate() const;
};

/// Read-only span view of a binarized cotree — the currency between the
/// binarizer and the host sweeps, independent of what owns the arrays.
struct BinView {
  std::span<const std::int32_t> left;
  std::span<const std::int32_t> right;
  std::span<const std::uint8_t> is_join;
  std::span<const VertexId> vertex;
  std::span<const par::NodeId> leaf_of_vertex;
  std::int32_t root = -1;

  [[nodiscard]] std::size_t size() const { return left.size(); }
};

[[nodiscard]] inline BinView view_of(const BinarizedCotree& bc) {
  return BinView{bc.tree.left, bc.tree.right, bc.is_join,
                 bc.vertex,    bc.leaf_of_vertex, bc.tree.root};
}

/// Mutable output surface of the binarizer: every span pre-sized by the
/// caller (2L-1 nodes, L vertices). binarize_into writes every slot, so the
/// storage needs no pre-fill.
struct BinSpans {
  std::span<std::int32_t> parent, left, right;
  std::span<std::uint8_t> is_join;
  std::span<VertexId> vertex;
  std::span<par::NodeId> leaf_of_vertex;
};

/// Arena-backed binarized cotree (the solve kernel's storage): identical
/// layout to BinarizedCotree, storage recycled through `arena`.
struct ScratchBinarized {
  exec::ScratchVec<std::int32_t> parent, left, right;
  exec::ScratchVec<std::uint8_t> is_join;
  exec::ScratchVec<VertexId> vertex;
  exec::ScratchVec<par::NodeId> leaf_of_vertex;
  std::int32_t root = -1;

  explicit ScratchBinarized(exec::Arena& arena)
      : parent(arena), left(arena), right(arena), is_join(arena),
        vertex(arena), leaf_of_vertex(arena) {}

  [[nodiscard]] std::size_t size() const { return left.size(); }
  [[nodiscard]] BinView view() const {
    return BinView{left.span(),   right.span(),         is_join.span(),
                   vertex.span(), leaf_of_vertex.span(), root};
  }

  /// Sizes every array for an L-leaf cotree (2L-1 nodes, L > 0), contents
  /// left for binarize_into to write, and returns its output surface.
  BinSpans size_for(std::size_t leaves);
};

/// The single binarization implementation over caller-provided storage
/// (worklists from `arena`); returns the root id (always 2L-2 — node ids
/// are creation-ordered with children before parents). Both binarize() and
/// binarize_scratch() are thin storage adapters over this, so all three
/// shapes produce bit-identical node layouts.
std::int32_t binarize_into(const Cotree& t, BinSpans out, exec::Arena& arena);

/// The leftist transform over caller-provided child spans: fills
/// `leaf_count` (pre-sized to left.size()) and swaps children in place so
/// L(left) >= L(right) everywhere. The span-level seam under
/// make_leftist / make_leftist_scratch.
void make_leftist_into(std::span<std::int32_t> left,
                       std::span<std::int32_t> right,
                       std::span<std::int64_t> leaf_count);

/// Host binarization (iterative, no recursion depth limits; worklists come
/// from the calling thread's arena).
BinarizedCotree binarize(const Cotree& t);

/// Same algorithm, arena storage end to end (output arrays AND worklists
/// from `arena`). Node layout is identical to binarize().
void binarize_scratch(const Cotree& t, exec::Arena& arena,
                      ScratchBinarized& out);

/// Host leftist transform: returns descendant-leaf counts L(u) and swaps
/// children in place so L(left) >= L(right) everywhere.
std::vector<std::int64_t> make_leftist(BinarizedCotree& bc);

/// Arena variant over scratch storage; fills `leaf_count` (resized to the
/// node count).
void make_leftist_scratch(ScratchBinarized& bc,
                          exec::ScratchVec<std::int64_t>& leaf_count);

}  // namespace copath::cograph
