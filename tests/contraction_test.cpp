// Binary tree contraction against direct recursive evaluation, using the
// path-count (max-plus) policy from the core module and a plain sum policy.
#include <gtest/gtest.h>

#include <functional>

#include "core/count.hpp"
#include "par/contraction.hpp"
#include "util/rng.hpp"

namespace copath::par {
namespace {

using core::PathCountPolicy;
using pram::Machine;
using pram::Policy;

BinTree random_full_tree(util::Rng& rng, std::size_t leaves) {
  BinTree t = BinTree::with_size(2 * leaves - 1);
  int next_id = 0;
  const std::function<int(std::size_t)> build =
      [&](std::size_t nl) -> int {
    const int id = next_id++;
    if (nl == 1) return id;
    const std::size_t ls = 1 + rng.below(nl - 1);
    const int l = build(ls);
    const int r = build(nl - ls);
    t.left[static_cast<std::size_t>(id)] = l;
    t.right[static_cast<std::size_t>(id)] = r;
    t.parent[static_cast<std::size_t>(l)] = id;
    t.parent[static_cast<std::size_t>(r)] = id;
    return id;
  };
  t.root = build(leaves);
  return t;
}

struct SumPolicy {
  using Value = std::int64_t;
  struct Func {
    std::int64_t add;
  };
  struct NodeOp {};
  static Func identity() { return {0}; }
  static Func compose(Func o, Func i) { return {o.add + i.add}; }
  static Value apply(Func f, Value x) { return x + f.add; }
  static Func partial_left(NodeOp, Value l) { return {l}; }
  static Func partial_right(NodeOp, Value r) { return {r}; }
  static Value full(NodeOp, Value l, Value r) { return l + r; }
};

struct Shape {
  std::size_t leaves;
  std::size_t p;
};

class ContractionSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(ContractionSweep, SubtreeLeafSums) {
  const auto [leaves, p] = GetParam();
  util::Rng rng(leaves * 17 + p);
  const BinTree t = random_full_tree(rng, leaves);
  const std::size_t n = t.size();
  std::vector<std::int64_t> leaf_val(n, 1);
  std::vector<SumPolicy::NodeOp> ops(n);
  Machine m({Policy::EREW, p});
  const auto got = tree_contract_eval<SumPolicy>(m, t, leaf_val, ops);
  // Every node's value should equal its leaf count.
  const std::function<std::int64_t(std::int32_t)> count =
      [&](std::int32_t v) -> std::int64_t {
    const auto vu = static_cast<std::size_t>(v);
    if (t.left[vu] == kNull) {
      EXPECT_EQ(got[vu], 1);
      return 1;
    }
    const std::int64_t c = count(t.left[vu]) + count(t.right[vu]);
    EXPECT_EQ(got[vu], c) << "node " << v;
    return c;
  };
  count(t.root);
}

TEST_P(ContractionSweep, MaxPlusPathCountPolicy) {
  const auto [leaves, p] = GetParam();
  util::Rng rng(leaves * 19 + p);
  const BinTree t = random_full_tree(rng, leaves);
  const std::size_t n = t.size();
  std::vector<std::int64_t> leaf_val(n, 1);
  std::vector<PathCountPolicy::NodeOp> ops(n, {0, 0});
  for (std::size_t v = 0; v < n; ++v) {
    if (t.left[v] == kNull) {
      leaf_val[v] = 1;
    } else if (rng.chance(0.5)) {
      ops[v] = {1, static_cast<std::int64_t>(rng.below(6))};
    }
  }
  Machine m({Policy::EREW, p});
  const auto got = tree_contract_eval<PathCountPolicy>(m, t, leaf_val, ops);
  const std::function<std::int64_t(std::int32_t)> eval =
      [&](std::int32_t v) -> std::int64_t {
    const auto vu = static_cast<std::size_t>(v);
    if (t.left[vu] == kNull) return leaf_val[vu];
    const auto want = PathCountPolicy::full(ops[vu], eval(t.left[vu]),
                                            eval(t.right[vu]));
    EXPECT_EQ(got[vu], want) << "node " << v;
    return want;
  };
  eval(t.root);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ContractionSweep,
    ::testing::Values(Shape{1, 1}, Shape{2, 1}, Shape{3, 2}, Shape{17, 3},
                      Shape{64, 8}, Shape{200, 16}, Shape{333, 5}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "l" + std::to_string(info.param.leaves) + "_p" +
             std::to_string(info.param.p);
    });

TEST(ContractionShape, DeepLeftChainEvaluates) {
  // Chain where every internal node is a join max(x - 1, 1): p collapses
  // to 1 all the way up regardless of depth.
  const std::size_t leaves = 200;
  BinTree t = BinTree::with_size(2 * leaves - 1);
  const auto L = static_cast<std::int32_t>(leaves);
  for (std::int32_t i = 0; i + 1 < L; ++i) {
    const std::int32_t leaf = L - 1 + i;
    t.right[static_cast<std::size_t>(i)] = leaf;
    t.parent[static_cast<std::size_t>(leaf)] = i;
    const std::int32_t lc = (i + 2 < L) ? i + 1 : 2 * L - 2;
    t.left[static_cast<std::size_t>(i)] = lc;
    t.parent[static_cast<std::size_t>(lc)] = i;
  }
  t.root = 0;
  std::vector<std::int64_t> leaf_val(t.size(), 1);
  std::vector<PathCountPolicy::NodeOp> ops(t.size(), {1, 1});
  Machine m({Policy::EREW, 8});
  const auto got = tree_contract_eval<PathCountPolicy>(m, t, leaf_val, ops);
  EXPECT_EQ(got[0], 1);
}

TEST(ContractionCost, LogTimeLinearWork) {
  util::Rng rng(3);
  const std::size_t leaves = 1 << 12;
  const BinTree t = random_full_tree(rng, leaves);
  const std::size_t n = t.size();
  Machine m({Policy::EREW, n / 13});
  std::vector<std::int64_t> leaf_val(n, 1);
  std::vector<SumPolicy::NodeOp> ops(n);
  (void)tree_contract_eval<SumPolicy>(m, t, leaf_val, ops);
  EXPECT_LE(m.stats().steps, 300 * 13);
  EXPECT_LE(m.stats().work, 400 * n);
}

}  // namespace
}  // namespace copath::par
