// Euler-tour numbering (Lemma 5.2) against a recursive host oracle.
#include <gtest/gtest.h>

#include <functional>

#include "par/euler.hpp"
#include "util/rng.hpp"

namespace copath::par {
namespace {

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

struct Oracle {
  std::vector<std::int64_t> pre, in, post, depth, leaves, subtree, leafnum,
      firstleaf;
};

Oracle oracle(const BinTree& t) {
  const std::size_t n = t.size();
  Oracle o;
  o.pre.assign(n, 0);
  o.in.assign(n, 0);
  o.post.assign(n, 0);
  o.depth.assign(n, 0);
  o.leaves.assign(n, 0);
  o.subtree.assign(n, 0);
  o.leafnum.assign(n, -1);
  o.firstleaf.assign(n, 0);
  std::int64_t cpre = 0, cin = 0, cpost = 0, cleaf = 0;
  const std::function<void(std::int32_t, std::int64_t)> dfs =
      [&](std::int32_t v, std::int64_t d) {
        const auto vu = static_cast<std::size_t>(v);
        o.pre[vu] = cpre++;
        o.depth[vu] = d;
        o.firstleaf[vu] = cleaf;
        std::int64_t lv = 0, sz = 1;
        if (t.left[vu] != kNull) {
          dfs(t.left[vu], d + 1);
          lv += o.leaves[static_cast<std::size_t>(t.left[vu])];
          sz += o.subtree[static_cast<std::size_t>(t.left[vu])];
        }
        o.in[vu] = cin++;
        if (t.right[vu] != kNull) {
          dfs(t.right[vu], d + 1);
          lv += o.leaves[static_cast<std::size_t>(t.right[vu])];
          sz += o.subtree[static_cast<std::size_t>(t.right[vu])];
        }
        if (t.left[vu] == kNull && t.right[vu] == kNull) {
          lv = 1;
          o.leafnum[vu] = cleaf++;
        }
        o.leaves[vu] = lv;
        o.subtree[vu] = sz;
        o.post[vu] = cpost++;
      };
  dfs(t.root, 0);
  return o;
}

void expect_match(const BinTree& t, const EulerNumbers& got) {
  const Oracle want = oracle(t);
  for (std::size_t v = 0; v < t.size(); ++v) {
    ASSERT_EQ(got.pre[v], want.pre[v]) << "pre v=" << v;
    ASSERT_EQ(got.in[v], want.in[v]) << "in v=" << v;
    ASSERT_EQ(got.post[v], want.post[v]) << "post v=" << v;
    ASSERT_EQ(got.depth[v], want.depth[v]) << "depth v=" << v;
    ASSERT_EQ(got.leaves[v], want.leaves[v]) << "leaves v=" << v;
    ASSERT_EQ(got.subtree[v], want.subtree[v]) << "subtree v=" << v;
    ASSERT_EQ(got.leafnum[v], want.leafnum[v]) << "leafnum v=" << v;
    ASSERT_EQ(got.first_leaf[v], want.firstleaf[v]) << "first_leaf v=" << v;
  }
}

struct Shape {
  std::size_t leaves;
  std::size_t p;
  RankEngine engine;
};

class EulerSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(EulerSweep, MatchesOracleOnRandomTrees) {
  const auto [leaves, p, engine] = GetParam();
  util::Rng rng(leaves * 131 + p);
  for (int trial = 0; trial < 8; ++trial) {
    const BinTree t = random_full_tree(rng, leaves);
    Machine m({Policy::EREW, p});
    expect_match(t, euler_numbers(m, t, engine));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EulerSweep,
    ::testing::Values(Shape{1, 1, RankEngine::Contract},
                      Shape{2, 1, RankEngine::Contract},
                      Shape{5, 2, RankEngine::Wyllie},
                      Shape{33, 4, RankEngine::Contract},
                      Shape{100, 8, RankEngine::Wyllie},
                      Shape{100, 8, RankEngine::Contract},
                      Shape{250, 16, RankEngine::Contract}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "l" + std::to_string(info.param.leaves) + "_p" +
             std::to_string(info.param.p) +
             (info.param.engine == RankEngine::Contract ? "_contract"
                                                        : "_wyllie");
    });

TEST(EulerShapes, LeftChain) {
  // Completely left-degenerate tree: internal i has internal i+1 as left
  // child and a leaf as right child (height = #leaves - 1).
  const std::size_t leaves = 128;
  const auto L = static_cast<std::int32_t>(leaves);
  BinTree t = BinTree::with_size(2 * leaves - 1);
  for (std::int32_t i = 0; i + 1 < L; ++i) {
    const std::int32_t leaf = L - 1 + i;
    t.right[static_cast<std::size_t>(i)] = leaf;
    t.parent[static_cast<std::size_t>(leaf)] = i;
    const std::int32_t lc = (i + 2 < L) ? i + 1 : 2 * L - 2;
    t.left[static_cast<std::size_t>(i)] = lc;
    t.parent[static_cast<std::size_t>(lc)] = i;
  }
  t.root = 0;
  t.validate();
  Machine m({Policy::EREW, 16});
  expect_match(t, euler_numbers(m, t));
}

TEST(EulerShapes, SingleNodeAndPair) {
  BinTree t1 = BinTree::with_size(1);
  t1.root = 0;
  Machine m({Policy::EREW, 2});
  const EulerNumbers n1 = euler_numbers(m, t1);
  EXPECT_EQ(n1.leaves[0], 1);
  EXPECT_EQ(n1.leafnum[0], 0);

  BinTree t3 = BinTree::with_size(3);
  t3.root = 0;
  t3.left[0] = 1;
  t3.right[0] = 2;
  t3.parent[1] = 0;
  t3.parent[2] = 0;
  const EulerNumbers n3 = euler_numbers(m, t3);
  EXPECT_EQ(n3.in[1], 0);
  EXPECT_EQ(n3.in[0], 1);
  EXPECT_EQ(n3.in[2], 2);
  EXPECT_EQ(n3.leaves[0], 2);
  EXPECT_EQ(n3.first_leaf[2], 1);
}

TEST(EulerCost, LogTimeLinearWork) {
  util::Rng rng(5);
  const std::size_t leaves = 1 << 12;
  const BinTree t = random_full_tree(rng, leaves);
  const std::size_t n = t.size();
  Machine m({Policy::EREW, n / 13});
  (void)euler_numbers(m, t);
  EXPECT_LE(m.stats().steps, 300 * 13)
      << "expected O(log n) steps for the full numbering";
  EXPECT_LE(m.stats().work, 200 * n) << "expected O(n) work";
}

}  // namespace
}  // namespace copath::par
