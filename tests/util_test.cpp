#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace copath::util {
namespace {

TEST(Check, ThrowsWithLocation) {
  try {
    COPATH_CHECK_MSG(1 == 2, "custom message " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(COPATH_CHECK(2 + 2 == 4));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto x = a();
    EXPECT_EQ(x, b());
    // Different seeds should diverge almost surely.
    if (x != c()) return;
  }
  FAIL() << "seeds 123 and 124 produced identical streams";
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng r(7);
  std::vector<int> hist(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = r.below(10);
    ASSERT_LT(v, 10u);
    ++hist[static_cast<std::size_t>(v)];
  }
  for (const int h : hist) {
    EXPECT_GT(h, kDraws / 10 - kDraws / 50);
    EXPECT_LT(h, kDraws / 10 + kDraws / 50);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(sink, 0.0);
  EXPECT_GE(t.seconds(), 0.0);
  const double first = t.millis();
  EXPECT_LE(first, t.millis());  // monotone across repeated calls
}

TEST(ThreadPool, InlineModeRunsEverything) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, MultiWorkerCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BlocksArePartition) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  pool.parallel_blocks(0, 17,
                       [&](std::size_t, std::size_t lo, std::size_t hi) {
                         std::lock_guard lock(mu);
                         blocks.emplace_back(lo, hi);
                       });
  std::size_t covered = 0;
  for (const auto& [lo, hi] : blocks) covered += hi - lo;
  EXPECT_EQ(covered, 17u);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 10, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(Table, AlignsAndRendersAllCellTypes) {
  Table t({"name", "n", "ratio"});
  t.row({Table::S("alpha"), Table::I(12345), Table::F(1.5)});
  t.row({Table::S("b"), Table::I(7), Table::F(0.25)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
  EXPECT_NE(s.find("1.500"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

}  // namespace
}  // namespace copath::util
