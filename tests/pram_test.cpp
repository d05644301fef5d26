// Semantics of the PRAM simulator: synchronous (deferred-write) steps,
// cost accounting, and the access-discipline checker for every policy.
#include <gtest/gtest.h>

#include "pram/array.hpp"
#include "pram/machine.hpp"

namespace copath::pram {
namespace {

Machine::Config cfg(Policy p, std::size_t procs = 0) {
  return Machine::Config{p, procs};
}

TEST(Machine, StepCountsTimeAndWork) {
  Machine m(cfg(Policy::EREW));
  Array<int> a(m, 8, 0);
  m.step(8, [&](Ctx& c, std::size_t i) { a.put(c, i, 1); });
  m.step(4, [&](Ctx& c, std::size_t i) { a.put(c, i, 2); });
  EXPECT_EQ(m.stats().steps, 2u);
  EXPECT_EQ(m.stats().work, 12u);
  EXPECT_EQ(m.stats().max_processors, 8u);
  EXPECT_EQ(m.stats().writes, 12u);
}

TEST(Machine, DeferredWritesReadPreStepValues) {
  // Rotation with every processor reading its neighbour's pre-step value:
  // semantically a single synchronous step. (Unchecked policy: the rotate
  // pattern is read-write concurrent by design, the point here is the
  // deferred-write semantics, not the discipline.)
  Machine m(cfg(Policy::Unchecked));
  Array<int> a(m, 4, 10);
  for (std::size_t i = 0; i < 4; ++i) a.host(i) = static_cast<int>(i);
  m.step(4, [&](Ctx& c, std::size_t i) {
    a.put(c, i, a.get(c, (i + 1) % 4));
  });
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(a.host(i), static_cast<int>((i + 1) % 4));
}

TEST(Machine, EREWRejectsConcurrentReads) {
  Machine m(cfg(Policy::EREW));
  Array<int> a(m, 4, 0);
  EXPECT_THROW(
      m.step(4, [&](Ctx& c, std::size_t) { (void)a.get(c, 0); }),
      PramViolation);
}

TEST(Machine, EREWRejectsConcurrentWrites) {
  Machine m(cfg(Policy::EREW));
  Array<int> a(m, 4, 0);
  EXPECT_THROW(m.step(2, [&](Ctx& c, std::size_t) { a.put(c, 1, 7); }),
               PramViolation);
}

TEST(Machine, EREWAllowsDisjointAccess) {
  Machine m(cfg(Policy::EREW));
  Array<int> a(m, 64, 0);
  EXPECT_NO_THROW(m.step(64, [&](Ctx& c, std::size_t i) {
    a.put(c, i, static_cast<int>(i) + a.get(c, i));
  }));
}

TEST(Machine, StaleReadAfterOwnWriteIsFlagged) {
  Machine m(cfg(Policy::EREW));
  Array<int> a(m, 2, 0);
  EXPECT_THROW(m.step(1, [&](Ctx& c, std::size_t) {
                 a.put(c, 0, 1);
                 (void)a.get(c, 0);  // would read the stale pre-step value
               }),
               PramViolation);
}

TEST(Machine, CREWAllowsConcurrentReadsRejectsWrites) {
  Machine m(cfg(Policy::CREW));
  Array<int> a(m, 4, 42);
  Array<int> b(m, 4, 0);
  EXPECT_NO_THROW(m.step(4, [&](Ctx& c, std::size_t i) {
    b.put(c, i, a.get(c, 0));  // broadcast a[0] into b
  }));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(b.host(i), 42);
  EXPECT_THROW(m.step(2, [&](Ctx& c, std::size_t) { a.put(c, 3, 1); }),
               PramViolation);
}

TEST(Machine, CREWRejectsReadWriteMix) {
  Machine m(cfg(Policy::CREW));
  Array<int> a(m, 4, 0);
  EXPECT_THROW(m.step(2, [&](Ctx& c, std::size_t i) {
                 if (i == 0) {
                   a.put(c, 2, 9);
                 } else {
                   (void)a.get(c, 2);
                 }
               }),
               PramViolation);
}

TEST(Machine, CRCWCommonAcceptsAgreement) {
  Machine m(cfg(Policy::CRCW_Common));
  Array<int> a(m, 1, 0);
  EXPECT_NO_THROW(m.step(8, [&](Ctx& c, std::size_t) { a.put(c, 0, 5); }));
  EXPECT_EQ(a.host(0), 5);
}

TEST(Machine, CRCWCommonRejectsDisagreement) {
  Machine m(cfg(Policy::CRCW_Common));
  Array<int> a(m, 1, 0);
  EXPECT_THROW(m.step(2, [&](Ctx& c, std::size_t i) {
                 a.put(c, 0, static_cast<int>(i));
               }),
               PramViolation);
}

TEST(Machine, CRCWArbitraryKeepsHighestProcessor) {
  Machine m(cfg(Policy::CRCW_Arbitrary));
  Array<int> a(m, 1, -1);
  m.step(5, [&](Ctx& c, std::size_t i) { a.put(c, 0, static_cast<int>(i)); });
  EXPECT_EQ(a.host(0), 4);
}

TEST(Machine, CRCWPriorityKeepsLowestProcessor) {
  Machine m(cfg(Policy::CRCW_Priority));
  Array<int> a(m, 1, -1);
  m.step(5, [&](Ctx& c, std::size_t i) { a.put(c, 0, static_cast<int>(i)); });
  EXPECT_EQ(a.host(0), 0);
}

template <typename Fn>
std::string violation_message(Fn&& fn) {
  try {
    fn();
  } catch (const PramViolation& e) {
    return e.what();
  }
  return "no violation";
}

TEST(Machine, ViolationMessagesNameKindCellProcessorsAndStep) {
  // The first breach in processor order is the one reported.
  Machine erew(cfg(Policy::EREW));
  Array<int> e(erew, 4, 0);
  EXPECT_EQ(violation_message([&] {
              erew.step(4, [&](Ctx& c, std::size_t) { (void)e.get(c, 0); });
            }),
            "EREW violation: concurrent READ/READ at cell 0 by processors 1 "
            "and 0 in step 1");
  EXPECT_EQ(violation_message([&] {
              erew.step(2, [&](Ctx& c, std::size_t) { e.put(c, 1, 7); });
            }),
            "EREW violation: concurrent WRITE/WRITE at cell 1 by processors 1 "
            "and 0 in step 2");
  EXPECT_EQ(violation_message([&] {
              erew.step(2, [&](Ctx& c, std::size_t i) {
                if (i == 0) {
                  (void)e.get(c, 3);
                } else {
                  e.put(c, 3, 1);
                }
              });
            }),
            "EREW violation: WRITE of cell being READ at cell 3 by processors "
            "1 and 0 in step 3");
  EXPECT_EQ(violation_message([&] {
              erew.step(1, [&](Ctx& c, std::size_t) {
                e.put(c, 2, 1);
                (void)e.get(c, 2);
              });
            }),
            "EREW violation: READ after own WRITE in the same step (stale "
            "read) at cell 2 by processors 0 and 0 in step 4");

  Machine crew(cfg(Policy::CREW));
  Array<int> r(crew, 4, 0);
  EXPECT_EQ(violation_message([&] {
              crew.step(2, [&](Ctx& c, std::size_t i) {
                if (i == 0) {
                  r.put(c, 2, 9);
                } else {
                  (void)r.get(c, 2);
                }
              });
            }),
            "CREW violation: READ of cell being WRITTEN at cell 2 by "
            "processors 1 and 0 in step 1");

  Machine common(cfg(Policy::CRCW_Common));
  Array<int> k(common, 1, 0);
  EXPECT_EQ(violation_message([&] {
              common.step(2, [&](Ctx& c, std::size_t i) {
                k.put(c, 0, static_cast<int>(i));
              });
            }),
            "CRCW(common) violation: writers disagree at cell 0 in step 1");
}

TEST(Machine, UncheckedSkipsDetectionButKeepsSemantics) {
  Machine m(cfg(Policy::Unchecked));
  Array<int> a(m, 4, 3);
  EXPECT_NO_THROW(m.step(4, [&](Ctx& c, std::size_t i) {
    a.put(c, i, a.get(c, 0));  // concurrent read, not checked
  }));
  EXPECT_EQ(m.stats().reads, 0u);  // no counters in unchecked mode
}

TEST(Machine, PforBrentSchedule) {
  Machine m(cfg(Policy::EREW, 4));  // 4 virtual processors
  Array<int> a(m, 10, 0);
  m.pfor(10, [&](Ctx& c, std::size_t i) { a.put(c, i, 1); });
  // ceil(10/4) = 3 steps, work = 10.
  EXPECT_EQ(m.stats().steps, 3u);
  EXPECT_EQ(m.stats().work, 10u);
  EXPECT_EQ(m.pfor_steps(10), 3u);
}

TEST(Machine, BlockedStepChargesMaxAndSum) {
  Machine m(cfg(Policy::EREW, 4));
  Array<int> a(m, 4, 0);
  m.blocked_step(4, [&](Ctx& c, std::size_t b) -> std::uint64_t {
    a.put(c, b, 1);
    return b + 1;  // costs 1, 2, 3, 4
  });
  EXPECT_EQ(m.stats().steps, 4u);   // max cost
  EXPECT_EQ(m.stats().work, 10u);   // sum of costs
}

TEST(Machine, PrefixDoublingIsExactOnOneMachine) {
  Machine m(cfg(Policy::EREW, 8));
  Array<std::int64_t> a(m, 100, 1);
  // prefix doubling accumulation with double buffering
  Array<std::int64_t> b(m, 100, 0);
  for (std::size_t d = 1; d < 100; d *= 2) {
    m.pfor(100, [&](Ctx& c, std::size_t i) {
      std::int64_t v = a.get(c, i);
      b.put(c, i, v);
    });
    m.pfor(100, [&](Ctx& c, std::size_t i) {
      std::int64_t v = a.get(c, i);
      if (i >= d) v += b.get(c, i - d);
      a.put(c, i, v);
    });
  }
  EXPECT_EQ(a.host(99), 100);
}

TEST(Machine, CellAccountingTracksAllocations) {
  Machine m(cfg(Policy::EREW));
  EXPECT_EQ(m.stats().cells, 0u);
  {
    Array<int> a(m, 100, 0);
    EXPECT_EQ(m.stats().cells, 100u);
    Array<double> b(m, 50, 0.0);
    EXPECT_EQ(m.stats().cells, 150u);
  }
  EXPECT_EQ(m.stats().cells, 0u);
}

TEST(Machine, ViolationClearsAndMachineRemainsUsable) {
  Machine m(cfg(Policy::EREW));
  Array<int> a(m, 4, 0);
  EXPECT_THROW(
      m.step(4, [&](Ctx& c, std::size_t) { (void)a.get(c, 0); }),
      PramViolation);
  EXPECT_NO_THROW(
      m.step(4, [&](Ctx& c, std::size_t i) { a.put(c, i, 1); }));
}

TEST(Machine, StillRaisesPramViolationOnSeededErewBreach) {
  Machine m(cfg(Policy::EREW));
  Array<std::int64_t> a(m, 8, 0);
  // Two processors write the same cell in one step: WRITE/WRITE breach.
  EXPECT_THROW(m.step(2, [&](Ctx& c, std::size_t) { a.put(c, 3, 1); }),
               PramViolation);
  // Concurrent read of one cell is equally illegal under EREW...
  EXPECT_THROW(m.step(2, [&](Ctx& c, std::size_t) { (void)a.get(c, 5); }),
               PramViolation);
  // ...and the machine stays usable afterwards for clean steps.
  m.step(8, [&](Ctx& c, std::size_t p) { a.put(c, p, 7); });
  EXPECT_EQ(a.host(4), 7);
}

TEST(Policy, Names) {
  EXPECT_STREQ(to_string(Policy::EREW), "EREW");
  EXPECT_STREQ(to_string(Policy::CRCW_Common), "CRCW(common)");
  EXPECT_TRUE(allows_concurrent_read(Policy::CREW));
  EXPECT_FALSE(allows_concurrent_write(Policy::CREW));
  EXPECT_TRUE(allows_concurrent_write(Policy::CRCW_Priority));
}

}  // namespace
}  // namespace copath::pram
