// Counter invariants the serving suites assert at quiescence, once every
// future or response they are owed has arrived:
//
//   submitted == completed   every admitted request was answered once
//   in_flight == 0           nothing admitted is still unanswered
//   queue_depth == 0         nothing sits undispatched in the queue
//
// `completed` is counted before a result's sink runs, so a test that has
// every answer in hand reads a settled ledger. One form takes the
// in-process Service::Stats, the other a daemon's Stats-verb response.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "net/protocol.hpp"
#include "service/service.hpp"

namespace copath::testing {

inline void expect_quiescent(const Service::Stats& s) {
  EXPECT_EQ(s.submitted, s.completed);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
}

inline void expect_quiescent(const Service& svc) {
  expect_quiescent(svc.stats());
}

inline void expect_quiescent(const net::protocol::Response& stats) {
  ASSERT_EQ(stats.status, net::protocol::Status::Ok) << stats.error;
  const auto counter = [&stats](std::string_view key) -> std::uint64_t {
    for (const auto& [k, v] : stats.stats) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "counter not in Stats response: " << key;
    return 0;
  };
  EXPECT_EQ(counter("submitted"), counter("completed"));
  EXPECT_EQ(counter("in_flight"), 0u);
  EXPECT_EQ(counter("queue_depth"), 0u);
}

}  // namespace copath::testing
