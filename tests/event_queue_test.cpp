// The DHT overlay's event queue: ordering, deadlines, clamping and the
// lazy periodic cursors.
#include "dht/event_queue.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

namespace btpub::dht {
namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

Endpoint ep(std::uint32_t host) { return Endpoint{IpAddress(host), 6881}; }

OverlayEvent join_event(std::uint32_t host) {
  OverlayEvent event;
  event.kind = OverlayEvent::Kind::NodeJoin;
  event.endpoint = ep(host);
  return event;
}

OverlayEvent announce_event(std::uint32_t host, SimDuration every,
                            SimTime until) {
  OverlayEvent event;
  event.kind = OverlayEvent::Kind::Announce;
  event.endpoint = ep(host);
  event.every = every;
  event.until = until;
  return event;
}

/// Runs `q` to the deadline, recording (host, time) of every dispatch.
std::vector<std::pair<std::uint32_t, SimTime>> run(EventQueue& q,
                                                   SimTime deadline) {
  std::vector<std::pair<std::uint32_t, SimTime>> fired;
  q.run_until(deadline, [&](const OverlayEvent& event, SimTime at) {
    fired.emplace_back(event.endpoint.ip.value(), at);
  });
  return fired;
}

TEST(EventQueue, DispatchesInTimeOrder) {
  EventQueue q;
  q.schedule(30, join_event(3));
  q.schedule(10, join_event(1));
  OverlayEvent leave;
  leave.kind = OverlayEvent::Kind::NodeLeave;
  leave.endpoint = ep(2);
  q.schedule(20, leave);
  std::vector<std::pair<OverlayEvent::Kind, SimTime>> seen;
  q.run_until(kForever, [&](const OverlayEvent& event, SimTime at) {
    seen.emplace_back(event.kind, at);
    EXPECT_EQ(q.now(), at);
  });
  EXPECT_EQ(seen, (std::vector<std::pair<OverlayEvent::Kind, SimTime>>{
                      {OverlayEvent::Kind::NodeJoin, 10},
                      {OverlayEvent::Kind::NodeLeave, 20},
                      {OverlayEvent::Kind::NodeJoin, 30}}));
  EXPECT_EQ(q.dispatched(), 3u);
}

TEST(EventQueue, FifoWithinSameTimestamp) {
  EventQueue q;
  for (std::uint32_t host = 0; host < 10; ++host) q.schedule(5, join_event(host));
  const auto fired = run(q, kForever);
  ASSERT_EQ(fired.size(), 10u);
  for (std::uint32_t host = 0; host < 10; ++host) {
    EXPECT_EQ(fired[host], std::make_pair(host, SimTime{5}));
  }
}

TEST(EventQueue, PastSchedulingClampsToNow) {
  // Scheduled from inside a dispatch at t=100, an event for t=10 runs at
  // t=100, after the dispatch that scheduled it and before anything later.
  EventQueue q;
  q.schedule(100, join_event(1));
  q.schedule(200, join_event(3));
  std::vector<std::pair<std::uint32_t, SimTime>> fired;
  q.run_until(kForever, [&](const OverlayEvent& event, SimTime at) {
    const std::uint32_t host = event.endpoint.ip.value();
    fired.emplace_back(host, at);
    if (host == 1) q.schedule(10, join_event(2));  // in the past
  });
  EXPECT_EQ(fired, (std::vector<std::pair<std::uint32_t, SimTime>>{
                       {1, 100}, {2, 100}, {3, 200}}));
}

TEST(EventQueue, DispatchMayScheduleFutureEvents) {
  // A chain that schedules its own successor runs to its end in one call.
  EventQueue q;
  int ticks = 0;
  q.schedule(0, join_event(1));
  q.run_until(kForever, [&](const OverlayEvent& event, SimTime at) {
    if (++ticks < 5) q.schedule(at + 10, event);
  });
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(q.now(), kForever);  // the clock ends at the deadline
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  for (SimTime t : {10, 20, 30, 40}) {
    q.schedule(t, join_event(static_cast<std::uint32_t>(t)));
  }
  EXPECT_EQ(run(q, 25).size(), 2u);
  EXPECT_EQ(q.now(), 25);
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(run(q, 100).size(), 2u);
  EXPECT_EQ(q.now(), 100);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunUntilInclusiveOfDeadline) {
  EventQueue q;
  q.schedule(25, join_event(1));
  EXPECT_EQ(run(q, 24).size(), 0u);
  EXPECT_EQ(run(q, 25), (std::vector<std::pair<std::uint32_t, SimTime>>{
                            {1, 25}}));
}

TEST(EventQueue, PeriodicCursorReArmsLazily) {
  EventQueue q;
  // until is exclusive: 40 fires, 50 is never scheduled.
  q.schedule(10, announce_event(9, 10, 45));
  EXPECT_EQ(q.pending(), 1u);
  std::vector<SimTime> fired;
  q.run_until(kForever, [&](const OverlayEvent& event, SimTime at) {
    EXPECT_EQ(event.kind, OverlayEvent::Kind::Announce);
    fired.push_back(at);
    // Lazy: while the cursor is live, exactly one pending record exists —
    // the current dispatch re-armed at most the *next* occurrence.
    EXPECT_LE(q.pending(), 1u);
  });
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40}));
  // One initial schedule + three re-arms, each counted.
  EXPECT_EQ(q.scheduled(), 4u);
}

TEST(EventQueue, ReArmBoundaryIsExclusive) {
  EventQueue q;
  // The next occurrence at exactly `until` must not fire.
  q.schedule(10, announce_event(3, 10, 30));
  EXPECT_EQ(run(q, kForever), (std::vector<std::pair<std::uint32_t, SimTime>>{
                                  {3, 10}, {3, 20}}));
}

TEST(EventQueue, OneShotDoesNotReArm) {
  EventQueue q;
  OverlayEvent once = join_event(4);  // every == 0
  once.until = 1000;
  q.schedule(10, once);
  EXPECT_EQ(run(q, kForever).size(), 1u);
  EXPECT_EQ(q.scheduled(), 1u);
}

TEST(EventQueue, RunUntilLeavesTheReArmedCursorPending) {
  EventQueue q;
  q.schedule(10, join_event(1));
  q.schedule(30, announce_event(2, 25, 1000));
  EXPECT_EQ(run(q, 35), (std::vector<std::pair<std::uint32_t, SimTime>>{
                            {1, 10}, {2, 30}}));
  EXPECT_EQ(q.now(), 35);
  EXPECT_EQ(q.pending(), 1u);  // the re-armed cursor at 55
  EXPECT_EQ(run(q, 55), (std::vector<std::pair<std::uint32_t, SimTime>>{
                            {2, 55}}));
}

TEST(EventQueue, Counters) {
  EventQueue q;
  q.schedule(1, join_event(1));
  q.schedule(2, join_event(2));
  q.schedule(3, OverlayEvent{});
  EXPECT_EQ(q.scheduled(), 3u);
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.dispatched(), 0u);
  run(q, kForever);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.dispatched(), 3u);
}

}  // namespace
}  // namespace btpub::dht
