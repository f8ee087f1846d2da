// Unit tests for the discrete-event core: ordering, cancellation, clock,
// handle lifetime edges, and heap-vs-calendar backend equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qip {
namespace {

std::string backend_name(
    const ::testing::TestParamInfo<SchedulerKind>& info) {
  return info.param == SchedulerKind::kHeap ? "heap" : "calendar";
}

/// Every EventQueue test runs on both scheduler backends: the backend is
/// mechanism, and all observable behavior must be identical.
class EventQueueTest : public ::testing::TestWithParam<SchedulerKind> {
 protected:
  EventQueueTest() : q(GetParam()) {}
  EventQueue q;
};

INSTANTIATE_TEST_SUITE_P(Backends, EventQueueTest,
                         ::testing::Values(SchedulerKind::kHeap,
                                           SchedulerKind::kCalendar),
                         backend_name);

TEST_P(EventQueueTest, OrdersByTime) {
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(EventQueueTest, TiesAreFifo) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(EventQueueTest, CancelDropsEvent) {
  int fired = 0;
  auto h = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST_P(EventQueueTest, EmptyIsExactUnderCancellation) {
  auto a = q.schedule(1.0, [] {});
  auto b = q.schedule(2.0, [] {});
  a.cancel();
  b.cancel();
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, FiredHandleNotPending) {
  auto h = q.schedule(1.0, [] {});
  q.pop().fn();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(q.live_size(), 0u);
  h.cancel();  // harmless
  EXPECT_EQ(q.live_size(), 0u);
}

TEST_P(EventQueueTest, DefaultHandleInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

TEST_P(EventQueueTest, LiveSizeExcludesTombstones) {
  auto a = q.schedule(1.0, [] {});
  auto b = q.schedule(2.0, [] {});
  q.schedule(3.0, [] {});
  EXPECT_EQ(q.live_size(), 3u);
  a.cancel();
  // The tombstone still occupies a backend slot; live_size sees through it.
  EXPECT_EQ(q.live_size(), 2u);
  EXPECT_EQ(q.size(), 3u);
  b.cancel();
  EXPECT_EQ(q.live_size(), 1u);
  q.pop().fn();  // pops the sole live event (skipping tombstones)
  EXPECT_EQ(q.live_size(), 0u);
}

TEST_P(EventQueueTest, LiveSizeTracksPopsExactly) {
  for (int i = 0; i < 5; ++i) q.schedule(1.0 + i, [] {});
  for (std::size_t expect = 5; expect > 0; --expect) {
    EXPECT_EQ(q.live_size(), expect);
    q.pop().fn();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.live_size(), 0u);
}

TEST_P(EventQueueTest, NextTimeSkipsCancelled) {
  auto a = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  a.cancel();
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

// ---------------------------------------------------------------------------
// Closure-retention regression (the PR's bugfix): a cancelled event must
// release everything its closure captured *immediately*, not when the
// tombstone eventually surfaces — retransmit-heavy runs cancel thousands of
// buried timers that would otherwise pin dead state for the whole run.

TEST_P(EventQueueTest, CancelReleasesClosureEagerly) {
  auto sentinel = std::make_shared<int>(42);
  std::weak_ptr<int> alive = sentinel;
  q.schedule(0.5, [] {});  // stays in front; the cancelled ones never surface
  std::vector<EventHandle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(q.schedule(1.0 + i, [sentinel] {}));
  }
  sentinel.reset();
  EXPECT_FALSE(alive.expired());
  for (auto& h : handles) h.cancel();
  // All 64 tombstones are still buried (nothing was popped), yet every
  // captured copy of the sentinel is gone.
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(q.size(), 65u);
  EXPECT_EQ(q.live_size(), 1u);
}

TEST_P(EventQueueTest, ClearReleasesClosures) {
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> alive = sentinel;
  for (int i = 0; i < 16; ++i) q.schedule(1.0 + i, [sentinel] {});
  sentinel.reset();
  EXPECT_FALSE(alive.expired());
  q.clear();
  EXPECT_TRUE(alive.expired());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.live_size(), 0u);
}

TEST_P(EventQueueTest, QueueDestructionReleasesClosures) {
  auto sentinel = std::make_shared<int>(9);
  std::weak_ptr<int> alive = sentinel;
  {
    EventQueue local(GetParam());
    local.schedule(1.0, [sentinel] {});
    sentinel.reset();
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

// ---------------------------------------------------------------------------
// Handle lifetime edges: stale handles must be inert in every order of
// queue mutation, and live_size must stay exact throughout.

TEST_P(EventQueueTest, CancelAfterClearIsInert) {
  auto h = q.schedule(1.0, [] {});
  q.clear();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not double-decrement the reset live count
  EXPECT_EQ(q.live_size(), 0u);
  // The cleared slot is recycled; the stale handle must not alias the new
  // occupant.
  auto fresh = q.schedule(2.0, [] {});
  EXPECT_EQ(q.live_size(), 1u);
  h.cancel();
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_TRUE(fresh.pending());
}

TEST_P(EventQueueTest, CancelAfterFireIsInert) {
  auto h = q.schedule(1.0, [] {});
  auto fired = q.pop();
  fired.fn();
  EXPECT_FALSE(h.pending());
  // The fired slot is recycled; the stale handle must not cancel the new
  // occupant.
  auto fresh = q.schedule(2.0, [] {});
  EXPECT_EQ(q.live_size(), 1u);
  h.cancel();
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_TRUE(fresh.pending());
}

TEST_P(EventQueueTest, HandleOutlivesQueue) {
  EventHandle h;
  {
    EventQueue local(GetParam());
    h = local.schedule(1.0, [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op, no dangling access
}

TEST_P(EventQueueTest, DoubleCancelDecrementsOnce) {
  q.schedule(5.0, [] {});
  auto h = q.schedule(1.0, [] {});
  h.cancel();
  EXPECT_EQ(q.live_size(), 1u);
  h.cancel();
  EXPECT_EQ(q.live_size(), 1u);
}

TEST_P(EventQueueTest, SchedulingNonFiniteTimeThrows) {
  EXPECT_THROW(
      q.schedule(std::numeric_limits<double>::infinity(), [] {}),
      InvariantViolation);
}

TEST_P(EventQueueTest, SchedulingBeforeLastPopThrows) {
  // The queue checks its own order on every run: once an event at t=2 has
  // popped, nothing may be scheduled earlier; t=2 itself still pops after.
  q.schedule(2.0, [] {});
  q.pop();
  EXPECT_THROW(q.schedule(1.5, [] {}), InvariantViolation);
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
}

TEST_P(EventQueueTest, EventBelowASkimmedTombstoneStillPops) {
  // next_time() skims a cancelled event lying past the caller's horizon
  // (Simulator::run does this); an event scheduled afterwards may sort
  // below that tombstone and must pop without tripping the order check.
  q.schedule(1.0, [] {});
  q.pop();
  auto h = q.schedule(5.0, [] {});
  q.schedule(6.0, [] {});
  h.cancel();
  EXPECT_DOUBLE_EQ(q.next_time(), 6.0);
  q.schedule(3.0, [] {});
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 6.0);
}

// ---------------------------------------------------------------------------
// Backend equivalence: both schedulers must pop the exact (time, seq) order
// under a randomized schedule/cancel/pop workload that crosses the calendar
// queue's grow and shrink thresholds (bursts of equal timestamps included).

class SchedulerDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SchedulerDifferential, HeapAndCalendarAgree) {
  Rng rng(GetParam());
  EventQueue heap(SchedulerKind::kHeap);
  EventQueue calendar(SchedulerKind::kCalendar);
  std::vector<std::pair<SimTime, int>> heap_order, calendar_order;
  std::vector<std::pair<EventHandle, EventHandle>> handles;
  int next_id = 0;
  double clock = 0.0;

  const auto schedule_both = [&](SimTime t) {
    const int id = next_id++;
    handles.emplace_back(
        heap.schedule(t, [&heap_order, t, id] {
          heap_order.emplace_back(t, id);
        }),
        calendar.schedule(t, [&calendar_order, t, id] {
          calendar_order.emplace_back(t, id);
        }));
  };

  for (int step = 0; step < 12000; ++step) {
    const double r = rng.uniform(0.0, 1.0);
    if (r < 0.55 || heap.empty()) {
      // Mixed time scales, quantized so exact ties are common.
      const double span = r < 0.1 ? 10000.0 : 10.0;
      const SimTime t =
          clock + std::floor(rng.uniform(0.0, span) * 8.0) / 8.0;
      schedule_both(t);
    } else if (r < 0.7 && !handles.empty()) {
      auto& [hh, ch] = handles[static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(handles.size()) - 0.001))];
      ASSERT_EQ(hh.pending(), ch.pending());
      hh.cancel();
      ch.cancel();
    } else {
      ASSERT_EQ(heap.live_size(), calendar.live_size());
      ASSERT_DOUBLE_EQ(heap.next_time(), calendar.next_time());
      auto hf = heap.pop();
      auto cf = calendar.pop();
      ASSERT_DOUBLE_EQ(hf.time, cf.time);
      hf.fn();
      cf.fn();
      clock = hf.time;  // keep new events quasi-monotone, as a simulator does
      ASSERT_EQ(heap_order.back(), calendar_order.back());
    }
  }
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    heap.pop().fn();
    calendar.pop().fn();
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(heap_order, calendar_order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferential,
                         ::testing::Values(101, 202, 303, 404));

TEST(Simulator, ClockAdvancesMonotonically) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.after(2.0, [&] { seen.push_back(sim.now()); });
  sim.after(1.0, [&] {
    seen.push_back(sim.now());
    sim.after(0.5, [&] { seen.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen[0], 1.0);
  EXPECT_DOUBLE_EQ(seen[1], 1.5);
  EXPECT_DOUBLE_EQ(seen[2], 2.0);
}

TEST(Simulator, RunHorizonIncludesBoundary) {
  Simulator sim;
  int fired = 0;
  sim.after(1.0, [&] { ++fired; });
  sim.after(2.0, [&] { ++fired; });
  sim.after(3.0, [&] { ++fired; });
  sim.run(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, HorizonAdvancesIdleClock) {
  Simulator sim;
  sim.run(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.after(-1.0, [] {}), InvariantViolation);
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.after(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(1.0, [] {}), InvariantViolation);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.after(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.after(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.idle());
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.after(0.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ResetEventsDropsPending) {
  Simulator sim;
  int fired = 0;
  sim.after(1.0, [&] { ++fired; });
  sim.reset_events();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.after(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, SelfReschedulingTimer) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) sim.after(1.0, tick);
  };
  sim.after(1.0, tick);
  sim.run();
  EXPECT_EQ(ticks, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

/// Property: simulator ordering matches a reference sort for random loads.
class SimOrderingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimOrderingProperty, MatchesReferenceOrder) {
  Rng rng(GetParam());
  Simulator sim;
  std::vector<std::pair<double, int>> expect;
  std::vector<int> got;
  for (int i = 0; i < 300; ++i) {
    const double t = rng.uniform(0.0, 50.0);
    expect.emplace_back(t, i);
    sim.after(t, [&got, i] { got.push_back(i); });
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  sim.run();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimOrderingProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace qip
