// Unit tests for the discrete event simulation kernel.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/timer.h"

namespace fuse {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(TimePoint::FromMicros(300), [&] { order.push_back(3); });
  q.ScheduleAt(TimePoint::FromMicros(100), [&] { order.push_back(1); });
  q.ScheduleAt(TimePoint::FromMicros(200), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now().ToMicros(), 300);
}

TEST(EventQueueTest, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(TimePoint::FromMicros(50), [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, ScheduleAfter) {
  EventQueue q;
  bool fired = false;
  q.ScheduleAfter(Duration::Millis(5), [&] { fired = true; });
  q.RunUntil(TimePoint::FromMicros(4999));
  EXPECT_FALSE(fired);
  q.RunUntil(TimePoint::FromMicros(5000));
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const TimerId id = q.ScheduleAfter(Duration::Millis(1), [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double cancel
  q.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, CancelInvalidId) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(TimerId()));
  EXPECT_FALSE(q.Cancel(TimerId(999)));
}

TEST(EventQueueTest, EventsScheduledFromEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      q.ScheduleAfter(Duration::Millis(1), chain);
    }
  };
  q.ScheduleAfter(Duration::Millis(1), chain);
  q.RunAll();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.Now().ToMicros(), 5000);
}

TEST(EventQueueTest, PastEventsClampToNow) {
  EventQueue q;
  q.RunUntil(TimePoint::FromMicros(1000));
  bool fired = false;
  q.ScheduleAt(TimePoint::FromMicros(10), [&] { fired = true; });
  q.RunOne();
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.Now().ToMicros(), 1000);  // did not go backwards
}

TEST(EventQueueTest, RunAllHonorsLimit) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAfter(Duration::Micros(i), [&] { ++count; });
  }
  EXPECT_EQ(q.RunAll(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(q.PendingCount(), 7u);
}

TEST(EventQueueTest, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  q.RunUntil(TimePoint::FromMicros(123456));
  EXPECT_EQ(q.Now().ToMicros(), 123456);
}

TEST(EventQueueTest, CancelAfterFireDoesNotCorruptCounts) {
  // Regression: the old lazy-cancel core decremented live_count_ when
  // cancelling an id whose event had already executed — corrupting Empty()
  // and PendingCount() — and left a tombstone in the cancelled set forever.
  EventQueue q;
  bool fired = false;
  const TimerId early = q.ScheduleAfter(Duration::Millis(1), [&] { fired = true; });
  q.ScheduleAfter(Duration::Millis(10), [] {});
  EXPECT_EQ(q.RunAll(1), 1u);
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_FALSE(q.Cancel(early));     // already ran: must be rejected...
  EXPECT_EQ(q.PendingCount(), 1u);   // ...without touching the live count
  EXPECT_FALSE(q.Empty());
  EXPECT_FALSE(q.Cancel(early));     // idempotently
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.PendingCount(), 0u);
}

TEST(EventQueueTest, StaleIdCannotCancelRecycledEntry) {
  // After an event fires (or is cancelled) its pool entry is recycled; the
  // old TimerId must not be able to cancel the entry's next occupant.
  EventQueue q;
  const TimerId old_id = q.ScheduleAfter(Duration::Millis(1), [] {});
  q.RunAll();
  bool fired = false;
  q.ScheduleAfter(Duration::Millis(1), [&] { fired = true; });  // reuses the pool slot
  EXPECT_FALSE(q.Cancel(old_id));
  q.RunAll();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, FarFutureEventsFireInOrder) {
  // Spans every wheel level plus the overflow heap: ~1 ms (level 0), ~70 s
  // (beyond level 1), ~2 h (level 2), ~3 days (overflow).
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(TimePoint::FromMicros(int64_t{3} * 24 * 3600 * 1000000), [&] { order.push_back(4); });
  q.ScheduleAt(TimePoint::FromMicros(int64_t{2} * 3600 * 1000000), [&] { order.push_back(3); });
  q.ScheduleAt(TimePoint::FromMicros(70 * 1000000), [&] { order.push_back(2); });
  q.ScheduleAt(TimePoint::FromMicros(1000), [&] { order.push_back(1); });
  EXPECT_EQ(q.RunAll(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.Now().ToMicros(), int64_t{3} * 24 * 3600 * 1000000);
}

TEST(EventQueueTest, CancelFarFutureEmptiesQueue) {
  EventQueue q;
  const TimerId near = q.ScheduleAfter(Duration::Millis(1), [] {});
  const TimerId mid = q.ScheduleAfter(Duration::Minutes(10), [] {});
  const TimerId far = q.ScheduleAfter(Duration::Minutes(int64_t{3} * 24 * 60), [] {});
  EXPECT_EQ(q.PendingCount(), 3u);
  EXPECT_TRUE(q.Cancel(mid));
  EXPECT_TRUE(q.Cancel(far));
  EXPECT_TRUE(q.Cancel(near));
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.RunAll(), 0u);
}

TEST(EventQueueTest, CancelFromWithinCallback) {
  EventQueue q;
  bool second_fired = false;
  TimerId second;
  q.ScheduleAfter(Duration::Millis(1), [&] { EXPECT_TRUE(q.Cancel(second)); });
  second = q.ScheduleAfter(Duration::Millis(2), [&] { second_fired = true; });
  q.RunAll();
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, SameTimeOrderSurvivesLevelPromotion) {
  // Two events at the same far-future instant, scheduled in a known order,
  // must still fire in that order after cascading down through the wheel
  // levels to level 0.
  EventQueue q;
  std::vector<int> order;
  const TimePoint t = TimePoint::FromMicros(90 * 1000000);
  q.ScheduleAt(t, [&] { order.push_back(1); });
  q.ScheduleAt(t, [&] { order.push_back(2); });
  q.ScheduleAt(t, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, StallLimitDrainsASameInstantLivelock) {
  // A callback that re-arms itself with zero delay never lets the clock
  // advance. Past the stall limit the queue stops running events, records
  // the instant, and RunUntil returns instead of spinning forever.
  EventQueue q;
  q.SetStallLimit(1000);
  EXPECT_EQ(q.stalled_at(), TimePoint::Max());
  int runs = 0;
  bool later_ran = false;
  std::function<void()> spin = [&] {
    ++runs;
    q.ScheduleAfter(Duration::Zero(), [&] { spin(); });
  };
  q.ScheduleAfter(Duration::Millis(5), [&] { spin(); });
  q.ScheduleAfter(Duration::Millis(9), [&] { later_ran = true; });
  q.RunUntil(TimePoint::FromMicros(20000));
  EXPECT_EQ(q.stalled_at(), TimePoint::FromMicros(5000));
  EXPECT_GE(runs, 1000);
  EXPECT_LE(runs, 2000);
  EXPECT_FALSE(later_ran) << "a stalled queue must not run later events";
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Now(), TimePoint::FromMicros(20000));
}

TEST(TimerTest, FiresOnceAndAutoCancelsOnDestruction) {
  Simulation sim(1);
  int fires = 0;
  {
    Timer t(sim);
    t.Start(Duration::Millis(5), [&] { ++fires; });
    EXPECT_TRUE(t.pending());
    sim.RunFor(Duration::Millis(10));
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(t.pending());
    t.Restart(Duration::Millis(5));  // rearm with the stored callback
    EXPECT_TRUE(t.pending());
  }  // destroyed while armed: must not fire
  sim.RunFor(Duration::Seconds(1));
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, RestartPushesDeadlineOut) {
  Simulation sim(1);
  int fires = 0;
  Timer t(sim);
  t.Start(Duration::Millis(10), [&] { ++fires; });
  sim.RunFor(Duration::Millis(8));
  t.Restart(Duration::Millis(10));  // the old deadline must not fire
  sim.RunFor(Duration::Millis(8));
  EXPECT_EQ(fires, 0);
  sim.RunFor(Duration::Millis(5));
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, CancelPreventsFire) {
  Simulation sim(1);
  int fires = 0;
  Timer t(sim);
  t.Start(Duration::Millis(1), [&] { ++fires; });
  EXPECT_TRUE(t.Cancel());
  EXPECT_FALSE(t.Cancel());  // already disarmed
  sim.RunFor(Duration::Millis(10));
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, MoveKeepsArmedTimerWorking) {
  Simulation sim(1);
  int fires = 0;
  std::vector<Timer> timers;
  timers.emplace_back(sim);
  timers.back().Start(Duration::Millis(5), [&] { ++fires; });
  // Force relocation of the armed handle (as containers do).
  for (int i = 0; i < 16; ++i) {
    timers.emplace_back(sim);
  }
  sim.RunFor(Duration::Millis(10));
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, SelfRearmViaStart) {
  Simulation sim(1);
  int fires = 0;
  Timer t(sim);
  std::function<void()> tick = [&] {
    if (++fires < 3) {
      t.Start(Duration::Millis(1), tick);
    }
  };
  t.Start(Duration::Millis(1), tick);
  sim.RunFor(Duration::Seconds(1));
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTimerTest, FiresEveryPeriodFromPhase) {
  Simulation sim(1);
  std::vector<int64_t> fire_times;
  PeriodicTimer t(sim);
  t.Start(Duration::Millis(3), Duration::Millis(10),
          [&] { fire_times.push_back(sim.Now().ToMicros()); });
  EXPECT_TRUE(t.running());
  sim.RunFor(Duration::Millis(35));
  EXPECT_EQ(fire_times, (std::vector<int64_t>{3000, 13000, 23000, 33000}));
  t.Stop();
  EXPECT_FALSE(t.running());
  sim.RunFor(Duration::Millis(50));
  EXPECT_EQ(fire_times.size(), 4u);
}

TEST(PeriodicTimerTest, StopInsideCallbackEndsCycle) {
  Simulation sim(1);
  int fires = 0;
  PeriodicTimer t(sim);
  t.Start(Duration::Millis(1), [&] {
    if (++fires == 2) {
      t.Stop();
    }
  });
  sim.RunFor(Duration::Seconds(1));
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimerTest, DestructionStopsCycle) {
  Simulation sim(1);
  int fires = 0;
  {
    PeriodicTimer t(sim);
    t.Start(Duration::Millis(1), [&] { ++fires; });
    sim.RunFor(Duration::MillisF(2.5));
    EXPECT_EQ(fires, 2);
  }
  sim.RunFor(Duration::Seconds(1));
  EXPECT_EQ(fires, 2);
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulation sim(seed);
    std::vector<uint64_t> draws;
    for (int i = 0; i < 5; ++i) {
      sim.Schedule(Duration::Millis(i), [&] { draws.push_back(sim.rng().NextU64()); });
    }
    sim.RunAll();
    return draws;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(SimulationTest, RunUntilCondition) {
  Simulation sim(1);
  int x = 0;
  sim.Schedule(Duration::Seconds(1), [&] { x = 1; });
  sim.Schedule(Duration::Seconds(2), [&] { x = 2; });
  EXPECT_TRUE(sim.RunUntilCondition([&] { return x == 1; }, TimePoint::Max()));
  EXPECT_EQ(x, 1);
  // Condition never satisfied: stops at deadline.
  EXPECT_FALSE(
      sim.RunUntilCondition([&] { return x == 99; }, sim.Now() + Duration::Seconds(10)));
  EXPECT_EQ(x, 2);
}

TEST(SimulationTest, MetricsAccessible) {
  Simulation sim(1);
  sim.metrics().IncMessage(MsgCategory::kApp, 10);
  EXPECT_EQ(sim.metrics().TotalMessages(), 1u);
}

}  // namespace
}  // namespace fuse
