#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mspastry {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(seconds(2), [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(seconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesDuringCallbacks) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(seconds(7), [&] { seen = sim.now(); });
  sim.run_to_completion();
  EXPECT_EQ(seen, seconds(7));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(seconds(2), [&] {
    sim.schedule_after(seconds(3), [&] { seen = sim.now(); });
  });
  sim.run_to_completion();
  EXPECT_EQ(seen, seconds(5));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const TimerId id = sim.schedule_at(seconds(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run_to_completion();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int runs = 0;
  const TimerId id = sim.schedule_at(seconds(1), [&] { ++runs; });
  sim.run_to_completion();
  sim.cancel(id);  // must not crash or affect anything
  sim.cancel(kInvalidTimer);
  EXPECT_EQ(runs, 1);
}

TEST(Simulator, CancelFromWithinCallback) {
  Simulator sim;
  bool second_ran = false;
  TimerId second = kInvalidTimer;
  second = sim.schedule_at(seconds(2), [&] { second_ran = true; });
  sim.schedule_at(seconds(1), [&] { sim.cancel(second); });
  sim.run_to_completion();
  EXPECT_FALSE(second_ran);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int runs = 0;
  sim.schedule_at(seconds(1), [&] { ++runs; });
  sim.schedule_at(seconds(10), [&] { ++runs; });
  sim.run_until(seconds(5));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.now(), seconds(5));
  sim.run_until(seconds(20));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(sim.now(), seconds(20));
}

TEST(Simulator, RunUntilIncludesBoundary) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(seconds(5), [&] { ran = true; });
  sim.run_until(seconds(5));
  EXPECT_TRUE(ran);
}

TEST(Simulator, CallbacksCanScheduleMore) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(seconds(1), chain);
  };
  sim.schedule_at(0, chain);
  sim.run_to_completion();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.executed_events(), 100u);
  EXPECT_EQ(sim.now(), seconds(99));
}

TEST(Simulator, PendingEventsCount) {
  Simulator sim;
  const TimerId a = sim.schedule_at(seconds(1), [] {});
  sim.schedule_at(seconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_to_completion();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, PendingEventsExactUnderTombstones) {
  // Cancelled events leave tombstones in the heap until they surface, but
  // pending_events() must drop immediately and stay exact throughout.
  Simulator sim;
  std::vector<TimerId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_at(seconds(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  for (int i = 0; i < 100; i += 2) sim.cancel(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(sim.pending_events(), 50u);
  // Tombstones still sit in the heap; the count must not include them.
  EXPECT_GT(sim.heap_entries(), sim.pending_events());
  std::size_t fired = 0;
  while (sim.step()) {
    ++fired;
    EXPECT_EQ(sim.pending_events(), 50u - fired);
  }
  EXPECT_EQ(fired, 50u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, DoubleCancelIsNoop) {
  Simulator sim;
  bool a_ran = false, b_ran = false;
  const TimerId a = sim.schedule_at(seconds(1), [&] { a_ran = true; });
  sim.schedule_at(seconds(2), [&] { b_ran = true; });
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.cancel(a);  // second cancel must not decrement the count again...
  sim.cancel(a);  // ...nor a third
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_to_completion();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
}

TEST(Simulator, StaleHandleCannotCancelRecycledSlot) {
  // After A fires or is cancelled, its arena slot is recycled for new
  // timers. A's stale handle must never cancel the new occupant: the
  // generation tag in the handle no longer matches the slot's.
  Simulator sim;
  const TimerId a = sim.schedule_at(seconds(1), [] {});
  sim.cancel(a);  // slot freed, generation bumped
  bool b_ran = false;
  const TimerId b = sim.schedule_at(seconds(2), [&] { b_ran = true; });
  EXPECT_NE(a, b);
  sim.cancel(a);  // stale: same slot, older generation — must be a no-op
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_to_completion();
  EXPECT_TRUE(b_ran);

  // Same story when the slot is recycled via firing rather than cancel.
  const TimerId c = sim.schedule_at(seconds(3), [] {});
  sim.run_to_completion();  // c fires; its slot is free again
  bool d_ran = false;
  sim.schedule_at(seconds(4), [&] { d_ran = true; });
  sim.cancel(c);  // stale handle from a fired timer
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_to_completion();
  EXPECT_TRUE(d_ran);
}

TEST(Simulator, SlotReuseKeepsHandlesDistinct) {
  // Hammer a single slot through many schedule/cancel cycles: every
  // handle must be unique (generations never repeat for live handles).
  Simulator sim;
  TimerId prev = kInvalidTimer;
  for (int i = 0; i < 1000; ++i) {
    const TimerId id = sim.schedule_at(seconds(1), [] {});
    EXPECT_NE(id, prev);
    EXPECT_NE(id, kInvalidTimer);
    prev = id;
    sim.cancel(id);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  // All that churn reused one arena slot.
  EXPECT_EQ(sim.arena_slots(), 1u);
}

TEST(Simulator, CancelDuringCallbackOfSameInstant) {
  // An event may cancel a later event scheduled for the same instant;
  // the tombstone is already in the heap front region at that point.
  Simulator sim;
  bool second_ran = false;
  TimerId second = kInvalidTimer;
  sim.schedule_at(seconds(1), [&] { sim.cancel(second); });
  second = sim.schedule_at(seconds(1), [&] { second_ran = true; });
  sim.run_to_completion();
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const SimTime t = (i * 7919) % 100000;  // pseudo-shuffled times
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run_to_completion();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

TEST(SimTime, ConversionHelpers) {
  EXPECT_EQ(seconds(1.5), 1500000);
  EXPECT_EQ(milliseconds(2), 2000);
  EXPECT_EQ(minutes(1), seconds(60));
  EXPECT_EQ(hours(1), minutes(60));
  EXPECT_EQ(days(1), hours(24));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_EQ(from_seconds(3.0), seconds(3));
}

}  // namespace
}  // namespace mspastry
