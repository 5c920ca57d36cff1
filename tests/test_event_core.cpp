// Randomized differential test for the event core: drive Simulator and a
// deliberately naive reference scheduler through the same operation
// stream and demand bit-identical behaviour — same firing order, same
// firing times, same pending counts, same clock.
//
// The reference scheduler is written with none of the production core's
// machinery (no slab arena, no generations, no tombstones, no d-ary
// heap): an ordered multimap keyed by (time, seq) with eager erase on
// cancel. Any disagreement means one of the two is wrong, and the
// reference is simple enough to audit by eye.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace mspastry {
namespace {

/// What a fired callback records: which logical timer fired and when.
struct FireRecord {
  std::uint64_t tag;
  SimTime t;
  bool operator==(const FireRecord&) const = default;
};

// ---------------------------------------------------------------------------
// Reference scheduler: ordered multimap, eager cancel, no reuse tricks.
// ---------------------------------------------------------------------------
class ReferenceScheduler {
 public:
  using Id = std::uint64_t;

  SimTime now() const { return now_; }

  Id schedule_at(SimTime t, std::uint64_t tag) {
    const Id id = next_id_++;
    const SimTime when = t < now_ ? now_ : t;
    auto it = queue_.emplace(std::make_pair(when, next_seq_++), tag);
    live_.emplace(id, it);
    return id;
  }

  void cancel(Id id) {
    auto it = live_.find(id);
    if (it == live_.end()) return;
    queue_.erase(it->second);
    live_.erase(it);
  }

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  SimTime peek_time() const { return queue_.begin()->first.first; }

  /// Pop and return the next event's tag, advancing the clock.
  std::uint64_t pop() {
    auto it = queue_.begin();
    now_ = it->first.first;
    const std::uint64_t tag = it->second;
    for (auto l = live_.begin(); l != live_.end(); ++l) {
      if (l->second == it) {
        live_.erase(l);
        break;
      }
    }
    queue_.erase(it);
    return tag;
  }

  void advance_clock_to(SimTime t) {
    if (now_ < t) now_ = t;
  }

 private:
  using Queue = std::multimap<std::pair<SimTime, std::uint64_t>, std::uint64_t>;

  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  Id next_id_ = 1;
  Queue queue_;
  std::unordered_map<Id, Queue::iterator> live_;
};

// ---------------------------------------------------------------------------
// Adapters so one driver can run both schedulers through the same script.
// Fired callbacks perform nested schedule/cancel operations derived
// deterministically from their tag, exercising reentrancy (scheduling
// from inside callbacks, cancelling pending and already-firing timers)
// identically on both sides.
// ---------------------------------------------------------------------------

template <typename Self>
void nested_actions(std::uint64_t tag, Self& self) {
  // Deterministic in `tag` and the clock, so both schedulers perform the
  // same nested operations as long as they agree so far.
  if (tag % 3 == 0) {
    const std::uint64_t child = tag * 2 + 1'000'000'007ull;
    self.schedule(self.now() + milliseconds(tag % 17), child);
  }
  if (tag % 11 == 4) self.cancel(tag / 2);
  if (tag % 13 == 6) self.cancel(tag);  // cancel self mid-fire: no-op
}

struct SimAdapter {
  Simulator sim;
  std::vector<FireRecord> log;
  std::unordered_map<std::uint64_t, TimerId> ids;  // tag -> handle

  void schedule(SimTime t, std::uint64_t tag) {
    ids[tag] = sim.schedule_at(t, [this, tag] {
      log.push_back({tag, sim.now()});
      nested_actions(tag, *this);
    });
  }
  void cancel(std::uint64_t tag) {
    auto it = ids.find(tag);
    if (it != ids.end()) sim.cancel(it->second);
  }
  bool step() { return sim.step(); }
  void run_until(SimTime t) { sim.run_until(t); }
  SimTime now() const { return sim.now(); }
  std::size_t pending() const { return sim.pending_events(); }
};

struct RefAdapter {
  ReferenceScheduler sched;
  std::vector<FireRecord> log;
  std::unordered_map<std::uint64_t, ReferenceScheduler::Id> ids;

  void schedule(SimTime t, std::uint64_t tag) {
    ids[tag] = sched.schedule_at(t, tag);
  }
  void cancel(std::uint64_t tag) {
    auto it = ids.find(tag);
    if (it != ids.end()) sched.cancel(it->second);
  }
  bool step() {
    if (sched.empty()) return false;
    fire_front();
    return true;
  }
  void run_until(SimTime t) {
    // Events at exactly t fire; the clock never goes past t, and nested
    // schedules land before the next candidate is chosen.
    while (!sched.empty() && sched.peek_time() <= t) fire_front();
    sched.advance_clock_to(t);
  }
  SimTime now() const { return sched.now(); }
  std::size_t pending() const { return sched.pending(); }

 private:
  void fire_front() {
    const std::uint64_t tag = sched.pop();
    log.push_back({tag, sched.now()});
    nested_actions(tag, *this);
  }
};

// ---------------------------------------------------------------------------
// The script: a pre-generated operation stream applied to both adapters.
// Times sit on a coarse millisecond grid so same-instant collisions and
// exact run_until boundary hits happen constantly.
// ---------------------------------------------------------------------------

struct Op {
  enum Kind { kSchedule, kCancel, kStep, kRunUntil } kind;
  std::uint64_t tag = 0;       // kSchedule: new tag; kCancel: victim tag
  SimDuration offset = 0;      // kSchedule / kRunUntil: delay from now
};

std::vector<Op> make_script(std::uint64_t seed, int n_ops) {
  std::mt19937_64 rng(seed);
  std::vector<Op> script;
  script.reserve(static_cast<std::size_t>(n_ops));
  std::uint64_t next_tag = 1;
  for (int i = 0; i < n_ops; ++i) {
    const std::uint64_t roll = rng() % 100;
    if (roll < 45) {
      // Delay on a 1 ms grid, frequently 0 (same-instant FIFO pressure).
      const SimDuration d = milliseconds(rng() % 25);
      script.push_back({Op::kSchedule, next_tag++, d});
    } else if (roll < 70 && next_tag > 1) {
      // Cancel a random earlier tag: may be pending, fired, cancelled,
      // or never issued (nested child tags) — all must behave the same.
      script.push_back({Op::kCancel, rng() % next_tag, 0});
    } else if (roll < 85) {
      script.push_back({Op::kStep, 0, 0});
    } else {
      // run_until on the same grid, so boundaries hit event times exactly.
      script.push_back({Op::kRunUntil, 0, milliseconds(rng() % 40)});
    }
  }
  return script;
}

template <typename Adapter>
void apply(Adapter& a, const Op& op) {
  switch (op.kind) {
    case Op::kSchedule:
      a.schedule(a.now() + op.offset, op.tag);
      break;
    case Op::kCancel:
      a.cancel(op.tag);
      break;
    case Op::kStep:
      a.step();
      break;
    case Op::kRunUntil:
      a.run_until(a.now() + op.offset);
      break;
  }
}

// Wide-delay script: delays land in every timer-wheel level and the far
// heap (the wheel spans ~4.8 simulated hours), and run_until bounds jump
// the cursor across whole levels at a time.
std::vector<Op> make_wide_script(std::uint64_t seed, int n_ops) {
  std::mt19937_64 rng(seed);
  std::vector<Op> script;
  script.reserve(static_cast<std::size_t>(n_ops));
  std::uint64_t next_tag = 1;
  auto wide_delay = [&rng]() -> SimDuration {
    switch (rng() % 6) {
      case 0: return microseconds(rng() % 2048);        // ready heap / L0
      case 1: return milliseconds(rng() % 70);          // L0-L1 boundary
      case 2: return seconds(rng() % 70);               // L1-L2
      case 3: return minutes(rng() % 75);               // L2-L3
      case 4: return hours(1 + rng() % 5);              // L3 / far edge
      default: return hours(5) + minutes(rng() % 600);  // far heap
    }
  };
  for (int i = 0; i < n_ops; ++i) {
    const std::uint64_t roll = rng() % 100;
    if (roll < 40) {
      script.push_back({Op::kSchedule, next_tag++, wide_delay()});
    } else if (roll < 65 && next_tag > 1) {
      script.push_back({Op::kCancel, rng() % next_tag, 0});
    } else if (roll < 75) {
      script.push_back({Op::kStep, 0, 0});
    } else {
      script.push_back({Op::kRunUntil, 0, wide_delay()});
    }
  }
  return script;
}

// The overlay's timer mix: a deep steady-state queue, microsecond-resolution
// short "ack" timers mixed with 30 s "heartbeat" timers, and bursts of 64
// schedules, 24 cancels of still-cancellable timers and 40 steps.
std::vector<Op> make_deep_queue_script(std::uint64_t seed, int prefill,
                                       int bursts) {
  std::mt19937_64 rng(seed);
  std::vector<Op> script;
  std::vector<std::uint64_t> live;  // candidates for cancellation
  std::uint64_t next_tag = 1;
  auto schedule_one = [&] {
    const std::uint64_t r = rng();
    const SimDuration d = (r & 7u) == 0
                              ? seconds(30) + static_cast<SimDuration>(r % 1000)
                              : 1 + static_cast<SimDuration>(r & 0xffffu);
    script.push_back({Op::kSchedule, next_tag, d});
    if (r & 1u) live.push_back(next_tag);
    ++next_tag;
  };
  for (int i = 0; i < prefill; ++i) schedule_one();
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < 64; ++i) schedule_one();
    for (int i = 0; i < 24 && !live.empty(); ++i) {
      const std::size_t k = rng() % live.size();
      script.push_back({Op::kCancel, live[k], 0});
      live[k] = live.back();
      live.pop_back();
    }
    for (int i = 0; i < 40; ++i) script.push_back({Op::kStep, 0, 0});
  }
  return script;
}

void run_script_differential(const std::vector<Op>& script) {
  SimAdapter sim;
  RefAdapter ref;
  for (std::size_t i = 0; i < script.size(); ++i) {
    apply(sim, script[i]);
    apply(ref, script[i]);
    // Lock-step agreement after every operation, not just at the end —
    // a divergence is caught at the op that caused it.
    ASSERT_EQ(sim.now(), ref.now()) << "after op " << i;
    ASSERT_EQ(sim.pending(), ref.pending()) << "after op " << i;
    ASSERT_EQ(sim.log.size(), ref.log.size()) << "after op " << i;
  }
  // Drain both and compare complete firing histories.
  while (sim.step()) {
  }
  while (ref.step()) {
  }
  ASSERT_EQ(sim.log.size(), ref.log.size());
  for (std::size_t i = 0; i < sim.log.size(); ++i) {
    ASSERT_EQ(sim.log[i].tag, ref.log[i].tag) << "fire #" << i;
    ASSERT_EQ(sim.log[i].t, ref.log[i].t) << "fire #" << i;
  }
  EXPECT_EQ(sim.now(), ref.now());
  EXPECT_EQ(sim.pending(), 0u);
}

void run_differential(std::uint64_t seed, int n_ops) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  run_script_differential(make_script(seed, n_ops));
}

TEST(EventCoreDifferential, MatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_differential(seed, 2000);
  }
}

TEST(EventCoreDifferential, LongRunHeavyChurn) {
  run_differential(0xfeedface, 20000);
  run_script_differential(make_deep_queue_script(0x5eedc0de, 4000, 400));
}

TEST(EventCoreDifferential, SameInstantFifoUnderNesting) {
  // All events at t=0: firing order must be exactly scheduling order,
  // interleaved deterministically with nested children.
  SimAdapter sim;
  RefAdapter ref;
  for (std::uint64_t tag = 1; tag <= 200; ++tag) {
    sim.schedule(kTimeZero, tag);
    ref.schedule(kTimeZero, tag);
  }
  sim.run_until(kTimeZero);
  ref.run_until(kTimeZero);
  ASSERT_EQ(sim.log.size(), ref.log.size());
  EXPECT_EQ(sim.log, ref.log);
  EXPECT_EQ(sim.pending(), ref.pending());
}

TEST(EventCoreDifferential, WheelSpansAllLevelsAndFarHeap) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_script_differential(make_wide_script(seed, 3000));
  }
}

TEST(EventCoreWheel, TimersBeyondOneTickParkOutsideTheHeap) {
  Simulator sim;
  int fired = 0;
  std::vector<TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_after(seconds(10 + i), [&fired] { ++fired; }));
  }
  // Everything is beyond the current wheel tick: parked, not in the heap.
  EXPECT_EQ(sim.parked_entries(), 1000u);
  EXPECT_EQ(sim.pending_events(), 1000u);

  // Cancelling parked timers is O(1) and their tombstones never reach the
  // ready heap: the run below executes nothing and the clock stays put.
  for (const TimerId id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_to_completion();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), kTimeZero);
  EXPECT_EQ(sim.heap_entries(), 0u);  // cascades dropped every tombstone
}

TEST(EventCoreWheel, FarFutureEventsMigrateAndFireInOrder) {
  // Beyond the wheel span (~4.8 h) timers wait in the far heap; sparse
  // far-apart events force the cursor to jump rather than walk buckets.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(days(2), [&order] { order.push_back(2); });
  sim.schedule_at(days(1), [&order] { order.push_back(0); });
  sim.schedule_at(hours(30), [&order] { order.push_back(1); });
  sim.schedule_at(days(40), [&order] { order.push_back(3); });
  EXPECT_EQ(sim.parked_entries(), 4u);
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), days(40));
}

TEST(EventCoreWheel, SameInstantFifoAcrossParkingClasses) {
  // Events at one instant scheduled from different distances — direct to
  // heap, via wheel buckets, via the far heap — must still fire in exact
  // scheduling order once the clock arrives.
  Simulator sim;
  const SimTime t = hours(6);
  std::vector<int> order;
  sim.schedule_at(t, [&] { order.push_back(0); });  // far heap (> span)
  sim.run_until(hours(3));
  sim.schedule_at(t, [&] { order.push_back(1); });  // wheel, high level
  sim.run_until(t - milliseconds(2));
  sim.schedule_at(t, [&] { order.push_back(2); });  // wheel, level 0
  sim.run_until(t - microseconds(1));
  sim.schedule_at(t, [&] { order.push_back(3); });  // at most one tick out
  sim.run_until(t);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventCoreDifferential, RunUntilBoundaryExactlyAtEventTime) {
  SimAdapter sim;
  RefAdapter ref;
  auto setup = [](auto& a) {
    a.schedule(seconds(5), 7);          // exactly at the boundary: fires
    a.schedule(seconds(5) + 1, 8);      // one tick past: stays pending
  };
  setup(sim);
  setup(ref);
  sim.run_until(seconds(5));
  ref.run_until(seconds(5));
  ASSERT_EQ(sim.log.size(), 1u);
  EXPECT_EQ(sim.log, ref.log);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(ref.pending(), 1u);
  EXPECT_EQ(sim.now(), seconds(5));
  EXPECT_EQ(ref.now(), seconds(5));
}

}  // namespace
}  // namespace mspastry
