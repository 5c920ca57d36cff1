#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/inplace_callback.hpp"
#include "common/sim_time.hpp"

namespace mspastry {

/// Handle to a scheduled event; used to cancel timers. Value 0 is invalid.
///
/// Layout: (generation << 32) | (slot + 1). The low half names a slot in
/// the simulator's timer arena; the high half is that slot's generation
/// at scheduling time. A slot's generation is bumped every time it is
/// released (fire or cancel), so a stale handle — kept around after its
/// timer fired, or after the slot was recycled for a new timer — can
/// never match, and cancel() on it is a safe no-op.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// A single-threaded discrete-event simulator: a clock plus a priority
/// queue of callbacks. Events scheduled for the same instant fire in
/// scheduling order (FIFO), which makes runs deterministic.
///
/// This is the substrate everything else runs on: the network model
/// schedules message deliveries, the overlay nodes schedule protocol
/// timers, and the churn driver schedules joins and failures. The
/// paper's runs push millions of events through it at N = 10,000 nodes,
/// so the internals are built for throughput (see DESIGN.md "Event
/// core"):
///
///  - callbacks live in a slab-allocated arena of fixed-size slots with
///    free-list reuse — schedule/cancel/fire touch no hash table and,
///    for callbacks that fit the inline buffer, no allocator;
///  - cancel() is an O(1) generation check + tombstone: the parked entry
///    is left in place and dropped (lazily) when it surfaces;
///  - a hierarchical timer wheel (4 levels x 64 buckets, 2^10 us ticks)
///    fronts the ready queue: timers further than one tick out park in a
///    bucket and only enter the comparison-ordered heap when the cursor
///    reaches their tick, so the O(N) steady-state periodic load
///    (heartbeats, Trt probes, RT maintenance) costs O(1) per timer and
///    cancelled timers (most RTO timers — acks beat them) never touch
///    the heap at all;
///  - the ready queue is a 4-ary implicit min-heap keyed by (time, seq),
///    which does ~half the levels of a binary heap on pop and keeps
///    sifts within one or two cache lines. Execution order is exactly
///    (time, seq) — the wheel never reorders, it only defers heap entry.
class Simulator {
 public:
  /// Inline capacity for callbacks stored by the simulator. Sized so the
  /// drivers' liveness-guard wrapper (shared_ptr flag + a full
  /// InplaceCallback, see ShardedDriver::ShardEnv) still fits without a
  /// heap fallback.
  static constexpr std::size_t kCallbackCapacity =
      16 + sizeof(InplaceCallback);
  using Callback = BasicInplaceCallback<kCallbackCapacity>;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now). Returns a handle
  /// that can be passed to cancel(). The templated overload constructs
  /// the callable directly in its arena slot (no relocation); the
  /// Callback overload serves callers that already hold a type-erased
  /// callback (the Env::schedule guard path).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  TimerId schedule_at(SimTime t, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot].emplace(std::forward<F>(fn));
    return arm_slot(t, slot);
  }

  TimerId schedule_at(SimTime t, Callback fn) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot] = std::move(fn);
    return arm_slot(t, slot);
  }

  /// Schedule `fn` to run `d` after the current time (d >= 0).
  template <typename F>
  TimerId schedule_after(SimDuration d, F&& fn) {
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Cancel a pending event. O(1). Cancelling an already-fired, already-
  /// cancelled, or invalid handle is a no-op, so callers need not track
  /// firing precisely.
  void cancel(TimerId id);

  /// Execute the next pending event, if any. Returns false when the queue
  /// is empty.
  bool step();

  /// Run events until the queue is empty or the next event is after `t`;
  /// the clock is left at min(t, time of last executed event). Events at
  /// exactly `t` are executed.
  void run_until(SimTime t);

  /// Run until the event queue drains completely.
  void run_to_completion();

  /// Time of the earliest live pending event, or kTimeNever when the
  /// queue is empty. Pumps the wheel (pruning tombstones) so the answer
  /// is exact; the conservative sharded scheduler uses this to compute
  /// epoch windows.
  SimTime next_event_time();

  /// Number of events executed so far (for progress reporting and tests).
  std::uint64_t executed_events() const { return executed_; }

  /// Number of events currently pending. Exact: cancelled events leave
  /// this count immediately even though their heap entries linger as
  /// tombstones until they surface.
  std::size_t pending_events() const { return live_; }

  /// Introspection for perf accounting: arena high-water mark (slots) and
  /// entries currently held across the heap, wheel, and far heap (live
  /// events + unpruned tombstones).
  std::size_t arena_slots() const { return slots_.size(); }
  std::size_t heap_entries() const {
    return heap_.size() + wheel_count_ + far_.size();
  }
  /// Entries parked in wheel buckets or the far heap (not yet promoted to
  /// the ready queue); includes tombstones of cancelled timers.
  std::size_t parked_entries() const { return wheel_count_ + far_.size(); }

 private:
  struct HeapEntry {
    SimTime t;
    std::uint64_t seq;  // FIFO tiebreaker: increases monotonically
    std::uint32_t slot;
    std::uint32_t gen;  // slot generation at scheduling time (odd)
  };

  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  // --- Timer wheel geometry ----------------------------------------------
  // A tick is 2^10 us (~1 ms, on the order of one network hop). Each of
  // the 4 levels has 64 buckets; level k buckets span 64^k ticks, so the
  // wheel covers 64^4 ticks (~4.8 simulated hours). Timers beyond that
  // horizon wait in `far_` (a plain (t, seq) min-heap of churn-trace
  // events, never cancelled in practice) and migrate into the wheel when
  // the cursor gets within range. Bucket indices are absolute tick bits
  // (Varghese-Lauck hashed hierarchical wheel), and the level is chosen
  // from the delta to the cursor, which guarantees an entry's bucket is
  // always entered by the cursor before the entry's tick passes.
  using Tick = std::int64_t;
  static constexpr int kTickShift = 10;
  static constexpr int kLevelBits = 6;
  static constexpr int kWheelLevels = 4;
  static constexpr std::uint32_t kWheelBuckets = 64;
  static constexpr Tick kWheelSpanTicks =
      Tick(1) << (kLevelBits * kWheelLevels);  // 64^4
  static constexpr Tick kTickNever = INT64_MAX;

  static Tick tick_of(SimTime t) { return t >> kTickShift; }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  /// Marks an acquired slot (callback already stored) as pending at `t`,
  /// parks its entry (heap, wheel, or far heap), and mints the
  /// generation-tagged handle.
  TimerId arm_slot(SimTime t, std::uint32_t slot);

  /// Files an entry by delta to the cursor: current tick (or past) goes
  /// straight to the ready heap, within the wheel span to a bucket, and
  /// beyond to the far heap.
  void place(const HeapEntry& e);

  /// Makes heap_[0] the globally earliest live pending event, advancing
  /// the wheel cursor and draining buckets as needed. Stops early once it
  /// can prove no pending event is at or before `bound` (the heap may
  /// then be empty or its front later than `bound`).
  void pump(SimTime bound);

  /// Moves the cursor to `target` (the minimal occupied span start as
  /// computed by pump), cascading the newly-entered bucket at each level.
  void advance_to(Tick target);

  /// Empties bucket (level, idx), re-filing live entries relative to the
  /// current cursor and dropping cancelled tombstones.
  void cascade(int level, std::uint32_t idx);

  /// Earliest tick at which level `k` can hold an entry (the span start
  /// of its next occupied bucket in cursor order), or kTickNever.
  Tick level_next_tick(int k) const;

  void far_push(const HeapEntry& e);
  void far_pop_front();

  // Slot metadata is kept in a parallel flat array of 8-byte words —
  // generation in the high half, free-list link in the low half — so the
  // hot paths (tombstone checks on every pop, O(1) cancel) touch a dense
  // array instead of the 100+-byte-stride callback arena. A slot's
  // generation is odd while armed and even while free; both arming and
  // releasing increment it, so handle/tombstone matches need no separate
  // "armed" flag: matching an (odd) recorded generation implies armed.
  std::uint32_t slot_gen(std::uint32_t slot) const {
    return static_cast<std::uint32_t>(meta_[slot] >> 32);
  }

  /// True if the heap entry still refers to an armed timer (not a
  /// cancelled tombstone, not a recycled slot).
  bool entry_live(const HeapEntry& e) const {
    return slot_gen(e.slot) == e.gen;
  }

  void heap_push(const HeapEntry& e);
  void heap_pop_front();

  // Pops and runs the event in heap_[0]; precondition: entry_live.
  void execute_front();

  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<HeapEntry> heap_;     // 4-ary implicit min-heap on (t, seq)
  std::vector<Callback> slots_;     // timer arena (cold: callbacks only)
  std::vector<std::uint64_t> meta_; // parallel: generation | free link
  std::uint32_t free_head_ = kNoFreeSlot;

  // Wheel state. Invariant: every bucket entry's tick is > cur_tick_;
  // everything at or before the cursor has been promoted to the heap.
  Tick cur_tick_ = 0;
  std::array<std::array<std::vector<HeapEntry>, kWheelBuckets>, kWheelLevels>
      wheel_;
  std::array<std::uint64_t, kWheelLevels> occupied_{};  // per-level masks
  std::size_t wheel_count_ = 0;   // entries across all buckets (+tombstones)
  std::vector<HeapEntry> far_;    // binary min-heap on (t, seq)
  std::vector<HeapEntry> scratch_;  // cascade staging, capacity reused
};

}  // namespace mspastry
