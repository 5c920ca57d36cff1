#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mspastry {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = static_cast<std::uint32_t>(meta_[s]);
    return s;
  }
  assert(slots_.size() < kNoFreeSlot && "timer arena exhausted");
  slots_.emplace_back();
  meta_.push_back(static_cast<std::uint64_t>(kNoFreeSlot));
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  slots_[slot].reset();
  // Bump the generation odd -> even (stale TimerIds and heap tombstones
  // can never match again) and link the slot into the free list.
  const std::uint64_t gen = (meta_[slot] >> 32) + 1;
  meta_[slot] = (gen << 32) | free_head_;
  free_head_ = slot;
}

TimerId Simulator::arm_slot(SimTime t, std::uint32_t slot) {
  assert(t >= now_ && "cannot schedule in the past");
  // Bump the generation even -> odd (armed).
  const std::uint32_t gen = slot_gen(slot) + 1;
  meta_[slot] = static_cast<std::uint64_t>(gen) << 32;
  place(HeapEntry{t < now_ ? now_ : t, next_seq_++, slot, gen});
  ++live_;
  return (static_cast<TimerId>(gen) << 32) | (slot + 1);
}

void Simulator::place(const HeapEntry& e) {
  const Tick delta = tick_of(e.t) - cur_tick_;
  if (delta <= 0) {
    heap_push(e);
    return;
  }
  if (delta >= kWheelSpanTicks) {
    far_push(e);
    return;
  }
  int level = 0;
  if (delta >= (Tick(1) << (3 * kLevelBits))) {
    level = 3;
  } else if (delta >= (Tick(1) << (2 * kLevelBits))) {
    level = 2;
  } else if (delta >= (Tick(1) << kLevelBits)) {
    level = 1;
  }
  const auto idx = static_cast<std::uint32_t>(
      (tick_of(e.t) >> (kLevelBits * level)) & (kWheelBuckets - 1));
  wheel_[static_cast<std::size_t>(level)][idx].push_back(e);
  occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << idx;
  ++wheel_count_;
}

void Simulator::far_push(const HeapEntry& e) {
  far_.push_back(e);
  std::push_heap(far_.begin(), far_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return earlier(b, a);  // min-heap on (t, seq)
                 });
}

void Simulator::far_pop_front() {
  std::pop_heap(far_.begin(), far_.end(),
                [](const HeapEntry& a, const HeapEntry& b) {
                  return earlier(b, a);
                });
  far_.pop_back();
}

Simulator::Tick Simulator::level_next_tick(int k) const {
  const std::uint64_t m = occupied_[static_cast<std::size_t>(k)];
  if (m == 0) return kTickNever;
  const int shift = kLevelBits * k;
  const auto ck =
      static_cast<std::uint32_t>(cur_tick_ >> shift) & (kWheelBuckets - 1);
  // Occupied buckets sit strictly within one cycle ahead of the cursor
  // (placement bounds the delta), so walking indices in rotating order
  // starting after the cursor's own index visits them in time order; the
  // cursor's index itself means "one full cycle ahead".
  const std::uint32_t start = (ck + 1) & (kWheelBuckets - 1);
  const std::uint64_t rot = std::rotr(m, static_cast<int>(start));
  const auto j = static_cast<std::uint32_t>(std::countr_zero(rot));
  const std::uint32_t b = (start + j) & (kWheelBuckets - 1);
  const Tick cycle = (cur_tick_ >> (shift + kLevelBits))
                     << (shift + kLevelBits);
  Tick s = cycle + (static_cast<Tick>(b) << shift);
  if (b <= ck) s += Tick(1) << (shift + kLevelBits);  // wrapped to next cycle
  return s;
}

void Simulator::cascade(int level, std::uint32_t idx) {
  auto& bucket = wheel_[static_cast<std::size_t>(level)][idx];
  occupied_[static_cast<std::size_t>(level)] &=
      ~(std::uint64_t{1} << idx);
  wheel_count_ -= bucket.size();
  scratch_.clear();
  scratch_.swap(bucket);  // bucket keeps scratch's old capacity for reuse
  for (const HeapEntry& e : scratch_) {
    if (!entry_live(e)) continue;  // cancelled in place: never touches heap
    place(e);
  }
}

void Simulator::advance_to(Tick target) {
  const Tick prev = cur_tick_;
  cur_tick_ = target;
  // Newly-entered buckets, top level first: a level-k bucket is entered
  // when the cursor's level-k index (including cycle bits) changes. By
  // minimality of `target` every bucket whose span was skipped outright
  // is empty, so only the buckets containing `target` need attention.
  for (int k = kWheelLevels - 1; k >= 0; --k) {
    const int shift = kLevelBits * k;
    if ((target >> shift) == (prev >> shift)) continue;
    const auto idx =
        static_cast<std::uint32_t>(target >> shift) & (kWheelBuckets - 1);
    if ((occupied_[static_cast<std::size_t>(k)] >> idx & 1u) == 0) continue;
    cascade(k, idx);
  }
}

void Simulator::pump(SimTime bound) {
  for (;;) {
    while (!heap_.empty() && !entry_live(heap_[0])) heap_pop_front();
    // Fast path: the heap front is within the current wheel tick, so no
    // parked entry can precede it (wheel entries are strictly ahead of
    // the cursor).
    if (!heap_.empty() && tick_of(heap_[0].t) <= cur_tick_) return;
    const SimTime horizon = heap_.empty() ? kTimeNever : heap_[0].t;

    // Prune cancelled far-heap entries and migrate any now in range.
    while (!far_.empty()) {
      const HeapEntry& f = far_.front();
      if (!entry_live(f)) {
        far_pop_front();
        continue;
      }
      if (tick_of(f.t) - cur_tick_ < kWheelSpanTicks) {
        const HeapEntry e = f;
        far_pop_front();
        place(e);
        continue;
      }
      break;
    }

    Tick t_next = kTickNever;
    for (int k = 0; k < kWheelLevels; ++k) {
      t_next = std::min(t_next, level_next_tick(k));
    }
    if (t_next == kTickNever) {
      if (far_.empty()) return;  // heap front (or nothing) is the minimum
      const HeapEntry& f = far_.front();
      if (!heap_.empty() &&
          (horizon < f.t || (horizon == f.t && heap_[0].seq < f.seq))) {
        return;
      }
      if (f.t > bound && horizon > bound) return;
      // The wheel is empty: jump the cursor just far enough for the far
      // front to migrate into level 3 on the next iteration.
      cur_tick_ = tick_of(f.t) - (kWheelSpanTicks - 1);
      continue;
    }
    // No bucket holds an entry before its span start, so the heap front
    // wins outright if it is strictly earlier than that lower bound.
    const SimTime wheel_lb = t_next << kTickShift;
    if (horizon < wheel_lb) return;
    if (wheel_lb > bound && horizon > bound) return;  // nothing due by bound
    advance_to(t_next);
  }
}

void Simulator::cancel(TimerId id) {
  if (id == kInvalidTimer) return;
  const std::uint32_t slot = static_cast<std::uint32_t>(id) - 1;
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  if (slot_gen(slot) != gen) return;  // already fired or cancelled
  release_slot(slot);  // heap entry becomes a tombstone, pruned lazily
  --live_;
}

void Simulator::heap_push(const HeapEntry& e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_front() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void Simulator::execute_front() {
  const HeapEntry e = heap_[0];
  heap_pop_front();
  now_ = e.t;
  // Move the callback out and free the slot *before* invoking: the
  // callback may itself schedule (reusing this hot slot) or cancel.
  Callback fn = std::move(slots_[e.slot]);
  release_slot(e.slot);
  --live_;
  ++executed_;
  fn();
}

SimTime Simulator::next_event_time() {
  pump(kTimeNever);
  return heap_.empty() ? kTimeNever : heap_[0].t;
}

bool Simulator::step() {
  pump(kTimeNever);
  if (heap_.empty()) return false;  // pump pruned everything: queue is empty
  execute_front();
  return true;
}

void Simulator::run_until(SimTime t) {
  for (;;) {
    // Bounding the pump keeps the cursor lazy under poll-style run_for
    // loops: buckets past `t` stay parked instead of being drained one
    // wheel tick at a time.
    pump(t);
    if (heap_.empty() || heap_[0].t > t) break;
    execute_front();
  }
  if (now_ < t) now_ = t;
}

void Simulator::run_to_completion() {
  while (step()) {
  }
}

}  // namespace mspastry
