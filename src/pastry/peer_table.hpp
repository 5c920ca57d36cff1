#pragma once

// Per-peer protocol state of one PastryNode. A node remembers a handful
// of facts about every peer it has talked to: liveness and suppression
// evidence (Section 4.1), the gossiped Trt hint (self-tuning), the last
// distance measurement and an RTT estimator (Section 4.2). Handling one
// received message touches four or five of them, so they share one record
// per peer in an open-addressed, linear-probing table: keys in one dense
// array (a probe sequence touches one or two cache lines), records in a
// parallel array. A received message costs one probe, a send one probe,
// and the whole table is two allocations.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/sim_time.hpp"
#include "pastry/rtt_estimator.hpp"
#include "pastry/types.hpp"

namespace mspastry::pastry {

/// Everything a node remembers about one peer. Each field has a presence
/// bit: a field is meaningful only while its bit is set, which keeps the
/// absent-versus-present distinctions of the protocol rules (a peer never
/// sent to suppresses no heartbeat; an unseen routing-table entry gets
/// its first probe one period after it is first scanned). The RTT
/// estimator's own seeded() is its presence bit.
struct PeerState {
  enum Bit : std::uint8_t {
    kHeard = 1 << 0,          ///< last_heard
    kSent = 1 << 1,           ///< last_sent
    kSuppressHeard = 1 << 2,  ///< suppress_heard
    kProbeDue = 1 << 3,       ///< last_probe_due
    kTrtHint = 1 << 4,        ///< trt_hint_s
    kMeasured = 1 << 5,       ///< measured_at
  };

  /// Last message heard from the peer (right-neighbour watch).
  SimTime last_heard = 0;
  /// Last message sent to the peer (heartbeat suppression).
  SimTime last_sent = 0;
  /// Like last_heard, but not counting replies to our own probes: a
  /// probe's reply must not suppress the next probe, or the effective
  /// probing period silently doubles.
  SimTime suppress_heard = 0;
  /// When the peer's routing-table entry was last due a liveness probe.
  SimTime last_probe_due = 0;
  /// When the peer's distance was last measured (TTL-limited), so
  /// periodic gossip does not endlessly re-probe candidates that never
  /// win a slot.
  SimTime measured_at = 0;
  /// The peer's gossiped routing-table probe period, in seconds.
  double trt_hint_s = 0.0;
  /// RTT estimator for the peer (RTO and PNS seed data).
  RttEstimator rtt;
  std::uint8_t present = 0;
  /// Excluded from routing after a missed per-hop ack; cleared when any
  /// message is heard from the peer.
  bool excluded = false;

  bool has(Bit b) const { return (present & b) != 0; }
  void stamp(Bit b, SimTime& field, SimTime t) {
    field = t;
    present |= b;
  }
};

/// Open-addressed map from peer address to PeerState: linear probing,
/// Fibonacci hashing, backward-shift deletion (no tombstones), growth by
/// doubling past 3/4 load. The table is never iterated by the protocol,
/// so its layout cannot leak into any output.
///
/// A PeerState& is valid only until the next get() (which may grow the
/// table) or erase() (which shifts entries back); never hold one across
/// either.
class PeerTable {
 public:
  /// The record for `a`, or nullptr when the table has none.
  PeerState* find(net::Address a) {
    const std::size_t i = locate(a);
    return i == kNone ? nullptr : &slots_[i];
  }
  const PeerState* find(net::Address a) const {
    const std::size_t i = locate(a);
    return i == kNone ? nullptr : &slots_[i];
  }

  /// The record for `a`, inserting a default one when absent.
  PeerState& get(net::Address a) {
    assert(a != kEmpty);
    if (!keys_.empty()) {
      std::size_t i = home(a);
      for (; keys_[i] != kEmpty; i = (i + 1) & mask_) {
        if (keys_[i] == a) return slots_[i];
      }
      if ((size_ + 1) * 4 <= keys_.size() * 3) return insert_at(i, a);
    }
    grow();
    std::size_t i = home(a);
    while (keys_[i] != kEmpty) i = (i + 1) & mask_;
    return insert_at(i, a);
  }

  /// Forget everything about `a`. Returns whether a record existed.
  bool erase(net::Address a) {
    std::size_t i = locate(a);
    if (i == kNone) return false;
    // Backward shift: pull each later member of the cluster into the hole
    // when the hole lies between its home slot and its current slot.
    for (std::size_t j = (i + 1) & mask_; keys_[j] != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t h = home(keys_[j]);
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        keys_[i] = keys_[j];
        slots_[i] = slots_[j];
        i = j;
      }
    }
    keys_[i] = kEmpty;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return keys_.size(); }
  /// Heap bytes held by the table (keys plus records).
  std::size_t bytes() const {
    return keys_.capacity() * sizeof(net::Address) +
           slots_.capacity() * sizeof(PeerState);
  }

  /// Number of records satisfying `pred` (a full scan: diagnostics only).
  template <typename Pred>
  std::size_t count_if(Pred pred) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty && pred(slots_[i])) ++n;
    }
    return n;
  }

  /// The slot where a probe for `a` starts (exposed for tests that build
  /// colliding and wrapping clusters). Requires capacity() > 0.
  std::size_t home(net::Address a) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) *
         0x9e3779b97f4a7c15ull) >>
        shift_);
  }

 private:
  static constexpr net::Address kEmpty = net::kNullAddress;
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Slot holding `a`, or kNone.
  std::size_t locate(net::Address a) const {
    if (a == kEmpty || keys_.empty()) return kNone;
    for (std::size_t i = home(a);; i = (i + 1) & mask_) {
      if (keys_[i] == a) return i;
      if (keys_[i] == kEmpty) return kNone;
    }
  }

  PeerState& insert_at(std::size_t i, net::Address a) {
    keys_[i] = a;
    slots_[i] = PeerState{};
    ++size_;
    return slots_[i];
  }

  void grow() {
    const std::size_t cap =
        keys_.empty() ? kMinCapacity : 2 * keys_.size();
    const std::vector<net::Address> old_keys =
        std::exchange(keys_, std::vector<net::Address>(cap, kEmpty));
    const std::vector<PeerState> old_slots =
        std::exchange(slots_, std::vector<PeerState>(cap));
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    for (std::size_t k = 0; k < old_keys.size(); ++k) {
      if (old_keys[k] == kEmpty) continue;
      std::size_t i = home(old_keys[k]);
      while (keys_[i] != kEmpty) i = (i + 1) & mask_;
      keys_[i] = old_keys[k];
      slots_[i] = old_slots[k];
    }
  }

  std::vector<net::Address> keys_;
  std::vector<PeerState> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace mspastry::pastry
