#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/sim_time.hpp"
#include "net/packet.hpp"

namespace mspastry::net {

/// The kinds of faults the injection engine can produce. Partitions and
/// flaps drop packets; delay spikes and reordering perturb delivery times;
/// duplication injects extra copies; a stall freezes an endpoint (gray
/// failure: the process stops, the endpoint stays bound).
enum class FaultKind : std::uint8_t {
  kLoss = 0,
  kPartition,
  kFlap,
  kDelaySpike,
  kDuplicate,
  kReorder,
  kStall,
  /// Not a fault-plan rule: counted when an adversarial overlay node
  /// devours a packet it pretended to forward (pastry::Env::devour). Lives
  /// in this enum so the per-kind injection counters cover all injected
  /// packet mischief uniformly.
  kAdversarialDrop,
};
inline constexpr std::size_t kFaultKindCount = 8;

const char* fault_kind_name(FaultKind k);

/// A set of fault kinds, one bit per FaultKind.
using FaultKindSet = std::uint16_t;

constexpr FaultKindSet fault_bit(FaultKind k) {
  return static_cast<FaultKindSet>(1u << static_cast<unsigned>(k));
}

/// Call `f(kind)` once for every kind in `s`, in enum order.
template <class F>
void for_each_fault_kind(FaultKindSet s, F&& f) {
  for (std::size_t k = 0; s != 0; ++k, s >>= 1) {
    if ((s & 1u) != 0) f(static_cast<FaultKind>(k));
  }
}

/// Selects the (from, to) pairs a rule applies to. A closed set of forms
/// (rather than an arbitrary predicate) keeps schedules printable and
/// byte-for-byte reproducible.
class LinkMatcher {
 public:
  /// Every packet.
  static LinkMatcher all();

  /// Packets from `src` to `dst` only (one direction). An empty set acts
  /// as a wildcard, so one_way({a}, {}) matches everything a sends.
  static LinkMatcher one_way(std::vector<Address> src,
                             std::vector<Address> dst);

  /// Packets crossing the boundary of `group`, in both directions (the
  /// classic bidirectional partition cut).
  static LinkMatcher cross(std::vector<Address> group);

  /// Packets to or from any endpoint in `eps` (all of a node's links).
  static LinkMatcher endpoint(std::vector<Address> eps);

  bool matches(Address from, Address to) const;
  std::string describe() const;

 private:
  enum class Kind : std::uint8_t { kAll, kOneWay, kCross, kEndpoint };
  Kind kind_ = Kind::kAll;
  std::unordered_set<Address> a_;  // src / group / endpoints
  std::unordered_set<Address> b_;  // dst (one_way only)
};

/// One timed fault rule: a kind, a link selector, an activity window
/// [start, end), the kind-specific parameters, and the key of the rule's
/// draws (0 = derive it from the plan seed and the rule id).
struct FaultRule {
  FaultKind kind = FaultKind::kLoss;
  LinkMatcher where;
  SimTime start = kTimeZero;
  SimTime end = kTimeNever;
  double probability = 1.0;      ///< loss / duplicate / reorder
  SimDuration extra_delay = 0;   ///< delay spike; max extra for reorder
  SimDuration dup_offset = 0;    ///< spacing of injected duplicate copies
  SimDuration period = 0;        ///< flap period
  double duty_up = 0.5;          ///< fraction of a flap period the link is up
  std::uint64_t seed = 0;
  std::string label;

  static FaultRule loss(LinkMatcher where, double p, SimTime start = kTimeZero,
                        SimTime end = kTimeNever);
  static FaultRule partition(LinkMatcher where, SimTime start = kTimeZero,
                             SimTime end = kTimeNever);
  static FaultRule flap(LinkMatcher where, SimDuration period, double duty_up,
                        SimTime start = kTimeZero, SimTime end = kTimeNever);
  static FaultRule delay_spike(LinkMatcher where, SimDuration extra,
                               SimTime start = kTimeZero,
                               SimTime end = kTimeNever);
  static FaultRule duplicate(LinkMatcher where, double p, SimDuration offset,
                             SimTime start = kTimeZero,
                             SimTime end = kTimeNever);
  static FaultRule reorder(LinkMatcher where, double p, SimDuration max_extra,
                           SimTime start = kTimeZero,
                           SimTime end = kTimeNever);
  static FaultRule stall(std::vector<Address> endpoints, SimTime start,
                         SimTime end);

  std::string describe() const;
};

/// What the plan decided for one packet.
struct FaultAction {
  bool drop = false;            ///< its kind is in `injected`
  SimDuration extra_delay = 0;  ///< delay spikes + reorder jitter, summed
  int extra_copies = 0;         ///< injected duplicates
  SimDuration dup_offset = 0;   ///< spacing between the injected copies
  FaultKindSet injected = 0;    ///< every kind that acted on the packet
                                ///< (on a drop, the dropping kind only)
};

/// A composable stack of timed fault rules, consulted for every packet
/// (net/packet_fate.hpp). Rules are evaluated in insertion order; the
/// first rule that drops a packet wins. Every decision is a pure function
/// of the packet's identity: flaps and delay spikes depend only on the
/// clock, and loss, duplication and reordering draw a stateless hash of
/// (rule seed, sender, per-sender send seq). A packet's fate therefore
/// never depends on the order in which other packets were judged — the
/// property that makes every rule shard-count-invariant on the keyed
/// engine — and rules can be added or removed at any time without
/// rescheduling anything. The plan keeps no counters; callers count the
/// kinds each decision reports in FaultAction::injected.
class FaultPlan {
 public:
  using RuleId = std::uint64_t;
  static constexpr RuleId kNoRule = 0;

  explicit FaultPlan(std::uint64_t seed = 0x7a0517) : seed_(seed) {}

  RuleId add(FaultRule rule);
  bool remove(RuleId id);

  bool empty() const { return rules_.empty(); }
  std::size_t rule_count() const { return rules_.size(); }

  /// Judge one packet: `seq` is the sender's per-packet send sequence
  /// number, which keys the randomized rules' draws.
  FaultAction apply(SimTime now, Address from, Address to,
                    std::uint64_t seq) const;

  /// Gray failure: is endpoint `a` frozen at `now`?
  bool stalled(SimTime now, Address a) const {
    return stall_release(now, a) > now;
  }

  /// Earliest time at or after `now` when `a` is not stalled (== now when
  /// it is not stalled; handles overlapping stall windows).
  SimTime stall_release(SimTime now, Address a) const;

  /// Deterministic textual dump of every installed rule, for reproducible
  /// run logs ("the fault schedule").
  std::string describe() const;

 private:
  struct Slot {
    RuleId id;
    FaultRule rule;
    std::uint64_t seed;  ///< keys the rule's draws
  };

  std::uint64_t seed_;
  RuleId next_id_ = 1;
  std::vector<Slot> rules_;
};

}  // namespace mspastry::net
