#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/node_id.hpp"
#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "pastry/message.hpp"

namespace mspastry::overlay {

/// Integrates "live node-seconds" into fixed windows, for per-node-per-
/// second rates (the denominator of the paper's control-traffic and
/// failure-rate metrics).
class NodeSecondsAccumulator {
 public:
  explicit NodeSecondsAccumulator(SimDuration window) : window_(window) {}

  void change(SimTime now, int delta) {
    settle(now);
    count_ += delta;
  }

  /// Node-seconds accumulated in each window up to the given time.
  const std::map<SimTime, double>& windows(SimTime upto) {
    settle(upto);
    return bins_;
  }

  int current_count() const { return count_; }

 private:
  void settle(SimTime now) {
    while (last_ < now) {
      const SimTime wi = last_ / window_;
      const SimTime wend = (wi + 1) * window_;
      const SimTime seg = std::min(wend, now) - last_;
      bins_[wi] += static_cast<double>(count_) * to_seconds(seg);
      last_ += seg;
    }
  }

  SimDuration window_;
  SimTime last_ = 0;
  int count_ = 0;
  std::map<SimTime, double> bins_;
};

/// The paper's evaluation metrics (Section 5.2): incorrect-delivery rate,
/// lookup loss rate, RDP, and control traffic (msgs/s/node, by type), plus
/// join latency. Windowed series feed the time plots (Figures 4, 8);
/// aggregates feed the tables and the parameter sweeps.
class Metrics {
 public:
  Metrics(SimDuration window, SimDuration warmup)
      : window_(window),
        warmup_(warmup),
        node_seconds_(window),
        rdp_series_(window) {}

  // --- Feeding (called by the driver) -----------------------------------

  void on_message(SimTime t, pastry::MsgType type);
  void on_app_message(SimTime t);  ///< application traffic outside lookups
  /// Control message from an overlay without the MSPastry message
  /// taxonomy (e.g. the Chord baseline): counted in the control totals
  /// but not in any per-class series.
  void on_unclassified_control(SimTime t);
  void on_lookup_issued(std::uint64_t id, SimTime t, net::Address src,
                        NodeId key);

  /// Attribution for an incorrect delivery (who to blame). The driver
  /// passes kAdversarialMisroute when the delivering node had an
  /// AdversaryPolicy installed; everything else is a stale-leaf-set
  /// misdelivery (churn raced the lookup, or lies poisoned honest state).
  enum class IncorrectCause : std::uint8_t {
    kStaleLeafSet = 0,
    kAdversarialMisroute,
  };

  /// `net_delay` is the direct network delay source->deliverer (for RDP);
  /// pass 0 when source == deliverer. Deliveries resolve first-correct-
  /// wins: an incorrect delivery is held pending and a later correct
  /// delivery of the same id (a redundant diverse-path copy) upgrades it;
  /// pendings still unresolved at finalize() count as incorrect.
  void on_lookup_delivered(
      std::uint64_t id, SimTime t, bool correct, SimDuration net_delay,
      IncorrectCause cause = IncorrectCause::kStaleLeafSet);

  /// An adversarial node devoured a copy of this lookup in transit; if no
  /// copy is ever delivered, the loss is attributed to the adversary.
  void on_lookup_devoured(std::uint64_t id);
  void on_join_started(SimTime t);
  void on_join_completed(SimTime t, SimDuration latency);
  void population_change(SimTime t, int delta) {
    node_seconds_.change(t, delta);
  }
  /// One fault event injected by the network's fault plan (wired up by
  /// the driver through Network::set_injection_observer).
  void on_fault_injected(net::FaultKind k) {
    ++fault_injections_[static_cast<std::size_t>(k)];
  }

  /// Close the books: lookups issued before `end - grace` and never
  /// delivered are counted lost.
  void finalize(SimTime end, SimDuration grace);

  /// Fold another Metrics' *traffic-side* state (per-window and total
  /// message counts, fault-injection counters) into this one. The sharded
  /// driver counts traffic per shard — on_message is called from worker
  /// threads — and merges into the single ledger Metrics at the end;
  /// everything lookup/join/population-related lives on the ledger only.
  /// Sums of per-window counts are order-independent (integer-valued
  /// doubles well under 2^53), so the merged result is shard-invariant.
  void merge_traffic_from(const Metrics& other);

  // --- Aggregates (post-warmup) -------------------------------------------

  std::uint64_t lookups_issued() const { return issued_; }
  std::uint64_t lookups_delivered_correct() const { return correct_; }
  std::uint64_t lookups_delivered_incorrect() const { return incorrect_; }
  std::uint64_t lookups_lost() const { return lost_; }

  // Attributed splits (valid after finalize()):
  // incorrect == misrouted_by_adversary + stale_leaf_set, and
  // lost >= dropped_by_adversary.
  std::uint64_t incorrect_misrouted_by_adversary() const {
    return incorrect_adversarial_;
  }
  std::uint64_t incorrect_stale_leaf_set() const {
    return incorrect_ - incorrect_adversarial_;
  }
  std::uint64_t lost_dropped_by_adversary() const {
    return lost_adversarial_;
  }

  double loss_rate() const {
    return issued_ ? static_cast<double>(lost_) / issued_ : 0.0;
  }
  double incorrect_delivery_rate() const {
    return issued_ ? static_cast<double>(incorrect_) / issued_ : 0.0;
  }
  double mean_rdp() const { return rdp_.mean(); }
  const RunningStats& rdp_stats() const { return rdp_; }
  const RunningStats& hop_delay_stats() const { return delay_; }
  /// Per-lookup RDP samples (for quantiles; the mean is sensitive to the
  /// heavy tail that churn produces).
  SampleSet& rdp_samples() { return rdp_samples_; }

  /// Control messages per second per node over the post-warmup run.
  double control_traffic_rate() const;
  /// Total messages (control + lookups + app) per second per node.
  double total_traffic_rate() const;
  /// Control traffic of one class, msgs/s/node.
  double control_traffic_rate(pastry::TrafficClass c) const;

  SampleSet& join_latency_samples() { return join_latency_; }
  std::uint64_t joins_started() const { return joins_started_; }
  std::uint64_t joins_completed() const { return joins_completed_; }

  std::uint64_t fault_injections(net::FaultKind k) const {
    return fault_injections_[static_cast<std::size_t>(k)];
  }

  // --- Windowed series (for the time plots) --------------------------------

  struct SeriesPoint {
    double t_seconds;
    double value;
  };

  /// Control messages per second per node, per window.
  std::vector<SeriesPoint> control_traffic_series(SimTime end);
  /// Same but for one traffic class.
  std::vector<SeriesPoint> control_traffic_series(pastry::TrafficClass c,
                                                  SimTime end);
  /// Total traffic (all messages) per second per node, per window.
  std::vector<SeriesPoint> total_traffic_series(SimTime end);
  /// Mean RDP per window.
  std::vector<SeriesPoint> rdp_series() const;

 private:
  struct LookupRecord {
    SimTime issued_at;
    net::Address src;
    NodeId key;
  };

  bool post_warmup(SimTime t) const { return t >= warmup_; }
  void record_correct(const LookupRecord& rec, SimTime t,
                      SimDuration net_delay);

  SimDuration window_;
  SimDuration warmup_;

  // Mutable: reading the windows settles the integral up to "now".
  mutable NodeSecondsAccumulator node_seconds_;

  // Message counts: per-window (indexed by window; a window that saw no
  // message holds zeros and is skipped by the series), and post-warmup
  // totals. `by_class` counts on_message only; `total` counts every kind.
  struct TrafficWindow {
    std::array<double, pastry::kTrafficClassCount> by_class{};
    double total = 0.0;
    bool has_classified() const {
      for (const double c : by_class) {
        if (c > 0.0) return true;
      }
      return false;
    }
  };
  std::vector<TrafficWindow> windows_;
  TrafficWindow& window_at(SimTime t);
  /// One point per window with live node-seconds for which `value`
  /// (TrafficWindow -> optional count) gives a count: count/node-seconds.
  template <typename Value>
  std::vector<SeriesPoint> traffic_series(SimTime end, Value value);
  std::array<std::uint64_t, pastry::kTrafficClassCount> class_totals_{};
  std::uint64_t control_total_ = 0;
  std::uint64_t all_total_ = 0;
  double post_warmup_node_seconds(SimTime end) const;

  std::unordered_map<std::uint64_t, LookupRecord> outstanding_;

  /// Incorrectly-delivered lookups held open for a first-correct-wins
  /// upgrade by a redundant copy; flushed into incorrect_ at finalize().
  struct PendingIncorrect {
    LookupRecord rec;
    IncorrectCause cause = IncorrectCause::kStaleLeafSet;
  };
  std::unordered_map<std::uint64_t, PendingIncorrect> pending_incorrect_;
  /// Lookup ids with at least one adversarially-devoured copy.
  std::unordered_set<std::uint64_t> devoured_;

  std::uint64_t issued_ = 0;
  std::uint64_t correct_ = 0;
  std::uint64_t incorrect_ = 0;
  std::uint64_t incorrect_adversarial_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t lost_adversarial_ = 0;
  RunningStats rdp_;
  RunningStats delay_;
  SampleSet rdp_samples_;
  WindowedSeries rdp_series_;

  SampleSet join_latency_;
  std::uint64_t joins_started_ = 0;
  std::uint64_t joins_completed_ = 0;
  std::array<std::uint64_t, net::kFaultKindCount> fault_injections_{};

  SimTime finalized_at_ = kTimeNever;
};

}  // namespace mspastry::overlay
