#pragma once

// Simulation driver for the Chord-style baseline: same network model,
// traces and metrics conventions as the MSPastry driver, so the two
// overlays can be compared side by side (bench/tab_baseline).

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "chord/chord_node.hpp"
#include "net/network.hpp"
#include "overlay/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/churn_trace.hpp"

namespace mspastry::chord {

/// Ground truth for Chord's ownership rule: key k belongs to successor(k),
/// the first live ring member at or after k.
class ChordOracle {
 public:
  void node_joined(NodeId id, net::Address addr) { ring_.emplace(id, addr); }
  void node_failed(NodeId id) { ring_.erase(id); }
  std::size_t size() const { return ring_.size(); }

  std::optional<net::Address> owner_of(NodeId key) const {
    if (ring_.empty()) return std::nullopt;
    auto it = ring_.lower_bound(key);
    if (it == ring_.end()) it = ring_.begin();  // wrap
    return it->second;
  }

  std::optional<std::pair<NodeId, net::Address>> random_member(
      Rng& rng) const {
    if (ring_.empty()) return std::nullopt;
    auto it = ring_.lower_bound(rng.node_id());
    if (it == ring_.end()) it = ring_.begin();
    return std::make_pair(it->first, it->second);
  }

 private:
  std::map<NodeId, net::Address> ring_;
};

struct ChordDriverConfig {
  ChordConfig chord;
  double lookup_rate_per_node = 0.01;
  SimDuration metrics_window = minutes(10);
  SimDuration warmup = minutes(10);
  SimDuration loss_grace = seconds(60);
  std::uint64_t seed = 7;
};

/// Single-threaded trace harness for the Chord-style baseline (§3.1
/// comparison, bench/tab_baseline). It is the one serial trace harness
/// left on purpose: MSPastry traces run on overlay::ShardedDriver.
class ChordDriver {
 public:
  ChordDriver(std::shared_ptr<const net::Topology> topology,
              net::NetworkConfig net_config, ChordDriverConfig config);
  ~ChordDriver();

  ChordDriver(const ChordDriver&) = delete;
  ChordDriver& operator=(const ChordDriver&) = delete;

  void run_trace(const trace::ChurnTrace& trace,
                 SimDuration extra = seconds(30));

  net::Address add_node();
  void kill_node(net::Address a);
  std::uint64_t issue_lookup(net::Address from, NodeId key);
  void run_until(SimTime t) { sim_.run_until(t); }
  void run_for(SimDuration d) { sim_.run_until(sim_.now() + d); }
  void start_workload();
  void finish();

  Simulator& sim() { return sim_; }
  net::Network& network() { return net_; }
  ChordOracle& oracle() { return oracle_; }
  overlay::Metrics& metrics() { return metrics_; }
  Rng& rng() { return rng_; }
  ChordNode* node(net::Address a);
  std::vector<net::Address> live_addresses() const;

 private:
  class NodeEnv;

  struct LiveNode {
    std::unique_ptr<NodeEnv> env;
    std::unique_ptr<ChordNode> node;
    SimTime join_started = 0;
  };

  void handle_delivery(net::Address self, const ChordLookupMsg& m);
  void handle_joined(net::Address self);
  void schedule_next_workload_lookup();

  /// Before sim_: destroyed last, after queued callbacks drop their
  /// in-flight message references.
  pastry::MessagePool pool_;
  Simulator sim_;
  std::shared_ptr<const net::Topology> topology_;
  net::Network net_;
  ChordDriverConfig cfg_;
  Rng rng_;
  ChordOracle oracle_;
  overlay::Metrics metrics_;
  std::unordered_map<net::Address, LiveNode> nodes_;
  std::uint64_t next_lookup_id_ = 1;
  bool workload_running_ = false;
  bool finished_ = false;
};

}  // namespace mspastry::chord
