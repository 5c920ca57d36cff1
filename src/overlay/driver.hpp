#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "overlay/metrics.hpp"
#include "overlay/oracle.hpp"
#include "pastry/node.hpp"
#include "sim/simulator.hpp"

namespace mspastry::overlay {

struct DriverConfig {
  pastry::Config pastry;

  /// Lookup workload: each active node generates lookups at this rate
  /// (Poisson), destination keys uniform over the id space. The paper's
  /// base configuration uses 0.01 lookups/s/node.
  double lookup_rate_per_node = 0.01;
  bool lookups_want_ack = true;

  /// Metrics windows (10 min for Gnutella/OverNet in the paper, 1 h for
  /// Microsoft) and warmup excluded from aggregates.
  SimDuration metrics_window = minutes(10);
  SimDuration warmup = minutes(20);

  /// Lookups issued within this long of the end of the run are not
  /// counted as lost (they may legitimately still be in flight).
  SimDuration loss_grace = seconds(60);

  /// Observability (causal path tracing, src/obs). Disabled by default:
  /// no TraceDomain is created and every node's recorder pointer is null.
  obs::ObsConfig obs;

  /// Sharded driver only: after partitioning sessions, widen the engine
  /// lookahead from the global min-link bound to the minimum of
  /// Topology::min_delay_between over the actual shard-pair router sets.
  /// Fewer, longer epochs — but epoch boundaries then depend on the
  /// partition, so runs are no longer byte-identical across *shard
  /// counts* (they remain deterministic for a fixed count). Off by
  /// default to preserve the cross-shard-count determinism gate.
  bool per_pair_lookahead = false;

  std::uint64_t seed = 7;
};

/// Imperative single-threaded harness: the simulator, the network model,
/// the lookup workload, the oracle, and the metrics, driven call by call
/// (add_node / kill_node / issue_lookup / run_for). Chaos scenarios, unit
/// tests and the examples use it. Trace-driven experiments run on
/// ShardedDriver (overlay/sharded_driver.hpp), the one trace harness.
class OverlayDriver {
 public:
  OverlayDriver(std::shared_ptr<const net::Topology> topology,
                net::NetworkConfig net_config, DriverConfig config);
  ~OverlayDriver();

  OverlayDriver(const OverlayDriver&) = delete;
  OverlayDriver& operator=(const OverlayDriver&) = delete;

  // --- Manual control (tests, examples, applications) ---------------------

  /// Create a node and start its join (or bootstrap it if the overlay is
  /// empty). Returns its address.
  net::Address add_node();

  /// Same, but with a caller-chosen identifier instead of a random one.
  /// Adversarial eclipse placement uses this to cluster sybil ids around
  /// a victim key; everything else about the join is the normal protocol.
  net::Address add_node_with_id(NodeId id);

  /// Crash a node: silently drops all its state and traffic.
  void kill_node(net::Address a);

  /// Gracefully depart: the node notifies its routing-state members (so
  /// they drop it without failure-detection delay), then is torn down.
  void leave_node(net::Address a);

  /// Issue one lookup from `from` (must exist). Returns the lookup id.
  std::uint64_t issue_lookup(net::Address from, NodeId key,
                             std::uint64_t payload = 0,
                             net::PacketPtr app_data = nullptr);

  /// The id the next issue_lookup() will return. Harnesses that track
  /// per-lookup outcomes must register the id BEFORE issuing: when the
  /// source itself is the root, delivery happens synchronously inside
  /// issue_lookup and an after-the-fact registration misses it.
  std::uint64_t next_lookup_id() const { return next_lookup_id_; }

  void run_until(SimTime t) { sim_.run_until(t); }
  void run_for(SimDuration d) { sim_.run_until(sim_.now() + d); }

  /// Start the Poisson lookup workload.
  void start_workload();

  /// Finalize metrics.
  void finish();

  // --- Introspection -------------------------------------------------------

  Simulator& sim() { return sim_; }
  net::Network& network() { return net_; }
  Oracle& oracle() { return oracle_; }
  Metrics& metrics() { return metrics_; }
  pastry::Counters& counters() { return counters_; }
  Rng& rng() { return rng_; }
  pastry::MessagePool& pool() { return pool_; }

  /// The flight-recorder registry, or nullptr when observability is off.
  obs::TraceDomain* trace_domain() { return obs_.get(); }
  const obs::TraceDomain* trace_domain() const { return obs_.get(); }

  /// Ground-truth verdict of a lookup's first delivery (correct root per
  /// the oracle), recorded while observability is on. Feeds the obs
  /// delivered-at-oracle-root expectation rule; nullopt when the lookup
  /// was never delivered (or obs was off).
  std::optional<bool> lookup_verdict(std::uint64_t id) const {
    const auto it = lookup_verdicts_.find(id);
    if (it == lookup_verdicts_.end()) return std::nullopt;
    return it->second;
  }

  pastry::PastryNode* node(net::Address a);
  std::size_t live_node_count() const { return nodes_.size(); }
  std::vector<net::Address> live_addresses() const;

  /// Application hooks: called at the root on lookup delivery, on each
  /// forwarding hop (return true to consume, as in the common-API
  /// forward() upcall), and for non-overlay packets addressed to a node.
  std::function<void(net::Address self, const pastry::LookupMsg&)>
      on_app_deliver;
  std::function<bool(net::Address self, const pastry::LookupMsg&,
                     const pastry::NodeDescriptor& next)>
      on_app_forward;
  std::function<void(net::Address self, net::Address from,
                     const net::PacketPtr&)>
      on_app_packet;

  /// Send a non-overlay (application) packet; counted as app traffic.
  void send_app_packet(net::Address from, net::Address to,
                       net::PacketPtr packet);

 private:
  class NodeEnv;  // Env implementation per node

  struct LiveNode {
    std::unique_ptr<NodeEnv> env;  // must outlive node (node's dtor uses it)
    std::unique_ptr<pastry::PastryNode> node;
    SimTime join_started = 0;
  };

  net::Address add_node_at(net::Address addr, NodeId id);
  void deliver_packet(net::Address to, net::Address from,
                      const net::PacketPtr& packet);
  void devour_packet(net::Address from, net::Address to,
                     pastry::MessagePtr msg);
  void handle_delivery(net::Address self, const pastry::LookupMsg& m);
  void handle_activated(net::Address self);
  void schedule_next_workload_lookup();

  /// Declared before sim_: members destroy in reverse order, so the
  /// simulator (whose queued callbacks hold the last references to
  /// in-flight messages) tears down first and every slot recycles into a
  /// live pool. The pool's destructor asserts live() == 0.
  pastry::MessagePool pool_;
  Simulator sim_;
  std::shared_ptr<const net::Topology> topology_;
  net::Network net_;
  DriverConfig cfg_;
  Rng rng_;
  pastry::Counters counters_;
  Oracle oracle_;
  Metrics metrics_;

  /// Created in the constructor when cfg_.obs.enabled; nodes cache
  /// per-session recorder pointers, so it must outlive nodes_.
  std::unique_ptr<obs::TraceDomain> obs_;

  /// Routing-table row slab shared by every node; declared before nodes_
  /// because each node's RoutingTable destructor returns its rows here.
  pastry::NodeArena node_arena_;

  std::unordered_map<net::Address, LiveNode> nodes_;
  std::unordered_map<std::uint64_t, bool> lookup_verdicts_;
  std::uint64_t next_lookup_id_ = 1;
  bool workload_running_ = false;
  bool finished_ = false;
};

}  // namespace mspastry::overlay
