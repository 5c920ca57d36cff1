#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/intrusive_ptr.hpp"
#include "common/ref_counted.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "net/fault_plan.hpp"
#include "net/packet_fate.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mspastry::net {

/// Base class for anything carried by the network. Overlay message types
/// derive from this; the network itself never inspects payloads.
/// Intrusively refcounted: copying a PacketPtr is a non-atomic increment
/// and in-flight delivery callbacks *move* their reference (see
/// DESIGN.md "Message memory").
struct Packet : RefCounted {};

using PacketPtr = IntrusivePtr<const Packet>;

/// A network endpoint. Each overlay-node *session* gets a fresh address
/// when it is created, which models the fact that a machine that fails and
/// later rejoins is, to the protocol, a brand-new endpoint.
using Address = std::int32_t;
inline constexpr Address kNullAddress = -1;

/// The packet-level network model: computes delays from a Topology,
/// judges every packet with packet_fate() (fault rules, uniform loss,
/// jitter; draws keyed by the sender's per-endpoint send seq), and
/// delivers packets to bound handlers through the discrete-event
/// simulator. It does not model congestion (neither does the paper's
/// simulator).
class Network {
 public:
  /// Called on packet delivery: (source address, packet).
  using Handler = std::function<void(Address, const PacketPtr&)>;

  Network(Simulator& sim, std::shared_ptr<const Topology> topology,
          NetworkConfig config, std::uint64_t seed);

  /// Create an endpoint attached to a specific router.
  Address attach(int router);

  /// Create an endpoint attached to a random attachable router.
  Address attach_random(Rng& rng);

  /// Install the packet handler for an endpoint. Replaces any previous
  /// handler.
  void bind(Address a, Handler handler);

  /// Remove an endpoint's handler; packets in flight to it are lost on
  /// arrival. This is how node failures manifest to the rest of the world.
  void unbind(Address a);

  bool bound(Address a) const;

  /// One-way delay between two endpoints (router path + both LAN links).
  /// This is ground truth used by the oracle to compute RDP; the protocol
  /// itself only ever learns delays by measuring probes.
  SimDuration delay(Address a, Address b) const;

  /// Round-trip delay: 2 * delay(). The overlay's proximity metric.
  SimDuration rtt(Address a, Address b) const { return 2 * delay(a, b); }

  /// Send a packet; delivery (or loss) is scheduled on the simulator.
  void send(Address from, Address to, PacketPtr packet);

  /// An adversarial sender "transmits" a packet it actually devours: the
  /// packet counts as sent and adversarially dropped (keeping the
  /// accounting identity exact), the injection and drop observers see it
  /// (DropKind::kAdversary), but delivery is never scheduled.
  void devour(Address from, Address to, PacketPtr packet);

  /// The composable fault-rule stack consulted for every packet. Scenario
  /// harnesses install timed rules (partitions, flaps, delay spikes,
  /// duplication, reordering, stalls) directly on it.
  FaultPlan& faults() { return faults_; }
  const FaultPlan& faults() const { return faults_; }

  /// Convenience wrapper over the fault plan: bidirectionally partition
  /// the endpoints in `group` from everyone else. Installs one partition
  /// rule; any other fault rules are left untouched. Heal with heal(),
  /// which removes only this rule.
  void partition(const std::vector<Address>& group);
  void heal();

  /// Observer invoked once per fault kind that acted on a packet (a
  /// send reports each kind in PacketFate::injected; a stalled delivery
  /// and a devoured packet report theirs); the overlay driver wires this
  /// to its metrics, the harness's one injection count.
  using InjectionObserver = std::function<void(FaultKind)>;
  void set_injection_observer(InjectionObserver o) {
    injection_observer_ = std::move(o);
  }

  /// Observer invoked for every packet the network loses, with the ground
  /// truth of where and why. The observability layer wires this to the
  /// sender's flight recorder; unset (the default) costs one branch per
  /// drop.
  using DropObserver =
      std::function<void(Address from, Address to, const PacketPtr&, DropKind)>;
  void set_drop_observer(DropObserver o) { drop_observer_ = std::move(o); }

  const Topology& topology() const { return *topology_; }
  int router_of(Address a) const { return endpoints_[a].router; }

  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t packets_lost() const { return lost_; }
  std::uint64_t packets_delivered() const { return delivered_; }
  /// Packets that arrived at an endpoint with no bound handler (the
  /// receiver died or never bound). Together with the others:
  /// sent == lost + delivered + dropped_unbound + dropped_adversarial
  ///      + in_flight, always.
  std::uint64_t packets_dropped_unbound() const { return dropped_unbound_; }
  /// Packets devoured by adversarial senders (Network::devour).
  std::uint64_t packets_dropped_adversarial() const {
    return dropped_adversarial_;
  }
  std::uint64_t packets_in_flight() const { return in_flight_; }

 private:
  struct Endpoint {
    int router = -1;
    Handler handler;  // empty == unbound
    std::uint64_t send_seq = 0;  ///< keys this endpoint's packet fates
  };

  void schedule_delivery(SimDuration after, Address from, Address to,
                         PacketPtr packet);
  /// Takes its reference by value and moves it onward (a stalled receiver
  /// re-schedules the same reference instead of copying it per retry).
  void deliver(Address from, Address to, PacketPtr packet);
  void notify_injections(FaultKindSet kinds) {
    if (injection_observer_) for_each_fault_kind(kinds, injection_observer_);
  }
  void notify_drop(Address from, Address to, const PacketPtr& p, DropKind k) {
    if (drop_observer_) drop_observer_(from, to, p, k);
  }

  Simulator& sim_;
  std::shared_ptr<const Topology> topology_;
  NetworkConfig config_;
  std::uint64_t seed_;
  std::vector<Endpoint> endpoints_;
  std::vector<int> attachable_routers_;
  FaultPlan faults_;
  FaultPlan::RuleId partition_rule_ = FaultPlan::kNoRule;
  InjectionObserver injection_observer_;
  DropObserver drop_observer_;
  std::uint64_t sent_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_unbound_ = 0;
  std::uint64_t dropped_adversarial_ = 0;
  std::uint64_t in_flight_ = 0;
};

}  // namespace mspastry::net
