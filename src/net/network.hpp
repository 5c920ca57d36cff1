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

/// The serial packet-level network model behind the Chord baseline
/// (chord::ChordDriver): computes delays from a Topology, judges every
/// packet with packet_fate() (fault rules, uniform loss, jitter; draws
/// keyed by the sender's per-endpoint send seq) — the function
/// overlay::ShardedDriver uses too — and delivers packets to bound
/// handlers through the discrete-event simulator. It does not model
/// congestion (neither does the paper's simulator).
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

  /// The composable fault-rule stack consulted for every packet. Scenario
  /// harnesses install timed rules (partitions, flaps, delay spikes,
  /// duplication, reordering, stalls) directly on it.
  FaultPlan& faults() { return faults_; }
  const FaultPlan& faults() const { return faults_; }

  const Topology& topology() const { return *topology_; }
  int router_of(Address a) const { return endpoints_[a].router; }

  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t packets_lost() const { return lost_; }
  std::uint64_t packets_delivered() const { return delivered_; }
  /// Packets that arrived at an endpoint with no bound handler (the
  /// receiver died or never bound). Together with the others:
  /// sent == lost + delivered + dropped_unbound + in_flight, always.
  std::uint64_t packets_dropped_unbound() const { return dropped_unbound_; }
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
  Simulator& sim_;
  std::shared_ptr<const Topology> topology_;
  NetworkConfig config_;
  std::uint64_t seed_;
  std::vector<Endpoint> endpoints_;
  std::vector<int> attachable_routers_;
  FaultPlan faults_;
  std::uint64_t sent_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_unbound_ = 0;
  std::uint64_t in_flight_ = 0;
};

}  // namespace mspastry::net
