#pragma once

#include <optional>

#include "common/inplace_callback.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "pastry/message.hpp"
#include "pastry/message_pool.hpp"
#include "pastry/types.hpp"
#include "sim/simulator.hpp"

namespace mspastry::obs {
class FlightRecorder;
}

namespace mspastry::pastry {

struct LookupMsg;
class NodeArena;

/// Everything a PastryNode needs from the outside world: a clock, timers,
/// a way to send messages, randomness, and upcall hooks. The overlay
/// driver implements this on top of the simulator and network; tests can
/// implement it directly to drive a node step by step.
class Env {
 public:
  virtual ~Env() = default;

  virtual SimTime now() const = 0;

  /// Schedule a callback after `delay`. Callbacks scheduled by a node must
  /// never fire after the node is destroyed; implementations guard this.
  /// The callback type is allocation-free up to kEnvCallbackCapacity
  /// bytes of captures; keep node timer lambdas small.
  virtual TimerId schedule(SimDuration delay, InplaceCallback fn) = 0;
  virtual void cancel(TimerId id) = 0;

  /// Transmit a message to a network address. The implementation stamps
  /// nothing: the node fills in sender/hints before calling.
  virtual void send(net::Address to, MessagePtr msg) = 0;

  /// An adversarial node "transmits" a message it actually devours: the
  /// driver accounts for it as sent + adversarially dropped (so the
  /// packet identity stays exact) but never schedules delivery. Default
  /// no-op: environments without a network (unit-test mocks) need no
  /// accounting.
  virtual void devour(net::Address to, MessagePtr msg) {
    (void)to;
    (void)msg;
  }

  /// The slab pool all of this node's messages are allocated from. Owned
  /// by the driver and shared by every node of a simulation; must outlive
  /// all messages in flight.
  virtual MessagePool& pool() = 0;

  virtual Rng& rng() = 0;

  /// Row slab for this node's routing table, shared by every node of a
  /// simulation so churn recycles rows (see NodeArena). May be nullptr
  /// (tests, standalone nodes): the table then owns a private arena.
  virtual NodeArena* routing_arena() { return nullptr; }

  /// A fresh bootstrap node for (re)starting a join. May be empty if the
  /// node is supposed to be the first in the overlay.
  virtual std::optional<NodeDescriptor> bootstrap_candidate() = 0;

  /// This node's flight recorder, or nullptr when observability is off
  /// (the default). The node caches the pointer at construction; the
  /// disabled path costs one null test per would-be event.
  virtual obs::FlightRecorder* recorder() { return nullptr; }

  // --- Upcalls ----------------------------------------------------------

  /// A lookup reached this node as the root and the node is active: the
  /// application-level delivery of Figure 2.
  virtual void on_deliver(const LookupMsg& m) = 0;

  /// A lookup is about to be forwarded to `next` (the forward() upcall of
  /// the structured-overlay common API). Return true to consume the
  /// message here instead of forwarding — application-level multicast
  /// (Scribe) uses this to splice reverse-path trees.
  virtual bool on_forward(const LookupMsg& m, const NodeDescriptor& next) {
    (void)m;
    (void)next;
    return false;
  }

  /// The node completed the join protocol and became active.
  virtual void on_activated() {}

  /// The node's failure detector marked `victim` faulty (used by the
  /// oracle to count false positives).
  virtual void on_marked_faulty(net::Address victim) { (void)victim; }

  /// The node's leaf-set right neighbour changed (nullopt: leaf set has
  /// no clockwise member). Fired only on actual changes; the driver feeds
  /// it to the oracle's incremental ring-consistency check.
  virtual void on_right_neighbour(const std::optional<NodeDescriptor>& right) {
    (void)right;
  }
};

}  // namespace mspastry::pastry
