#pragma once

#include <map>
#include <optional>
#include <set>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "net/packet.hpp"

namespace mspastry::overlay {

/// Global ground truth, used only by the simulation harness (never by the
/// protocol): which nodes are currently active, and hence which node is
/// the *current root* of any key. Deliveries are checked against this to
/// measure the incorrect-delivery rate, and failure-detector verdicts are
/// checked against it to count false positives.
///
/// The ring-consistency verdict is maintained *incrementally*: nodes push
/// their current right neighbour through the driver whenever it changes,
/// and each membership delta re-evaluates only the nodes whose expected
/// successor can have changed (the new/removed node and its predecessor).
/// `ring_consistent()` is therefore O(1) — at N = 10,000 the old
/// once-a-second full rescan was O(N log N) per poll and dominated the
/// chaos and reconvergence harnesses.
class Oracle {
 public:
  /// A node completed the join protocol (Figure 2's activei = true).
  void node_activated(NodeId id, net::Address addr);

  /// A node left or crashed (active or not).
  void node_failed(NodeId id);

  /// A node's leaf-set right neighbour changed (nullopt: no neighbour).
  /// Reports from not-yet-active nodes are retained and start counting
  /// when the node activates.
  void node_reports_right(NodeId id, std::optional<net::Address> right);

  /// True when every active node's reported right neighbour matches its
  /// ground-truth ring successor and at least two nodes are active.
  /// Incrementally maintained; equivalent to a full rescan of all live
  /// nodes (see the differential test).
  bool ring_consistent() const {
    return active_.size() >= 2 && inconsistent_.empty();
  }

  /// Number of active nodes whose reported right neighbour disagrees with
  /// ground truth (diagnostics and tests).
  std::size_t inconsistent_count() const { return inconsistent_.size(); }

  bool is_active(NodeId id) const { return active_.count(id) > 0; }
  std::size_t active_count() const { return active_.size(); }

  /// The current root of `key`: the active node whose id is numerically
  /// closest modulo 2^128, with the same tie-break the protocol uses.
  std::optional<net::Address> root_of(NodeId key) const;

  /// A uniformly random active node (for bootstraps and workloads).
  std::optional<std::pair<NodeId, net::Address>> random_active(
      Rng& rng) const;

  /// The active node immediately clockwise of `id` (its ring successor,
  /// excluding `id` itself). Ground truth for leaf-set reconvergence
  /// checks; nullopt with fewer than two active nodes.
  std::optional<std::pair<NodeId, net::Address>> successor_of(
      NodeId id) const;

 private:
  /// Recompute `id`'s membership in `inconsistent_` from the stored
  /// report and the current ground truth.
  void refresh(NodeId id);

  std::map<NodeId, net::Address> active_;  // ordered by id
  /// Last reported right neighbour per live node (active or joining).
  std::map<NodeId, std::optional<net::Address>> right_;
  /// Active nodes whose report disagrees with their ring successor.
  std::set<NodeId> inconsistent_;
};

}  // namespace mspastry::overlay
