#pragma once

#include <optional>

#include "common/node_id.hpp"
#include "pastry/types.hpp"

namespace mspastry::pastry {

/// A Pastry leaf set: the l/2 active nodes with identifiers closest to the
/// local node on each side of the ring. Members are kept sorted by
/// clockwise distance from the local id; the "right" side is the l/2
/// nearest successors, the "left" side the l/2 nearest predecessors. When
/// the overlay has fewer than l other nodes, a member can be on both
/// sides (the leaf set wraps around the whole ring).
///
/// This container is pure state: all protocol rules about *when* a node
/// may be inserted (only after hearing from it directly) or removed live
/// in PastryNode.
class LeafSet {
 public:
  LeafSet(NodeId self, int l);

  NodeId self() const { return self_; }
  int capacity_per_side() const { return l_ / 2; }

  /// Insert (or refresh) a member. Returns true if membership changed.
  /// Inserting the local id is a no-op. Members pushed out of both side
  /// windows by closer nodes are dropped.
  bool add(const NodeDescriptor& d);

  /// Remove by address. Returns true if a member was removed.
  bool remove(net::Address a);

  bool contains(net::Address a) const;
  std::optional<NodeDescriptor> find(net::Address a) const;

  int size() const { return static_cast<int>(members_.size()); }
  bool empty() const { return members_.empty(); }

  /// Number of distinct members currently on each side.
  int left_count() const;
  int right_count() const;

  /// Both sides at full capacity: l distinct members, so the windows do
  /// not overlap. (Small-ring convergence — a ring with fewer than l+1
  /// nodes can never be "full" — is detected by the node's repair logic,
  /// not here.)
  bool full() const { return size() >= l_; }

  /// Nearest neighbours on the ring.
  std::optional<NodeDescriptor> right_neighbour() const;  // 1st successor
  std::optional<NodeDescriptor> left_neighbour() const;   // 1st predecessor

  /// Extremes of each side: the farthest predecessor / successor known.
  std::optional<NodeDescriptor> leftmost() const;
  std::optional<NodeDescriptor> rightmost() const;

  /// True if key k falls inside the arc covered by the leaf set
  /// [leftmost, rightmost]. An empty or wrapped (size < l) leaf set covers
  /// the whole ring.
  bool covers(NodeId k) const;

  /// The member (or the local node, returned as nullopt) closest to k on
  /// the ring, with the ownership tie-break. nullopt means "the local
  /// node is the closest". O(log l): a binary search for k's two cyclic
  /// neighbours in the clockwise order, then one comparison.
  std::optional<NodeDescriptor> closest(NodeId k) const;

  /// All members, nearest-successor first (clockwise order).
  const LeafVec& members() const { return members_; }

 private:
  U128 cw_from_self(NodeId id) const { return self_.clockwise_distance_to(id); }
  /// Number of members closer clockwise than `cw` (a lower bound).
  int rank(U128 cw) const;

  NodeId self_;
  int l_;
  /// Sorted by clockwise distance. Inline up to the paper's l = 32, and
  /// add() evicts before inserting when full, so a node's leaf set never
  /// touches the heap at the default configuration.
  LeafVec members_;
};

}  // namespace mspastry::pastry
