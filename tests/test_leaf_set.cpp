#include "pastry/leaf_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace mspastry::pastry {
namespace {

NodeDescriptor nd(std::uint64_t lo, net::Address addr) {
  return NodeDescriptor{NodeId{0, lo}, addr};
}

TEST(LeafSet, StartsEmpty) {
  LeafSet ls(NodeId{0, 1000}, 8);
  EXPECT_TRUE(ls.empty());
  EXPECT_EQ(ls.size(), 0);
  EXPECT_FALSE(ls.right_neighbour());
  EXPECT_FALSE(ls.left_neighbour());
  EXPECT_FALSE(ls.leftmost());
  EXPECT_FALSE(ls.rightmost());
}

TEST(LeafSet, IgnoresSelf) {
  LeafSet ls(NodeId{0, 1000}, 8);
  EXPECT_FALSE(ls.add(nd(1000, 1)));
  EXPECT_TRUE(ls.empty());
}

TEST(LeafSet, AddAndNeighbours) {
  LeafSet ls(NodeId{0, 1000}, 8);
  EXPECT_TRUE(ls.add(nd(1010, 1)));  // successor
  EXPECT_TRUE(ls.add(nd(990, 2)));   // predecessor
  EXPECT_EQ(ls.size(), 2);
  EXPECT_EQ(ls.right_neighbour()->addr, 1);
  EXPECT_EQ(ls.left_neighbour()->addr, 2);
}

TEST(LeafSet, DuplicateAddIsNoop) {
  LeafSet ls(NodeId{0, 1000}, 8);
  EXPECT_TRUE(ls.add(nd(1010, 1)));
  EXPECT_FALSE(ls.add(nd(1010, 1)));
  EXPECT_EQ(ls.size(), 1);
}

TEST(LeafSet, RemoveByAddress) {
  LeafSet ls(NodeId{0, 1000}, 8);
  ls.add(nd(1010, 1));
  ls.add(nd(990, 2));
  EXPECT_TRUE(ls.remove(1));
  EXPECT_FALSE(ls.remove(1));
  EXPECT_EQ(ls.size(), 1);
  EXPECT_FALSE(ls.contains(1));
  EXPECT_TRUE(ls.contains(2));
}

TEST(LeafSet, FindReturnsDescriptor) {
  LeafSet ls(NodeId{0, 1000}, 8);
  ls.add(nd(1010, 7));
  const auto d = ls.find(7);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->id, (NodeId{0, 1010}));
  EXPECT_FALSE(ls.find(8));
}

TEST(LeafSet, EvictsMiddleWhenOverCapacity) {
  // l = 4: keep the 2 closest successors and 2 closest predecessors.
  LeafSet ls(NodeId{0, 1000}, 4);
  ls.add(nd(1001, 1));
  ls.add(nd(1002, 2));
  ls.add(nd(1003, 3));  // middle-distance successors
  ls.add(nd(999, 4));
  ls.add(nd(998, 5));
  ls.add(nd(997, 6));
  EXPECT_EQ(ls.size(), 4);
  EXPECT_TRUE(ls.contains(1));
  EXPECT_TRUE(ls.contains(2));
  EXPECT_TRUE(ls.contains(4));
  EXPECT_TRUE(ls.contains(5));
  EXPECT_FALSE(ls.contains(3));  // evicted: 3rd successor
  EXPECT_FALSE(ls.contains(6));  // evicted: 3rd predecessor
}

TEST(LeafSet, AddReportsEvictionOfInsertee) {
  LeafSet ls(NodeId{0, 1000}, 4);
  ls.add(nd(1001, 1));
  ls.add(nd(1002, 2));
  ls.add(nd(999, 3));
  ls.add(nd(998, 4));
  // 1003 is farther than both successors and both predecessors: evicted
  // immediately, so add() reports no membership change.
  EXPECT_FALSE(ls.add(nd(1003, 5)));
  EXPECT_FALSE(ls.contains(5));
}

TEST(LeafSet, ExtremesWithFullSides) {
  LeafSet ls(NodeId{0, 1000}, 4);
  ls.add(nd(1001, 1));
  ls.add(nd(1005, 2));
  ls.add(nd(999, 3));
  ls.add(nd(995, 4));
  EXPECT_EQ(ls.rightmost()->addr, 2);  // farthest successor in window
  EXPECT_EQ(ls.leftmost()->addr, 4);   // farthest predecessor in window
  EXPECT_EQ(ls.right_neighbour()->addr, 1);
  EXPECT_EQ(ls.left_neighbour()->addr, 3);
  EXPECT_TRUE(ls.full());
}

TEST(LeafSet, CoversInsideArcOnly) {
  LeafSet ls(NodeId{0, 1000}, 4);
  ls.add(nd(1001, 1));
  ls.add(nd(1005, 2));
  ls.add(nd(999, 3));
  ls.add(nd(995, 4));
  EXPECT_TRUE(ls.covers(NodeId{0, 1000}));
  EXPECT_TRUE(ls.covers(NodeId{0, 1003}));
  EXPECT_TRUE(ls.covers(NodeId{0, 995}));
  EXPECT_TRUE(ls.covers(NodeId{0, 1005}));
  EXPECT_FALSE(ls.covers(NodeId{0, 2000}));
  EXPECT_FALSE(ls.covers(NodeId{0, 500}));
}

TEST(LeafSet, UndersizedLeafSetCoversRing) {
  LeafSet ls(NodeId{0, 1000}, 8);
  ls.add(nd(1010, 1));
  EXPECT_TRUE(ls.covers(NodeId{123, 456}));
}

TEST(LeafSet, ClosestPicksRingNearest) {
  LeafSet ls(NodeId{0, 1000}, 8);
  ls.add(nd(1010, 1));
  ls.add(nd(990, 2));
  ls.add(nd(1100, 3));
  // Key 1011: member 1010 is closest.
  EXPECT_EQ(ls.closest(NodeId{0, 1011})->addr, 1);
  // Key 1001: self (1000) is closest: nullopt.
  EXPECT_FALSE(ls.closest(NodeId{0, 1001}));
  // Key 991: member 990.
  EXPECT_EQ(ls.closest(NodeId{0, 991})->addr, 2);
}

/// The closest of self (nullopt) and the members by a linear scan.
std::optional<NodeDescriptor> closest_by_scan(const LeafSet& ls, NodeId k) {
  std::optional<NodeDescriptor> best;
  NodeId best_id = ls.self();
  for (const NodeDescriptor& m : ls.members()) {
    if (m.id.closer_to(k, best_id)) {
      best = m;
      best_id = m.id;
    }
  }
  return best;
}

/// An id with the low bit cleared: any two such ids are an even distance
/// apart, so the midpoint between them is exactly equidistant.
NodeId even_id(Rng& rng) {
  const NodeId id = rng.node_id();
  return NodeId{id.value().hi, id.value().lo & ~std::uint64_t{1}};
}

TEST(LeafSet, ClosestMatchesLinearScan) {
  Rng rng(80);
  int full = 0;
  int wrapped = 0;
  int ties = 0;
  for (int round = 0; round < 300; ++round) {
    const int l = 2 << rng.uniform_index(5);  // 2..32
    const NodeId self = even_id(rng);
    LeafSet ls(self, l);
    const auto n = static_cast<int>(rng.uniform_index(2 * l + 1));
    for (int i = 0; i < n; ++i) ls.add(NodeDescriptor{even_id(rng), i + 1});
    (ls.full() ? full : wrapped) += 1;

    std::vector<NodeId> keys{self};
    for (int i = 0; i < 20; ++i) keys.push_back(rng.node_id());
    // Every member, each side of it, and the midpoint between cyclically
    // adjacent points of {self} + members (self and the last member
    // included), where the tie-break decides.
    std::vector<NodeId> ring{self};
    for (const NodeDescriptor& m : ls.members()) ring.push_back(m.id);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const NodeId a = ring[i];
      const NodeId b = ring[(i + 1) % ring.size()];
      keys.push_back(a);
      keys.push_back(NodeId{a.value() + U128{0, 1}});
      keys.push_back(NodeId{a.value() - U128{0, 1}});
      if (a != b) {
        const NodeId mid{a.value() + (a.clockwise_distance_to(b) >> 1)};
        ASSERT_EQ(mid.ring_distance_to(a), mid.ring_distance_to(b));
        keys.push_back(mid);
        ++ties;
      }
    }
    for (const NodeId k : keys) {
      const auto want = closest_by_scan(ls, k);
      const auto got = ls.closest(k);
      ASSERT_EQ(got.has_value(), want.has_value()) << "round " << round;
      if (want) {
        EXPECT_EQ(got->id, want->id);
        EXPECT_EQ(got->addr, want->addr);
      }
    }
  }
  EXPECT_GT(full, 0);
  EXPECT_GT(wrapped, 0);
  EXPECT_GT(ties, 0);
}

TEST(LeafSet, WrapAroundRingOrder) {
  // Self near the top of the ring: successors wrap through zero.
  const NodeId self{UINT64_MAX, UINT64_MAX - 5};
  LeafSet ls(self, 4);
  ls.add(NodeDescriptor{NodeId{0, 10}, 1});          // just past zero
  ls.add(NodeDescriptor{NodeId{UINT64_MAX, 0}, 2});  // predecessor-ish
  EXPECT_EQ(ls.right_neighbour()->addr, 1);
  EXPECT_EQ(ls.left_neighbour()->addr, 2);
}

TEST(LeafSet, SameIdNewAddressUpdates) {
  LeafSet ls(NodeId{0, 1000}, 8);
  ls.add(nd(1010, 1));
  EXPECT_TRUE(ls.add(nd(1010, 9)));  // same id re-announced elsewhere
  EXPECT_EQ(ls.size(), 1);
  EXPECT_TRUE(ls.contains(9));
  EXPECT_FALSE(ls.contains(1));
}

TEST(LeafSetProperty, MembersAlwaysSortedByClockwiseDistance) {
  Rng rng(77);
  const NodeId self = rng.node_id();
  LeafSet ls(self, 16);
  for (int i = 0; i < 200; ++i) {
    ls.add(NodeDescriptor{rng.node_id(), i});
    const auto& m = ls.members();
    for (std::size_t k = 1; k < m.size(); ++k) {
      EXPECT_LT(self.clockwise_distance_to(m[k - 1].id),
                self.clockwise_distance_to(m[k].id));
    }
    EXPECT_LE(ls.size(), 16);
  }
}

TEST(LeafSetProperty, KeepsTheClosestOnBothSides) {
  // After many inserts, the left window must equal the l/2 smallest
  // counter-clockwise distances seen (brute-force cross-check).
  Rng rng(78);
  const NodeId self = rng.node_id();
  const int l = 8;
  LeafSet ls(self, l);
  std::vector<NodeDescriptor> all;
  for (int i = 0; i < 100; ++i) {
    const NodeDescriptor d{rng.node_id(), i};
    all.push_back(d);
    ls.add(d);
  }
  auto by_cw = all;
  std::sort(by_cw.begin(), by_cw.end(),
            [&](const NodeDescriptor& a, const NodeDescriptor& b) {
              return self.clockwise_distance_to(a.id) <
                     self.clockwise_distance_to(b.id);
            });
  for (int i = 0; i < l / 2; ++i) {
    EXPECT_TRUE(ls.contains(by_cw[static_cast<std::size_t>(i)].addr))
        << "successor " << i;
    EXPECT_TRUE(
        ls.contains(by_cw[by_cw.size() - 1 - static_cast<std::size_t>(i)]
                        .addr))
        << "predecessor " << i;
  }
}

TEST(LeafSetProperty, ClosestMatchesBruteForce) {
  Rng rng(79);
  const NodeId self = rng.node_id();
  LeafSet ls(self, 16);
  std::vector<NodeDescriptor> members;
  for (int i = 0; i < 16; ++i) {
    const NodeDescriptor d{rng.node_id(), i};
    if (ls.add(d)) members.push_back(d);
  }
  for (int trial = 0; trial < 100; ++trial) {
    const NodeId key = rng.node_id();
    NodeId best = self;
    for (const auto& m : ls.members()) {
      if (m.id.closer_to(key, best)) best = m.id;
    }
    const auto got = ls.closest(key);
    if (best == self) {
      EXPECT_FALSE(got);
    } else {
      ASSERT_TRUE(got);
      EXPECT_EQ(got->id, best);
    }
  }
}

}  // namespace
}  // namespace mspastry::pastry
