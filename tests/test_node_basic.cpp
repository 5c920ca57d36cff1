#include <gtest/gtest.h>

#include <memory>

#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::ShardedDriver;

std::shared_ptr<net::Topology> small_topology() {
  return std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(3, 2, 4));
}

DriverConfig quiet_config(std::uint64_t seed = 1) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = seed;
  return cfg;
}

TEST(NodeBasic, FirstNodeBootstrapsImmediately) {
  ShardedDriver d(small_topology(), {}, quiet_config(), 1);
  const auto a = d.add_node();
  EXPECT_TRUE(d.node(a)->active());
  EXPECT_TRUE(d.node(a)->leaf_set().empty());
  EXPECT_EQ(d.oracle().active_count(), 1u);
}

TEST(NodeBasic, SingletonDeliversToItself) {
  ShardedDriver d(small_topology(), {}, quiet_config(), 1);
  const auto a = d.add_node();
  d.issue_lookup(a, d.rng().node_id());
  d.run_for(seconds(5));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 1u);
}

TEST(NodeBasic, SecondNodeJoinsAndBothKnowEachOther) {
  ShardedDriver d(small_topology(), {}, quiet_config(), 1);
  const auto a = d.add_node();
  const auto b = d.add_node();
  d.run_for(minutes(2));
  ASSERT_TRUE(d.node(b)->active());
  EXPECT_TRUE(d.node(a)->leaf_set().contains(b));
  EXPECT_TRUE(d.node(b)->leaf_set().contains(a));
}

TEST(NodeBasic, TwoNodeOverlayRoutesToCorrectRoot) {
  ShardedDriver d(small_topology(), {}, quiet_config(3), 1);
  const auto a = d.add_node();
  d.run_for(seconds(2));
  const auto b = d.add_node();
  d.run_for(minutes(2));
  for (int i = 0; i < 50; ++i) {
    d.issue_lookup(i % 2 == 0 ? a : b, d.rng().node_id());
  }
  d.run_for(seconds(30));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 50u);
  EXPECT_EQ(d.metrics().lookups_delivered_incorrect(), 0u);
  EXPECT_EQ(d.metrics().lookups_lost(), 0u);
}

TEST(NodeBasic, SmallRingActivatesDespiteUndersizedLeafSet) {
  // 5 nodes with l = 32: leaf sets can never be full; the small-ring
  // convergence rule must still activate everyone.
  ShardedDriver d(small_topology(), {}, quiet_config(4), 1);
  for (int i = 0; i < 5; ++i) {
    d.add_node();
    d.run_for(seconds(10));
  }
  d.run_for(minutes(3));
  for (const auto a : d.live_addresses()) {
    EXPECT_TRUE(d.node(a)->active());
    EXPECT_EQ(d.node(a)->leaf_set().size(), 4);
  }
}

TEST(NodeBasic, JoiningNodeGetsRoutingTableEntries) {
  ShardedDriver d(small_topology(), {}, quiet_config(5), 1);
  for (int i = 0; i < 20; ++i) {
    d.add_node();
    d.run_for(seconds(5));
  }
  d.run_for(minutes(3));
  // With 20 nodes and b=4, most nodes should have several RT entries
  // (first-row columns for other first digits).
  int with_entries = 0;
  for (const auto a : d.live_addresses()) {
    if (d.node(a)->routing_table().entry_count() >= 3) ++with_entries;
  }
  EXPECT_GE(with_entries, 15);
}

TEST(NodeBasic, LeafSetsFormAConsistentRing) {
  ShardedDriver d(small_topology(), {}, quiet_config(6), 1);
  for (int i = 0; i < 24; ++i) {
    d.add_node();
    d.run_for(seconds(5));
  }
  d.run_for(minutes(3));
  // Every node's right neighbour must name this node as its left
  // neighbour (the ring invariant that underpins consistency).
  for (const auto a : d.live_addresses()) {
    const auto* n = d.node(a);
    ASSERT_TRUE(n->active());
    const auto right = n->leaf_set().right_neighbour();
    ASSERT_TRUE(right);
    const auto* rn = d.node(right->addr);
    ASSERT_NE(rn, nullptr);
    const auto back = rn->leaf_set().left_neighbour();
    ASSERT_TRUE(back);
    EXPECT_EQ(back->addr, a);
  }
}

TEST(NodeBasic, LookupFromBufferedWhileJoining) {
  ShardedDriver d(small_topology(), {}, quiet_config(7), 1);
  const auto a = d.add_node();
  d.run_for(seconds(2));
  const auto b = d.add_node();
  // Issue immediately, while b is still joining: must be buffered and
  // delivered after activation.
  d.issue_lookup(b, d.node(a)->descriptor().id);
  d.run_for(minutes(2));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 1u);
}

TEST(NodeBasic, EstimatesOverlaySize) {
  ShardedDriver d(small_topology(), {}, quiet_config(8), 1);
  for (int i = 0; i < 30; ++i) {
    d.add_node();
    d.run_for(seconds(4));
  }
  d.run_for(minutes(3));
  const auto addrs = d.live_addresses();
  double sum = 0;
  for (const auto a : addrs) sum += d.node(a)->estimate_overlay_size();
  const double mean_estimate = sum / static_cast<double>(addrs.size());
  // Leaf sets wrap (30 < l), so the estimate is exact: size of ring.
  EXPECT_NEAR(mean_estimate, 30.0, 2.0);
}

TEST(NodeBasic, FailureRateEstimateRespondsToChurn) {
  auto cfg = quiet_config(9);
  ShardedDriver d(small_topology(), {}, cfg, 1);
  for (int i = 0; i < 16; ++i) {
    d.add_node();
    d.run_for(seconds(4));
  }
  // The estimate is seeded from the join time and decays while quiet...
  d.run_for(minutes(2));
  // The witness joined through the protocol (address 0 bootstrapped the
  // overlay, and bootstrap() does not seed the estimator).
  const auto witness = d.live_addresses()[1];
  const double early = d.node(witness)->estimate_failure_rate();
  d.run_for(hours(2));
  const double quiet = d.node(witness)->estimate_failure_rate();
  EXPECT_LT(quiet, early);
  // ...and a burst of observed failures pushes it back up.
  for (int i = 0; i < 8; ++i) {
    d.kill_node(d.live_addresses().back());
    d.run_for(minutes(1));
  }
  const double churned = d.node(witness)->estimate_failure_rate();
  EXPECT_GT(churned, quiet);
}

TEST(NodeBasic, SelfTunedPeriodTracksFailureRate) {
  // A larger overlay (expected hops > 1) so the tuner has routing-table
  // hops to protect: more churn must mean a shorter probing period.
  auto cfg = quiet_config(12);
  ShardedDriver d(small_topology(), {}, cfg, 1);
  for (int i = 0; i < 48; ++i) {
    d.add_node();
    d.run_for(seconds(2));
  }
  d.run_for(hours(1));  // let the join-time bias decay
  const auto witness = d.live_addresses().front();
  const double quiet_trt = d.node(witness)->local_trt_seconds();
  for (int i = 0; i < 16; ++i) {
    d.kill_node(d.live_addresses().back());
    d.run_for(seconds(30));
  }
  const double churned_trt = d.node(witness)->local_trt_seconds();
  EXPECT_LT(churned_trt, quiet_trt);
}

TEST(NodeBasic, CountersTrackJoins) {
  ShardedDriver d(small_topology(), {}, quiet_config(10), 1);
  for (int i = 0; i < 6; ++i) {
    d.add_node();
    d.run_for(seconds(10));
  }
  d.run_for(minutes(2));
  EXPECT_EQ(d.counters().joins_started, 6u);
  EXPECT_EQ(d.counters().joins_completed, 6u);
}

TEST(NodeBasic, RoutingStateSizeCountsUniqueNodes) {
  ShardedDriver d(small_topology(), {}, quiet_config(11), 1);
  for (int i = 0; i < 10; ++i) {
    d.add_node();
    d.run_for(seconds(5));
  }
  d.run_for(minutes(2));
  for (const auto a : d.live_addresses()) {
    EXPECT_LE(d.node(a)->routing_state_size(), 9u);
    EXPECT_GE(d.node(a)->routing_state_size(), 5u);
  }
}

}  // namespace
}  // namespace mspastry
