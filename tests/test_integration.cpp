#include <gtest/gtest.h>

#include <memory>

#include "net/corpnet.hpp"
#include "net/hier_as.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"
#include "trace/churn_generators.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::ShardedDriver;

std::shared_ptr<net::Topology> topo() {
  return std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(4, 3, 4));
}

/// Build an overlay of `n` nodes, settled.
void grow(ShardedDriver& d, int n) {
  for (int i = 0; i < n; ++i) {
    d.add_node();
    d.run_for(seconds(2));
  }
  d.run_for(minutes(3));
}

TEST(Integration, StaticOverlayDeliversEverythingToOracleRoot) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 21;
  ShardedDriver d(topo(), {}, cfg, 1);
  grow(d, 80);
  for (int i = 0; i < 400; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, d.rng().node_id());
    d.run_for(milliseconds(100));
  }
  d.run_for(seconds(30));
  d.finish();
  const auto& m = d.metrics();
  EXPECT_EQ(m.lookups_delivered_correct(), 400u);
  EXPECT_EQ(m.lookups_delivered_incorrect(), 0u);
  EXPECT_EQ(m.lookups_lost(), 0u);
  EXPECT_EQ(d.counters().false_positives, 0u);
}

TEST(Integration, RdpIsReasonableWithPns) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 22;
  ShardedDriver d(topo(), {}, cfg, 1);
  grow(d, 80);
  for (int i = 0; i < 300; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, d.rng().node_id());
    d.run_for(milliseconds(200));
  }
  d.run_for(seconds(30));
  d.finish();
  // The paper reports RDP ~1.8 on GATech; leave headroom but require the
  // stretch to be clearly bounded.
  EXPECT_GT(d.metrics().mean_rdp(), 1.0);
  EXPECT_LT(d.metrics().mean_rdp(), 3.5);
}

TEST(Integration, SurvivesSingleNodeCrash) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 23;
  ShardedDriver d(topo(), {}, cfg, 1);
  grow(d, 40);
  const auto victim = d.live_addresses().front();
  const NodeId victim_id = d.node(victim)->descriptor().id;
  d.kill_node(victim);
  // Lookups keyed at the dead node's id must now reach the new root.
  d.run_for(minutes(2));  // allow failure detection
  for (int i = 0; i < 20; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, victim_id);
    d.run_for(seconds(1));
  }
  d.run_for(seconds(30));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 20u);
  EXPECT_EQ(d.metrics().lookups_delivered_incorrect(), 0u);
  EXPECT_EQ(d.metrics().lookups_lost(), 0u);
}

TEST(Integration, PerHopAcksRouteAroundUndetectedFailure) {
  // Kill a node and immediately route lookups toward its id *before*
  // failure detection kicks in: per-hop ack timeouts must reroute.
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 24;
  ShardedDriver d(topo(), {}, cfg, 1);
  grow(d, 40);
  const auto victim = d.live_addresses()[5];
  const NodeId victim_id = d.node(victim)->descriptor().id;
  d.kill_node(victim);
  for (int i = 0; i < 10; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, victim_id);  // no settling time
  }
  d.run_for(minutes(1));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 10u);
  EXPECT_EQ(d.metrics().lookups_lost(), 0u);
  EXPECT_GT(d.counters().ack_timeouts, 0u);
}

TEST(Integration, MassFailureRepairsLeafSets) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 25;
  ShardedDriver d(topo(), {}, cfg, 1);
  grow(d, 60);
  // Kill half the overlay at once.
  auto addrs = d.live_addresses();
  for (std::size_t i = 0; i < addrs.size() / 2; ++i) {
    d.kill_node(addrs[i]);
  }
  d.run_for(minutes(5));  // detection + repair
  // Every survivor's ring must be consistent again.
  for (const auto a : d.live_addresses()) {
    const auto* n = d.node(a);
    if (!n->active()) continue;
    const auto right = n->leaf_set().right_neighbour();
    ASSERT_TRUE(right);
    EXPECT_NE(d.node(right->addr), nullptr)
        << "leaf set still points at a dead node";
  }
  // And lookups still work.
  for (int i = 0; i < 30; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, d.rng().node_id());
    d.run_for(seconds(1));
  }
  d.run_for(seconds(30));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_incorrect(), 0u);
  EXPECT_EQ(d.metrics().lookups_lost(), 0u);
}

TEST(Integration, ChurnKeepsRoutingConsistent) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.01;
  cfg.warmup = minutes(10);
  cfg.seed = 26;
  overlay::ShardedDriver d(topo(), {}, cfg, 1);
  const auto trace = trace::generate_poisson(minutes(50), 20 * 60.0, 80, 5);
  d.run_trace(trace);
  const auto& m = d.metrics();
  EXPECT_GT(m.lookups_issued(), 500u);
  EXPECT_EQ(m.lookups_delivered_incorrect(), 0u);
  // The paper itself reports ~1.5e-5 lost lookups even with no network
  // losses (e.g. a lookup buffered at a node that dies mid-join); require
  // the rate to stay tiny, not exactly zero.
  EXPECT_LT(m.loss_rate(), 0.002);
  EXPECT_EQ(d.counters().false_positives, 0u);
}

TEST(Integration, WorksOnMercatorLikeTopology) {
  net::HierASParams p;
  p.autonomous_systems = 30;
  p.routers_per_as = 10;
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 27;
  net::NetworkConfig ncfg;
  ncfg.lan_delay = 0;  // Mercator attaches end nodes directly
  ShardedDriver d(std::make_shared<net::HierASTopology>(p), ncfg, cfg, 1);
  grow(d, 40);
  for (int i = 0; i < 100; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, d.rng().node_id());
    d.run_for(milliseconds(300));
  }
  d.run_for(seconds(30));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 100u);
  EXPECT_EQ(d.metrics().lookups_lost(), 0u);
}

TEST(Integration, WorksOnCorpNetTopology) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 28;
  ShardedDriver d(std::make_shared<net::CorpNetTopology>(net::CorpNetParams{}),
                  {}, cfg, 1);
  grow(d, 40);
  for (int i = 0; i < 100; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, d.rng().node_id());
    d.run_for(milliseconds(300));
  }
  d.run_for(seconds(30));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 100u);
  EXPECT_EQ(d.metrics().lookups_lost(), 0u);
}

TEST(Integration, DeterministicForSameSeed) {
  auto run = [] {
    DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.05;
    cfg.warmup = 0;
    cfg.seed = 29;
    overlay::ShardedDriver d(topo(), {}, cfg, 1);
    const auto trace = trace::generate_poisson(minutes(15), 600.0, 40, 9);
    d.run_trace(trace);
    return std::tuple{d.metrics().lookups_issued(),
                      d.metrics().lookups_delivered_correct(),
                      d.executed_events()};
  };
  EXPECT_EQ(run(), run());
}

// Route-progress property: next_hop from any node must strictly reduce
// ring distance to the key (the invariant that makes routing loop-free).
TEST(Integration, LookupHopCountIsLogarithmic) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 30;
  ShardedDriver d(topo(), {}, cfg, 1);
  grow(d, 100);
  for (int i = 0; i < 200; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, d.rng().node_id());
    d.run_for(milliseconds(100));
  }
  d.run_for(seconds(30));
  d.finish();
  // ~log_16(100) ≈ 1.7 routing hops expected; each lookup transmission is
  // counted in lookups_forwarded. Allow generous headroom.
  const double mean_hops =
      static_cast<double>(d.counters().lookups_forwarded) / 200.0;
  EXPECT_LT(mean_hops, 4.0);
  EXPECT_GT(mean_hops, 0.9);
}

}  // namespace
}  // namespace mspastry
