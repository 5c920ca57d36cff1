// Convergence invariants: after the overlay settles, every node's leaf
// set must equal the ground-truth ring neighbourhood, and PNS must have
// made routing-table entries measurably closer than random nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::ShardedDriver;

struct Settled {
  std::shared_ptr<net::Topology> topo =
      std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(4, 3, 4));
  std::unique_ptr<ShardedDriver> driver;

  Settled(std::uint64_t seed, int nodes, bool pns = true) {
    DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.0;
    cfg.warmup = 0;
    cfg.seed = seed;
    cfg.pastry.pns = pns;
    driver =
        std::make_unique<ShardedDriver>(topo, net::NetworkConfig{}, cfg, 1);
    for (int i = 0; i < nodes; ++i) {
      driver->add_node();
      driver->run_for(seconds(2));
    }
    driver->run_for(minutes(10));  // joins + gossip + maintenance settle
  }
};

TEST(Convergence, LeafSetsMatchGroundTruthNeighbourhoods) {
  Settled s(101, 60);
  // Ground truth: all live ids sorted.
  std::vector<std::pair<NodeId, net::Address>> ring;
  for (const auto a : s.driver->live_addresses()) {
    ring.emplace_back(s.driver->node(a)->descriptor().id, a);
  }
  std::sort(ring.begin(), ring.end());
  const int n = static_cast<int>(ring.size());
  const int per_side = 16;  // l/2

  for (int i = 0; i < n; ++i) {
    const auto* node = s.driver->node(ring[static_cast<std::size_t>(i)].second);
    ASSERT_TRUE(node->active());
    const auto& leaf = node->leaf_set();
    // Every one of the 16 nearest successors and predecessors must be a
    // member (60 > l+1, so leaf sets do not wrap).
    for (int k = 1; k <= per_side; ++k) {
      const auto succ = ring[static_cast<std::size_t>((i + k) % n)].second;
      const auto pred =
          ring[static_cast<std::size_t>((i - k + n) % n)].second;
      EXPECT_TRUE(leaf.contains(succ))
          << "node " << i << " missing successor " << k;
      EXPECT_TRUE(leaf.contains(pred))
          << "node " << i << " missing predecessor " << k;
    }
    EXPECT_EQ(leaf.size(), 32);
  }
}

TEST(Convergence, RoutingTablesHoldOnlyLiveNodesWithCorrectPrefixes) {
  Settled s(102, 60);
  for (const auto a : s.driver->live_addresses()) {
    const auto* node = s.driver->node(a);
    const NodeId self = node->descriptor().id;
    node->routing_table().for_each(
        [&](int r, int c, const pastry::RoutingTable::Entry& e) {
          EXPECT_NE(s.driver->node(e.node.addr), nullptr)
              << "stale routing-table entry";
          EXPECT_EQ(self.shared_prefix_length(e.node.id, 4), r);
          EXPECT_EQ(static_cast<int>(e.node.id.digit(r, 4)), c);
        });
  }
}

TEST(Convergence, FirstRowIsWellPopulated) {
  Settled s(103, 80);
  // With 80 nodes and b=4, most of the 15 non-self columns of row 0 have
  // at least one live node; tables should have found nearly all of them.
  double fill = 0;
  int counted = 0;
  for (const auto a : s.driver->live_addresses()) {
    fill += static_cast<double>(
        s.driver->node(a)->routing_table().row_entries(0).size());
    ++counted;
  }
  EXPECT_GT(fill / counted, 10.0);
}

TEST(Convergence, PnsMakesTableEntriesCloserThanRandom) {
  Settled with_pns(104, 60, true);
  Settled without(104, 60, false);
  auto mean_entry_rtt = [](Settled& s) {
    double sum = 0;
    int n = 0;
    for (const auto a : s.driver->live_addresses()) {
      s.driver->node(a)->routing_table().for_each(
          [&](int, int, const pastry::RoutingTable::Entry& e) {
            sum += to_seconds(2 * s.driver->delay(a, e.node.addr));
            ++n;
          });
    }
    return n ? sum / n : 0.0;
  };
  auto mean_random_rtt = [](Settled& s) {
    double sum = 0;
    int n = 0;
    const auto addrs = s.driver->live_addresses();
    for (int i = 0; i < 2000; ++i) {
      const auto a = addrs[s.driver->rng().uniform_index(addrs.size())];
      const auto b = addrs[s.driver->rng().uniform_index(addrs.size())];
      if (a == b) continue;
      sum += to_seconds(2 * s.driver->delay(a, b));
      ++n;
    }
    return sum / n;
  };
  const double pns_rtt = mean_entry_rtt(with_pns);
  const double nopns_rtt = mean_entry_rtt(without);
  const double random_rtt = mean_random_rtt(with_pns);
  // PNS entries are clearly closer than random; without PNS they are not.
  EXPECT_LT(pns_rtt, 0.8 * random_rtt);
  EXPECT_GT(nopns_rtt, 0.85 * random_rtt);
}

TEST(Convergence, OverlaySizeEstimatesTrackTruth) {
  Settled s(105, 80);
  double sum = 0;
  int n = 0;
  for (const auto a : s.driver->live_addresses()) {
    sum += s.driver->node(a)->estimate_overlay_size();
    ++n;
  }
  // 80 nodes with l=32: density-based estimates; expect the mean to land
  // within a factor ~1.6 of the truth (the paper uses them only to pick
  // probing periods, which vary logarithmically).
  EXPECT_GT(sum / n, 80.0 / 1.6);
  EXPECT_LT(sum / n, 80.0 * 1.6);
}

TEST(Convergence, TrtEstimatesConvergeWithTraffic) {
  // Gossiped medians need message flow to spread; with lookup traffic and
  // time, the bulk of the overlay agrees on the probing period (the young
  // overlay starts with join-time-biased estimates spread over decades).
  Settled s(106, 60);
  s.driver->start_workload();  // no-op: rate is 0 in Settled
  for (int i = 0; i < 600; ++i) {
    const auto src = s.driver->oracle().random_active(s.driver->rng());
    s.driver->issue_lookup(src->second, s.driver->rng().node_id());
    s.driver->run_for(seconds(3));
  }
  std::vector<double> trts;
  for (const auto a : s.driver->live_addresses()) {
    trts.push_back(s.driver->node(a)->current_trt_seconds());
  }
  std::sort(trts.begin(), trts.end());
  const double p25 = trts[trts.size() / 4];
  const double p75 = trts[trts.size() * 3 / 4];
  EXPECT_LT(p75 / std::max(1.0, p25), 8.0);
}

}  // namespace
}  // namespace mspastry
