// Network-partition fault injection: the overlay on each side keeps
// working for its own keys, and after healing the ring reconverges and
// global consistency returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::ShardedDriver;

struct Fixture {
  std::shared_ptr<net::Topology> topo =
      std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(3, 3, 4));
  std::unique_ptr<ShardedDriver> driver;

  explicit Fixture(std::uint64_t seed, int nodes) {
    DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.0;
    cfg.warmup = 0;
    cfg.seed = seed;
    driver =
        std::make_unique<ShardedDriver>(topo, net::NetworkConfig{}, cfg, 1);
    for (int i = 0; i < nodes; ++i) {
      driver->add_node();
      driver->run_for(seconds(2));
    }
    driver->run_for(minutes(3));
  }

  /// Bidirectionally cut `group` off from everyone else, from now on.
  net::FaultPlan::RuleId partition(const std::vector<net::Address>& group) {
    return driver->add_fault_rule(
        net::FaultRule::partition(net::LinkMatcher::cross(group),
                                  driver->now()));
  }
};

TEST(NetworkPartition, FilterDropsCrossTraffic) {
  Fixture f(111, 10);
  const auto addrs = f.driver->live_addresses();
  std::vector<net::Address> side_a(addrs.begin(), addrs.begin() + 5);
  const auto cut = f.partition(side_a);
  const auto lost_before = f.driver->packets_lost();
  // Cross-side lookup: the transmission is dropped by the filter.
  f.driver->issue_lookup(side_a[0],
                         f.driver->node(addrs[7])->descriptor().id);
  f.driver->run_for(seconds(2));
  EXPECT_GT(f.driver->packets_lost(), lost_before);
  f.driver->remove_fault_rule(cut);
}

TEST(NetworkPartition, MinoritySideKeepsServingItsOwnKeys) {
  Fixture f(112, 30);
  auto addrs = f.driver->live_addresses();
  std::sort(addrs.begin(), addrs.end());
  std::vector<net::Address> minority(addrs.begin(), addrs.begin() + 8);
  const auto cut = f.partition(minority);
  // Let failure detection tear the ring apart along the cut.
  f.driver->run_for(minutes(4));
  // A lookup from a minority node for a key owned by another minority
  // node must still be delivered to it (the oracle root: it is alive).
  const NodeId key = f.driver->node(minority[3])->descriptor().id;
  ASSERT_EQ(f.driver->oracle().root_of(key), minority[3]);
  const auto id = f.driver->issue_lookup(minority[1], key);
  f.driver->track_lookup(id);
  f.driver->run_for(minutes(1));
  const bool delivered_at_owner = f.driver->lookup_verdict(id) == true;
  EXPECT_TRUE(delivered_at_owner);
  f.driver->remove_fault_rule(cut);
}

TEST(NetworkPartition, MinorityRejoinAfterHealRestoresConsistency) {
  // A healed partition does not re-knit by itself: each side condemned
  // the other, pruned it from all routing state, and nothing references
  // it any more (the same holds for any crash-stop DHT — the paper's
  // fault model does not include partitions). Operationally the minority
  // side rejoins; this test pins down that recovery path.
  Fixture f(113, 30);
  auto addrs = f.driver->live_addresses();
  std::vector<net::Address> side_a(addrs.begin(), addrs.begin() + 8);
  const auto cut = f.partition(side_a);
  f.driver->run_for(minutes(5));  // both sides repair around the cut
  f.driver->remove_fault_rule(cut);
  // Minority nodes restart: crash them and start replacements (which
  // bootstrap through the driver's global rendezvous, as a deployment's
  // bootstrap service would).
  for (const auto a : side_a) f.driver->kill_node(a);
  for (std::size_t i = 0; i < side_a.size(); ++i) {
    f.driver->add_node();
    f.driver->run_for(seconds(5));
  }
  f.driver->run_for(minutes(6));
  // Full global ring consistency is restored: every node's successor
  // pointer agrees with the oracle's ground-truth ring.
  int consistent = 0;
  int checked = 0;
  for (const auto a : f.driver->live_addresses()) {
    const auto* n = f.driver->node(a);
    if (!n->active()) continue;
    const auto right = n->leaf_set().right_neighbour();
    if (!right) continue;
    ++checked;
    const auto succ = f.driver->oracle().successor_of(n->descriptor().id);
    if (succ && right->addr == succ->second) ++consistent;
  }
  EXPECT_EQ(consistent, checked);
  EXPECT_GT(checked, 25);
  // And lookups are globally correct again.
  for (int i = 0; i < 40; ++i) {
    const auto src = f.driver->oracle().random_active(f.driver->rng());
    f.driver->issue_lookup(src->second, f.driver->rng().node_id());
    f.driver->run_for(seconds(1));
  }
  f.driver->run_for(seconds(30));
  f.driver->finish();
  EXPECT_EQ(f.driver->metrics().lookups_delivered_incorrect(), 0u);
  EXPECT_EQ(f.driver->metrics().lookups_lost(), 0u);
  // Packet accounting stayed exact through partition, kills, and rejoin.
  const auto& d = *f.driver;
  EXPECT_EQ(static_cast<std::int64_t>(d.packets_sent()),
            static_cast<std::int64_t>(d.packets_lost() + d.packets_delivered() +
                                      d.packets_dropped_unbound()) +
                d.packets_in_flight());
}

TEST(NetworkPartition, PartitionComposesWithInstalledFaultRules) {
  // A partition is one rule on the stack: installing and healing it must
  // not disturb other injected faults, and the partition drop is counted
  // under kPartition.
  Fixture f(114, 10);
  f.driver->add_fault_rule(
      net::FaultRule::loss(net::LinkMatcher::all(), 0.01));
  const auto addrs = f.driver->live_addresses();
  std::vector<net::Address> side_a(addrs.begin(), addrs.begin() + 5);
  const auto cut = f.partition(side_a);
  EXPECT_EQ(f.driver->fault_plan().rule_count(), 2u);
  const auto cut_before =
      f.driver->metrics().fault_injections(net::FaultKind::kPartition);
  f.driver->issue_lookup(side_a[0],
                         f.driver->node(addrs[7])->descriptor().id);
  f.driver->run_for(seconds(2));
  EXPECT_TRUE(f.driver->remove_fault_rule(cut));
  EXPECT_EQ(f.driver->fault_plan().rule_count(), 1u);  // loss rule survives
  EXPECT_FALSE(f.driver->remove_fault_rule(cut));      // idempotent
  EXPECT_EQ(f.driver->fault_plan().rule_count(), 1u);
  f.driver->finish();  // folds the shards' injection counts into metrics
  EXPECT_GT(f.driver->metrics().fault_injections(net::FaultKind::kPartition),
            cut_before);
}

}  // namespace
}  // namespace mspastry
