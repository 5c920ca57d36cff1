// Network-partition fault injection: the overlay on each side keeps
// working for its own keys, and after healing the ring reconverges and
// global consistency returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "net/transit_stub.hpp"
#include "overlay/driver.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::OverlayDriver;

struct Fixture {
  std::shared_ptr<net::Topology> topo =
      std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(3, 3, 4));
  std::unique_ptr<OverlayDriver> driver;

  explicit Fixture(std::uint64_t seed, int nodes) {
    DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.0;
    cfg.warmup = 0;
    cfg.seed = seed;
    driver = std::make_unique<OverlayDriver>(topo, net::NetworkConfig{}, cfg);
    for (int i = 0; i < nodes; ++i) {
      driver->add_node();
      driver->run_for(seconds(2));
    }
    driver->run_for(minutes(3));
  }
};

TEST(NetworkPartition, FilterDropsCrossTraffic) {
  Fixture f(111, 10);
  const auto addrs = f.driver->live_addresses();
  std::vector<net::Address> side_a(addrs.begin(), addrs.begin() + 5);
  f.driver->network().partition(side_a);
  const auto lost_before = f.driver->network().packets_lost();
  // Cross-side lookup: the transmission is dropped by the filter.
  f.driver->issue_lookup(side_a[0],
                         f.driver->node(addrs[7])->descriptor().id);
  f.driver->run_for(seconds(2));
  EXPECT_GT(f.driver->network().packets_lost(), lost_before);
  f.driver->network().heal();
}

TEST(NetworkPartition, MinoritySideKeepsServingItsOwnKeys) {
  Fixture f(112, 30);
  auto addrs = f.driver->live_addresses();
  std::sort(addrs.begin(), addrs.end());
  std::vector<net::Address> minority(addrs.begin(), addrs.begin() + 8);
  f.driver->network().partition(minority);
  // Let failure detection tear the ring apart along the cut.
  f.driver->run_for(minutes(4));
  // A lookup from a minority node for a key owned by another minority
  // node must still be delivered to it.
  const NodeId key = f.driver->node(minority[3])->descriptor().id;
  bool delivered_at_owner = false;
  f.driver->on_app_deliver = [&](net::Address self,
                                 const pastry::LookupMsg& m) {
    if (m.key == key && self == minority[3]) delivered_at_owner = true;
  };
  f.driver->issue_lookup(minority[1], key);
  f.driver->run_for(minutes(1));
  EXPECT_TRUE(delivered_at_owner);
  f.driver->network().heal();
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
  f.driver->network().partition(side_a);
  f.driver->run_for(minutes(5));  // both sides repair around the cut
  f.driver->network().heal();
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
  const auto& net = f.driver->network();
  EXPECT_EQ(net.packets_sent(),
            net.packets_lost() + net.packets_delivered() +
                net.packets_dropped_unbound() + net.packets_in_flight());
}

TEST(NetworkPartition, PartitionComposesWithInstalledFaultRules) {
  // partition()/heal() ride the rule stack now: installing and healing a
  // partition must not disturb other injected faults, and the partition
  // drop is counted under kPartition.
  Fixture f(114, 10);
  auto& net = f.driver->network();
  net.faults().add(net::FaultRule::loss(net::LinkMatcher::all(), 0.01));
  const auto addrs = f.driver->live_addresses();
  std::vector<net::Address> side_a(addrs.begin(), addrs.begin() + 5);
  net.partition(side_a);
  EXPECT_EQ(net.faults().rule_count(), 2u);
  const auto cut_before =
      f.driver->metrics().fault_injections(net::FaultKind::kPartition);
  f.driver->issue_lookup(side_a[0],
                         f.driver->node(addrs[7])->descriptor().id);
  f.driver->run_for(seconds(2));
  EXPECT_GT(f.driver->metrics().fault_injections(net::FaultKind::kPartition),
            cut_before);
  net.heal();
  EXPECT_EQ(net.faults().rule_count(), 1u);  // the loss rule survives
  net.heal();                                // idempotent
  EXPECT_EQ(net.faults().rule_count(), 1u);
}

}  // namespace
}  // namespace mspastry
