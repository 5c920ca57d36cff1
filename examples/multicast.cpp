// Scribe-like application-level multicast on MSPastry (one of the
// application classes the paper's introduction motivates): groups are
// keys, the key's root is the rendezvous point, and subscription routes
// splice reverse-path trees via the common-API forward() upcall.

#include <cstdio>
#include <memory>
#include <set>

#include "apps/multicast.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"

using namespace mspastry;

int main() {
  auto topology = std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(4, 3, 4));

  overlay::DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 4;
  apps::MulticastService mc;  // outlives the driver using it
  overlay::ShardedDriver driver(topology, net::NetworkConfig{}, cfg, 1);

  driver.attach_app(&mc);

  std::printf("building a 60-node overlay...\n");
  for (int i = 0; i < 60; ++i) {
    driver.add_node();
    driver.run_for(seconds(2));
  }
  driver.run_for(minutes(2));

  const NodeId group = apps::MulticastService::group_id("alerts");
  const auto addrs = driver.live_addresses();

  // Half the overlay subscribes.
  std::printf("subscribing 30 members...\n");
  std::set<net::Address> members;
  for (int i = 0; i < 30; ++i) {
    members.insert(addrs[static_cast<std::size_t>(i)]);
    mc.subscribe(addrs[static_cast<std::size_t>(i)], group);
    driver.run_for(milliseconds(500));
  }
  driver.run_for(seconds(10));

  std::set<net::Address> got;
  mc.on_message = [&](net::Address m, NodeId, std::uint64_t) {
    got.insert(m);
  };

  // Publish ten messages from random nodes.
  std::printf("publishing 10 messages...\n");
  int complete = 0;
  for (std::uint64_t msg = 1; msg <= 10; ++msg) {
    got.clear();
    mc.publish(addrs[driver.rng().uniform_index(addrs.size())], group, msg);
    driver.run_for(seconds(5));
    if (got == members) ++complete;
  }
  std::printf("  deliveries complete for %d/10 messages\n", complete);
  std::printf("  tree stats: %llu subscribes, %llu tree-edge forwards, "
              "%llu member deliveries\n",
              (unsigned long long)mc.stats().subscribes,
              (unsigned long long)mc.stats().forwards,
              (unsigned long long)mc.stats().deliveries);

  // Members re-subscribe (soft state), then survive a forwarder crash.
  std::printf("crashing a node and refreshing the tree...\n");
  driver.kill_node(addrs[40]);  // a non-member (possible forwarder)
  driver.run_for(minutes(2));
  for (const auto m : members) mc.subscribe(m, group);
  driver.run_for(seconds(10));
  got.clear();
  mc.publish(addrs[5], group, 99);
  driver.run_for(seconds(5));
  std::printf("  after crash + refresh: %zu/%zu members reached\n",
              got.size(), members.size());
  return complete == 10 ? 0 : 1;
}
