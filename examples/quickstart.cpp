// Quickstart: build a small MSPastry overlay on a simulated transit-stub
// network, route some lookups, and print what happened.
//
// This is the smallest end-to-end use of the public API:
//   topology -> ShardedDriver -> add_node()/issue_lookup() -> metrics.

#include <cstdio>
#include <memory>

#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"

using namespace mspastry;

int main() {
  // A scaled-down GATech-like transit-stub topology (4 transit domains,
  // 3 stub domains per transit router, 4 routers per stub).
  auto topology = std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(4, 3, 4));

  overlay::DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;  // we issue lookups by hand below
  cfg.warmup = 0;
  cfg.seed = 1;

  overlay::ShardedDriver driver(topology, net::NetworkConfig{}, cfg, 1);

  // Bring up 64 nodes, pausing between joins so each completes.
  std::printf("joining 64 nodes...\n");
  for (int i = 0; i < 64; ++i) {
    driver.add_node();
    driver.run_for(seconds(2));
  }
  driver.run_for(minutes(2));  // let joins and PNS gossip settle

  int active = 0;
  for (const auto a : driver.live_addresses()) {
    if (driver.node(a)->active()) ++active;
  }
  std::printf("active nodes: %d / %zu\n", active, driver.live_node_count());

  // Route 500 lookups from random nodes to random keys.
  std::printf("issuing 500 lookups...\n");
  for (int i = 0; i < 500; ++i) {
    const auto src = driver.oracle().random_active(driver.rng());
    if (!src) break;
    driver.issue_lookup(src->second, driver.rng().node_id());
    driver.run_for(milliseconds(200));
  }
  driver.run_for(seconds(30));
  driver.finish();

  const auto& m = driver.metrics();
  std::printf("\nresults\n");
  std::printf("  lookups issued:       %llu\n",
              (unsigned long long)m.lookups_issued());
  std::printf("  delivered correctly:  %llu\n",
              (unsigned long long)m.lookups_delivered_correct());
  std::printf("  delivered incorrectly:%llu\n",
              (unsigned long long)m.lookups_delivered_incorrect());
  std::printf("  lost:                 %llu\n",
              (unsigned long long)m.lookups_lost());
  std::printf("  mean RDP:             %.2f\n", m.mean_rdp());
  std::printf("  control traffic:      %.3f msgs/s/node\n",
              m.control_traffic_rate());
  return 0;
}
