// PAST-like replicated key-value store on MSPastry: stores values at each
// key's root node, replicates them to the closest leaf-set neighbours, and
// demonstrates that the data survives the root's crash — the archival-
// storage scenario that motivates consistent routing in the paper.

#include <cstdio>
#include <memory>
#include <string>

#include "apps/kv_store.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"

using namespace mspastry;

int main() {
  auto topology = std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(4, 3, 4));

  overlay::DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 2;
  apps::KvStoreService kv(/*replicas=*/4);  // outlives the driver using it
  overlay::ShardedDriver driver(topology, net::NetworkConfig{}, cfg, 1);
  driver.attach_app(&kv);
  kv.enable_repair(minutes(2));  // PAST-like replica maintenance

  std::printf("building a 50-node overlay...\n");
  for (int i = 0; i < 50; ++i) {
    driver.add_node();
    driver.run_for(seconds(2));
  }
  driver.run_for(minutes(2));

  auto random_node = [&] {
    return driver.oracle().random_active(driver.rng())->second;
  };

  // Store 20 objects from random nodes.
  std::printf("storing 20 objects...\n");
  int put_oks = 0;
  for (int i = 0; i < 20; ++i) {
    kv.put(random_node(), "object-" + std::to_string(i),
           "value-" + std::to_string(i), [&](bool ok) { put_oks += ok; });
    driver.run_for(seconds(1));
  }
  driver.run_for(seconds(10));
  std::printf("  puts acknowledged: %d/20, replicas stored: %llu\n", put_oks,
              (unsigned long long)kv.stats().replicas_stored);

  // Crash the root of object-7 and read it back through a replica.
  const NodeId key = NodeId::hash_of("object-7");
  const auto root = driver.oracle().root_of(key);
  std::printf("crashing the root of object-7 (node %d)...\n", *root);
  driver.kill_node(*root);
  driver.run_for(minutes(3));  // failure detection + leaf-set repair

  std::string got;
  bool found = false;
  kv.get(random_node(), "object-7", [&](bool ok, const std::string& v) {
    found = ok;
    got = v;
  });
  driver.run_for(seconds(10));
  std::printf("  get(object-7) after root crash: %s (\"%s\")\n",
              found ? "FOUND" : "lost", got.c_str());

  // Read everything back.
  int hits = 0;
  for (int i = 0; i < 20; ++i) {
    kv.get(random_node(), "object-" + std::to_string(i),
           [&](bool ok, const std::string&) { hits += ok; });
    driver.run_for(seconds(1));
  }
  driver.run_for(seconds(10));
  std::printf("  objects readable after the crash: %d/20\n", hits);
  std::printf("  gets: %llu hits / %llu misses\n",
              (unsigned long long)kv.stats().get_hits,
              (unsigned long long)kv.stats().get_misses);
  return found && hits == 20 ? 0 : 1;
}
