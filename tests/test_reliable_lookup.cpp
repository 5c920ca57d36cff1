#include "apps/reliable_lookup.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"
#include "trace/churn_generators.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::ShardedDriver;

struct Fixture {
  std::shared_ptr<net::Topology> topo =
      std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(3, 3, 4));
  std::unique_ptr<apps::ReliableLookupService> rel;  // outlives the driver
  std::unique_ptr<ShardedDriver> driver;

  Fixture(std::uint64_t seed, int nodes, double loss = 0.0,
          apps::ReliableLookupService::Params params = {}) {
    DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.0;
    cfg.warmup = 0;
    cfg.seed = seed;
    net::NetworkConfig ncfg;
    ncfg.loss_rate = loss;
    driver = std::make_unique<ShardedDriver>(topo, ncfg, cfg, 1);
    rel = std::make_unique<apps::ReliableLookupService>(params);
    driver->attach_app(rel.get());
    for (int i = 0; i < nodes; ++i) {
      driver->add_node();
      driver->run_for(seconds(2));
    }
    driver->run_for(minutes(2));
  }

  net::Address random_node() {
    return driver->oracle().random_active(driver->rng())->second;
  }
};

TEST(ReliableLookup, AckArrivesFromOracleRoot) {
  Fixture f(81, 25);
  const NodeId key = f.driver->rng().node_id();
  bool ok = false;
  net::Address root = net::kNullAddress;
  f.rel->lookup(f.random_node(), key, [&](bool o, net::Address r) {
    ok = o;
    root = r;
  });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(root, *f.driver->oracle().root_of(key));
  EXPECT_EQ(f.rel->stats().acked, 1u);
  EXPECT_EQ(f.rel->stats().retransmissions, 0u);
}

TEST(ReliableLookup, SurvivesHeavyLinkLoss) {
  // 20% loss: even per-hop recovery occasionally gives up; end-to-end
  // retransmission must still succeed.
  Fixture f(82, 25, 0.20);
  int acked = 0;
  for (int i = 0; i < 40; ++i) {
    f.rel->lookup(f.random_node(), f.driver->rng().node_id(),
                  [&](bool o, net::Address) { acked += o; });
    f.driver->run_for(seconds(2));
  }
  f.driver->run_for(minutes(1));
  EXPECT_EQ(acked, 40);
  // Some retransmissions should have been needed at this loss rate
  // (the e2e ack itself is lost 20% of the time).
  EXPECT_GT(f.rel->stats().retransmissions, 0u);
}

TEST(ReliableLookup, ReportsFailureWhenRetriesExhausted) {
  apps::ReliableLookupService::Params params;
  params.retry_after = seconds(1);
  params.max_retries = 2;
  Fixture f(83, 10, 0.0, params);
  // Isolate the requester: a 100% lossy network would be simpler, but we
  // emulate by looking up from a node we kill immediately after issuing.
  const auto via = f.random_node();
  bool called = false;
  bool ok = true;
  f.rel->lookup(via, f.driver->rng().node_id(), [&](bool o, net::Address) {
    called = true;
    ok = o;
  });
  f.driver->kill_node(via);  // requester dies: acks go nowhere
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_EQ(f.rel->stats().failures, 1u);
}

TEST(ReliableLookup, DuplicateAcksAreIdempotent) {
  Fixture f(84, 15);
  int calls = 0;
  f.rel->lookup(f.random_node(), f.driver->rng().node_id(),
                [&](bool, net::Address) { ++calls; });
  f.driver->run_for(seconds(10));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(f.rel->stats().acked, 1u);
}

TEST(ReliableLookup, ManyConcurrentRequests) {
  Fixture f(85, 30);
  int acked = 0;
  for (int i = 0; i < 100; ++i) {
    f.rel->lookup(f.random_node(), f.driver->rng().node_id(),
                  [&](bool o, net::Address) { acked += o; });
  }
  f.driver->run_for(seconds(30));
  EXPECT_EQ(acked, 100);
  EXPECT_EQ(f.rel->stats().requests, 100u);
}

TEST(ReliableLookup, RecoversAcrossRootCrash) {
  apps::ReliableLookupService::Params params;
  params.retry_after = seconds(4);
  params.max_retries = 8;
  Fixture f(86, 30, 0.0, params);
  const NodeId key = f.driver->rng().node_id();
  const auto doomed_root = *f.driver->oracle().root_of(key);
  // Pick a requester that is not the root.
  net::Address via = f.random_node();
  while (via == doomed_root) via = f.random_node();
  bool ok = false;
  net::Address responder = net::kNullAddress;
  f.rel->lookup(via, key, [&](bool o, net::Address r) {
    ok = o;
    responder = r;
  });
  // Kill the root immediately: the first attempt may die with it, but a
  // retry must reach the new root.
  f.driver->kill_node(doomed_root);
  f.driver->run_for(minutes(2));
  EXPECT_TRUE(ok);
  EXPECT_EQ(responder, *f.driver->oracle().root_of(key));
  EXPECT_NE(responder, doomed_root);
}

}  // namespace
}  // namespace mspastry
