// Graceful departure (extension beyond the paper's crash-only fault
// model): a LEAVE notice removes the node from peers' routing state
// immediately, skipping failure-detection delay entirely.

#include <gtest/gtest.h>

#include <memory>

#include "mock_env.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::ShardedDriver;
using pastry::MsgType;
using testing::nd;
using testing::NodeHarness;

// --- Node-level semantics ----------------------------------------------------

TEST(Leave, NoticesGoToEveryRoutingStateMember) {
  NodeHarness h(nd(1000, 0));
  h.node->bootstrap();
  h.receive_ls_probe(nd(1010, 1));
  h.receive_ls_probe(nd(990, 2));
  auto rep = make_refcounted<pastry::DistanceReportMsg>();
  rep->rtt = milliseconds(5);
  h.receive(pastry::NodeDescriptor{NodeId{0x7000000000000000ull, 0}, 5},
            std::move(rep));
  h.env.drain();
  h.node->leave();
  std::set<net::Address> notified;
  for (const auto& s : h.env.drain()) {
    if (s.msg->type == MsgType::kLeave) notified.insert(s.to);
  }
  EXPECT_EQ(notified, (std::set<net::Address>{1, 2, 5}));
  EXPECT_FALSE(h.node->active());
}

TEST(Leave, ReceivedNoticeRemovesSenderImmediately) {
  NodeHarness h(nd(1000, 0));
  h.node->bootstrap();
  h.receive_ls_probe(nd(1010, 1));
  ASSERT_TRUE(h.node->leaf_set().contains(1));
  h.env.drain();
  h.receive(nd(1010, 1), make_refcounted<pastry::LeaveMsg>());
  EXPECT_FALSE(h.node->leaf_set().contains(1));
  // No confirm probe: the word came from the departing node itself.
  for (const auto& s : h.env.drain()) {
    EXPECT_FALSE(s.to == 1 && s.msg->type == MsgType::kLsProbe);
  }
  // And it is not in the failed set (the endpoint never returns).
  EXPECT_EQ(h.node->debug_state().failed_set_size, 0u);
}

TEST(Leave, LeaverIsNotMarkedFaulty) {
  NodeHarness h(nd(1000, 0));
  h.node->bootstrap();
  h.receive_ls_probe(nd(1010, 1));
  h.receive(nd(1010, 1), make_refcounted<pastry::LeaveMsg>());
  h.env.run_for(minutes(5));
  EXPECT_TRUE(h.env.marked_faulty().empty());
  EXPECT_EQ(h.counters.nodes_marked_faulty, 0u);
}

// --- End-to-end -----------------------------------------------------------------

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
    driver->run_for(minutes(2));
  }
};

TEST(Leave, PeersDropLeaverWithoutDetectionDelay) {
  Fixture f(91, 30);
  const auto leaver = f.driver->live_addresses()[10];
  f.driver->leave_node(leaver);
  // One network round-trip later (not Tls + probe timeouts later), no
  // survivor references the leaver.
  f.driver->run_for(seconds(2));
  for (const auto a : f.driver->live_addresses()) {
    EXPECT_FALSE(f.driver->node(a)->leaf_set().contains(leaver));
    EXPECT_FALSE(f.driver->node(a)->routing_table().contains(leaver));
  }
  EXPECT_EQ(f.driver->counters().nodes_marked_faulty, 0u);
}

TEST(Leave, LookupsRouteCorrectlyRightAfterLeave) {
  Fixture f(92, 30);
  const auto leaver = f.driver->live_addresses()[5];
  const NodeId leaver_id = f.driver->node(leaver)->descriptor().id;
  f.driver->leave_node(leaver);
  f.driver->run_for(seconds(2));
  // Keys the leaver owned route to the new root with no ack timeouts.
  const auto before_timeouts = f.driver->counters().ack_timeouts;
  for (int i = 0; i < 20; ++i) {
    const auto src = f.driver->oracle().random_active(f.driver->rng());
    f.driver->issue_lookup(src->second, leaver_id);
    f.driver->run_for(seconds(1));
  }
  f.driver->run_for(seconds(10));
  f.driver->finish();
  EXPECT_EQ(f.driver->metrics().lookups_delivered_correct(), 20u);
  EXPECT_EQ(f.driver->metrics().lookups_delivered_incorrect(), 0u);
  EXPECT_EQ(f.driver->counters().ack_timeouts, before_timeouts);
}

TEST(Leave, GracefulChurnBeatsCrashChurnOnTimeouts) {
  // The whole point of the extension: departures stop costing detection
  // timeouts. Compare ack timeouts under crash-churn vs leave-churn.
  auto run = [](bool graceful, std::uint64_t seed) {
    Fixture f(seed, 40);
    f.driver->start_workload();  // needs lookup_rate; set below instead
    Rng wl(seed * 3 + 1);
    std::uint64_t timeouts_before = f.driver->counters().ack_timeouts;
    for (int round = 0; round < 10; ++round) {
      // Lookups in flight while nodes depart.
      for (int i = 0; i < 10; ++i) {
        const auto src = f.driver->oracle().random_active(f.driver->rng());
        f.driver->issue_lookup(src->second, f.driver->rng().node_id());
      }
      const auto victim =
          f.driver->live_addresses()[wl.uniform_index(
              f.driver->live_node_count())];
      if (graceful) {
        f.driver->leave_node(victim);
      } else {
        f.driver->kill_node(victim);
      }
      f.driver->run_for(seconds(20));
      f.driver->add_node();  // keep the population up
      f.driver->run_for(seconds(20));
    }
    return f.driver->counters().ack_timeouts - timeouts_before;
  };
  const auto crash_timeouts = run(false, 93);
  const auto leave_timeouts = run(true, 93);
  EXPECT_LT(leave_timeouts, crash_timeouts);
}

}  // namespace
}  // namespace mspastry
