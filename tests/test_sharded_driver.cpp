#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

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

DriverConfig small_config() {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.05;
  cfg.metrics_window = minutes(1);
  cfg.warmup = minutes(2);
  cfg.seed = 71;
  return cfg;
}

trace::ChurnTrace small_trace() {
  return trace::generate_poisson(minutes(10), 600.0, 60, 31);
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

std::uint64_t fold_f(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return fold(h, bits);
}

/// Everything observable a run produces, folded into one value: if any
/// of it depends on the shard count, runs at different counts diverge.
std::uint64_t digest(ShardedDriver& d) {
  std::uint64_t h = 14695981039346656037ull;
  h = fold(h, d.executed_events());
  const auto& m = d.metrics();
  h = fold(h, m.lookups_issued());
  h = fold(h, m.lookups_delivered_correct());
  h = fold(h, m.lookups_delivered_incorrect());
  h = fold(h, m.lookups_lost());
  h = fold(h, m.joins_started());
  h = fold(h, m.joins_completed());
  h = fold_f(h, m.mean_rdp());
  h = fold_f(h, m.control_traffic_rate());
  h = fold_f(h, m.total_traffic_rate());
  const auto& c = d.counters();
  h = fold(h, c.heartbeats_sent);
  h = fold(h, c.rt_probes_sent);
  h = fold(h, c.ls_probes_sent);
  h = fold(h, c.distance_probes_sent);
  h = fold(h, c.acks_sent);
  h = fold(h, c.ack_timeouts);
  h = fold(h, c.nodes_marked_faulty);
  h = fold(h, c.false_positives);
  h = fold(h, c.lookups_forwarded);
  h = fold(h, c.joins_completed);
  h = fold(h, d.packets_sent());
  h = fold(h, d.packets_lost());
  h = fold(h, d.packets_delivered());
  h = fold(h, d.packets_dropped_unbound());
  return h;
}

TEST(ShardedDriver, DigestInvariantAcrossShardCounts) {
  const auto trace = small_trace();
  std::uint64_t want = 0;
  std::uint64_t want_events = 0;
  for (const std::size_t s : {1u, 2u, 4u, 8u}) {
    ShardedDriver d(topo(), {}, small_config(), s);
    ASSERT_GT(d.lookahead(), 0) << "GATech-like topology must give lookahead";
    if (s > 1) {
      ASSERT_GT(d.effective_shards(), 1u);
    }
    d.run_trace(trace);
    const std::uint64_t got = digest(d);
    if (s == 1) {
      want = got;
      want_events = d.executed_events();
      // The run itself must be a healthy overlay run, or the digest
      // equality below is vacuous.
      EXPECT_GT(d.metrics().lookups_issued(), 100u);
      EXPECT_GT(d.metrics().lookups_delivered_correct(), 100u);
      EXPECT_LT(d.metrics().loss_rate(), 0.05);
      EXPECT_GT(d.metrics().joins_completed(), 30u);
    } else {
      EXPECT_EQ(got, want) << "shards=" << s;
      EXPECT_EQ(d.executed_events(), want_events) << "shards=" << s;
      EXPECT_GT(d.epochs(), 1u);
    }
  }
}

TEST(ShardedDriver, DenseLookupLoadRunsOnThePoolWithTheOneShardDigest) {
  // The other overlay runs here average under two events per epoch, so
  // the engine runs them on the main thread. A 40 ms LAN link makes each
  // epoch 80 ms wide and one lookup per node per second fills it: about
  // half the epochs then go to the worker pool, which runs the shards
  // concurrently, and the run must still match one shard's bytes. Fault
  // rules and a dropping adversary put their paths on the workers too.
  const auto trace = small_trace();
  DriverConfig cfg = small_config();
  cfg.lookup_rate_per_node = 1.0;
  net::NetworkConfig ncfg;
  ncfg.lan_delay = milliseconds(40);
  std::uint64_t want = 0;
  std::uint64_t want_events = 0;
  for (const std::size_t s : {1u, 2u, 4u}) {
    ShardedDriver d(topo(), ncfg, cfg, s);
    d.add_fault_rule(net::FaultRule::loss(net::LinkMatcher::all(), 0.01));
    d.add_fault_rule(net::FaultRule::duplicate(net::LinkMatcher::all(), 0.005,
                                               milliseconds(1)));
    d.add_fault_rule(net::FaultRule::reorder(net::LinkMatcher::all(), 0.02,
                                             milliseconds(15)));
    overlay::ShardedAdversaryConfig adv;
    adv.behavior = overlay::AdversaryBehavior::kDrop;
    adv.fraction = 0.1;
    adv.arm_at = minutes(1);
    adv.seed = 0xadd5a17ull;
    d.set_adversary(adv);
    d.run_trace(trace, minutes(3));
    const std::uint64_t got = digest(d);
    if (s == 1) {
      want = got;
      want_events = d.executed_events();
      EXPECT_GT(d.metrics().lookups_delivered_correct(), 10'000u);
      EXPECT_GT(d.packets_dropped_adversarial(), 0u);
      EXPECT_GT(d.metrics().fault_injections(net::FaultKind::kDuplicate), 0u);
    } else {
      EXPECT_EQ(got, want) << "shards=" << s;
      EXPECT_EQ(d.executed_events(), want_events) << "shards=" << s;
      EXPECT_GT(d.epoch_telemetry().pool_epochs, 1000u) << "shards=" << s;
      EXPECT_LT(d.epoch_telemetry().pool_epochs, d.epochs()) << "shards=" << s;
    }
  }
}

TEST(ShardedDriver, PerPairLookaheadMatchesGlobalBoundWithFewerEpochs) {
  // Differential: widening the lookahead from the global min-link bound
  // to the per-shard-pair Topology::min_delay_between bound must change
  // *only* the epoch structure, never the simulation. Joins are spaced
  // seconds apart — orders of magnitude beyond either lookahead — so
  // bootstrap-candidate visibility (the one barrier-cadence-sensitive
  // read) is identical under both epoch layouts.
  std::vector<trace::ChurnEvent> events;
  for (int i = 0; i < 50; ++i) {
    events.push_back({seconds(2 * i), i, trace::ChurnEventType::kJoin});
  }
  const trace::ChurnTrace trace(std::move(events), "spaced-joins");

  DriverConfig cfg = small_config();
  cfg.lookup_rate_per_node = 0.1;

  std::uint64_t global_digest = 0, global_epochs = 0;
  SimDuration global_lookahead = 0;
  {
    ShardedDriver d(topo(), {}, cfg, 4);
    d.run_trace(trace, minutes(5));
    global_digest = digest(d);
    global_epochs = d.epochs();
    global_lookahead = d.lookahead();
    EXPECT_GT(d.metrics().lookups_delivered_correct(), 100u);
  }
  {
    cfg.per_pair_lookahead = true;
    ShardedDriver d(topo(), {}, cfg, 4);
    d.run_trace(trace, minutes(5));
    EXPECT_EQ(digest(d), global_digest);
    EXPECT_GT(d.lookahead(), global_lookahead);
    EXPECT_LT(d.epochs(), global_epochs);
    EXPECT_GT(d.epochs(), 0u);
  }
}

TEST(ShardedDriver, PacketAccountingIdentityHolds) {
  ShardedDriver d(topo(), {}, small_config(), 4);
  d.run_trace(small_trace());
  EXPECT_EQ(d.packets_sent(),
            d.packets_lost() + d.packets_delivered() +
                d.packets_dropped_unbound() + d.packets_dropped_adversarial() +
                static_cast<std::uint64_t>(d.packets_in_flight()));
}

TEST(ShardedDriver, PacketAccountingIdentityHoldsUnderAdversary) {
  // devour() is a real accounting path on the sharded engine: adversarial
  // drops land in their own bucket and the conservation identity closes.
  ShardedDriver d(topo(), {}, small_config(), 4);
  overlay::ShardedAdversaryConfig adv;
  adv.behavior = overlay::AdversaryBehavior::kDrop;
  adv.fraction = 0.25;
  adv.arm_at = minutes(2);
  adv.seed = 9;
  d.set_adversary(adv);
  d.run_trace(small_trace());
  EXPECT_GT(d.packets_dropped_adversarial(), 0u);
  EXPECT_EQ(d.packets_sent(),
            d.packets_lost() + d.packets_delivered() +
                d.packets_dropped_unbound() + d.packets_dropped_adversarial() +
                static_cast<std::uint64_t>(d.packets_in_flight()));
}

/// A topology with no positive delay bound (the base-class default) and
/// no LAN delay: lookahead is zero and the engine must fall back to
/// single-shard execution rather than deadlock or violate causality.
class FlatTopology final : public net::Topology {
 public:
  int router_count() const override { return 4; }
  SimDuration delay(int a, int b) const override { return a == b ? 0 : 50; }
  std::string name() const override { return "flat"; }
};

TEST(ShardedDriver, ZeroLookaheadTopologyFallsBackToSingleShard) {
  net::NetworkConfig nc;
  nc.lan_delay = 0;
  ShardedDriver d(std::make_shared<FlatTopology>(), nc, small_config(), 4);
  EXPECT_EQ(d.lookahead(), 0);
  EXPECT_EQ(d.effective_shards(), 1u);
  EXPECT_EQ(d.requested_shards(), 4u);
  d.run_trace(small_trace());
  EXPECT_GT(d.metrics().lookups_delivered_correct(), 100u);
}

/// Eight routers, of which only the odd ones take end nodes; records
/// every router pair the driver asks a delay for.
class OddRoutersTopology final : public net::Topology {
 public:
  int router_count() const override { return 8; }
  SimDuration delay(int a, int b) const override {
    queried.emplace_back(a, b);
    return a == b ? 0 : milliseconds(10 + a + b);
  }
  std::string name() const override { return "odd-routers"; }
  bool attachable(int router) const override { return router % 2 == 1; }
  SimDuration min_positive_delay() const override { return milliseconds(10); }

  mutable std::vector<std::pair<int, int>> queried;
};

TEST(ShardedDriver, AddNodeAttachesOnlyToAttachableRouters) {
  const auto t = std::make_shared<OddRoutersTopology>();
  ShardedDriver d(t, {}, small_config(), 1);
  std::vector<net::Address> added;
  for (int i = 0; i < 40; ++i) added.push_back(d.add_node());
  for (const net::Address a : added) {
    for (const net::Address b : added) d.delay(a, b);
  }
  std::set<int> used;
  for (const auto& [a, b] : t->queried) {
    EXPECT_EQ(a % 2, 1) << "router " << a;
    EXPECT_EQ(b % 2, 1) << "router " << b;
    used.insert(a);
    used.insert(b);
  }
  EXPECT_EQ(used, (std::set<int>{1, 3, 5, 7}));  // and every one of them
}

TEST(ShardedDriver, DelayIncludesBothLanLinksAndIsZeroToSelf) {
  const auto t = std::make_shared<OddRoutersTopology>();
  net::NetworkConfig nc;
  nc.lan_delay = milliseconds(3);
  ShardedDriver d(t, nc, small_config(), 1);
  std::vector<net::Address> added;
  for (int i = 0; i < 6; ++i) added.push_back(d.add_node());
  for (const net::Address a : added) {
    EXPECT_EQ(d.delay(a, a), 0);
    for (const net::Address b : added) {
      if (a == b) continue;
      t->queried.clear();
      const SimDuration ab = d.delay(a, b);
      ASSERT_EQ(t->queried.size(), 1u);
      const auto [ra, rb] = t->queried.back();
      EXPECT_EQ(ab, t->delay(ra, rb) + 2 * milliseconds(3));
      EXPECT_EQ(ab, d.delay(b, a));
    }
  }
}

TEST(ShardedDriver, FaultRecipeIsShardCountInvariant) {
  // Every randomized rule kind at once: the single plan's draws are keyed
  // by packet identity, so the run — and each kind's injection count —
  // is byte-identical at 1, 2 and 4 shards.
  const auto trace = small_trace();
  struct Outcome {
    std::uint64_t digest = 0;
    std::array<std::uint64_t, net::kFaultKindCount> injected{};
  };
  const auto run = [&trace](std::size_t shards) {
    ShardedDriver d(topo(), {}, small_config(), shards);
    d.add_fault_rule(net::FaultRule::loss(net::LinkMatcher::all(), 0.01));
    d.add_fault_rule(net::FaultRule::delay_spike(net::LinkMatcher::all(),
                                                 milliseconds(20), minutes(3),
                                                 minutes(6)));
    d.add_fault_rule(net::FaultRule::duplicate(net::LinkMatcher::all(), 0.005,
                                               milliseconds(1)));
    d.add_fault_rule(net::FaultRule::reorder(net::LinkMatcher::all(), 0.02,
                                             milliseconds(15)));
    d.add_fault_rule(net::FaultRule::flap(net::LinkMatcher::endpoint({3, 17}),
                                          seconds(20), 0.5, minutes(4),
                                          minutes(7)));
    if (shards > 1) {
      EXPECT_GT(d.effective_shards(), 1u);
    }
    d.run_trace(trace);
    Outcome o;
    o.digest = digest(d);
    for (std::size_t k = 0; k < net::kFaultKindCount; ++k) {
      o.injected[k] =
          d.metrics().fault_injections(static_cast<net::FaultKind>(k));
    }
    return o;
  };
  const Outcome one = run(1);
  for (const net::FaultKind k :
       {net::FaultKind::kLoss, net::FaultKind::kDelaySpike,
        net::FaultKind::kDuplicate, net::FaultKind::kReorder,
        net::FaultKind::kFlap}) {
    EXPECT_GT(one.injected[static_cast<std::size_t>(k)], 0u)
        << net::fault_kind_name(k);
  }
  for (const std::size_t shards : {2u, 4u}) {
    const Outcome o = run(shards);
    EXPECT_EQ(o.digest, one.digest) << shards << " shards";
    EXPECT_EQ(o.injected, one.injected) << shards << " shards";
  }
}

TEST(ShardedDriver, ReorderIsCountedAsReorder) {
  // Reorder jitter is its own fault kind, not a delay spike.
  ShardedDriver d(topo(), {}, small_config(), 2);
  d.add_fault_rule(net::FaultRule::reorder(net::LinkMatcher::all(), 0.05,
                                           milliseconds(10)));
  d.run_trace(small_trace());
  EXPECT_GT(d.metrics().fault_injections(net::FaultKind::kReorder), 0u);
  EXPECT_EQ(d.metrics().fault_injections(net::FaultKind::kDelaySpike), 0u);
}

TEST(ShardedDriver, FaultRecipeActuallyInjects) {
  ShardedDriver d(topo(), {}, small_config(), 4);
  d.add_fault_rule(net::FaultRule::loss(net::LinkMatcher::all(), 0.02));
  d.run_trace(small_trace());
  EXPECT_GT(d.metrics().fault_injections(net::FaultKind::kLoss), 0u);
  EXPECT_GT(d.metrics().lookups_delivered_correct(), 100u);
}

/// An attached app whose workload rate is zero: it never asks for a
/// request, and its ticks (at the driver's 1e-6/s floor) are counted.
class IdleApp final : public overlay::ShardedApp {
 public:
  void on_run_start(ShardedDriver&, std::size_t) override {}
  double workload_rate(SimTime) const override { return 0.0; }
  void workload_tick(const ShardedDriver::AppNode&) override { ++ticks; }
  void deliver(const ShardedDriver::AppNode&,
               const pastry::LookupMsg&) override {}
  void packet(const ShardedDriver::AppNode&, net::Address,
              const net::PacketPtr&) override {}
  int ticks = 0;
};

TEST(ShardedDriver, AppWithZeroRateReplacesPoissonLookups) {
  // An attached app's workload replaces the driver's Poisson lookups: at
  // rate 0 nobody issues anything, although lookup_rate_per_node is set.
  const auto issued = [](bool with_app) {
    IdleApp idle;
    ShardedDriver d(topo(), {}, small_config(), 1);
    if (with_app) d.attach_app(&idle);
    d.run_trace(small_trace());
    EXPECT_EQ(idle.ticks, 0);
    return d.metrics().lookups_issued();
  };
  EXPECT_GT(issued(false), 100u);  // the Poisson workload, without an app
  EXPECT_EQ(issued(true), 0u);
}

/// Drives the imperative surface through every kind of call between runs:
/// adds, kills, leaves and tracked lookups; a partition rule added and
/// later removed; an adversary armed (corrupted nodes plus an eclipse
/// cluster) and then cleared. Returns the digest of everything observable.
std::uint64_t imperative_scenario(std::size_t shards) {
  DriverConfig cfg = small_config();
  cfg.warmup = 0;
  ShardedDriver d(topo(), {}, cfg, shards);
  if (shards > 1) {
    EXPECT_GT(d.effective_shards(), 1u);
  }
  for (int i = 0; i < 24; ++i) {
    d.add_node();
    d.run_for(seconds(2));
  }
  d.run_for(minutes(1));
  d.start_workload();
  std::vector<std::uint64_t> tracked;
  const auto probe = [&d, &tracked](int n) {
    for (int i = 0; i < n; ++i) {
      const auto src = d.oracle().random_active(d.rng());
      if (!src || d.session_is_adversarial(src->second)) continue;
      tracked.push_back(d.issue_lookup(src->second, d.rng().node_id()));
      d.track_lookup(tracked.back());
      d.run_for(seconds(1));
    }
  };

  // A partition for a minute, healed between runs. Both sides condemn
  // each other, so the minority restarts (the operational recovery path):
  // crashes, replacements join.
  const auto addrs = d.live_addresses();
  const std::vector<net::Address> minority(addrs.begin(), addrs.begin() + 6);
  const auto cut = d.add_fault_rule(
      net::FaultRule::partition(net::LinkMatcher::cross(minority), d.now()));
  probe(10);
  d.run_for(minutes(1));
  EXPECT_TRUE(d.remove_fault_rule(cut));
  for (const auto a : minority) d.kill_node(a);
  for (std::size_t i = 0; i < minority.size(); ++i) {
    d.add_node();
    d.run_for(seconds(2));
  }
  d.leave_node(addrs[7]);
  d.leave_node(addrs[9]);
  d.run_for(minutes(1));

  // An adversary, armed now and cleared a few minutes later.
  overlay::ShardedAdversaryConfig adv;
  adv.behavior = overlay::AdversaryBehavior::kMisroute;
  adv.fraction = 0.2;
  adv.eclipse_sybils = 4;
  adv.eclipse_victim = d.node(d.live_addresses()[3])->descriptor().id;
  adv.seed = 0xadd5a17ull;
  d.set_adversary(adv);
  d.run_for(seconds(30));
  probe(10);
  std::uint64_t adversarial = 0;
  for (const auto a : d.live_addresses()) {
    adversarial += d.session_is_adversarial(a) ? 1 : 0;
  }
  for (const auto a : d.sybil_addresses()) d.kill_node(a);
  d.clear_adversary();
  probe(10);
  d.run_for(minutes(2));
  d.finish();

  std::uint64_t h = digest(d);
  h = fold(h, adversarial);
  h = fold(h, d.metrics().fault_injections(net::FaultKind::kPartition));
  h = fold(h, d.counters().lookups_misrouted_adversarial);
  h = fold(h, d.live_node_count());
  for (const auto id : tracked) {
    const auto v = d.lookup_verdict(id);
    h = fold(h, v ? 1u + *v : 0u);
  }
  if (shards == 1) {
    // The calls must actually bite, or the equality is vacuous.
    EXPECT_GE(tracked.size(), 25u);
    EXPECT_GT(d.metrics().lookups_issued(), 100u);
    EXPECT_GT(d.metrics().fault_injections(net::FaultKind::kPartition), 0u);
    EXPECT_GT(d.counters().lookups_misrouted_adversarial, 0u);
    EXPECT_EQ(adversarial, 4u + 4u);  // 4 sybils, round(0.2 * 22)
    EXPECT_EQ(d.live_node_count(), 22u);
    EXPECT_EQ(d.metrics().joins_completed(), 24u + 6u + 4u);
  }
  return h;
}

TEST(ShardedDriver, ImperativeScenarioIsShardCountInvariant) {
  const std::uint64_t want = imperative_scenario(1);
  for (const std::size_t s : {2u, 4u}) {
    EXPECT_EQ(imperative_scenario(s), want) << "shards=" << s;
  }
}

}  // namespace
}  // namespace mspastry
