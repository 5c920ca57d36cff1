// The fault-injection engine (rule stack semantics, determinism, per-packet
// fates, packet accounting) and the chaos harness (scaled-down scenario
// runs against a live overlay with oracle-checked invariants, and with
// every timer callback stored inline).

#include "overlay/chaos.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/inplace_callback.hpp"
#include "net/packet_fate.hpp"
#include "net/transit_stub.hpp"
#include "trace/churn_generators.hpp"

namespace mspastry {
namespace {

using net::Address;
using net::FaultKind;
using net::FaultKindSet;
using net::FaultPlan;
using net::FaultRule;
using net::LinkMatcher;

// ---------------------------------------------------------------- matchers

TEST(LinkMatcher, OneWayMatchesSingleDirection) {
  const auto m = LinkMatcher::one_way({1, 2}, {5});
  EXPECT_TRUE(m.matches(1, 5));
  EXPECT_TRUE(m.matches(2, 5));
  EXPECT_FALSE(m.matches(5, 1));  // reverse direction unaffected
  EXPECT_FALSE(m.matches(1, 6));
}

TEST(LinkMatcher, OneWayEmptySetIsWildcard) {
  const auto m = LinkMatcher::one_way({1}, {});
  EXPECT_TRUE(m.matches(1, 99));
  EXPECT_FALSE(m.matches(99, 1));
}

TEST(LinkMatcher, CrossCutsBothDirections) {
  const auto m = LinkMatcher::cross({1, 2});
  EXPECT_TRUE(m.matches(1, 5));
  EXPECT_TRUE(m.matches(5, 1));
  EXPECT_FALSE(m.matches(1, 2));  // inside the group
  EXPECT_FALSE(m.matches(5, 6));  // outside the group
}

TEST(LinkMatcher, EndpointMatchesAllLinksOfANode) {
  const auto m = LinkMatcher::endpoint({3});
  EXPECT_TRUE(m.matches(3, 7));
  EXPECT_TRUE(m.matches(7, 3));
  EXPECT_FALSE(m.matches(7, 8));
}

// --------------------------------------------------------------- rule stack

TEST(FaultPlan, RuleWindowsGateActivity) {
  FaultPlan plan(1);
  plan.add(FaultRule::partition(LinkMatcher::all(), seconds(10),
                                seconds(20)));
  int cuts = 0;
  const auto drops = [&](SimTime t) {
    const auto act = plan.apply(t, 0, 1, 0);
    if ((act.injected & net::fault_bit(FaultKind::kPartition)) != 0) ++cuts;
    return act.drop;
  };
  EXPECT_FALSE(drops(seconds(9)));
  EXPECT_TRUE(drops(seconds(10)));
  EXPECT_TRUE(drops(seconds(19)));
  EXPECT_FALSE(drops(seconds(20)));  // end is exclusive
  EXPECT_EQ(cuts, 2);
}

TEST(FaultPlan, RemoveDeletesOnlyThatRule) {
  FaultPlan plan(1);
  const auto cut = plan.add(FaultRule::partition(LinkMatcher::cross({0})));
  plan.add(FaultRule::delay_spike(LinkMatcher::all(), milliseconds(100)));
  EXPECT_TRUE(plan.apply(0, 0, 1, 0).drop);
  EXPECT_TRUE(plan.remove(cut));
  const auto act = plan.apply(0, 0, 1, 1);
  EXPECT_FALSE(act.drop);
  EXPECT_EQ(act.extra_delay, milliseconds(100));
  EXPECT_FALSE(plan.remove(cut));  // already gone
}

TEST(FaultPlan, FlapAlternatesWithPhase) {
  FaultPlan plan(1);
  plan.add(FaultRule::flap(LinkMatcher::all(), seconds(10), 0.5, 0));
  EXPECT_FALSE(plan.apply(seconds(1), 0, 1, 0).drop);   // up phase
  EXPECT_TRUE(plan.apply(seconds(6), 0, 1, 1).drop);    // down phase
  EXPECT_FALSE(plan.apply(seconds(11), 0, 1, 2).drop);  // next period, up
  EXPECT_TRUE(plan.apply(seconds(16), 0, 1, 3).drop);
}

TEST(FaultPlan, StallReleaseCoversOverlappingWindows) {
  FaultPlan plan(1);
  plan.add(FaultRule::stall({4}, seconds(10), seconds(20)));
  plan.add(FaultRule::stall({4}, seconds(15), seconds(30)));
  EXPECT_FALSE(plan.stalled(seconds(5), 4));
  EXPECT_TRUE(plan.stalled(seconds(12), 4));
  // Release chains through the overlap to the later window's end.
  EXPECT_EQ(plan.stall_release(seconds(12), 4), seconds(30));
  EXPECT_EQ(plan.stall_release(seconds(31), 4), seconds(31));
  EXPECT_FALSE(plan.stalled(seconds(12), 5));  // other endpoints unaffected
}

TEST(FaultPlan, SchedulesAreByteForByteReproducible) {
  auto build = [](std::uint64_t seed) {
    FaultPlan plan(seed);
    plan.add(FaultRule::loss(LinkMatcher::all(), 0.1, 0, seconds(60)));
    plan.add(FaultRule::flap(LinkMatcher::endpoint({7}), seconds(10), 0.5));
    plan.add(
        FaultRule::duplicate(LinkMatcher::all(), 0.2, milliseconds(20)));
    return plan.describe();
  };
  EXPECT_EQ(build(42), build(42));
  EXPECT_EQ(build(42), build(43));  // derivation base not printed; rules
                                    // with seed=0 derive their draw keys
}

TEST(FaultPlan, PerRuleStreamsAreIndependent) {
  // Judging packets through one probabilistic rule must not perturb the
  // decisions another rule makes: each rule keys its own draws.
  auto decisions = [](bool burn) {
    FaultPlan plan(7);
    auto a = FaultRule::loss(LinkMatcher::endpoint({1}), 0.5);
    a.seed = 111;
    plan.add(a);
    auto b = FaultRule::loss(LinkMatcher::endpoint({2}), 0.5);
    b.seed = 222;
    plan.add(b);
    if (burn) {
      for (std::uint64_t i = 0; i < 100; ++i) plan.apply(0, 1, 9, i);
    }
    std::vector<bool> out;
    for (std::uint64_t i = 0; i < 64; ++i) {
      out.push_back(plan.apply(0, 2, 9, i).drop);
    }
    return out;
  };
  EXPECT_EQ(decisions(false), decisions(true));
}

TEST(FaultPlan, ApplyDependsOnlyOnThePacket) {
  // Every randomized rule draws a hash of (rule seed, sender, send seq):
  // a packet's verdict is the same whatever order packets are judged in,
  // which is what makes a plan shard-count-invariant.
  FaultPlan plan(5);
  plan.add(FaultRule::loss(LinkMatcher::endpoint({1}), 0.3));
  plan.add(FaultRule::duplicate(LinkMatcher::all(), 0.4, milliseconds(2)));
  plan.add(FaultRule::reorder(LinkMatcher::all(), 0.5, milliseconds(30)));
  plan.add(FaultRule::flap(LinkMatcher::endpoint({3}), seconds(10), 0.5));
  plan.add(FaultRule::delay_spike(LinkMatcher::endpoint({2}),
                                  milliseconds(50), seconds(5), seconds(25)));
  struct Packet {
    SimTime now;
    Address from, to;
    std::uint64_t seq;
  };
  std::vector<Packet> packets;
  for (std::uint64_t i = 0; i < 400; ++i) {
    packets.push_back({seconds(static_cast<std::int64_t>(i % 30)),
                       static_cast<Address>(i % 4),
                       static_cast<Address>(4 + i % 3), i / 4});
  }
  const auto verdict = [&plan](const Packet& p) {
    const auto a = plan.apply(p.now, p.from, p.to, p.seq);
    return std::make_tuple(a.drop, a.extra_delay, a.extra_copies,
                           a.dup_offset, a.injected);
  };
  std::vector<decltype(verdict(packets[0]))> forward;
  for (const auto& p : packets) forward.push_back(verdict(p));
  // Judge again in reverse and in a strided shuffle: same verdicts.
  for (std::size_t i = packets.size(); i-- > 0;) {
    EXPECT_EQ(verdict(packets[i]), forward[i]) << "packet " << i;
  }
  for (std::size_t k = 0; k < packets.size(); ++k) {
    const std::size_t i = (k * 157) % packets.size();
    EXPECT_EQ(verdict(packets[i]), forward[i]) << "packet " << i;
  }
  // And the draws are live: every randomized kind fired somewhere.
  FaultKindSet seen = 0;
  for (const auto& v : forward) seen |= std::get<4>(v);
  for (const FaultKind k : {FaultKind::kLoss, FaultKind::kDuplicate,
                            FaultKind::kReorder, FaultKind::kFlap,
                            FaultKind::kDelaySpike}) {
    EXPECT_NE(seen & net::fault_bit(k), 0) << net::fault_kind_name(k);
  }
}

// --------------------------------------------------------- packet fates

/// The fates of `n` packets from 3 to 8 on an empty plan, one per send seq.
std::vector<net::PacketFate> fates(const net::NetworkConfig& cfg, int n,
                                   SimDuration path_delay) {
  const FaultPlan empty(1);
  std::vector<net::PacketFate> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(net::packet_fate(empty, cfg, 5, seconds(1), 3, 8,
                                   static_cast<std::uint64_t>(i),
                                   path_delay));
  }
  return out;
}

TEST(PacketFate, UniformLossDropsTheConfiguredShare) {
  net::NetworkConfig cfg;
  cfg.loss_rate = 0.20;
  const int n = 5000;
  int delivered = 0;
  for (const auto& f : fates(cfg, n, milliseconds(10))) {
    if (f.drop) {
      EXPECT_EQ(f.drop_kind, net::DropKind::kLoss);
    } else {
      ++delivered;
    }
  }
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.80, 0.03);
}

TEST(PacketFate, ZeroLossDropsNothing) {
  for (const auto& f : fates(net::NetworkConfig{}, 1000, milliseconds(10))) {
    EXPECT_FALSE(f.drop);
    EXPECT_EQ(f.delay, milliseconds(10));
    EXPECT_EQ(f.depart, seconds(1));
    EXPECT_EQ(f.copies, 0);
  }
}

TEST(PacketFate, JitterStaysWithinTheFractionAndVaries) {
  net::NetworkConfig cfg;
  cfg.jitter_fraction = 0.2;
  const SimDuration path = milliseconds(40);
  bool varied = false;
  for (const auto& f : fates(cfg, 200, path)) {
    ASSERT_FALSE(f.drop);
    EXPECT_GE(f.delay, static_cast<SimDuration>(path * 0.8));
    EXPECT_LE(f.delay, static_cast<SimDuration>(path * 1.2));
    if (f.delay != path) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(PacketFate, ZeroPathDelayStillTakesAMicrosecond) {
  // A packet to oneself has no path, yet its delivery is never
  // synchronous with the send.
  for (const auto& f : fates(net::NetworkConfig{}, 10, 0)) {
    EXPECT_EQ(f.delay, 1);
  }
}

// ------------------------------------------------- packet-level semantics

/// A test packet; `n` names it.
struct P final : pastry::CloneableAppData {
  std::uint64_t n = 0;
  net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
    return pool.make<P>(*this);
  }
};

/// Counts the test packets every node receives, and when.
class Sink final : public overlay::ShardedApp {
 public:
  using AppNode = overlay::ShardedDriver::AppNode;
  void on_run_start(overlay::ShardedDriver&, std::size_t) override {}
  double workload_rate(SimTime) const override { return 0.0; }
  void workload_tick(const AppNode&) override {}
  void deliver(const AppNode&, const pastry::LookupMsg&) override {}
  void packet(const AppNode& node, Address, const net::PacketPtr& p) override {
    const auto* probe = dynamic_cast<const P*>(p.get());
    if (probe == nullptr) return;
    ++got;
    ++arrivals[probe->n];
    arrived = node.now();
  }

  int got = 0;
  std::map<std::uint64_t, int> arrivals;
  SimTime arrived = kTimeNever;
};

/// Two endpoints on the keyed engine that exchange nothing but the test's
/// packets: the overlay's first session (the only one allowed to
/// bootstrap) crashes at once, so `a` and `b` wait for a join candidate
/// that never appears — live, bound, and silent.
struct SilentPair {
  Sink sink;  // outlives the driver
  overlay::ShardedDriver d{std::make_shared<net::TransitStubTopology>(
                               net::TransitStubParams::scaled(2, 2, 3)),
                           net::NetworkConfig{}, quiet_config(), 1};
  Address a = net::kNullAddress;
  Address b = net::kNullAddress;

  static overlay::DriverConfig quiet_config() {
    overlay::DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.0;
    cfg.seed = 5;
    return cfg;
  }

  SilentPair() {
    d.attach_app(&sink);
    d.kill_node(d.add_node());
    a = d.add_node();
    b = d.add_node();
  }

  void send(Address from, Address to, std::uint64_t n) {
    const auto node = d.app_node(from);
    auto p = pastry::make_msg<P>(node->pool());
    p->n = n;
    node->send_packet(to, p);
  }

  // The packet-accounting identity: sent == lost + delivered +
  // dropped_unbound + dropped_adversarial + in_flight.
  std::int64_t accounted() const {
    return static_cast<std::int64_t>(d.packets_lost() + d.packets_delivered() +
                                     d.packets_dropped_unbound() +
                                     d.packets_dropped_adversarial()) +
           d.packets_in_flight();
  }
  std::int64_t sent() const {
    return static_cast<std::int64_t>(d.packets_sent());
  }
};

TEST(ChaosNetwork, DuplicationKeepsAccountingIdentity) {
  SilentPair f;
  f.d.add_fault_rule(
      FaultRule::duplicate(LinkMatcher::all(), 1.0, milliseconds(5)));
  for (std::uint64_t i = 0; i < 50; ++i) {
    f.send(f.a, f.b, i);
    EXPECT_EQ(f.sent(), f.accounted());  // holds mid-flight too
  }
  f.d.run_for(seconds(1));
  EXPECT_EQ(f.sink.got, 100);  // every packet delivered twice
  EXPECT_EQ(f.d.packets_sent(), 100u);  // injected copies are "sent"
  EXPECT_EQ(f.sent(), f.accounted());

  // A later rule that drops the packet drops its copy too: the count of
  // duplicates must still match the copies that went out.
  f.d.add_fault_rule(FaultRule::loss(LinkMatcher::all(), 0.5));
  for (std::uint64_t i = 50; i < 250; ++i) f.send(f.a, f.b, i);
  f.d.run_for(seconds(1));
  std::uint64_t lost = 0;
  for (std::uint64_t i = 50; i < 250; ++i) {
    const auto it = f.sink.arrivals.find(i);
    if (it == f.sink.arrivals.end()) {
      ++lost;
    } else {
      EXPECT_EQ(it->second, 2) << "packet " << i;
    }
  }
  EXPECT_GT(lost, 0u);
  EXPECT_LT(lost, 200u);
  EXPECT_EQ(f.sink.got, 100 + 2 * static_cast<int>(200 - lost));
  EXPECT_EQ(f.d.packets_sent(), 100u + 200u + (200u - lost));
  EXPECT_EQ(f.sent(), f.accounted());
  f.d.finish();  // folds the shards' injection counts into metrics
  const auto& m = f.d.metrics();
  EXPECT_EQ(m.fault_injections(FaultKind::kDuplicate), 50u + (200u - lost));
  EXPECT_EQ(m.fault_injections(FaultKind::kLoss), lost);
}

TEST(ChaosNetwork, UnboundArrivalsAreCountedNotVanished) {
  SilentPair f;
  f.send(f.a, f.b, 1);
  f.d.kill_node(f.b);  // receiver dies with the packet in flight
  f.send(f.a, f.b, 2);
  f.d.run_for(seconds(1));
  EXPECT_EQ(f.d.packets_dropped_unbound(), 2u);
  EXPECT_EQ(f.d.packets_delivered(), 0u);
  EXPECT_EQ(f.sent(), f.accounted());
}

TEST(ChaosNetwork, PartitionCoexistsWithOtherFaultRules) {
  // A partition is one rule on the stack: installing and healing it must
  // leave the other rules alone.
  SilentPair f;
  f.d.add_fault_rule(
      FaultRule::delay_spike(LinkMatcher::all(), milliseconds(100)));
  const auto cut =
      f.d.add_fault_rule(FaultRule::partition(LinkMatcher::cross({f.a})));
  EXPECT_EQ(f.d.fault_plan().rule_count(), 2u);
  f.send(f.a, f.b, 1);
  f.d.run_for(seconds(1));
  EXPECT_EQ(f.sink.got, 0);  // partition drops the cross-cut packet
  f.d.remove_fault_rule(cut);
  EXPECT_EQ(f.d.fault_plan().rule_count(), 1u);  // delay spike survives heal
  const SimTime before = f.d.now();
  f.send(f.a, f.b, 2);
  f.d.run_for(seconds(1));
  EXPECT_EQ(f.sink.got, 1);
  EXPECT_GE(f.sink.arrived - before, f.d.delay(f.a, f.b) + milliseconds(100));
  EXPECT_EQ(f.sent(), f.accounted());
}

TEST(ChaosNetwork, StallDefersDeliveryUntilRelease) {
  SilentPair f;
  f.d.add_fault_rule(FaultRule::stall({f.b}, 0, seconds(5)));
  f.send(f.a, f.b, 1);
  f.d.run_for(seconds(10));
  // The endpoint stayed bound: the packet is delivered, but only after
  // the stall window — the gray-failure signature.
  EXPECT_EQ(f.sink.arrived, seconds(5));
  EXPECT_EQ(f.d.packets_delivered(), 1u);
  EXPECT_EQ(f.sent(), f.accounted());
}

TEST(ChaosNetwork, DevouredPacketsKeepAccountingIdentity) {
  // An adversarial sender "transmits" lookups it actually eats: they
  // count as sent and as adversarially dropped, never as delivered or
  // lost, and the identity holds throughout. Two joined nodes, both
  // droppers; each devours a lookup the moment it routes it.
  Sink sink;
  overlay::ShardedDriver d(std::make_shared<net::TransitStubTopology>(
                               net::TransitStubParams::scaled(2, 2, 3)),
                           net::NetworkConfig{}, SilentPair::quiet_config(),
                           1);
  d.attach_app(&sink);
  const Address a = d.add_node();
  d.run_for(seconds(2));
  const Address b = d.add_node();
  d.run_for(minutes(1));
  overlay::ShardedAdversaryConfig adv;
  adv.behavior = overlay::AdversaryBehavior::kDrop;
  adv.fraction = 1.0;
  adv.seed = 3;
  d.set_adversary(adv);
  const NodeId key = d.node(b)->descriptor().id;
  const std::uint64_t sent0 = d.packets_sent();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    ids.push_back(d.issue_lookup(a, key));
    d.track_lookup(ids.back());
  }
  const auto node = d.app_node(a);
  node->send_packet(b, pastry::make_msg<P>(node->pool()));
  const auto accounted = [&d] {
    return static_cast<std::int64_t>(d.packets_lost() + d.packets_delivered() +
                                     d.packets_dropped_unbound() +
                                     d.packets_dropped_adversarial()) +
           d.packets_in_flight();
  };
  EXPECT_EQ(static_cast<std::int64_t>(d.packets_sent()),
            accounted());  // holds mid-flight
  d.run_for(milliseconds(500));
  EXPECT_EQ(sink.got, 1);  // only the honest send arrives
  EXPECT_EQ(d.packets_sent() - sent0, 3u);
  EXPECT_EQ(d.packets_dropped_adversarial(), 2u);
  EXPECT_EQ(d.packets_lost(), 0u);
  for (const auto id : ids) EXPECT_FALSE(d.lookup_verdict(id).has_value());
  EXPECT_EQ(static_cast<std::int64_t>(d.packets_sent()), accounted());
}

// ------------------------------------------------- harness scenario runs

overlay::ChaosConfig small_config(std::uint64_t seed) {
  overlay::ChaosConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 16;
  cfg.settle = minutes(2);
  cfg.fault_window = seconds(30);
  cfg.heal_probes = 12;
  return cfg;
}

std::shared_ptr<net::Topology> small_topology() {
  return std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(3, 3, 4));
}

TEST(ChaosHarness, GrayStallReroutesWithoutCondemning) {
  overlay::ChaosHarness h(small_topology(), small_config(21));
  const auto r = h.run("gray-stall");
  EXPECT_TRUE(r.stall_rerouted);    // suppression/RTO path kicked in
  EXPECT_FALSE(r.stall_condemned);  // but nobody declared it dead
  EXPECT_TRUE(r.stall_recovered);   // and it serves its keys again
  EXPECT_TRUE(r.accounting_ok);
  EXPECT_GT(r.injected[static_cast<std::size_t>(FaultKind::kStall)], 0u);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
}

TEST(ChaosHarness, DupReorderScenarioMeetsSlos) {
  overlay::ChaosHarness h(small_topology(), small_config(22));
  const auto r = h.run("dup-reorder");
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_GT(r.injected[static_cast<std::size_t>(FaultKind::kDuplicate)], 0u);
  EXPECT_GT(r.injected[static_cast<std::size_t>(FaultKind::kReorder)], 0u);
  EXPECT_EQ(r.heal_incorrect, 0u);
  EXPECT_GE(r.reconverge_seconds, 0.0);
}

TEST(ChaosHarness, ByzantineScenariosMeetSlosWithCountermeasures) {
  // The adversary scenarios run with both countermeasures armed; the
  // strict adversary SLOs (incorrect < 1%, loss < 5%) must hold, and the
  // identity must absorb the adversarially devoured packets.
  for (const char* name : {"byzantine-drop", "byzantine-misroute"}) {
    overlay::ChaosHarness h(small_topology(), small_config(25));
    const auto r = h.run(name);
    EXPECT_TRUE(r.ok()) << name << ": "
                        << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_GT(r.adversarial_nodes, 0u) << name;
    EXPECT_TRUE(r.accounting_ok) << name;
    EXPECT_GE(r.reconverge_seconds, 0.0) << name;
  }
}

TEST(ChaosHarness, EclipseVictimSurvivesSybilCluster) {
  overlay::ChaosHarness h(small_topology(), small_config(26));
  const auto r = h.run("eclipse-victim");
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_EQ(r.adversarial_nodes, 16u);  // the sybil cluster
  EXPECT_TRUE(r.accounting_ok);
  // Density checks fired: sybils packed around the victim id were vetoed.
  EXPECT_GT(r.leaf_rejections, 0u);
  EXPECT_GE(r.reconverge_seconds, 0.0);  // ring healed after the kill
}

TEST(ChaosHarness, TimerCallbacksNeverFallBackToTheHeap) {
  // Every callback the keyed engine stores — node timers behind their
  // liveness guard, deliveries, workload ticks, fault-schedule steps —
  // must fit Simulator::kCallbackCapacity inline. A capture that outgrows
  // it still runs, off the heap, and only this counter shows it.
  const std::uint64_t before = callback_heap_fallbacks();
  {
    overlay::DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.05;
    cfg.warmup = minutes(2);
    cfg.seed = 71;
    overlay::ShardedDriver d(small_topology(), {}, cfg, 1);
    d.run_trace(trace::generate_poisson(minutes(10), 600.0, 60, 31));
    ASSERT_GT(d.metrics().lookups_issued(), 0u);
  }
  EXPECT_EQ(callback_heap_fallbacks(), before) << "trace run";

  overlay::ChaosHarness h(small_topology(), small_config(27));
  const auto r = h.run("combined");
  EXPECT_GT(r.fault_issued, 0u);
  EXPECT_EQ(callback_heap_fallbacks(), before) << "combined chaos scenario";
}

TEST(ChaosHarness, RunsAreReproducibleFromTheSeed) {
  const auto once = [] {
    overlay::ChaosHarness h(small_topology(), small_config(23));
    return h.run("flap");
  };
  const auto r1 = once();
  const auto r2 = once();
  EXPECT_EQ(r1.fault_schedule, r2.fault_schedule);  // byte-for-byte
  EXPECT_EQ(r1.injected, r2.injected);
  EXPECT_EQ(r1.fault_issued, r2.fault_issued);
  EXPECT_EQ(r1.fault_delivered, r2.fault_delivered);
  EXPECT_EQ(r1.reconverge_seconds, r2.reconverge_seconds);

  overlay::ChaosHarness other(small_topology(), small_config(24));
  const auto r3 = other.run("flap");
  EXPECT_NE(r1.fault_schedule, r3.fault_schedule);  // seed is load-bearing
}

}  // namespace
}  // namespace mspastry
