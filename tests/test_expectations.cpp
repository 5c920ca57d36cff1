// The Pip-style expectation checker (src/obs/expectations): each
// declarative rule pinned down with synthetic rings, a clean live run
// that must satisfy all of them, the mutation test proving the checker
// has teeth (a suppressed RTO reroute must be flagged), and the chaos
// harness attaching offending causal paths when an SLO trips.

#include "obs/expectations.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fault_plan.hpp"
#include "net/transit_stub.hpp"
#include "overlay/chaos.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry {
namespace {

using obs::EventKind;
using obs::ExpectationConfig;
using obs::FlightRecorder;
using obs::ObsConfig;
using obs::TraceDomain;
using overlay::DriverConfig;
using overlay::ShardedDriver;

ObsConfig obs_on() {
  ObsConfig cfg;
  cfg.enabled = true;
  return cfg;
}

bool has_rule(const obs::ExpectationReport& r, const char* rule) {
  for (const obs::Violation& v : r.violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

obs::ExpectationReport run_checker(const TraceDomain& d,
                                   const ExpectationConfig& cfg) {
  return obs::check_expectations(d, obs::assemble_paths(d), cfg);
}

constexpr std::uint64_t kTrace = 0x5EEDu;

// ------------------------------------------------------ synthetic rules

TEST(Expectations, AllSevenRulesRunOnAnEmptyDomain) {
  const TraceDomain d(obs_on());
  const auto report = run_checker(d, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rules_run.size(), 7u);
}

TEST(Expectations, HopBoundFlagsAnAbsurdlyLongDeliveredPath) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  a.record(0, EventKind::kLookupIssued, kTrace, net::kNullAddress, 0, 1);
  for (int h = 1; h <= 20; ++h) {
    a.record(milliseconds(h), EventKind::kForward, kTrace, 2, h);
    d.recorder_for(2).record(milliseconds(h), EventKind::kRecv, kTrace, 1, h);
  }
  d.recorder_for(2).record(milliseconds(21), EventKind::kDeliver, kTrace, 1);

  ExpectationConfig cfg;
  cfg.overlay_size = 16;  // ceil(log_16 16) = 1, + slack 4 => bound 5
  const auto report = run_checker(d, cfg);
  EXPECT_TRUE(has_rule(report, "hop-count-bound")) << report.summary();

  ExpectationConfig skip = cfg;
  skip.overlay_size = 0;  // unknown N skips the rule
  EXPECT_FALSE(has_rule(run_checker(d, skip), "hop-count-bound"));
}

TEST(Expectations, HopBoundStretchesForReroutesAndBuffering) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  a.record(0, EventKind::kLookupIssued, kTrace, net::kNullAddress, 0, 1);
  for (int h = 1; h <= 7; ++h) {  // bound is 5; 7 hops with 2 reroutes is ok
    a.record(milliseconds(h), EventKind::kForward, kTrace, 2, h);
    d.recorder_for(2).record(milliseconds(h), EventKind::kRecv, kTrace, 1, h);
    if (h <= 2) {
      a.record(milliseconds(h), EventKind::kAckTimeout, kTrace, 2, h);
      a.record(milliseconds(h), EventKind::kReroute, kTrace, 2, h);
    }
  }
  d.recorder_for(2).record(milliseconds(8), EventKind::kDeliver, kTrace, 1);

  ExpectationConfig cfg;
  cfg.overlay_size = 16;
  EXPECT_FALSE(has_rule(run_checker(d, cfg), "hop-count-bound"));
}

TEST(Expectations, ForwardToACondemnedPeerIsFlagged) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  a.record(seconds(1), EventKind::kCondemn, 0, 9);
  a.record(seconds(2), EventKind::kForward, kTrace, 9, 1);
  const auto report = run_checker(d, {});
  ASSERT_TRUE(has_rule(report, "no-forward-to-condemned"))
      << report.summary();
  EXPECT_EQ(report.violations.front().node, 1);
  EXPECT_EQ(report.violations.front().trace_id, kTrace);
}

TEST(Expectations, AbsolveOrTtlExpiryClearsTheCondemnation) {
  {
    TraceDomain d(obs_on());
    FlightRecorder& a = d.recorder_for(1);
    a.record(seconds(1), EventKind::kCondemn, 0, 9);
    a.record(seconds(2), EventKind::kAbsolve, 0, 9);
    a.record(seconds(3), EventKind::kForward, kTrace, 9, 1);
    EXPECT_TRUE(run_checker(d, {}).ok());
  }
  {
    TraceDomain d(obs_on());
    FlightRecorder& a = d.recorder_for(1);
    a.record(seconds(1), EventKind::kCondemn, 0, 9);
    a.record(minutes(20), EventKind::kForward, kTrace, 9, 1);  // TTL passed
    EXPECT_TRUE(run_checker(d, {}).ok());
  }
}

TEST(Expectations, TimeoutWithoutAReactionIsFlagged) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  a.record(milliseconds(1), EventKind::kForward, kTrace, 2, 1);
  a.record(milliseconds(31), EventKind::kAckTimeout, kTrace, 2, 1);
  // ...and nothing else: the message silently vanished.
  const auto report = run_checker(d, {});
  EXPECT_TRUE(has_rule(report, "timeout-followed-by-reaction"))
      << report.summary();
}

TEST(Expectations, EachReactionSatisfiesExactlyOneTimeout) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  a.record(milliseconds(1), EventKind::kForward, kTrace, 2, 1);
  a.record(milliseconds(31), EventKind::kAckTimeout, kTrace, 2, 1);
  a.record(milliseconds(31), EventKind::kRetransmit, kTrace, 2, 1);
  EXPECT_TRUE(run_checker(d, {}).ok());

  // A second timeout at the same instant cannot reuse that retransmit.
  a.record(milliseconds(31), EventKind::kAckTimeout, kTrace, 2, 1);
  const auto report = run_checker(d, {});
  EXPECT_TRUE(has_rule(report, "timeout-followed-by-reaction"));
}

TEST(Expectations, ActivationWithoutJoinProbesIsFlagged) {
  TraceDomain d(obs_on());
  FlightRecorder& j = d.recorder_for(5);
  j.record(seconds(1), EventKind::kJoinReplyRecv, 0, 2, 0, 1);
  j.record(seconds(2), EventKind::kActivated, 0, net::kNullAddress);
  const auto report = run_checker(d, {});
  EXPECT_TRUE(has_rule(report, "join-probes-before-activation"))
      << report.summary();

  TraceDomain good(obs_on());
  FlightRecorder& g = good.recorder_for(5);
  g.record(seconds(1), EventKind::kJoinReplyRecv, 0, 2, 0, 1);
  g.record(milliseconds(1500), EventKind::kJoinProbe, 0, 3);
  g.record(seconds(2), EventKind::kActivated, 0, net::kNullAddress);
  EXPECT_TRUE(run_checker(good, {}).ok());

  TraceDomain bootstrap(obs_on());  // no JOIN-REPLY, rule does not apply
  bootstrap.recorder_for(5).record(seconds(1), EventKind::kActivated, 0,
                                   net::kNullAddress);
  EXPECT_TRUE(run_checker(bootstrap, {}).ok());
}

TEST(Expectations, HeartbeatGapBeyondTlsPlusToIsFlagged) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  a.record(seconds(0), EventKind::kHeartbeatTick, 0, net::kNullAddress);
  a.record(seconds(30), EventKind::kHeartbeatTick, 0, net::kNullAddress);
  EXPECT_TRUE(run_checker(d, {}).ok());  // 30 s <= Tls + To = 33 s

  a.record(seconds(70), EventKind::kHeartbeatTick, 0, net::kNullAddress);
  const auto report = run_checker(d, {});
  EXPECT_TRUE(has_rule(report, "heartbeat-periodicity")) << report.summary();
  EXPECT_NE(report.summary().find("heartbeat gap"), std::string::npos);
}

// A synthetic batch of delivered lookups, each taking `hops` transmissions
// from node 1 to node 2 under its own trace id. N=16, b=4 gives an
// analytic mean of ceil(log_16 16) = 1 hop.
TraceDomain analytic_domain(int paths, int hops) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  FlightRecorder& b = d.recorder_for(2);
  for (int i = 0; i < paths; ++i) {
    const std::uint64_t trace = kTrace + static_cast<std::uint64_t>(i);
    const SimTime t0 = seconds(i);
    a.record(t0, EventKind::kLookupIssued, trace, net::kNullAddress, 0, 1);
    for (int h = 1; h <= hops; ++h) {
      a.record(t0 + milliseconds(h), EventKind::kForward, trace, 2, h);
      b.record(t0 + milliseconds(h), EventKind::kRecv, trace, 1, h);
    }
    b.record(t0 + milliseconds(hops + 1), EventKind::kDeliver, trace, 1);
  }
  return d;
}

TEST(Expectations, AnalyticMeanHopsMutationFiresOnInflatedRouting) {
  // The pre-seeded mutation: every lookup takes 3 transmissions where the
  // Kong et al. closed form expects a mean of 1. Each individual path is
  // comfortably inside R1's slack — only the aggregate rule can see it.
  const TraceDomain d = analytic_domain(120, 3);
  ExpectationConfig cfg;
  cfg.overlay_size = 16;
  cfg.analytic_hops_tolerance = 0.5;
  const auto report = run_checker(d, cfg);
  EXPECT_FALSE(has_rule(report, "hop-count-bound")) << report.summary();
  ASSERT_TRUE(has_rule(report, "analytic-mean-hops")) << report.summary();
  EXPECT_NE(report.summary().find("mean lookup hops"), std::string::npos);
}

TEST(Expectations, AnalyticMeanHopsAcceptsRoutingNearTheClosedForm) {
  const TraceDomain d = analytic_domain(120, 1);
  ExpectationConfig cfg;
  cfg.overlay_size = 16;
  cfg.analytic_hops_tolerance = 0.5;
  EXPECT_FALSE(has_rule(run_checker(d, cfg), "analytic-mean-hops"));
}

TEST(Expectations, AnalyticMeanHopsSkipsSmallSamplesAndIsOptIn) {
  const TraceDomain d = analytic_domain(20, 3);  // below analytic_min_paths
  ExpectationConfig cfg;
  cfg.overlay_size = 16;
  cfg.analytic_hops_tolerance = 0.5;
  EXPECT_FALSE(has_rule(run_checker(d, cfg), "analytic-mean-hops"));

  // Default tolerance 0 disables the rule even with a large biased sample.
  const TraceDomain big = analytic_domain(120, 3);
  ExpectationConfig off;
  off.overlay_size = 16;
  EXPECT_FALSE(has_rule(run_checker(big, off), "analytic-mean-hops"));
}

// ------------------------------------------------------------ live runs

std::shared_ptr<net::Topology> small_topology() {
  return std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(3, 3, 4));
}

struct LiveFixture {
  std::unique_ptr<ShardedDriver> driver;

  explicit LiveFixture(std::uint64_t seed, int nodes, DriverConfig cfg = {}) {
    cfg.lookup_rate_per_node = 0.0;
    cfg.warmup = 0;
    cfg.seed = seed;
    cfg.obs = obs_on();
    net::NetworkConfig ncfg;
    driver = std::make_unique<ShardedDriver>(small_topology(), ncfg, cfg, 1);
    for (int i = 0; i < nodes; ++i) {
      driver->add_node();
      driver->run_for(seconds(2));
    }
    driver->run_for(minutes(2));
  }

  net::Address random_node() {
    return driver->oracle().random_active(driver->rng())->second;
  }

  obs::ExpectationReport check() {
    obs::TraceDomain* dom = driver->trace_domain();
    EXPECT_NE(dom, nullptr);
    ExpectationConfig ecfg;
    ecfg.overlay_size = driver->oracle().active_count();
    return obs::check_expectations(*dom, obs::assemble_paths(*dom), ecfg);
  }
};

TEST(Expectations, CleanLiveRunSatisfiesEveryRule) {
  LiveFixture f(401, 20);
  for (int i = 0; i < 20; ++i) {
    f.driver->issue_lookup(f.random_node(), f.driver->rng().node_id());
    f.driver->run_for(seconds(1));
  }
  f.driver->run_for(seconds(30));
  const auto report = f.check();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.paths_checked, 0u);
  EXPECT_EQ(report.rules_run.size(), 7u);
}

TEST(Expectations, MutationSuppressedRerouteIsCaughtByTheChecker) {
  // The injected bug: an exhausted per-hop ack ladder abandons the
  // message instead of rerouting. Nothing in the oracle's delivery
  // accounting fires fast enough to see it — the checker must.
  DriverConfig cfg;
  cfg.pastry.mutation_suppress_reroute = true;
  LiveFixture f(402, 16, cfg);

  const auto pick = f.driver->oracle().random_active(f.driver->rng());
  const net::Address victim = pick->second;
  const NodeId victim_key = pick->first;
  const SimTime t0 = f.driver->now();
  f.driver->add_fault_rule(
      net::FaultRule::stall({victim}, t0, t0 + seconds(10)));
  for (int i = 0; i < 8; ++i) {
    net::Address from = f.random_node();
    while (from == victim) from = f.random_node();
    f.driver->issue_lookup(from, victim_key);
    f.driver->run_for(seconds(1));
  }
  f.driver->run_for(seconds(30));

  const auto report = f.check();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, "timeout-followed-by-reaction"))
      << report.summary();
}

TEST(Expectations, SameFaultWithRerouteEnabledStaysClean) {
  // Control for the mutation test: identical fault, stock protocol. The
  // reroute reaction is recorded, so the timeout rule stays satisfied.
  LiveFixture f(402, 16);  // same seed as the mutation run
  const auto pick = f.driver->oracle().random_active(f.driver->rng());
  const net::Address victim = pick->second;
  const NodeId victim_key = pick->first;
  const SimTime t0 = f.driver->now();
  f.driver->add_fault_rule(
      net::FaultRule::stall({victim}, t0, t0 + seconds(10)));
  for (int i = 0; i < 8; ++i) {
    net::Address from = f.random_node();
    while (from == victim) from = f.random_node();
    f.driver->issue_lookup(from, victim_key);
    f.driver->run_for(seconds(1));
  }
  f.driver->run_for(seconds(30));

  const auto report = f.check();
  EXPECT_FALSE(has_rule(report, "timeout-followed-by-reaction"))
      << report.summary();
}

// ------------------------------------------- chaos SLO trips name paths

TEST(ChaosObservability, SloTripAttachesOffendingCausalPaths) {
  overlay::ChaosConfig cfg;
  cfg.seed = 31;
  cfg.nodes = 16;
  cfg.settle = minutes(2);
  cfg.fault_window = seconds(30);
  cfg.heal_probes = 12;
  // Zero tolerance for in-fault degradation: a partition cannot meet
  // this, so the run trips and must attach the evidence.
  cfg.slo.max_fault_loss_rate = 0.0;
  cfg.slo.max_fault_incorrect_rate = 0.0;
  overlay::ChaosHarness h(small_topology(), cfg);
  const auto r = h.run("asym-partition");

  ASSERT_FALSE(r.ok());
  ASSERT_FALSE(r.offending_paths.empty());
  // Each attached path is a full causal rendering, not just a rate.
  EXPECT_NE(r.offending_paths.front().find("trace"), std::string::npos);
  EXPECT_NE(r.offending_paths.front().find("lookup"), std::string::npos);
  EXPECT_FALSE(r.expectation_summary.empty());
}

TEST(ChaosObservability, CleanScenarioReportsExpectationsSatisfied) {
  overlay::ChaosConfig cfg;
  cfg.seed = 32;
  cfg.nodes = 16;
  cfg.settle = minutes(2);
  cfg.fault_window = seconds(30);
  cfg.heal_probes = 12;
  overlay::ChaosHarness h(small_topology(), cfg);
  const auto r = h.run("delay-spike");
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_TRUE(r.offending_paths.empty());
  EXPECT_NE(r.expectation_summary.find("all satisfied"), std::string::npos)
      << r.expectation_summary;
}

}  // namespace
}  // namespace mspastry
