// Dependability-focused scenarios: link loss, ablations of the paper's
// techniques (per-hop acks, active probing, suppression, self-tuning), and
// failure-detector behaviour. These mirror Section 5.3's experiments at
// test scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

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

struct RunResult {
  double loss_rate;
  double incorrect_rate;
  double rdp;
  double control_traffic;
  std::uint64_t ack_timeouts;
  std::uint64_t rt_probes_sent;
  std::uint64_t rt_probes_periodic;
  std::uint64_t rt_probes_suppressed;
};

RunResult run_churn(DriverConfig cfg, double net_loss, SimDuration length,
                    double session_s, int population, std::uint64_t seed) {
  net::NetworkConfig ncfg;
  ncfg.loss_rate = net_loss;
  overlay::ShardedDriver d(topo(), ncfg, cfg, 1);
  const auto trace =
      trace::generate_poisson(length, session_s, population, seed);
  d.run_trace(trace);
  const auto& m = d.metrics();
  return RunResult{m.loss_rate(),
                   m.incorrect_delivery_rate(),
                   m.mean_rdp(),
                   m.control_traffic_rate(),
                   d.counters().ack_timeouts,
                   d.counters().rt_probes_sent,
                   d.counters().rt_probes_periodic,
                   d.counters().rt_probes_suppressed};
}

DriverConfig base_cfg(std::uint64_t seed) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.02;
  cfg.warmup = minutes(10);
  cfg.seed = seed;
  return cfg;
}

TEST(Dependability, LinkLossDoesNotLoseLookups) {
  // Figure 6: per-hop acks keep the lookup loss rate ~0 even at 5%
  // network loss.
  auto r = run_churn(base_cfg(41), 0.05, minutes(40), 3600.0, 60, 101);
  EXPECT_EQ(r.loss_rate, 0.0);
  EXPECT_GT(r.ack_timeouts, 0u);  // losses happened and were recovered
}

TEST(Dependability, LinkLossKeepsIncorrectDeliveriesRare) {
  auto r = run_churn(base_cfg(42), 0.05, minutes(40), 3600.0, 60, 102);
  // The paper observes 1.6e-5 at 5% loss; at our much smaller sample
  // size anything above a fraction of a percent would be a regression.
  EXPECT_LT(r.incorrect_rate, 0.005);
}

TEST(Dependability, NoAcksNoProbingLosesMessagesUnderChurn) {
  // Section 5.3 ablation: without active probes and per-hop acks, 32% of
  // lookups were never delivered. At test scale we only assert the
  // qualitative cliff: substantial loss appears.
  DriverConfig cfg = base_cfg(43);
  cfg.pastry.per_hop_acks = false;
  cfg.pastry.active_rt_probing = false;
  cfg.pastry.t_ls = minutes(5);  // cripple leaf-set detection too
  auto r = run_churn(cfg, 0.0, minutes(40), 900.0, 60, 103);
  EXPECT_GT(r.loss_rate, 0.01);
}

TEST(Dependability, AcksAloneRecoverLosses) {
  DriverConfig with_acks = base_cfg(44);
  with_acks.pastry.active_rt_probing = false;
  auto r = run_churn(with_acks, 0.0, minutes(40), 1800.0, 60, 104);
  EXPECT_LT(r.loss_rate, 0.002);
}

TEST(Dependability, ActiveProbingAloneReducesLossVsNothing) {
  DriverConfig none = base_cfg(45);
  none.pastry.per_hop_acks = false;
  none.pastry.active_rt_probing = false;
  none.pastry.t_ls = minutes(5);
  DriverConfig probing = base_cfg(45);
  probing.pastry.per_hop_acks = false;
  const auto r_none = run_churn(none, 0.0, minutes(40), 900.0, 60, 105);
  const auto r_probe = run_churn(probing, 0.0, minutes(40), 900.0, 60, 105);
  EXPECT_LT(r_probe.loss_rate, r_none.loss_rate);
}

TEST(Dependability, SuppressionCutsProbeTraffic) {
  // Section 5.3: application traffic suppresses active probes. Needs an
  // overlay large enough that routing-table entries (not just the leaf
  // set) carry lookup traffic.
  DriverConfig chatty = base_cfg(46);
  chatty.lookup_rate_per_node = 1.0;  // heavy lookup traffic
  DriverConfig quiet = base_cfg(46);
  quiet.lookup_rate_per_node = 0.0;
  const auto r_chatty =
      run_churn(chatty, 0.0, minutes(25), 3600.0, 150, 106);
  const auto r_quiet = run_churn(quiet, 0.0, minutes(25), 3600.0, 150, 106);
  // Ratio of periodic probing cycles replaced by traffic (the paper: >70%
  // of active probes suppressed at 1 lookup/s/node).
  const double chatty_ratio =
      static_cast<double>(r_chatty.rt_probes_suppressed) /
      std::max<std::uint64_t>(
          1, r_chatty.rt_probes_suppressed + r_chatty.rt_probes_periodic);
  const double quiet_ratio =
      static_cast<double>(r_quiet.rt_probes_suppressed) /
      std::max<std::uint64_t>(
          1, r_quiet.rt_probes_suppressed + r_quiet.rt_probes_periodic);
  EXPECT_GT(chatty_ratio, quiet_ratio);
  EXPECT_GT(chatty_ratio, 0.5);
}

TEST(Dependability, SuppressionOffProbesRegardless) {
  DriverConfig cfg = base_cfg(47);
  cfg.lookup_rate_per_node = 1.0;
  cfg.pastry.suppression = false;
  auto r = run_churn(cfg, 0.0, minutes(20), 3600.0, 30, 107);
  EXPECT_EQ(r.rt_probes_suppressed, 0u);
  EXPECT_GT(r.rt_probes_sent, 0u);
}

TEST(Dependability, SelfTuningReactsToSessionTime) {
  // Shorter sessions -> higher failure rate -> more probing traffic.
  DriverConfig cfg1 = base_cfg(48);
  cfg1.lookup_rate_per_node = 0.0;
  DriverConfig cfg2 = base_cfg(48);
  cfg2.lookup_rate_per_node = 0.0;
  const auto fast = run_churn(cfg1, 0.0, minutes(40), 900.0, 60, 108);
  const auto slow = run_churn(cfg2, 0.0, minutes(40), 7200.0, 60, 109);
  EXPECT_GT(fast.control_traffic, slow.control_traffic);
}

TEST(Dependability, FixedTrtIgnoresTarget) {
  DriverConfig cfg = base_cfg(49);
  cfg.pastry.self_tuning = false;
  cfg.pastry.t_rt_fixed = seconds(20);
  net::NetworkConfig ncfg;
  ShardedDriver d(topo(), ncfg, cfg, 1);
  d.add_node();
  d.run_for(seconds(5));
  d.add_node();
  d.run_for(minutes(2));
  for (const auto a : d.live_addresses()) {
    EXPECT_DOUBLE_EQ(d.node(a)->current_trt_seconds(), 20.0);
  }
}

TEST(Dependability, NoFalsePositivesWithoutLoss) {
  // The paper's design goal: live nodes are never marked faulty when the
  // network does not lose messages (To and retries are generous).
  auto r = run_churn(base_cfg(50), 0.0, minutes(40), 1200.0, 60, 110);
  (void)r;
  // run_churn cannot expose false positives directly; rerun inline.
  DriverConfig cfg = base_cfg(51);
  overlay::ShardedDriver d(topo(), {}, cfg, 1);
  const auto trace = trace::generate_poisson(minutes(40), 1200.0, 60, 111);
  d.run_trace(trace);
  EXPECT_EQ(d.counters().false_positives, 0u);
}

TEST(Dependability, SmallRingJoinersActivateUnderHeavyLoss) {
  // 25 nodes with l = 32: no leaf set ever fills, so a joiner activates
  // once its repair rounds stop turning up members it has not seen. At
  // 20% loss, failure hearsay keeps removing live members that the
  // confirming probes re-admit; that churn must not hold a joiner that
  // already has leaf-set members (and so receives lookups, which it
  // buffers) inactive for a minute or more.
  const auto ts = std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(3, 3, 4));
  for (std::uint64_t seed = 82; seed < 90; ++seed) {
    DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.0;
    cfg.warmup = 0;
    cfg.seed = seed;
    net::NetworkConfig ncfg;
    ncfg.loss_rate = 0.20;
    ShardedDriver d(ts, ncfg, cfg, 1);
    std::map<net::Address, int> inactive_with_leaf_s;
    int longest_s = 0;
    const auto tick = [&] {
      d.run_for(seconds(1));
      for (const auto a : d.live_addresses()) {
        const auto s = d.node(a)->debug_state();
        int& run = inactive_with_leaf_s[a];
        run = !s.active && s.leaf_size > 0 ? run + 1 : 0;
        longest_s = std::max(longest_s, run);
      }
    };
    for (int i = 0; i < 25; ++i) {
      d.add_node();
      tick();
      tick();
    }
    for (int i = 0; i < 240; ++i) tick();
    EXPECT_LT(longest_s, 60) << "seed " << seed;
  }
}

TEST(Dependability, RdpDegradesGracefullyWithLoss) {
  // Figure 6 left: RDP rises only slightly from 0% to 5% network loss.
  const auto r0 = run_churn(base_cfg(53), 0.0, minutes(30), 3600.0, 50, 112);
  const auto r5 = run_churn(base_cfg(53), 0.05, minutes(30), 3600.0, 50, 112);
  EXPECT_LT(r5.rdp, r0.rdp * 1.8);
}

}  // namespace
}  // namespace mspastry
