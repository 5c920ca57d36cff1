// Correctness must hold across the protocol's parameter space, not just
// the base configuration: parameterized end-to-end sweeps over (b, l) and
// over the feature switches. Every configuration must deliver every
// lookup to the oracle root in a loss-free static overlay, and keep
// consistency under churn.

#include <gtest/gtest.h>

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
      net::TransitStubParams::scaled(3, 3, 4));
}

// --- (b, l) sweep -------------------------------------------------------------

struct BL {
  int b;
  int l;
};

class ParamSweepTest : public ::testing::TestWithParam<BL> {};

TEST_P(ParamSweepTest, StaticOverlayRoutesCorrectly) {
  const auto [b, l] = GetParam();
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 500 + static_cast<std::uint64_t>(b * 100 + l);
  cfg.pastry.b = b;
  cfg.pastry.l = l;
  ShardedDriver d(topo(), {}, cfg, 1);
  for (int i = 0; i < 50; ++i) {
    d.add_node();
    d.run_for(seconds(2));
  }
  d.run_for(minutes(3));
  for (int i = 0; i < 100; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, d.rng().node_id());
    d.run_for(milliseconds(200));
  }
  d.run_for(seconds(30));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_correct(), 100u)
      << "b=" << b << " l=" << l;
  EXPECT_EQ(d.metrics().lookups_delivered_incorrect(), 0u);
  EXPECT_EQ(d.metrics().lookups_lost(), 0u);
}

TEST_P(ParamSweepTest, SurvivesBurstOfFailures) {
  const auto [b, l] = GetParam();
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 600 + static_cast<std::uint64_t>(b * 100 + l);
  cfg.pastry.b = b;
  cfg.pastry.l = l;
  ShardedDriver d(topo(), {}, cfg, 1);
  for (int i = 0; i < 40; ++i) {
    d.add_node();
    d.run_for(seconds(2));
  }
  d.run_for(minutes(3));
  // Kill a quarter of the overlay at once.
  auto addrs = d.live_addresses();
  for (std::size_t i = 0; i < addrs.size() / 4; ++i) d.kill_node(addrs[i]);
  d.run_for(minutes(4));
  for (int i = 0; i < 40; ++i) {
    const auto src = d.oracle().random_active(d.rng());
    d.issue_lookup(src->second, d.rng().node_id());
    d.run_for(milliseconds(500));
  }
  d.run_for(seconds(30));
  d.finish();
  EXPECT_EQ(d.metrics().lookups_delivered_incorrect(), 0u)
      << "b=" << b << " l=" << l;
  EXPECT_EQ(d.metrics().lookups_lost(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BAndL, ParamSweepTest,
    ::testing::Values(BL{1, 8}, BL{1, 32}, BL{2, 16}, BL{3, 8}, BL{4, 8},
                      BL{4, 16}, BL{4, 32}, BL{5, 16}),
    [](const ::testing::TestParamInfo<BL>& info) {
      return "b" + std::to_string(info.param.b) + "_l" +
             std::to_string(info.param.l);
    });

// --- Feature-switch sweep -------------------------------------------------------

enum class Feature {
  kNoPns,
  kNoSuppression,
  kNoSelfTuning,
  kNoSymmetricProbes,
  kConsistencyAckMode,
  kNoAcks,
};

class FeatureSweepTest : public ::testing::TestWithParam<Feature> {};

TEST_P(FeatureSweepTest, ChurnStaysConsistent) {
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.02;
  cfg.warmup = minutes(5);
  cfg.seed = 700 + static_cast<std::uint64_t>(GetParam());
  switch (GetParam()) {
    case Feature::kNoPns:
      cfg.pastry.pns = false;
      break;
    case Feature::kNoSuppression:
      cfg.pastry.suppression = false;
      break;
    case Feature::kNoSelfTuning:
      cfg.pastry.self_tuning = false;
      break;
    case Feature::kNoSymmetricProbes:
      cfg.pastry.symmetric_probes = false;
      break;
    case Feature::kConsistencyAckMode:
      cfg.pastry.exclude_root_on_ack_timeout = false;
      break;
    case Feature::kNoAcks:
      cfg.pastry.per_hop_acks = false;
      break;
  }
  overlay::ShardedDriver d(topo(), {}, cfg, 1);
  const auto trace = trace::generate_poisson(minutes(30), 30 * 60.0, 60,
                                             777 + cfg.seed);
  d.run_trace(trace);
  const auto& m = d.metrics();
  EXPECT_GT(m.lookups_issued(), 200u);
  // Consistency is the invariant every variant must keep in a loss-free
  // network; loss is only allowed for the no-acks ablation.
  EXPECT_EQ(m.lookups_delivered_incorrect(), 0u);
  if (GetParam() != Feature::kNoAcks) {
    EXPECT_LT(m.loss_rate(), 0.005);
  }
  EXPECT_EQ(d.counters().false_positives, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Features, FeatureSweepTest,
    ::testing::Values(Feature::kNoPns, Feature::kNoSuppression,
                      Feature::kNoSelfTuning, Feature::kNoSymmetricProbes,
                      Feature::kConsistencyAckMode, Feature::kNoAcks),
    [](const ::testing::TestParamInfo<Feature>& info) {
      switch (info.param) {
        case Feature::kNoPns: return std::string("NoPns");
        case Feature::kNoSuppression: return std::string("NoSuppression");
        case Feature::kNoSelfTuning: return std::string("NoSelfTuning");
        case Feature::kNoSymmetricProbes:
          return std::string("NoSymmetricProbes");
        case Feature::kConsistencyAckMode:
          return std::string("ConsistencyAckMode");
        case Feature::kNoAcks: return std::string("NoAcks");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace mspastry
