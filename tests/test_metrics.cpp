#include "overlay/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mspastry::overlay {
namespace {

using pastry::MsgType;
using pastry::TrafficClass;

TEST(NodeSecondsAccumulator, IntegratesAcrossWindows) {
  NodeSecondsAccumulator acc(seconds(10));
  acc.change(0, 2);              // 2 nodes from t=0
  acc.change(seconds(15), 1);    // 3 nodes from t=15
  const auto& w = acc.windows(seconds(30));
  // Window 0 (0-10): 2 nodes * 10 s = 20.
  EXPECT_DOUBLE_EQ(w.at(0), 20.0);
  // Window 1 (10-20): 2*5 + 3*5 = 25.
  EXPECT_DOUBLE_EQ(w.at(1), 25.0);
  // Window 2 (20-30): 3*10 = 30.
  EXPECT_DOUBLE_EQ(w.at(2), 30.0);
  EXPECT_EQ(acc.current_count(), 3);
}

TEST(NodeSecondsAccumulator, HandlesDeparture) {
  NodeSecondsAccumulator acc(seconds(10));
  acc.change(0, 5);
  acc.change(seconds(10), -5);
  const auto& w = acc.windows(seconds(20));
  EXPECT_DOUBLE_EQ(w.at(0), 50.0);
  EXPECT_DOUBLE_EQ(w.at(1), 0.0);
}

Metrics make_metrics() { return Metrics(seconds(10), /*warmup=*/seconds(20)); }

TEST(Metrics, LookupBookkeeping) {
  Metrics m = make_metrics();
  m.population_change(0, 2);
  // Pre-warmup lookup is excluded from aggregates.
  m.on_lookup_issued(1, seconds(5), 0, NodeId{0, 1});
  m.on_lookup_delivered(1, seconds(6), true, milliseconds(10));
  EXPECT_EQ(m.lookups_issued(), 0u);
  // Post-warmup lookups count.
  m.on_lookup_issued(2, seconds(30), 0, NodeId{0, 2});
  m.on_lookup_delivered(2, seconds(31), true, milliseconds(10));
  m.on_lookup_issued(3, seconds(32), 0, NodeId{0, 3});
  m.on_lookup_delivered(3, seconds(33), false, 0);
  m.on_lookup_issued(4, seconds(34), 0, NodeId{0, 4});  // never delivered
  m.finalize(seconds(200), seconds(10));
  EXPECT_EQ(m.lookups_issued(), 3u);
  EXPECT_EQ(m.lookups_delivered_correct(), 1u);
  EXPECT_EQ(m.lookups_delivered_incorrect(), 1u);
  EXPECT_EQ(m.lookups_lost(), 1u);
  EXPECT_NEAR(m.loss_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.incorrect_delivery_rate(), 1.0 / 3.0, 1e-12);
}

TEST(Metrics, RdpComputedFromDelayRatio) {
  Metrics m = make_metrics();
  m.population_change(0, 1);
  m.on_lookup_issued(1, seconds(30), 0, NodeId{0, 1});
  // Delivered 100 ms later over a 50 ms direct path: RDP = 2.
  m.on_lookup_delivered(1, seconds(30) + milliseconds(100), true,
                        milliseconds(50));
  EXPECT_DOUBLE_EQ(m.mean_rdp(), 2.0);
}

TEST(Metrics, DuplicateDeliveryIgnored) {
  Metrics m = make_metrics();
  m.on_lookup_issued(1, seconds(30), 0, NodeId{0, 1});
  m.on_lookup_delivered(1, seconds(31), true, milliseconds(10));
  m.on_lookup_delivered(1, seconds(32), false, 0);  // dup: ignored
  EXPECT_EQ(m.lookups_delivered_correct(), 1u);
  EXPECT_EQ(m.lookups_delivered_incorrect(), 0u);
}

TEST(Metrics, IncorrectDeliveryUpgradedByLaterCorrectCopy) {
  // First-correct-wins: a redundant diverse-path copy landing at the true
  // root upgrades an earlier misdelivery of the same lookup.
  Metrics m = make_metrics();
  m.on_lookup_issued(1, seconds(30), 0, NodeId{0, 1});
  m.on_lookup_delivered(1, seconds(31), false, 0,
                        Metrics::IncorrectCause::kAdversarialMisroute);
  m.on_lookup_delivered(1, seconds(32), true, milliseconds(10));
  m.finalize(seconds(200), seconds(10));
  EXPECT_EQ(m.lookups_delivered_correct(), 1u);
  EXPECT_EQ(m.lookups_delivered_incorrect(), 0u);
  EXPECT_EQ(m.incorrect_misrouted_by_adversary(), 0u);
  EXPECT_EQ(m.lookups_lost(), 0u);
}

TEST(Metrics, UnresolvedIncorrectDeliveriesFlushWithAttribution) {
  Metrics m = make_metrics();
  m.on_lookup_issued(1, seconds(30), 0, NodeId{0, 1});
  m.on_lookup_delivered(1, seconds(31), false, 0,
                        Metrics::IncorrectCause::kAdversarialMisroute);
  m.on_lookup_issued(2, seconds(32), 0, NodeId{0, 2});
  m.on_lookup_delivered(2, seconds(33), false, 0,
                        Metrics::IncorrectCause::kStaleLeafSet);
  m.finalize(seconds(200), seconds(10));
  EXPECT_EQ(m.lookups_delivered_incorrect(), 2u);
  EXPECT_EQ(m.incorrect_misrouted_by_adversary(), 1u);
  EXPECT_EQ(m.incorrect_stale_leaf_set(), 1u);
  // Misdelivered, not lost: no loss, and no grace period applies.
  EXPECT_EQ(m.lookups_lost(), 0u);
}

TEST(Metrics, DevouredLookupsAttributeLossToTheAdversary) {
  Metrics m = make_metrics();
  m.on_lookup_issued(1, seconds(30), 0, NodeId{0, 1});
  m.on_lookup_devoured(1);  // adversary ate it; nothing ever arrives
  m.on_lookup_issued(2, seconds(32), 0, NodeId{0, 2});  // plain loss
  m.on_lookup_issued(3, seconds(34), 0, NodeId{0, 3});
  m.on_lookup_devoured(3);  // devoured, but a copy still got through
  m.on_lookup_delivered(3, seconds(35), true, milliseconds(10));
  m.finalize(seconds(200), seconds(10));
  EXPECT_EQ(m.lookups_lost(), 2u);
  EXPECT_EQ(m.lost_dropped_by_adversary(), 1u);
  EXPECT_EQ(m.lookups_delivered_correct(), 1u);
}

TEST(Metrics, LossGraceExcludesInFlight) {
  Metrics m = make_metrics();
  m.on_lookup_issued(1, seconds(95), 0, NodeId{0, 1});  // within grace
  m.on_lookup_issued(2, seconds(50), 0, NodeId{0, 2});  // lost for real
  m.finalize(seconds(100), seconds(10));
  EXPECT_EQ(m.lookups_lost(), 1u);
}

TEST(Metrics, ControlTrafficRatePerNodeSecond) {
  Metrics m = make_metrics();
  m.population_change(0, 4);  // 4 nodes throughout
  // 40 heartbeats + 10 lookups post-warmup over [20, 120] = 400 node-s.
  for (int i = 0; i < 40; ++i) m.on_message(seconds(30), MsgType::kHeartbeat);
  for (int i = 0; i < 10; ++i) m.on_message(seconds(40), MsgType::kLookup);
  m.finalize(seconds(120), 0);
  EXPECT_NEAR(m.control_traffic_rate(), 40.0 / 400.0, 1e-9);
  EXPECT_NEAR(m.total_traffic_rate(), 50.0 / 400.0, 1e-9);
  EXPECT_NEAR(m.control_traffic_rate(TrafficClass::kLeafSetTraffic),
              40.0 / 400.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.control_traffic_rate(TrafficClass::kRtProbes), 0.0);
}

TEST(Metrics, SeriesPerWindow) {
  Metrics m = make_metrics();
  m.population_change(0, 2);
  m.on_message(seconds(5), MsgType::kHeartbeat);
  m.on_message(seconds(15), MsgType::kHeartbeat);
  m.on_message(seconds(15), MsgType::kRtProbe);
  auto series = m.control_traffic_series(seconds(20));
  ASSERT_EQ(series.size(), 2u);
  // Window 0: 1 msg / (2 nodes * 10 s).
  EXPECT_DOUBLE_EQ(series[0].value, 1.0 / 20.0);
  EXPECT_DOUBLE_EQ(series[1].value, 2.0 / 20.0);
  auto rt_series =
      m.control_traffic_series(TrafficClass::kRtProbes, seconds(20));
  ASSERT_EQ(rt_series.size(), 2u);
  EXPECT_DOUBLE_EQ(rt_series[0].value, 0.0);
  EXPECT_DOUBLE_EQ(rt_series[1].value, 1.0 / 20.0);
}

TEST(Metrics, WindowsWithoutMessagesAreAbsentFromEverySeries) {
  Metrics m = make_metrics();
  m.population_change(0, 2);
  m.on_message(seconds(5), MsgType::kHeartbeat);  // window 0
  m.on_app_message(seconds(25));                  // window 2: app only
  m.on_unclassified_control(seconds(35));         // window 3: unclassified
  m.on_message(seconds(55), MsgType::kLookup);    // window 5
  // Windows 1 and 4 saw nothing; 2 and 3 saw nothing classified.
  const auto starts = [](const std::vector<Metrics::SeriesPoint>& s) {
    std::vector<double> t;
    for (const auto& p : s) t.push_back(p.t_seconds);
    return t;
  };
  const std::vector<double> classified{0.0, 50.0};
  EXPECT_EQ(starts(m.control_traffic_series(seconds(60))), classified);
  EXPECT_EQ(
      starts(m.control_traffic_series(TrafficClass::kJoin, seconds(60))),
      classified);
  EXPECT_EQ(starts(m.total_traffic_series(seconds(60))),
            (std::vector<double>{0.0, 20.0, 30.0, 50.0}));
}

TEST(Metrics, MergedPerShardTrafficEqualsOneLedger) {
  // Two shards whose traffic spans different windows (the second shard
  // runs past the first's last window) fold into the same series, rates
  // and totals as one Metrics fed every message.
  Metrics one = make_metrics();
  Metrics a = make_metrics();
  Metrics b = make_metrics();
  one.population_change(0, 3);
  const auto msg = [&](Metrics& shard, SimTime t, MsgType type) {
    shard.on_message(t, type);
    one.on_message(t, type);
  };
  msg(a, seconds(3), MsgType::kHeartbeat);
  msg(a, seconds(25), MsgType::kLookup);
  msg(b, seconds(25), MsgType::kRtProbe);
  msg(b, seconds(25), MsgType::kAck);
  msg(b, seconds(77), MsgType::kLsProbe);
  msg(b, seconds(91), MsgType::kJoinRequest);
  a.on_app_message(seconds(44));
  one.on_app_message(seconds(44));
  b.on_unclassified_control(seconds(66));
  one.on_unclassified_control(seconds(66));
  a.on_fault_injected(net::FaultKind::kLoss);
  one.on_fault_injected(net::FaultKind::kLoss);

  Metrics merged = make_metrics();
  merged.population_change(0, 3);
  merged.merge_traffic_from(a);
  merged.merge_traffic_from(b);
  one.finalize(seconds(100), 0);
  merged.finalize(seconds(100), 0);

  const auto same = [](const std::vector<Metrics::SeriesPoint>& x,
                       const std::vector<Metrics::SeriesPoint>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].t_seconds, y[i].t_seconds);
      EXPECT_EQ(x[i].value, y[i].value);
    }
  };
  const SimTime end = seconds(100);
  same(merged.control_traffic_series(end), one.control_traffic_series(end));
  same(merged.total_traffic_series(end), one.total_traffic_series(end));
  for (int c = 0; c < pastry::kTrafficClassCount; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    same(merged.control_traffic_series(cls, end),
         one.control_traffic_series(cls, end));
    EXPECT_EQ(merged.control_traffic_rate(cls),
              one.control_traffic_rate(cls));
  }
  EXPECT_EQ(merged.control_traffic_rate(), one.control_traffic_rate());
  EXPECT_EQ(merged.total_traffic_rate(), one.total_traffic_rate());
  EXPECT_EQ(merged.fault_injections(net::FaultKind::kLoss), 1u);
  EXPECT_EQ(merged.total_traffic_series(end).size(), 6u);
}

TEST(Metrics, AppMessagesCountTowardTotalOnly) {
  Metrics m = make_metrics();
  m.population_change(0, 1);
  m.on_app_message(seconds(30));
  m.on_app_message(seconds(31));
  m.finalize(seconds(120), 0);
  EXPECT_DOUBLE_EQ(m.control_traffic_rate(), 0.0);
  EXPECT_GT(m.total_traffic_rate(), 0.0);
}

TEST(Metrics, JoinLatencyTracking) {
  Metrics m = make_metrics();
  m.on_join_started(seconds(30));
  m.on_join_completed(seconds(42), seconds(12));
  EXPECT_EQ(m.joins_started(), 1u);
  EXPECT_EQ(m.joins_completed(), 1u);
  EXPECT_DOUBLE_EQ(m.join_latency_samples().mean(), 12.0);
}

TEST(TrafficClassification, MatchesPaperBreakdown) {
  using pastry::traffic_class;
  EXPECT_EQ(traffic_class(MsgType::kDistanceProbe),
            TrafficClass::kDistanceProbes);
  EXPECT_EQ(traffic_class(MsgType::kHeartbeat),
            TrafficClass::kLeafSetTraffic);
  EXPECT_EQ(traffic_class(MsgType::kLsProbe), TrafficClass::kLeafSetTraffic);
  EXPECT_EQ(traffic_class(MsgType::kRtProbe), TrafficClass::kRtProbes);
  EXPECT_EQ(traffic_class(MsgType::kAck), TrafficClass::kAcksRetransmits);
  EXPECT_EQ(traffic_class(MsgType::kJoinRequest), TrafficClass::kJoin);
  EXPECT_EQ(traffic_class(MsgType::kNnRequest), TrafficClass::kJoin);
  EXPECT_EQ(traffic_class(MsgType::kLookup), TrafficClass::kLookups);
  EXPECT_TRUE(pastry::is_control(MsgType::kAck));
  EXPECT_FALSE(pastry::is_control(MsgType::kLookup));
}

}  // namespace
}  // namespace mspastry::overlay
