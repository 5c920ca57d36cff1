#include "pastry/rtt_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace mspastry::pastry {
namespace {

// Exact Jacobson/Karels recurrence in double precision, used as the
// ground truth the fixed-point implementation must track.
struct ReferenceEstimator {
  bool seeded = false;
  double srtt = 0.0;
  double rttvar = 0.0;
  void sample(double rtt) {
    if (!seeded) {
      srtt = rtt;
      rttvar = rtt / 2.0;
      seeded = true;
      return;
    }
    const double err = std::abs(rtt - srtt);
    rttvar += (err - rttvar) / 4.0;
    srtt += (rtt - srtt) / 8.0;
  }
};

Config cfg() { return Config{}; }

TEST(RttEstimator, UnseededUsesInitialRto) {
  RttEstimator e;
  EXPECT_FALSE(e.seeded());
  EXPECT_EQ(e.rto(cfg()), cfg().rto_initial);
}

TEST(RttEstimator, FirstSampleSeeds) {
  RttEstimator e;
  e.sample(milliseconds(40));
  EXPECT_TRUE(e.seeded());
  EXPECT_EQ(e.srtt(), milliseconds(40));
  // RTO = srtt + 4 * rttvar = 40 + 4*20 = 120 ms.
  EXPECT_EQ(e.rto(cfg()), milliseconds(120));
}

TEST(RttEstimator, ConvergesToStableRtt) {
  RttEstimator e;
  for (int i = 0; i < 100; ++i) e.sample(milliseconds(50));
  EXPECT_NEAR(static_cast<double>(e.srtt()),
              static_cast<double>(milliseconds(50)), 1000.0);
  // Variance decays toward zero; RTO approaches srtt and hits the floor.
  EXPECT_LE(e.rto(cfg()), milliseconds(60));
  EXPECT_GE(e.rto(cfg()), kRtoMin);
}

TEST(RttEstimator, RtoFloorIsAggressiveNotTcp) {
  // The floor is 30 ms (not TCP's 1 s): rapid failover to alternatives.
  RttEstimator e;
  for (int i = 0; i < 200; ++i) e.sample(milliseconds(2));
  EXPECT_EQ(e.rto(cfg()), kRtoMin);
  EXPECT_LT(kRtoMin, seconds(1));
}

TEST(RttEstimator, RtoCappedAtMax) {
  RttEstimator e;
  e.sample(seconds(10));
  EXPECT_EQ(e.rto(cfg()), kRtoMax);
}

TEST(RttEstimator, VarianceTracksJitter) {
  RttEstimator smooth;
  RttEstimator jittery;
  for (int i = 0; i < 50; ++i) {
    smooth.sample(milliseconds(50));
    jittery.sample(i % 2 == 0 ? milliseconds(20) : milliseconds(80));
  }
  EXPECT_GT(jittery.rto(cfg()), smooth.rto(cfg()));
}

TEST(RttEstimator, ConvergesDownThroughSubGranularitySteps) {
  // Regression: with unscaled integer state, `(rtt - srtt_) / 8` truncates
  // toward zero, so once srtt sits within 7 ticks above the true RTT no
  // sample can ever pull it down — the estimator is permanently biased
  // high. The scaled fixed-point state must converge to the true value.
  RttEstimator e;
  e.sample(microseconds(10007));  // seed 7 ticks above the true RTT
  for (int i = 0; i < 300; ++i) e.sample(microseconds(10000));
  EXPECT_EQ(e.srtt(), microseconds(10000));
}

TEST(RttEstimator, TracksReferenceThroughSlowDecrease) {
  // RTT drifts down by 5 us per sample — every individual step is below
  // the 8-tick truncation granularity. The pre-fix estimator freezes at
  // the seed while the true RTT walks 4 ms away.
  RttEstimator e;
  ReferenceEstimator ref;
  for (int i = 0; i <= 800; ++i) {
    const SimDuration rtt = microseconds(60000 - 5 * i);
    e.sample(rtt);
    ref.sample(static_cast<double>(rtt));
  }
  EXPECT_NEAR(static_cast<double>(e.srtt()), ref.srtt, 16.0);
}

TEST(RttEstimator, TracksReferenceUnderRandomJitter) {
  // Differential check against the double-precision recurrence across a
  // long random sample stream: the fixed-point state keeps the dropped
  // fractions, so srtt and the derived RTO stay within a few ticks of
  // the exact values at every step.
  std::mt19937_64 prng(0x5eed);
  std::uniform_int_distribution<SimDuration> pick(
      milliseconds(20), milliseconds(80));
  RttEstimator e;
  ReferenceEstimator ref;
  const Config c = cfg();
  for (int i = 0; i < 2000; ++i) {
    const SimDuration rtt = pick(prng);
    e.sample(rtt);
    ref.sample(static_cast<double>(rtt));
    ASSERT_NEAR(static_cast<double>(e.srtt()), ref.srtt, 16.0)
        << "diverged at sample " << i;
    const double ref_rto =
        std::clamp(ref.srtt + kRtoVarFactor * ref.rttvar,
                   static_cast<double>(kRtoMin),
                   static_cast<double>(kRtoMax));
    ASSERT_NEAR(static_cast<double>(e.rto(c)), ref_rto, 64.0)
        << "RTO diverged at sample " << i;
  }
}

TEST(RttEstimator, AdaptsToRttIncrease) {
  RttEstimator e;
  for (int i = 0; i < 50; ++i) e.sample(milliseconds(20));
  const SimDuration before = e.rto(cfg());
  for (int i = 0; i < 50; ++i) e.sample(milliseconds(200));
  EXPECT_GT(e.rto(cfg()), before);
  EXPECT_GT(e.srtt(), milliseconds(150));
}

}  // namespace
}  // namespace mspastry::pastry
