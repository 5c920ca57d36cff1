#include "pastry/self_tuning.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace mspastry::pastry {
namespace {

// --- Pf(T, mu): per-hop fault probability ----------------------------------

TEST(PFault, ZeroAtZero) {
  EXPECT_DOUBLE_EQ(selftune::p_fault(0.0, 0.001), 0.0);
  EXPECT_DOUBLE_EQ(selftune::p_fault(10.0, 0.0), 0.0);
}

TEST(PFault, MatchesClosedForm) {
  // Pf = 1 - (1 - e^-x)/x at a few points.
  const double mu = 1e-3;
  for (double T : {1.0, 10.0, 100.0, 1000.0}) {
    const double x = T * mu;
    const double expected = 1.0 - (1.0 - std::exp(-x)) / x;
    EXPECT_NEAR(selftune::p_fault(T, mu), expected, 1e-12);
  }
}

TEST(PFault, SmallArgumentSeries) {
  // For tiny T*mu the linearization x/2 must be used (no cancellation).
  const double p = selftune::p_fault(1e-4, 1e-7);
  EXPECT_NEAR(p, 1e-4 * 1e-7 / 2.0, 1e-15);
  EXPECT_GT(p, 0.0);
}

TEST(PFault, MonotoneInTAndMu) {
  double prev = 0.0;
  for (double T = 1.0; T < 10000.0; T *= 2.0) {
    const double p = selftune::p_fault(T, 1e-4);
    EXPECT_GT(p, prev);
    prev = p;
  }
  prev = 0.0;
  for (double mu = 1e-6; mu < 1e-1; mu *= 10.0) {
    const double p = selftune::p_fault(100.0, mu);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(PFault, ApproachesOneForHugeWindows) {
  EXPECT_GT(selftune::p_fault(1e7, 1e-2), 0.99);
  EXPECT_LE(selftune::p_fault(1e9, 1.0), 1.0);
}

// --- Expected hops -----------------------------------------------------------

TEST(ExpectedHops, PaperFormula) {
  // h = (2^b - 1)/2^b * log_{2^b} N.
  EXPECT_NEAR(selftune::expected_hops(65536.0, 4), 15.0 / 16.0 * 4.0, 1e-9);
  EXPECT_NEAR(selftune::expected_hops(1024.0, 1), 0.5 * 10.0, 1e-9);
}

TEST(ExpectedHops, AtLeastOne) {
  EXPECT_DOUBLE_EQ(selftune::expected_hops(1.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(selftune::expected_hops(2.0, 4), 1.0);  // formula < 1
}

TEST(ExpectedHops, GrowsWithNShrinksWithB) {
  EXPECT_LT(selftune::expected_hops(1000.0, 4),
            selftune::expected_hops(100000.0, 4));
  EXPECT_GT(selftune::expected_hops(100000.0, 1),
            selftune::expected_hops(100000.0, 4));
}

// --- tune_trt -----------------------------------------------------------------

Config base_config() {
  Config cfg;
  cfg.target_raw_loss = 0.05;
  return cfg;
}

TEST(TuneTrt, NoFailuresMeansMaxPeriod) {
  const Config cfg = base_config();
  EXPECT_DOUBLE_EQ(selftune::tune_trt(cfg, 0.0, 10000.0),
                   to_seconds(kTrtMax));
}

TEST(TuneTrt, HigherFailureRateProbesFaster) {
  const Config cfg = base_config();
  const double slow = selftune::tune_trt(cfg, 1e-5, 10000.0);
  const double fast = selftune::tune_trt(cfg, 1e-3, 10000.0);
  EXPECT_LT(fast, slow);
}

TEST(TuneTrt, TighterTargetProbesFaster) {
  Config loose = base_config();
  loose.target_raw_loss = 0.05;
  Config tight = base_config();
  tight.target_raw_loss = 0.01;
  const double mu = 1.0 / (30.0 * 60.0);  // 30-minute sessions
  EXPECT_LT(selftune::tune_trt(tight, mu, 10000.0),
            selftune::tune_trt(loose, mu, 10000.0));
}

TEST(TuneTrt, ClampedToBounds) {
  const Config cfg = base_config();
  // Absurdly high failure rate: clamp at the floor (retries+1)*To = 9 s.
  EXPECT_DOUBLE_EQ(selftune::tune_trt(cfg, 1.0, 10000.0),
                   to_seconds(cfg.t_rt_min));
  // Minuscule failure rate: cap at the ceiling.
  EXPECT_DOUBLE_EQ(selftune::tune_trt(cfg, 1e-12, 10000.0),
                   to_seconds(kTrtMax));
}

TEST(TuneTrt, SolutionAchievesTargetRawLoss) {
  // Reconstruct Lr from the solved Trt and check it hits the target
  // (when the solution is interior, not clamped).
  const Config cfg = base_config();
  const double mu = 1.0 / 3600.0;  // 1-hour sessions
  const double n = 10000.0;
  const double trt = selftune::tune_trt(cfg, mu, n);
  ASSERT_GT(trt, to_seconds(cfg.t_rt_min));
  ASSERT_LT(trt, to_seconds(kTrtMax));
  const double detect = to_seconds(cfg.probe_detect_time());
  const double h = selftune::expected_hops(n, cfg.b);
  const double lr =
      1.0 - (1.0 - selftune::p_fault(to_seconds(cfg.t_ls) + detect, mu)) *
                std::pow(1.0 - selftune::p_fault(trt + detect, mu), h - 1.0);
  EXPECT_NEAR(lr, cfg.target_raw_loss, 1e-6);
}

TEST(TuneTrt, PropertySweepMonotoneAndBounded) {
  // Randomized audit of the bisection boundaries: across random overlay
  // sizes and loss targets the returned Trt must be (a) monotone
  // non-increasing in mu, (b) monotone non-decreasing in target_raw_loss,
  // and (c) always inside [t_rt_min, kTrtMax].
  std::mt19937_64 prng(0xc0ffee);
  std::uniform_real_distribution<double> pick_n(10.0, 200000.0);
  std::uniform_real_distribution<double> pick_loss(0.002, 0.2);
  std::uniform_real_distribution<double> pick_log_mu(-8.0, 0.0);

  for (int trial = 0; trial < 50; ++trial) {
    Config cfg = base_config();
    cfg.target_raw_loss = pick_loss(prng);
    const double n = pick_n(prng);
    const double t_min = to_seconds(cfg.t_rt_min);
    const double t_max = to_seconds(kTrtMax);

    // (a) + (c): increasing mu grid, Trt must not increase.
    double prev = t_max + 1.0;
    for (double log_mu = -8.0; log_mu <= 0.0; log_mu += 0.25) {
      const double trt = selftune::tune_trt(cfg, std::pow(10.0, log_mu), n);
      EXPECT_GE(trt, t_min);
      EXPECT_LE(trt, t_max);
      EXPECT_LE(trt, prev + 1e-9)
          << "Trt increased with mu at n=" << n
          << " target=" << cfg.target_raw_loss << " log_mu=" << log_mu;
      prev = trt;
    }

    // (b) + (c): increasing loss target at fixed random mu, Trt must not
    // decrease (a looser budget never needs faster probing).
    const double mu = std::pow(10.0, pick_log_mu(prng));
    prev = t_min - 1.0;
    for (double loss = 0.001; loss <= 0.3; loss += 0.01) {
      Config c2 = cfg;
      c2.target_raw_loss = loss;
      const double trt = selftune::tune_trt(c2, mu, n);
      EXPECT_GE(trt, t_min);
      EXPECT_LE(trt, t_max);
      EXPECT_GE(trt, prev - 1e-9)
          << "Trt decreased with loss target at n=" << n << " mu=" << mu
          << " loss=" << loss;
      prev = trt;
    }
  }
}

TEST(TuneTrt, LargerOverlayProbesFaster) {
  // More hops -> tighter per-hop budget -> shorter period.
  const Config cfg = base_config();
  const double mu = 1.0 / 3600.0;
  EXPECT_LT(selftune::tune_trt(cfg, mu, 100000.0),
            selftune::tune_trt(cfg, mu, 100.0));
}

// --- FailureRateEstimator -----------------------------------------------------

TEST(FailureRateEstimator, EmptyIsZero) {
  FailureRateEstimator est(16);
  EXPECT_DOUBLE_EQ(est.estimate(seconds(100), 50), 0.0);
}

TEST(FailureRateEstimator, ZeroStateSizeIsZero) {
  FailureRateEstimator est(16);
  est.record_failure(seconds(1));
  EXPECT_DOUBLE_EQ(est.estimate(seconds(100), 0), 0.0);
}

TEST(FailureRateEstimator, SteadyFailuresRecoverRate) {
  // M = 100 nodes failing at mu = 1e-3 /node/s -> one observed failure
  // every 10 s. Feed exactly that and expect mu back.
  FailureRateEstimator est(16);
  const std::size_t m = 100;
  SimTime t = 0;
  for (int i = 0; i < 16; ++i) {
    t += seconds(10);
    est.record_failure(t);
  }
  const double mu = est.estimate(t, m);
  EXPECT_NEAR(mu, 1e-3, 2e-4);
}

TEST(FailureRateEstimator, PartialHistoryCountsNowAsFailure) {
  // With k < K observations the estimate pretends one more failure occurs
  // now; with a long quiet period the estimate therefore decays.
  FailureRateEstimator est(16);
  est.record_join(0);
  est.record_failure(seconds(10));
  const double early = est.estimate(seconds(20), 100);
  const double late = est.estimate(seconds(10000), 100);
  EXPECT_GT(early, late);
  EXPECT_GT(late, 0.0);
}

TEST(FailureRateEstimator, CorrelatedBurstBiasesRateUp) {
  // Regression: a correlated burst that lands every recorded failure in
  // the same event-loop tick used to collapse the span to zero and return
  // mu = 0 — driving tune_trt to kTrtMax exactly when probing should be
  // fastest. The span is now clamped to the clock resolution, so a burst
  // produces a very large (upward-biased) estimate instead.
  const int k = 4;
  FailureRateEstimator est(k);
  const SimTime burst = seconds(100);
  for (int i = 0; i < k; ++i) est.record_failure(burst);

  const std::size_t m = 50;
  const double mu = est.estimate(burst, m);
  EXPECT_GT(mu, 0.0);
  // k-1 failures over the 1-tick minimum span across M=50 nodes.
  EXPECT_NEAR(mu, (k - 1) / (50.0 * to_seconds(microseconds(1))), 1e-6);

  // And the large estimate must drive the probe period to its floor, not
  // its ceiling.
  const Config cfg = base_config();
  EXPECT_DOUBLE_EQ(selftune::tune_trt(cfg, mu, 10000.0),
                   to_seconds(cfg.t_rt_min));
}

TEST(FailureRateEstimator, BurstInThePastStillDecays) {
  // The clamp must only kick in for a genuinely zero span: a burst
  // observed long ago still yields a small estimate because the
  // as-if-failure-now path stretches the span to the present.
  FailureRateEstimator est(4);
  for (int i = 0; i < 4; ++i) est.record_failure(seconds(100));
  const double mu = est.estimate(seconds(10100), 50);
  EXPECT_GT(mu, 0.0);
  EXPECT_LT(mu, 1e-2);
}

TEST(FailureRateEstimator, HistoryIsBounded) {
  FailureRateEstimator est(4);
  for (int i = 1; i <= 100; ++i) est.record_failure(seconds(i));
  EXPECT_EQ(est.observed_failures(), 4u);
}

TEST(FailureRateEstimator, JoinSeedsHistory) {
  FailureRateEstimator est(16);
  est.record_join(seconds(5));
  EXPECT_EQ(est.observed_failures(), 1u);
  // Estimate works immediately after joining (paper: a node inserts its
  // join time into the history).
  EXPECT_GE(est.estimate(seconds(50), 10), 0.0);
}

}  // namespace
}  // namespace mspastry::pastry
