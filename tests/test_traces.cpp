#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "trace/churn_generators.hpp"
#include "trace/churn_trace.hpp"

namespace mspastry::trace {
namespace {

TEST(ChurnTrace, ValidatesJoinFailPairing) {
  EXPECT_NO_THROW(ChurnTrace({{0, 0, ChurnEventType::kJoin},
                              {10, 0, ChurnEventType::kFail}}));
  // Failure without a join.
  EXPECT_THROW(ChurnTrace({{0, 0, ChurnEventType::kFail}}),
               std::invalid_argument);
  // Double join.
  EXPECT_THROW(ChurnTrace({{0, 0, ChurnEventType::kJoin},
                           {5, 0, ChurnEventType::kJoin}}),
               std::invalid_argument);
  // Failure twice.
  EXPECT_THROW(ChurnTrace({{0, 0, ChurnEventType::kJoin},
                           {5, 0, ChurnEventType::kFail},
                           {6, 0, ChurnEventType::kFail}}),
               std::invalid_argument);
}

TEST(ChurnTrace, SortsEventsByTime) {
  ChurnTrace t({{seconds(10), 1, ChurnEventType::kFail},
                {seconds(1), 0, ChurnEventType::kJoin},
                {seconds(5), 1, ChurnEventType::kJoin}});
  ASSERT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.events()[0].node, 0);
  EXPECT_EQ(t.events()[1].node, 1);
  EXPECT_EQ(t.events()[2].type, ChurnEventType::kFail);
  EXPECT_EQ(t.duration(), seconds(10));
  EXPECT_EQ(t.session_count(), 2);
}

TEST(ChurnTrace, SessionStats) {
  ChurnTrace t({{0, 0, ChurnEventType::kJoin},
                {seconds(100), 0, ChurnEventType::kFail},
                {0, 1, ChurnEventType::kJoin},
                {seconds(300), 1, ChurnEventType::kFail},
                {0, 2, ChurnEventType::kJoin}});  // never fails
  const auto s = t.session_stats();
  EXPECT_EQ(s.completed_sessions, 2u);
  EXPECT_DOUBLE_EQ(s.mean_seconds, 200.0);
}

TEST(ChurnTrace, PopulationStats) {
  ChurnTrace t({{0, 0, ChurnEventType::kJoin},
                {seconds(10), 1, ChurnEventType::kJoin},
                {seconds(20), 0, ChurnEventType::kFail},
                {seconds(30), 1, ChurnEventType::kFail}});
  const auto p = t.population_stats();
  EXPECT_EQ(p.max_active, 2);
  EXPECT_EQ(p.min_active, 0);
}

TEST(ChurnTrace, SaveLoadRoundTrip) {
  const auto t = generate_poisson(hours(1), 600.0, 50, 7);
  std::stringstream ss;
  t.save(ss);
  const auto u = ChurnTrace::load(ss, t.name());
  ASSERT_EQ(u.events().size(), t.events().size());
  for (std::size_t i = 0; i < t.events().size(); ++i) {
    EXPECT_EQ(u.events()[i].time, t.events()[i].time);
    EXPECT_EQ(u.events()[i].node, t.events()[i].node);
    EXPECT_EQ(u.events()[i].type, t.events()[i].type);
  }
}

TEST(ChurnTrace, LoadRejectsGarbage) {
  std::stringstream ss("X 12 3\n");
  EXPECT_THROW(ChurnTrace::load(ss), std::invalid_argument);
  std::stringstream ss2("J notanumber 3\n");
  EXPECT_THROW(ChurnTrace::load(ss2), std::invalid_argument);
}

TEST(ChurnTrace, LoadSkipsCommentsAndBlanks) {
  std::stringstream ss("# comment\n\nJ 0 0\nF 100 0\n");
  const auto t = ChurnTrace::load(ss);
  EXPECT_EQ(t.events().size(), 2u);
}

TEST(PoissonTrace, SteadyStatePopulation) {
  const int target = 300;
  const auto t = generate_poisson(hours(6), 1800.0, target, 21);
  const auto p = t.population_stats();
  // The population should hover near the target after startup.
  EXPECT_GT(p.mean_active, target * 0.8);
  EXPECT_LT(p.mean_active, target * 1.2);
}

TEST(PoissonTrace, SessionTimesAreExponentialish) {
  const auto t = generate_poisson(hours(12), 900.0, 200, 22);
  const auto s = t.session_stats();
  ASSERT_GT(s.completed_sessions, 500u);
  EXPECT_NEAR(s.mean_seconds, 900.0, 120.0);
  // Exponential: median = mean * ln 2.
  EXPECT_NEAR(s.median_seconds, 900.0 * 0.693, 150.0);
}

TEST(PoissonTrace, Deterministic) {
  const auto a = generate_poisson(hours(1), 600.0, 50, 5);
  const auto b = generate_poisson(hours(1), 600.0, 50, 5);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_EQ(a.events().front().time, b.events().front().time);
  EXPECT_EQ(a.events().back().time, b.events().back().time);
}

// --- The three real-world trace presets -------------------------------------

struct PresetCase {
  const char* name;
  SyntheticChurnParams params;
  double expected_mean_s;
  double expected_median_s;
};

class PresetTest : public ::testing::TestWithParam<int> {};

PresetCase preset_case(int idx) {
  switch (idx) {
    case 0:
      return {"Gnutella", gnutella_params(0.25, 0.5), 2.3 * 3600, 3600};
    case 1:
      return {"OverNet", overnet_params(1.0, 0.3), 134 * 60.0, 79 * 60.0};
    default:
      return {"Microsoft", microsoft_params(0.02, 0.15), 37.7 * 3600,
              30.0 * 3600};
  }
}

TEST_P(PresetTest, SessionStatisticsMatchStudy) {
  const auto c = preset_case(GetParam());
  const auto t = generate_synthetic(c.params);
  EXPECT_EQ(t.name(), c.name);
  const auto s = t.session_stats();
  ASSERT_GT(s.completed_sessions, 50u) << c.name;
  // Heavy-tailed draws over finite windows bias the completed-session mean
  // low (long sessions outlive the trace), so allow generous tolerance;
  // the median is robust.
  EXPECT_GT(s.mean_seconds, 0.4 * c.expected_mean_s) << c.name;
  EXPECT_LT(s.mean_seconds, 1.6 * c.expected_mean_s) << c.name;
  EXPECT_GT(s.median_seconds, 0.5 * c.expected_median_s) << c.name;
  EXPECT_LT(s.median_seconds, 1.6 * c.expected_median_s) << c.name;
}

TEST_P(PresetTest, PopulationStaysInBand) {
  const auto c = preset_case(GetParam());
  const auto t = generate_synthetic(c.params);
  const auto p = t.population_stats();
  EXPECT_GT(p.mean_active, c.params.target_population * 0.6) << c.name;
  EXPECT_LT(p.mean_active, c.params.target_population * 1.5) << c.name;
}

TEST_P(PresetTest, FailureRateSeriesIsPositiveAndVaries) {
  const auto c = preset_case(GetParam());
  const auto t = generate_synthetic(c.params);
  const auto series = t.failure_rate_series(minutes(30));
  ASSERT_GT(series.size(), 4u);
  double lo = 1e9;
  double hi = 0;
  for (const auto& [ts, rate] : series) {
    EXPECT_GE(rate, 0.0);
    lo = std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  EXPECT_GT(hi, 0.0) << c.name;
  // The diurnal modulation must be visible as variation.
  EXPECT_GT(hi, lo) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetTest, ::testing::Values(0, 1, 2));

TEST(ChurnTrace, GoldenTraceFileLoadsAndValidates) {
  // data/gnutella_small.trace is a committed generator output (seed 42,
  // node-scale 0.02, time-scale 0.02): loading it exercises the file
  // format against a real artefact and pins the generator against
  // accidental drift (regenerate it deliberately with
  // `mspastry-sim --save-trace` if the generator changes).
  // Opened by absolute path (tests/CMakeLists.txt passes the source
  // directory), so the test runs from any build directory.
  const std::string path =
      std::string(MSPASTRY_SOURCE_DIR) + "/data/gnutella_small.trace";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "cannot open " << path;
  const auto t = ChurnTrace::load(in, "golden");
  EXPECT_EQ(t.session_count(), 51);
  EXPECT_EQ(t.events().size(), 81u);
  const auto p = t.population_stats();
  EXPECT_EQ(p.max_active, 40);
}

TEST(Presets, MicrosoftFailureRateOrderOfMagnitudeBelowGnutella) {
  // Figure 3's headline contrast: corporate failure rates are ~10x lower.
  const double gnutella_rate = 1.0 / (2.3 * 3600);
  const double microsoft_rate = 1.0 / (37.7 * 3600);
  EXPECT_GT(gnutella_rate / microsoft_rate, 10.0);
}

}  // namespace
}  // namespace mspastry::trace
