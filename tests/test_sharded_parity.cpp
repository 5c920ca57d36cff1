// Shard-count parity for the workloads that used to be serial-only:
// adversarial routing (drop / misroute / lie + eclipse sybils),
// application data (the Squirrel-like sharded web cache), and gray-stall
// fault rules. Every test runs the same configuration at several shard
// counts and requires byte-identical observable digests — and asserts
// the workload actually exercised the machinery (nonzero adversarial
// counters, nonzero app traffic, nonzero stall injections), so digest
// equality is never vacuous.
//
// The ConfigError tests are the Release-mode regression for the three
// guards that used to be assert(false): they must throw typed errors in
// every build mode, not silently accept the config with NDEBUG.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "apps/sharded_web_cache.hpp"
#include "net/transit_stub.hpp"
#include "overlay/adversary.hpp"
#include "overlay/sharded_driver.hpp"
#include "trace/churn_generators.hpp"

namespace mspastry {
namespace {

using overlay::AdversaryBehavior;
using overlay::DriverConfig;
using overlay::ShardedAdversaryConfig;
using overlay::ShardedDriver;

std::shared_ptr<net::Topology> topo() {
  return std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(4, 3, 4));
}

/// Joins-only trace: interception experiments keep the membership fixed
/// so every divergence is the adversary's (or the app's), never churn's.
trace::ChurnTrace joins_trace(int nodes) {
  std::vector<trace::ChurnEvent> events;
  events.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    events.push_back({seconds(2) * i, i, trace::ChurnEventType::kJoin});
  }
  return trace::ChurnTrace(std::move(events), "parity-joins");
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

std::uint64_t fold_f(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return fold(h, bits);
}

/// Everything observable a run produces — including the adversarial and
/// application channels this file is about — folded into one value.
std::uint64_t digest(ShardedDriver& d) {
  std::uint64_t h = 14695981039346656037ull;
  h = fold(h, d.executed_events());
  const auto& m = d.metrics();
  h = fold(h, m.lookups_issued());
  h = fold(h, m.lookups_delivered_correct());
  h = fold(h, m.lookups_delivered_incorrect());
  h = fold(h, m.lookups_lost());
  h = fold(h, m.incorrect_misrouted_by_adversary());
  h = fold(h, m.incorrect_stale_leaf_set());
  h = fold(h, m.lost_dropped_by_adversary());
  h = fold(h, m.joins_started());
  h = fold(h, m.joins_completed());
  h = fold_f(h, m.mean_rdp());
  h = fold_f(h, m.control_traffic_rate());
  const auto& c = d.counters();
  h = fold(h, c.lookups_dropped_adversarial);
  h = fold(h, c.lookups_misrouted_adversarial);
  h = fold(h, c.ls_replies_corrupted);
  h = fold(h, c.nn_replies_corrupted);
  h = fold(h, c.redundant_lookup_copies);
  h = fold(h, c.leaf_candidates_rejected);
  h = fold(h, c.failure_claims_distrusted);
  h = fold(h, c.nodes_marked_faulty);
  h = fold(h, c.false_positives);
  h = fold(h, d.packets_sent());
  h = fold(h, d.packets_lost());
  h = fold(h, d.packets_delivered());
  h = fold(h, d.packets_dropped_unbound());
  h = fold(h, d.packets_dropped_adversarial());
  h = fold(h, d.sybil_addresses().size());
  for (const double s : d.app_latency_samples()) h = fold_f(h, s);
  return h;
}

constexpr int kNodes = 160;  // small rings route in one hop; see bench

struct AdversaryRunParams {
  AdversaryBehavior behavior = AdversaryBehavior::kDrop;
  double fraction = 0.2;
  int sybils = 0;
  NodeId victim;
};

std::unique_ptr<ShardedDriver> run_adversary(const AdversaryRunParams& p,
                                             std::size_t shards) {
  const auto joins = joins_trace(kNodes);
  const SimTime arm_at = joins.duration() + minutes(3);
  DriverConfig cfg;
  cfg.seed = 71;
  cfg.warmup = arm_at;
  cfg.lookup_rate_per_node = 0.01;
  cfg.pastry.lookup_redundancy = 3;
  cfg.pastry.leaf_plausibility_checks = true;
  auto d = std::make_unique<ShardedDriver>(topo(), net::NetworkConfig{}, cfg,
                                           shards);
  ShardedAdversaryConfig adv;
  adv.behavior = p.behavior;
  adv.fraction = p.fraction;
  adv.arm_at = arm_at;
  adv.eclipse_sybils = p.sybils;
  adv.eclipse_victim = p.victim;
  adv.seed = 0xadd5a17ull;
  d->set_adversary(adv);
  d->run_trace(joins, minutes(3) + minutes(4));
  return d;
}

TEST(ShardedParity, AdversaryDigestInvariantAcrossShardCounts) {
  for (const auto behavior :
       {AdversaryBehavior::kDrop, AdversaryBehavior::kMisroute,
        AdversaryBehavior::kLie}) {
    std::uint64_t want = 0;
    for (const std::size_t s : {1u, 2u, 4u}) {
      AdversaryRunParams p;
      p.behavior = behavior;
      const auto d = run_adversary(p, s);
      const std::uint64_t got = digest(*d);
      if (s == 1) {
        want = got;
        // The adversary must actually bite, or equality is vacuous.
        EXPECT_GT(d->metrics().lookups_issued(), 100u);
        const auto& c = d->counters();
        switch (behavior) {
          case AdversaryBehavior::kDrop:
            EXPECT_GT(c.lookups_dropped_adversarial, 0u);
            EXPECT_GT(d->packets_dropped_adversarial(), 0u);
            EXPECT_GT(d->metrics().lost_dropped_by_adversary(), 0u);
            break;
          case AdversaryBehavior::kMisroute:
            EXPECT_GT(c.lookups_misrouted_adversarial, 0u);
            break;
          case AdversaryBehavior::kLie:
            EXPECT_GT(c.ls_replies_corrupted + c.nn_replies_corrupted, 0u);
            break;
        }
      } else {
        EXPECT_EQ(got, want)
            << "behavior=" << overlay::to_string(behavior) << " shards=" << s;
      }
    }
  }
}

TEST(ShardedParity, EclipseSybilsJoinIdenticallyAtEveryShardCount) {
  AdversaryRunParams p;
  p.behavior = AdversaryBehavior::kMisroute;
  p.fraction = 0.1;
  p.sybils = 8;
  p.victim = NodeId::from_string("8000000000000000000000000000000a");
  std::uint64_t want = 0;
  for (const std::size_t s : {1u, 2u, 4u}) {
    const auto d = run_adversary(p, s);
    ASSERT_EQ(d->sybil_addresses().size(), 8u) << "shards=" << s;
    for (const auto a : d->sybil_addresses()) {
      EXPECT_TRUE(d->session_is_adversarial(a));
    }
    const std::uint64_t got = digest(*d);
    if (s == 1) {
      want = got;
      // The measurement window opens at arm_at, so the only joins it can
      // see are the sybils' — all 8 must complete through the deferred
      // ledger.
      EXPECT_EQ(d->metrics().joins_completed(), 8u);
    } else {
      EXPECT_EQ(got, want) << "shards=" << s;
    }
  }
}

TEST(ShardedParity, SquirrelAppDigestInvariantAcrossShardCounts) {
  const auto trace = trace::generate_poisson(minutes(20), 1800.0, 52, 31);
  std::uint64_t want = 0;
  apps::ShardedWebCacheService::Stats want_stats;
  for (const std::size_t s : {1u, 2u, 4u}) {
    DriverConfig cfg;
    cfg.seed = 71;
    cfg.warmup = minutes(2);
    cfg.metrics_window = minutes(1);
    cfg.lookup_rate_per_node = 0.0;  // the app drives all lookups
    ShardedDriver d(topo(), {}, cfg, s);
    apps::ShardedWebCacheService cache;
    d.attach_app(&cache);
    d.run_trace(trace);
    std::uint64_t got = digest(d);
    const auto st = cache.stats();
    got = fold(got, st.requests);
    got = fold(got, st.hits);
    got = fold(got, st.misses);
    got = fold(got, st.responses);
    got = fold(got, cache.cached_total());
    if (s == 1) {
      want = got;
      want_stats = st;
      EXPECT_GT(st.requests, 20u);
      EXPECT_GT(st.hits, 0u);
      EXPECT_GT(st.responses, 0u);
      EXPECT_FALSE(d.app_latency_samples().empty());
    } else {
      EXPECT_EQ(got, want) << "shards=" << s;
      EXPECT_EQ(st.requests, want_stats.requests) << "shards=" << s;
      EXPECT_EQ(st.responses, want_stats.responses) << "shards=" << s;
    }
  }
}

TEST(ShardedParity, GrayStallIsShardCountInvariantAndDoesNotCondemn) {
  const auto joins = joins_trace(60);
  const SimTime stall_at = joins.duration() + minutes(3);
  std::uint64_t want = 0;
  for (const std::size_t s : {1u, 2u, 4u}) {
    DriverConfig cfg;
    cfg.seed = 71;
    cfg.warmup = minutes(2);
    cfg.lookup_rate_per_node = 0.05;
    ShardedDriver d(topo(), {}, cfg, s);
    // One node goes gray for 8 s — long enough to defer its traffic,
    // short enough that no peer may condemn it to a failed set.
    d.add_fault_rule(net::FaultRule::stall({7}, stall_at,
                                           stall_at + seconds(8)));
    d.run_trace(joins, minutes(3) + minutes(2));
    EXPECT_GT(d.metrics().fault_injections(net::FaultKind::kStall), 0u)
        << "shards=" << s;
    // Joins-only membership + sub-condemnation stall: nobody is ever
    // declared failed. (A condemnation here is the stalled-not-condemned
    // regression.)
    EXPECT_EQ(d.counters().nodes_marked_faulty, 0u) << "shards=" << s;
    const std::uint64_t got = digest(d);
    if (s == 1) {
      want = got;
      EXPECT_GT(d.metrics().lookups_delivered_correct(), 100u);
    } else {
      EXPECT_EQ(got, want) << "shards=" << s;
    }
  }
}

// --- Release-mode regression: the former assert(false) guards ----------

trace::ChurnTrace tiny_trace() {
  return trace::generate_poisson(minutes(2), 600.0, 12, 31);
}

DriverConfig tiny_config() {
  DriverConfig cfg;
  cfg.seed = 71;
  cfg.warmup = seconds(30);
  cfg.lookup_rate_per_node = 0.05;
  return cfg;
}

TEST(ShardedParity, ConfigAfterRunThrowsTypedErrorsInAllBuildModes) {
  ShardedDriver d(topo(), {}, tiny_config(), 2);
  d.run_trace(tiny_trace());
  EXPECT_THROW(
      d.add_fault_rule(net::FaultRule::loss(net::LinkMatcher::all(), 0.01)),
      overlay::ConfigError);
  EXPECT_THROW(d.set_adversary(ShardedAdversaryConfig{}),
               overlay::ConfigError);
  apps::ShardedWebCacheService cache;
  EXPECT_THROW(d.attach_app(&cache), overlay::ConfigError);
  EXPECT_THROW(d.run_trace(tiny_trace()), overlay::ConfigError);
}

TEST(ShardedParity, AdversaryConfigIsValidatedBeforeRun) {
  ShardedDriver d(topo(), {}, tiny_config(), 2);
  ShardedAdversaryConfig adv;
  adv.fraction = 1.5;
  EXPECT_THROW(d.set_adversary(adv), overlay::ConfigError);
  adv.fraction = 0.2;
  adv.strike = -0.1;
  EXPECT_THROW(d.set_adversary(adv), overlay::ConfigError);
  adv.strike = 1.0;
  adv.eclipse_sybils = -1;
  EXPECT_THROW(d.set_adversary(adv), overlay::ConfigError);
  adv.eclipse_sybils = 0;
  adv.arm_at = -seconds(1);
  EXPECT_THROW(d.set_adversary(adv), overlay::ConfigError);
  adv.arm_at = 0;
  EXPECT_NO_THROW(d.set_adversary(adv));
}

}  // namespace
}  // namespace mspastry
