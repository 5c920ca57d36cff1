// The adversary subsystem: keyed Byzantine behaviors, the driver's
// deterministic population management (set_adversary / clear_adversary),
// eclipse clustering vs the density countermeasure, diverse-path
// redundancy vs interception, the
// delivered-at-oracle-root expectation rule, and composition with network
// fault rules (oracle accounting identity, no false verdicts at f=0).

#include "overlay/adversary.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "net/transit_stub.hpp"
#include "obs/expectations.hpp"
#include "obs/path_assembler.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry {
namespace {

using overlay::AdversaryBehavior;
using overlay::KeyedAdversary;
using overlay::ShardedAdversaryConfig;
using overlay::ShardedDriver;
using RouteAction = pastry::AdversaryPolicy::RouteAction;

std::shared_ptr<net::Topology> small_topology() {
  return std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(3, 3, 4));
}

// A driver with `n` settled nodes and the given countermeasure knobs.
std::unique_ptr<ShardedDriver> build_overlay(
    int n, std::uint64_t seed, int redundancy, bool checks,
    bool traced = false) {
  overlay::DriverConfig dcfg;
  dcfg.seed = seed;
  dcfg.warmup = 0;
  dcfg.pastry.lookup_redundancy = redundancy;
  dcfg.pastry.leaf_plausibility_checks = checks;
  dcfg.obs.enabled = traced;
  auto driver = std::make_unique<overlay::ShardedDriver>(
      small_topology(), net::NetworkConfig{}, dcfg, 1);
  for (int i = 0; i < n; ++i) {
    driver->add_node();
    driver->run_for(seconds(2));
  }
  driver->run_for(minutes(2));
  return driver;
}

// The adversary armed now, between runs.
ShardedAdversaryConfig adversary(AdversaryBehavior behavior, double fraction,
                                 std::uint64_t seed) {
  ShardedAdversaryConfig adv;
  adv.behavior = behavior;
  adv.fraction = fraction;
  adv.strike = 1.0;
  adv.seed = seed;
  return adv;
}

// Probe bookkeeping shared by the behavioral tests: the driver's tracked
// delivery verdicts (first-correct-wins). Sources and keys avoid the
// adversarial population.
struct ProbeBoard {
  std::vector<std::uint64_t> ids;

  void issue(ShardedDriver& driver, int count) {
    for (int i = 0; i < count; ++i) {
      net::Address src = net::kNullAddress;
      for (int tries = 0; tries <= 64; ++tries) {
        const auto pick = driver.oracle().random_active(driver.rng());
        if (!pick) break;
        src = pick->second;
        if (!driver.session_is_adversarial(src)) break;
      }
      NodeId key = driver.rng().node_id();
      for (int tries = 0; tries < 64; ++tries) {
        const auto root = driver.oracle().root_of(key);
        if (root && !driver.session_is_adversarial(*root)) break;
        key = driver.rng().node_id();
      }
      if (src == net::kNullAddress || driver.session_is_adversarial(src)) {
        continue;
      }
      const std::uint64_t id = driver.issue_lookup(src, key);
      driver.track_lookup(id);
      ids.push_back(id);
      driver.run_for(seconds(1));
    }
    driver.run_for(seconds(30));
  }

  std::uint64_t lost(ShardedDriver& driver) const {
    std::uint64_t n = 0;
    for (const auto id : ids) {
      if (!driver.lookup_verdict(id)) ++n;
    }
    return n;
  }
  std::uint64_t incorrect(ShardedDriver& driver) const {
    std::uint64_t n = 0;
    for (const auto id : ids) {
      if (driver.lookup_verdict(id) == false) ++n;
    }
    return n;
  }
};

// --------------------------------------------------------- keyed behaviors

TEST(KeyedAdversary, BehaviorsMapToRouteActions) {
  pastry::MessagePool pool;
  auto m = pastry::make_msg<pastry::LookupMsg>(pool);
  KeyedAdversary drop(AdversaryBehavior::kDrop, 1.0, 1, 5);
  KeyedAdversary misroute(AdversaryBehavior::kMisroute, 1.0, 1, 5);
  KeyedAdversary lie(AdversaryBehavior::kLie, 1.0, 1, 5);
  KeyedAdversary passive(AdversaryBehavior::kDrop, 0.0, 1, 5);
  EXPECT_EQ(drop.on_route(*m, false), RouteAction::kDrop);
  EXPECT_EQ(misroute.on_route(*m, true), RouteAction::kMisroute);
  // Liars route faithfully — their damage is in control-plane replies.
  EXPECT_EQ(lie.on_route(*m, false), RouteAction::kHonest);
  // Strike probability 0: always honest.
  EXPECT_EQ(passive.on_route(*m, false), RouteAction::kHonest);
}

TEST(KeyedAdversary, LiarCorruptsRepliesOthersDoNot) {
  pastry::LeafVec leaf;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    leaf.push_back({NodeId{0, i << 8}, static_cast<net::Address>(i)});
  }
  pastry::FailedVec failed;
  KeyedAdversary lie(AdversaryBehavior::kLie, 1.0, 7, 3);
  EXPECT_TRUE(lie.corrupt_ls_reply(leaf, failed));
  // False death claims: entries moved wholesale from live to failed.
  EXPECT_FALSE(failed.empty());
  EXPECT_EQ(leaf.size() + failed.size(), 8u);

  pastry::CandidateVec cands;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    cands.push_back({NodeId{0, i}, static_cast<net::Address>(i)});
  }
  EXPECT_TRUE(lie.corrupt_nn_reply(cands));
  EXPECT_EQ(cands.size(), 1u);  // neighbourhood concealed

  KeyedAdversary drop(AdversaryBehavior::kDrop, 1.0, 7, 3);
  pastry::LeafVec leaf2 = cands.empty() ? pastry::LeafVec{} : leaf;
  pastry::FailedVec failed2;
  EXPECT_FALSE(drop.corrupt_ls_reply(leaf2, failed2));
  EXPECT_TRUE(failed2.empty());
}

// ------------------------------------------------- the adversary scenario

std::vector<net::Address> adversarial_nodes(const ShardedDriver& driver) {
  std::vector<net::Address> out;
  for (const auto a : driver.live_addresses()) {
    if (driver.session_is_adversarial(a)) out.push_back(a);
  }
  return out;
}

TEST(AdversaryScenario, CorruptFractionIsDeterministicAndReversible) {
  const auto corrupted_set = [](std::uint64_t seed) {
    auto driver = build_overlay(20, 11, 1, false);
    driver->set_adversary(adversary(AdversaryBehavior::kDrop, 0.25, seed));
    const auto chosen = adversarial_nodes(*driver);
    EXPECT_EQ(chosen.size(), 5u);  // round(0.25 * 20)
    for (const auto a : chosen) {
      EXPECT_TRUE(driver->session_is_adversarial(a));
      EXPECT_TRUE(driver->node(a)->is_adversarial());
    }
    driver->clear_adversary();
    EXPECT_TRUE(adversarial_nodes(*driver).empty());
    for (const auto a : chosen) {
      EXPECT_FALSE(driver->node(a)->is_adversarial());
    }
    return chosen;
  };
  EXPECT_EQ(corrupted_set(42), corrupted_set(42));  // reproducible
  EXPECT_NE(corrupted_set(42), corrupted_set(43));  // seed is load-bearing
}

// --------------------------------------------- eclipse vs density checks

TEST(AdversaryScenario, DensityChecksKeepSybilsOutOfTheVictimLeafSet) {
  // The same sybil cluster joins twice: an unhardened victim adopts the
  // implausibly-close ids as leaf-set neighbours (the eclipse), a
  // hardened one vetoes them by spacing plausibility.
  const auto sybils_admitted = [](bool checks) {
    auto driver = build_overlay(30, 17, 1, checks);
    const auto victim = driver->oracle().random_active(driver->rng());
    auto adv = adversary(AdversaryBehavior::kMisroute, 0.0, 5);
    adv.eclipse_sybils = 8;
    adv.eclipse_victim = victim->first;
    driver->set_adversary(adv);
    driver->run_for(seconds(2) * 8);  // the sybils' joins
    driver->run_for(minutes(2));      // let leaf-set gossip circulate
    const auto& sybils = driver->sybil_addresses();
    std::unordered_set<net::Address> sybil_set(sybils.begin(), sybils.end());
    std::size_t admitted = 0;
    for (const auto& m :
         driver->node(victim->second)->leaf_set().members()) {
      if (sybil_set.count(m.addr) > 0) ++admitted;
    }
    const std::uint64_t rejections =
        driver->counters().leaf_candidates_rejected;
    for (const auto a : sybils) driver->kill_node(a);
    return std::pair<std::size_t, std::uint64_t>(admitted, rejections);
  };
  const auto [eclipsed, no_rejections] = sybils_admitted(false);
  EXPECT_GT(eclipsed, 0u);  // the attack works on an unhardened node
  EXPECT_EQ(no_rejections, 0u);
  const auto [defended, rejections] = sybils_admitted(true);
  EXPECT_EQ(defended, 0u);  // and is vetoed by the density check
  EXPECT_GT(rejections, 0u);
}

// ------------------------------------------- diverse-path countermeasure

TEST(DiversePath, RedundantCopiesRecoverLookupsFromDroppers) {
  // 30% silent-drop adversaries on a ring big enough that lookups need
  // multiple hops: single-path lookups die in transit, three first-hop-
  // disjoint copies get through.
  const auto lost_with = [](int redundancy) {
    auto driver = build_overlay(100, 23, redundancy, false);
    driver->set_adversary(adversary(AdversaryBehavior::kDrop, 0.3, 9));
    ProbeBoard board;
    board.issue(*driver, 60);
    if (redundancy > 1) {
      EXPECT_GT(driver->counters().redundant_lookup_copies, 0u);
    }
    return board.lost(*driver);
  };
  const auto lost_single = lost_with(1);
  const auto lost_diverse = lost_with(3);
  EXPECT_GT(lost_single, 0u);
  EXPECT_LT(lost_diverse, lost_single);
}

// ------------------------------- the misdelivery expectation rule (R6)

TEST(Expectations, MisdeliveryRuleFiresWithCausalPathWhenUnhardened) {
  // Acceptance criterion: with countermeasures off, an adversarial root
  // claim on a traced lookup must trip delivered-at-oracle-root, and the
  // offending causal path must be assemblable from the flight recorders.
  auto driver = build_overlay(100, 31, 1, false, /*traced=*/true);
  driver->set_adversary(adversary(AdversaryBehavior::kMisroute, 0.3, 13));
  ProbeBoard board;
  board.issue(*driver, 60);
  // the attack landed
  ASSERT_GT(board.incorrect(*driver) + board.lost(*driver), 0u);

  obs::TraceDomain* domain = driver->trace_domain();
  ASSERT_NE(domain, nullptr);
  const auto paths = obs::assemble_paths(*domain);
  obs::ExpectationConfig ecfg;
  ecfg.overlay_size = driver->oracle().active_count();
  ecfg.lookup_verdict = [&driver](std::uint64_t id) {
    return driver->lookup_verdict(id);
  };
  const auto report = obs::check_expectations(*domain, paths, ecfg);
  bool fired = false;
  for (const auto& v : report.violations) {
    if (v.rule != "delivered-at-oracle-root") continue;
    fired = true;
    EXPECT_NE(v.trace_id, 0u);
    const auto path = obs::assemble_path(*domain, v.trace_id);
    ASSERT_TRUE(path.has_value());
    EXPECT_FALSE(obs::describe(*path).empty());
  }
  EXPECT_TRUE(fired);
}

// ------------------------- composition with fault rules, purity at f=0

void add_fault_cocktail(ShardedDriver& driver, SimTime t0, SimTime t1,
                        SimTime flap_t1, std::uint64_t seed) {
  auto dup =
      net::FaultRule::duplicate(net::LinkMatcher::all(), 0.2,
                                milliseconds(15), t0, t1);
  dup.seed = seed;
  driver.add_fault_rule(dup);
  auto reorder = net::FaultRule::reorder(net::LinkMatcher::all(), 0.3,
                                         milliseconds(40), t0, t1);
  reorder.seed = seed + 1;
  driver.add_fault_rule(reorder);
  driver.add_fault_rule(net::FaultRule::flap(
      net::LinkMatcher::endpoint({2, 5}), seconds(8), 0.4, t0, flap_t1));
}

TEST(AdversaryComposition, AccountingIdentityHoldsUnderFaultsPlusAdversary) {
  // Randomized composition: Byzantine droppers layered under duplication,
  // reordering, and a flapping link. Whatever the combination injects,
  // every packet must stay accounted for:
  //   sent == lost + delivered + dropped_unbound + dropped_adversarial
  //           + in_flight.
  for (const std::uint64_t seed : {51ull, 52ull, 53ull}) {
    auto driver = build_overlay(40, seed, 3, true);
    driver->set_adversary(
        adversary(AdversaryBehavior::kDrop, 0.2, seed ^ 0xbeef));
    add_fault_cocktail(*driver, driver->now(), driver->now() + minutes(2),
                       driver->now() + minutes(2), seed);
    ProbeBoard board;
    board.issue(*driver, 40);
    const ShardedDriver& d = *driver;
    EXPECT_GT(d.packets_dropped_adversarial(), 0u) << "seed " << seed;
    EXPECT_EQ(static_cast<std::int64_t>(d.packets_sent()),
              static_cast<std::int64_t>(d.packets_lost() +
                                        d.packets_delivered() +
                                        d.packets_dropped_unbound() +
                                        d.packets_dropped_adversarial()) +
                  d.packets_in_flight())
        << "seed " << seed;
  }
}

TEST(AdversaryComposition, NoFalseIncorrectVerdictsAtFractionZero) {
  // The measurement apparatus must not manufacture failures: with the
  // countermeasures armed, delivery-preserving faults (duplication +
  // reordering) active, and zero corrupted nodes, every probe delivers at
  // the oracle root. The flap — which legitimately causes stale-leaf-set
  // misdeliveries while a link is down — is confined to an earlier window
  // and the ring given time to heal, so any incorrect verdict here would
  // be a false one.
  auto driver = build_overlay(40, 61, 3, true);
  // f = 0: nobody corrupted; the scenario is installed but idle.
  driver->set_adversary(adversary(AdversaryBehavior::kMisroute, 0.0, 3));
  add_fault_cocktail(*driver, driver->now(), driver->now() + minutes(10),
                     driver->now() + minutes(1), 99);
  driver->run_for(minutes(4));  // flap over; condemned peers re-admitted
  ProbeBoard board;
  board.issue(*driver, 60);
  EXPECT_EQ(board.incorrect(*driver), 0u);
  EXPECT_EQ(board.lost(*driver), 0u);
  EXPECT_EQ(driver->packets_dropped_adversarial(), 0u);
  EXPECT_EQ(driver->counters().lookups_dropped_adversarial, 0u);
}

}  // namespace
}  // namespace mspastry
