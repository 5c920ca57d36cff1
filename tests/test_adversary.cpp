// The adversary subsystem: keyed Byzantine behaviors, the controller's
// deterministic population management, eclipse clustering vs the density
// countermeasure, diverse-path redundancy vs interception, the
// delivered-at-oracle-root expectation rule, and composition with network
// fault rules (oracle accounting identity, no false verdicts at f=0).

#include "overlay/adversary.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "net/transit_stub.hpp"
#include "obs/expectations.hpp"
#include "obs/path_assembler.hpp"
#include "overlay/driver.hpp"

namespace mspastry {
namespace {

using overlay::AdversaryBehavior;
using overlay::AdversaryController;
using overlay::KeyedAdversary;
using RouteAction = pastry::AdversaryPolicy::RouteAction;

std::shared_ptr<net::Topology> small_topology() {
  return std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(3, 3, 4));
}

// A driver with `n` settled nodes and the given countermeasure knobs.
std::unique_ptr<overlay::OverlayDriver> build_overlay(
    int n, std::uint64_t seed, int redundancy, bool checks,
    bool traced = false) {
  overlay::DriverConfig dcfg;
  dcfg.seed = seed;
  dcfg.warmup = 0;
  dcfg.pastry.lookup_redundancy = redundancy;
  dcfg.pastry.leaf_plausibility_checks = checks;
  dcfg.obs.enabled = traced;
  auto driver = std::make_unique<overlay::OverlayDriver>(
      small_topology(), net::NetworkConfig{}, dcfg);
  for (int i = 0; i < n; ++i) {
    driver->add_node();
    driver->run_for(seconds(2));
  }
  driver->run_for(minutes(2));
  return driver;
}

// Probe bookkeeping shared by the behavioral tests: first-correct-wins,
// registered before issuing (a source that is the root delivers
// synchronously inside issue_lookup).
struct ProbeBoard {
  struct Outcome {
    bool delivered = false;
    bool correct = false;
  };
  std::unordered_map<std::uint64_t, Outcome> outcomes;

  void attach(overlay::OverlayDriver& driver) {
    driver.on_app_deliver = [this, &driver](net::Address self,
                                            const pastry::LookupMsg& m) {
      auto it = outcomes.find(m.lookup_id);
      if (it == outcomes.end() ||
          (it->second.delivered && it->second.correct)) {
        return;
      }
      const auto root = driver.oracle().root_of(m.key);
      const bool correct = root && *root == self;
      if (!it->second.delivered || correct) {
        it->second.delivered = true;
        it->second.correct = correct;
      }
    };
  }

  void issue(overlay::OverlayDriver& driver, const AdversaryController& adv,
             int count) {
    for (int i = 0; i < count; ++i) {
      auto src = driver.oracle().random_active(driver.rng());
      for (int tries = 0;
           src && adv.is_adversarial(src->second) && tries < 64; ++tries) {
        src = driver.oracle().random_active(driver.rng());
      }
      NodeId key = driver.rng().node_id();
      for (int tries = 0; tries < 64; ++tries) {
        const auto root = driver.oracle().root_of(key);
        if (root && !adv.is_adversarial(*root)) break;
        key = driver.rng().node_id();
      }
      if (!src || adv.is_adversarial(src->second)) continue;
      outcomes.emplace(driver.next_lookup_id(), Outcome{});
      driver.issue_lookup(src->second, key);
      driver.run_for(seconds(1));
    }
    driver.run_for(seconds(30));
  }

  std::uint64_t lost() const {
    std::uint64_t n = 0;
    for (const auto& [id, o] : outcomes) {
      (void)id;
      if (!o.delivered) ++n;
    }
    return n;
  }
  std::uint64_t incorrect() const {
    std::uint64_t n = 0;
    for (const auto& [id, o] : outcomes) {
      (void)id;
      if (o.delivered && !o.correct) ++n;
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

// ----------------------------------------------------------- the controller

TEST(AdversaryController, CorruptFractionIsDeterministicAndReversible) {
  const auto corrupted_set = [](std::uint64_t seed) {
    auto driver = build_overlay(20, 11, 1, false);
    AdversaryController adv(*driver, AdversaryBehavior::kDrop, 1.0, seed);
    const auto chosen = adv.corrupt_fraction(0.25);
    EXPECT_EQ(chosen.size(), 5u);  // round(0.25 * 20)
    EXPECT_EQ(adv.count(), 5u);
    for (const auto a : chosen) {
      EXPECT_TRUE(adv.is_adversarial(a));
      EXPECT_TRUE(driver->node(a)->is_adversarial());
    }
    adv.disarm();
    EXPECT_EQ(adv.count(), 0u);
    for (const auto a : chosen) {
      EXPECT_FALSE(driver->node(a)->is_adversarial());
    }
    return chosen;
  };
  EXPECT_EQ(corrupted_set(42), corrupted_set(42));  // reproducible
  EXPECT_NE(corrupted_set(42), corrupted_set(43));  // seed is load-bearing
}

// --------------------------------------------- eclipse vs density checks

TEST(AdversaryController, DensityChecksKeepSybilsOutOfTheVictimLeafSet) {
  // The same sybil cluster joins twice: an unhardened victim adopts the
  // implausibly-close ids as leaf-set neighbours (the eclipse), a
  // hardened one vetoes them by spacing plausibility.
  const auto sybils_admitted = [](bool checks) {
    auto driver = build_overlay(30, 17, 1, checks);
    const auto victim = driver->oracle().random_active(driver->rng());
    AdversaryController adv(*driver, AdversaryBehavior::kMisroute, 1.0, 5);
    const auto sybils =
        adv.join_eclipse_cluster(victim->first, 8, seconds(2));
    driver->run_for(minutes(2));  // let leaf-set gossip circulate
    std::unordered_set<net::Address> sybil_set(sybils.begin(), sybils.end());
    std::size_t admitted = 0;
    for (const auto& m :
         driver->node(victim->second)->leaf_set().members()) {
      if (sybil_set.count(m.addr) > 0) ++admitted;
    }
    const std::uint64_t rejections =
        driver->counters().leaf_candidates_rejected;
    adv.kill_sybils();
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
    AdversaryController adv(*driver, AdversaryBehavior::kDrop, 1.0, 9);
    adv.corrupt_fraction(0.3);
    ProbeBoard board;
    board.attach(*driver);
    board.issue(*driver, adv, 60);
    if (redundancy > 1) {
      EXPECT_GT(driver->counters().redundant_lookup_copies, 0u);
    }
    return board.lost();
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
  AdversaryController adv(*driver, AdversaryBehavior::kMisroute, 1.0, 13);
  adv.corrupt_fraction(0.3);
  ProbeBoard board;
  board.attach(*driver);
  board.issue(*driver, adv, 60);
  ASSERT_GT(board.incorrect() + board.lost(), 0u);  // the attack landed

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

void add_fault_cocktail(net::Network& net, SimTime t0, SimTime t1,
                        SimTime flap_t1, std::uint64_t seed) {
  auto dup =
      net::FaultRule::duplicate(net::LinkMatcher::all(), 0.2,
                                milliseconds(15), t0, t1);
  dup.seed = seed;
  net.faults().add(dup);
  auto reorder = net::FaultRule::reorder(net::LinkMatcher::all(), 0.3,
                                         milliseconds(40), t0, t1);
  reorder.seed = seed + 1;
  net.faults().add(reorder);
  net.faults().add(net::FaultRule::flap(net::LinkMatcher::endpoint({2, 5}),
                                        seconds(8), 0.4, t0, flap_t1));
}

TEST(AdversaryComposition, AccountingIdentityHoldsUnderFaultsPlusAdversary) {
  // Randomized composition: Byzantine droppers layered under duplication,
  // reordering, and a flapping link. Whatever the combination injects,
  // every packet must stay accounted for:
  //   sent == lost + delivered + dropped_unbound + dropped_adversarial
  //           + in_flight.
  for (const std::uint64_t seed : {51ull, 52ull, 53ull}) {
    auto driver = build_overlay(40, seed, 3, true);
    AdversaryController adv(*driver, AdversaryBehavior::kDrop, 1.0,
                            seed ^ 0xbeef);
    adv.corrupt_fraction(0.2);
    net::Network& net = driver->network();
    add_fault_cocktail(net, driver->sim().now(),
                       driver->sim().now() + minutes(2),
                       driver->sim().now() + minutes(2), seed);
    ProbeBoard board;
    board.attach(*driver);
    board.issue(*driver, adv, 40);
    EXPECT_GT(net.packets_dropped_adversarial(), 0u) << "seed " << seed;
    EXPECT_EQ(net.packets_sent(),
              net.packets_lost() + net.packets_delivered() +
                  net.packets_dropped_unbound() +
                  net.packets_dropped_adversarial() + net.packets_in_flight())
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
  AdversaryController adv(*driver, AdversaryBehavior::kMisroute, 1.0, 3);
  // f = 0: nobody corrupted; the controller exists but is idle.
  net::Network& net = driver->network();
  add_fault_cocktail(net, driver->sim().now(),
                     driver->sim().now() + minutes(10),
                     driver->sim().now() + minutes(1), 99);
  driver->run_for(minutes(4));  // flap over; condemned peers re-admitted
  ProbeBoard board;
  board.attach(*driver);
  board.issue(*driver, adv, 60);
  EXPECT_EQ(board.incorrect(), 0u);
  EXPECT_EQ(board.lost(), 0u);
  EXPECT_EQ(net.packets_dropped_adversarial(), 0u);
  EXPECT_EQ(driver->counters().lookups_dropped_adversarial, 0u);
}

}  // namespace
}  // namespace mspastry
