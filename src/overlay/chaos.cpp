#include "overlay/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/log.hpp"
#include "obs/expectations.hpp"
#include "obs/path_assembler.hpp"
#include "obs/trace_dump.hpp"

namespace mspastry::overlay {

namespace {

constexpr int kFaultPhase = 1;
constexpr int kHealPhase = 2;
// Victim-targeted probes during a gray stall: the oracle still counts the
// stalled (alive) node as root, but peers correctly deliver its keys next
// door — diagnostic signal, excluded from the SLO rates.
constexpr int kDiagPhase = 3;

// Background Poisson lookup workload (drives suppression and RTO
// estimators the way real traffic would).
constexpr double kBgLookupRate = 0.02;

// Harness-tracked probe lookups: one every kProbeInterval, outcomes
// checked against the oracle per phase.
constexpr SimDuration kProbeInterval = seconds(2);

// Gray failure: a stall shorter than the condemnation time.
constexpr SimDuration kStallWindow = seconds(8);
// Wait after reconvergence.
constexpr SimDuration kHealGrace = seconds(30);

// Adversary scenarios: fraction of the built overlay corrupted
// (byzantine-*), and the lookup redundancy switched on (with the
// plausibility checks) as a countermeasure.
constexpr double kAdversaryFraction = 0.2;
constexpr int kAdversaryRedundancy = 3;

enum class Scenario {
  kAsymPartition,
  kFlap,
  kDelaySpike,
  kDupReorder,
  kGrayStall,
  kCombined,
  kByzantineDrop,
  kByzantineMisroute,
  kEclipse,
  kRandom,
};

Scenario parse_scenario(const std::string& name) {
  if (name == "asym-partition") return Scenario::kAsymPartition;
  if (name == "flap") return Scenario::kFlap;
  if (name == "delay-spike") return Scenario::kDelaySpike;
  if (name == "dup-reorder") return Scenario::kDupReorder;
  if (name == "gray-stall") return Scenario::kGrayStall;
  if (name == "combined") return Scenario::kCombined;
  if (name == "byzantine-drop") return Scenario::kByzantineDrop;
  if (name == "byzantine-misroute") return Scenario::kByzantineMisroute;
  if (name == "eclipse-victim") return Scenario::kEclipse;
  if (name == "random") return Scenario::kRandom;
  throw std::runtime_error("unknown chaos scenario: " + name);
}

bool is_adversarial_scenario(Scenario s) {
  return s == Scenario::kByzantineDrop || s == Scenario::kByzantineMisroute ||
         s == Scenario::kEclipse;
}

std::uint64_t mix_seed(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Deterministic one-line dump of an armed population for run headers.
std::string describe_adversary(const ShardedAdversaryConfig& adv,
                               const std::vector<net::Address>& nodes,
                               std::size_t sybils) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "adversary behavior=%s strike=%.2f nodes=[",
                to_string(adv.behavior), adv.strike);
  std::string out = buf;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(nodes[i]);
  }
  out += "] sybils=";
  out += std::to_string(sybils);
  return out;
}

}  // namespace

ChaosHarness::ChaosHarness(std::shared_ptr<const net::Topology> topology,
                           ChaosConfig config)
    : topology_(std::move(topology)), cfg_(config) {}

ChaosHarness::~ChaosHarness() = default;

const std::vector<std::string>& ChaosHarness::scenarios() {
  static const std::vector<std::string> kNames = {
      "asym-partition", "flap",           "delay-spike",
      "dup-reorder",    "gray-stall",     "combined",
      "byzantine-drop", "byzantine-misroute", "eclipse-victim"};
  return kNames;
}

void ChaosHarness::build_overlay(std::uint64_t seed, bool harden) {
  DriverConfig dcfg;
  dcfg.pastry = cfg_.pastry;
  if (harden) {
    // Adversary scenarios gate the *defended* system: both
    // countermeasures on (the undefended ablation is tab_adversary's).
    dcfg.pastry.lookup_redundancy = kAdversaryRedundancy;
    dcfg.pastry.leaf_plausibility_checks = true;
  }
  dcfg.lookup_rate_per_node = kBgLookupRate;
  dcfg.warmup = 0;
  dcfg.seed = seed;
  dcfg.obs = cfg_.obs;
  driver_ = std::make_unique<ShardedDriver>(topology_, net::NetworkConfig{},
                                            dcfg, cfg_.shards);
  probes_.clear();
  adversary_armed_ = false;
  for (int i = 0; i < cfg_.nodes; ++i) {
    driver_->add_node();
    driver_->run_for(seconds(2));
  }
  driver_->run_for(cfg_.settle);
  driver_->start_workload();
}

void ChaosHarness::issue_probe(int phase, const NodeId* key) {
  auto src = driver_->oracle().random_active(driver_->rng());
  for (int tries = 0; adversary_armed_ && src &&
                      driver_->session_is_adversarial(src->second) &&
                      tries < 64;
       ++tries) {
    src = driver_->oracle().random_active(driver_->rng());
  }
  if (!src || driver_->node(src->second) == nullptr) return;
  if (adversary_armed_ && driver_->session_is_adversarial(src->second)) {
    return;
  }
  NodeId k = key != nullptr ? *key : driver_->rng().node_id();
  if (key == nullptr && adversary_armed_) {
    // Honest-rooted keys only: a key the adversary legitimately owns
    // proves nothing about whether honest nodes can still serve theirs.
    for (int tries = 0; tries < 64; ++tries) {
      const auto root = driver_->oracle().root_of(k);
      if (root && !driver_->session_is_adversarial(*root)) break;
      k = driver_->rng().node_id();
    }
    const auto root = driver_->oracle().root_of(k);
    if (!root || driver_->session_is_adversarial(*root)) return;
  }
  const std::uint64_t id = driver_->issue_lookup(src->second, k);
  driver_->track_lookup(id);
  probes_.emplace(id, Probe{phase, k});
}

void ChaosHarness::probe_until(SimTime until, int phase, const NodeId* key) {
  while (driver_->now() + kProbeInterval <= until) {
    issue_probe(phase, key);
    driver_->run_for(kProbeInterval);
  }
  if (driver_->now() < until) {
    driver_->run_until(until);
  }
}

bool ChaosHarness::ring_consistent() const {
  // Incrementally maintained by the oracle from right-neighbour change
  // reports — O(1) per poll instead of a full O(N log N) rescan of every
  // live node's leaf set (see tests/test_oracle_differential.cpp for the
  // equivalence check against the rescan).
  return driver_->oracle().ring_consistent();
}

double ChaosHarness::measure_reconvergence(SimTime heal_at,
                                           SimDuration budget) {
  const std::size_t expected = static_cast<std::size_t>(cfg_.nodes);
  // Sample the invariant once a second.
  const SimTime deadline = heal_at + budget;
  while (driver_->now() < deadline) {
    driver_->run_for(seconds(1));
    if (driver_->oracle().active_count() >= expected && ring_consistent()) {
      return to_seconds(driver_->now() - heal_at);
    }
  }
  return -1.0;
}

std::vector<net::FaultRule> ChaosHarness::make_schedule(
    const std::string& scenario, SimTime t0, SimTime t1, net::Address victim,
    std::vector<net::Address>* minority, Rng& rng) {
  using net::FaultRule;
  using net::LinkMatcher;
  std::vector<FaultRule> rules;
  auto addrs = driver_->live_addresses();
  std::sort(addrs.begin(), addrs.end());

  switch (parse_scenario(scenario)) {
    case Scenario::kAsymPartition: {
      // One-way cut: the minority can hear the majority but nothing the
      // minority sends crosses back (adversarial asymmetric link failure).
      const std::size_t m = std::max<std::size_t>(2, addrs.size() / 4);
      minority->assign(addrs.begin(), addrs.begin() + m);
      std::vector<net::Address> rest(addrs.begin() + m, addrs.end());
      auto r = FaultRule::partition(LinkMatcher::one_way(*minority, rest), t0,
                                    t1);
      r.seed = rng.next_u64();
      r.label = "one-way minority->majority cut";
      rules.push_back(std::move(r));
      break;
    }
    case Scenario::kFlap: {
      auto r = FaultRule::flap(LinkMatcher::endpoint({victim}), seconds(10),
                               0.5, t0, t1);
      r.seed = rng.next_u64();
      r.label = "victim links up/down every 5 s";
      rules.push_back(std::move(r));
      break;
    }
    case Scenario::kDelaySpike: {
      auto r = FaultRule::delay_spike(LinkMatcher::all(), milliseconds(400),
                                      t0, t1);
      r.seed = rng.next_u64();
      r.label = "global +400 ms delay spike";
      rules.push_back(std::move(r));
      break;
    }
    case Scenario::kDupReorder: {
      auto d = FaultRule::duplicate(LinkMatcher::all(), 0.15,
                                    milliseconds(20), t0, t1);
      d.seed = rng.next_u64();
      d.label = "15% duplication";
      rules.push_back(std::move(d));
      auto r = FaultRule::reorder(LinkMatcher::all(), 0.25, milliseconds(150),
                                  t0, t1);
      r.seed = rng.next_u64();
      r.label = "25% reordering, up to +150 ms";
      rules.push_back(std::move(r));
      break;
    }
    case Scenario::kGrayStall: {
      auto r = FaultRule::stall({victim}, t0, t0 + kStallWindow);
      r.seed = rng.next_u64();
      r.label = "gray failure: victim frozen, endpoint stays bound";
      rules.push_back(std::move(r));
      break;
    }
    case Scenario::kCombined: {
      auto l = FaultRule::loss(LinkMatcher::all(), 0.05, t0, t1);
      l.seed = rng.next_u64();
      l.label = "5% loss";
      rules.push_back(std::move(l));
      auto d = FaultRule::delay_spike(LinkMatcher::all(), milliseconds(200),
                                      t0, t1);
      d.seed = rng.next_u64();
      d.label = "global +200 ms";
      rules.push_back(std::move(d));
      const net::Address victim2 =
          addrs[addrs.size() / 2] == victim ? addrs.back()
                                            : addrs[addrs.size() / 2];
      auto f = FaultRule::flap(LinkMatcher::endpoint({victim2}), seconds(8),
                               0.5, t0, t1);
      f.seed = rng.next_u64();
      f.label = "second victim flapping";
      rules.push_back(std::move(f));
      auto s = FaultRule::stall({victim}, t0 + seconds(10),
                                t0 + seconds(10) + kStallWindow);
      s.seed = rng.next_u64();
      s.label = "first victim gray-stalled";
      rules.push_back(std::move(s));
      break;
    }
    case Scenario::kByzantineDrop:
    case Scenario::kByzantineMisroute: {
      // The adversarial population is the fault; a mild background loss
      // rule rides along so the scenario exercises the composition of
      // Byzantine behavior with ordinary fault-plan rules.
      auto l = FaultRule::loss(LinkMatcher::all(), 0.02, t0, t1);
      l.seed = rng.next_u64();
      l.label = "2% background loss composed with adversary";
      rules.push_back(std::move(l));
      break;
    }
    case Scenario::kEclipse:
      break;  // the sybil cluster is the entire fault
    case Scenario::kRandom: {
      // Seeded random schedule over the non-partition kinds (partitions
      // need operational recovery, which would make "random" flaky).
      const int n = 2 + static_cast<int>(rng.uniform_index(4));
      for (int i = 0; i < n; ++i) {
        const SimTime start =
            t0 + static_cast<SimTime>(rng.uniform_index(
                     static_cast<std::uint64_t>((t1 - t0) / 2)));
        const SimTime end = std::min<SimTime>(
            t1, start + (t1 - t0) / 4 +
                    static_cast<SimTime>(rng.uniform_index(
                        static_cast<std::uint64_t>((t1 - t0) / 4))));
        const net::Address target =
            addrs[rng.uniform_index(addrs.size())];
        const LinkMatcher where = rng.chance(0.5)
                                      ? LinkMatcher::all()
                                      : LinkMatcher::endpoint({target});
        FaultRule r;
        switch (rng.uniform_index(6)) {
          case 0:
            r = FaultRule::loss(where, rng.uniform(0.05, 0.3), start, end);
            break;
          case 1:
            r = FaultRule::flap(where,
                                seconds(4 + rng.uniform(0.0, 12.0)),
                                rng.uniform(0.3, 0.7), start, end);
            break;
          case 2:
            r = FaultRule::delay_spike(
                where,
                milliseconds(
                    50 + static_cast<std::int64_t>(rng.uniform_index(350))),
                start, end);
            break;
          case 3:
            r = FaultRule::duplicate(where, rng.uniform(0.05, 0.2),
                                     milliseconds(10), start, end);
            break;
          case 4:
            r = FaultRule::reorder(
                where, rng.uniform(0.1, 0.3),
                milliseconds(
                    50 + static_cast<std::int64_t>(rng.uniform_index(200))),
                start, end);
            break;
          default:
            r = FaultRule::stall(
                {target}, start,
                std::min<SimTime>(end, start + kStallWindow));
            break;
        }
        r.seed = rng.next_u64();
        r.label = "random rule " + std::to_string(i);
        rules.push_back(std::move(r));
      }
      break;
    }
  }
  return rules;
}

ChaosResult ChaosHarness::run(const std::string& scenario) {
  const Scenario kind = parse_scenario(scenario);
  const bool adversarial = is_adversarial_scenario(kind);
  ChaosResult res;
  res.scenario = scenario;
  res.seed = cfg_.seed;

  build_overlay(mix_seed(cfg_.seed, scenario), adversarial);
  Rng schedule_rng(mix_seed(cfg_.seed, scenario + "/schedule"));

  net::Address victim = net::kNullAddress;
  NodeId victim_key;
  if (kind == Scenario::kFlap || kind == Scenario::kGrayStall ||
      kind == Scenario::kCombined || kind == Scenario::kEclipse) {
    const auto pick = driver_->oracle().random_active(schedule_rng);
    victim = pick->second;
    victim_key = pick->first;
  }

  // Arm the adversary before the fault window opens, so eclipse sybils
  // finish their (honest-protocol) joins before probing starts.
  if (adversarial) {
    ShardedAdversaryConfig adv;
    adv.behavior = kind == Scenario::kByzantineDrop
                       ? AdversaryBehavior::kDrop
                       : AdversaryBehavior::kMisroute;
    adv.strike = 1.0;
    adv.seed = mix_seed(cfg_.seed, scenario + "/adversary");
    if (kind == Scenario::kEclipse) {
      adv.eclipse_sybils = cfg_.eclipse_sybils;
      adv.eclipse_victim = victim_key;
    } else {
      adv.fraction = kAdversaryFraction;
    }
    driver_->set_adversary(adv);
    if (kind == Scenario::kEclipse) {
      // The sybils join at once; give them the time staggered joins
      // would take, then let the cluster settle in.
      driver_->run_for(seconds(2) * cfg_.eclipse_sybils + seconds(30));
    }
    adversary_armed_ = true;
    std::vector<net::Address> corrupt;
    for (const net::Address a : driver_->live_addresses()) {
      if (driver_->session_is_adversarial(a)) corrupt.push_back(a);
    }
    res.adversarial_nodes = corrupt.size();
    res.adversary_description =
        describe_adversary(adv, corrupt, driver_->sybil_addresses().size());
    LOG_INFO(driver_->now(), "chaos", "%s",
             res.adversary_description.c_str());
  }

  const SimTime t0 = driver_->now();
  const SimTime t1 =
      kind == Scenario::kGrayStall ? t0 + kStallWindow
                                   : t0 + cfg_.fault_window;

  std::vector<net::Address> minority;
  for (auto& rule :
       make_schedule(scenario, t0, t1, victim, &minority, schedule_rng)) {
    driver_->add_fault_rule(rule);
  }
  res.fault_schedule = driver_->fault_plan().describe();
  LOG_INFO(t0, "chaos", "scenario %s schedule:\n%s", scenario.c_str(),
           res.fault_schedule.c_str());

  // --- Fault window: probe lookups flow while the faults are active ------
  const bool gray = kind == Scenario::kGrayStall;
  if (gray) {
    // Alternate victim-targeted and uniform lookups, and inspect the
    // peers' verdicts just before the stall releases.
    const SimTime check_at = t1 - milliseconds(500);
    int i = 0;
    while (driver_->now() + kProbeInterval <= check_at) {
      const bool at_victim = (i++ % 2 == 0);
      issue_probe(at_victim ? kDiagPhase : kFaultPhase,
                  at_victim ? &victim_key : nullptr);
      driver_->run_for(kProbeInterval);
    }
    driver_->run_until(check_at);
    for (const net::Address a : driver_->live_addresses()) {
      if (a == victim) continue;
      const auto* n = driver_->node(a);
      if (n->currently_excludes(victim)) res.stall_rerouted = true;
      if (n->considers_failed(victim)) res.stall_condemned = true;
    }
    driver_->run_until(t1);
  } else if (kind == Scenario::kEclipse) {
    // Alternate probes for the eclipsed victim's own key (the attack
    // target) with uniform honest-rooted probes (collateral damage).
    int i = 0;
    while (driver_->now() + kProbeInterval <= t1) {
      const bool at_victim = (i++ % 2 == 0);
      issue_probe(kFaultPhase, at_victim ? &victim_key : nullptr);
      driver_->run_for(kProbeInterval);
    }
    driver_->run_until(t1);
  } else {
    probe_until(t1, kFaultPhase, nullptr);
  }

  // --- Heal: rule windows expire at t1. Byzantine nodes are disarmed
  // (they act honest again) and eclipse sybils crash; asymmetric
  // partitions condemn both sides, so the minority rejoins through the
  // bootstrap service (the operational recovery path DESIGN.md
  // documents).
  const SimTime heal_at = driver_->now();
  if (adversarial) {
    for (const net::Address a : driver_->sybil_addresses()) {
      driver_->kill_node(a);
    }
    driver_->clear_adversary();
    adversary_armed_ = false;
  }
  if (kind == Scenario::kAsymPartition) {
    for (const net::Address a : minority) driver_->kill_node(a);
    for (std::size_t i = 0; i < minority.size(); ++i) {
      driver_->add_node();
      driver_->run_for(seconds(5));
    }
  }

  res.reconverge_seconds =
      measure_reconvergence(heal_at, cfg_.slo.max_reconverge);
  driver_->run_for(kHealGrace);

  // --- Post-heal probes: strict correctness expected ---------------------
  if (gray) {
    // The stalled node must serve its own keys again.
    for (int i = 0; i < 3; ++i) {
      issue_probe(kHealPhase, &victim_key);
      driver_->run_for(kProbeInterval);
    }
  }
  for (int i = 0; i < cfg_.heal_probes; ++i) {
    issue_probe(kHealPhase, nullptr);
    driver_->run_for(kProbeInterval);
  }
  driver_->run_for(seconds(30));  // let stragglers land
  const bool victim_alive = driver_->node(victim) != nullptr;
  driver_->finish();

  // --- Collect and judge --------------------------------------------------
  for (std::size_t k = 0; k < net::kFaultKindCount; ++k) {
    res.injected[k] =
        driver_->metrics().fault_injections(static_cast<net::FaultKind>(k));
  }
  for (const auto& [id, p] : probes_) {
    const std::optional<bool> v = driver_->lookup_verdict(id);
    if (p.phase == kFaultPhase) {
      ++res.fault_issued;
      if (v) ++res.fault_delivered;
      if (v && !*v) ++res.fault_incorrect;
    } else if (p.phase == kHealPhase) {
      ++res.heal_issued;
      if (v) ++res.heal_delivered;
      if (v && !*v) ++res.heal_incorrect;
      // Gray stall: recovered = a post-heal lookup for the victim's key
      // reached it.
      if (gray && victim_alive && p.key == victim_key && v && *v) {
        res.stall_recovered = true;
      }
    }
  }
  const pastry::Counters pc = driver_->counters();
  res.false_positives = pc.false_positives;
  res.adversary_drops = pc.lookups_dropped_adversarial;
  res.adversary_misroutes = pc.lookups_misrouted_adversarial;
  res.replies_corrupted = pc.ls_replies_corrupted + pc.nn_replies_corrupted;
  res.leaf_rejections = pc.leaf_candidates_rejected;
  res.redundant_copies = pc.redundant_lookup_copies;
  res.accounting_ok =
      static_cast<std::int64_t>(driver_->packets_sent()) ==
      static_cast<std::int64_t>(driver_->packets_lost() +
                                driver_->packets_delivered() +
                                driver_->packets_dropped_unbound() +
                                driver_->packets_dropped_adversarial()) +
          driver_->packets_in_flight();

  char buf[160];
  const ChaosSlo& slo = cfg_.slo;
  const double max_incorrect = adversarial ? slo.max_adversary_incorrect_rate
                                           : slo.max_fault_incorrect_rate;
  const double max_loss =
      adversarial ? slo.max_adversary_loss_rate : slo.max_fault_loss_rate;
  if (res.fault_incorrect_rate() > max_incorrect) {
    std::snprintf(buf, sizeof(buf),
                  "incorrect-delivery rate %.3f during faults exceeds %.3f",
                  res.fault_incorrect_rate(), max_incorrect);
    res.violations.push_back(buf);
  }
  if (res.fault_loss_rate() > max_loss) {
    std::snprintf(buf, sizeof(buf),
                  "lookup-loss rate %.3f during faults exceeds %.3f",
                  res.fault_loss_rate(), max_loss);
    res.violations.push_back(buf);
  }
  if (res.reconverge_seconds < 0) {
    std::snprintf(buf, sizeof(buf),
                  "no ring reconvergence within %.0f s of heal",
                  to_seconds(slo.max_reconverge));
    res.violations.push_back(buf);
  }
  if (res.heal_incorrect_rate() > slo.max_heal_incorrect_rate) {
    std::snprintf(buf, sizeof(buf),
                  "incorrect-delivery rate %.3f after heal exceeds %.3f",
                  res.heal_incorrect_rate(), slo.max_heal_incorrect_rate);
    res.violations.push_back(buf);
  }
  if (res.heal_loss_rate() > slo.max_heal_loss_rate) {
    std::snprintf(buf, sizeof(buf),
                  "lookup-loss rate %.3f after heal exceeds %.3f",
                  res.heal_loss_rate(), slo.max_heal_loss_rate);
    res.violations.push_back(buf);
  }
  if (gray) {
    if (!res.stall_rerouted) {
      res.violations.push_back(
          "stalled node was never rerouted around (RTO path inert)");
    }
    if (res.stall_condemned) {
      res.violations.push_back(
          "stalled node was condemned to a failed set before recovering");
    }
    if (!res.stall_recovered) {
      res.violations.push_back(
          "stalled node did not serve its keys after recovering");
    }
  }
  if (!res.accounting_ok) {
    res.violations.push_back(
        "packet accounting identity violated "
        "(sent != lost+delivered+unbound+adversarial+in-flight)");
  }
  attach_observability(res);
  return res;
}

void ChaosHarness::attach_observability(ChaosResult& res) {
  obs::TraceDomain* domain = driver_->trace_domain();
  if (domain == nullptr) return;

  const auto paths = obs::assemble_paths(*domain);
  obs::ExpectationConfig ecfg;
  ecfg.b = cfg_.pastry.b;
  ecfg.overlay_size = driver_->oracle().active_count();
  ecfg.t_ls = cfg_.pastry.t_ls;
  ecfg.t_o = cfg_.pastry.t_o;
  ecfg.failed_entry_ttl = pastry::kFailedEntryTtl;
  // Ground-truth delivery verdicts recorded by the driver feed the
  // delivered-at-oracle-root rule: a misdelivery (e.g. an adversarial
  // root claim on the traced copy) is flagged with its causal path.
  ecfg.lookup_verdict = [this](std::uint64_t id) {
    return driver_->lookup_verdict(id);
  };
  const auto report = obs::check_expectations(*domain, paths, ecfg);
  res.expectation_summary = report.summary();
  res.expectation_violations = report.violations.size();

  if (res.ok()) return;

  // An SLO tripped: attach the causal path of each failed probe lookup
  // (lost, or delivered to the wrong node), a few at most — the point is
  // evidence, not a corpus. Probe ids are sorted so the selection is
  // deterministic across runs.
  constexpr std::size_t kMaxOffendingPaths = 3;
  std::vector<std::uint64_t> failed_ids;
  for (const auto& [id, p] : probes_) {
    if (p.phase == kDiagPhase) continue;
    if (driver_->lookup_verdict(id).value_or(false)) continue;
    failed_ids.push_back(id);
  }
  std::sort(failed_ids.begin(), failed_ids.end());
  for (const std::uint64_t id : failed_ids) {
    if (res.offending_paths.size() >= kMaxOffendingPaths) break;
    const auto path =
        obs::assemble_path(*domain, domain->trace_id_for_lookup(id));
    if (!path) continue;
    res.offending_paths.push_back(obs::describe(*path));
  }
  if (!cfg_.trace_dump_prefix.empty()) {
    res.trace_dump_path =
        cfg_.trace_dump_prefix + res.scenario + ".trace.jsonl";
    if (!obs::write_trace_dump_file(*domain, res.trace_dump_path)) {
      LOG_WARN(driver_->now(), "chaos", "cannot write trace dump %s",
               res.trace_dump_path.c_str());
      res.trace_dump_path.clear();
    }
  }
}

}  // namespace mspastry::overlay
