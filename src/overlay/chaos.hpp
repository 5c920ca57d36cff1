#pragma once

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fault_plan.hpp"
#include "net/topology.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry::overlay {

/// Dependability service-level objectives checked by the chaos oracle.
/// The during-fault bounds are deliberately loose (the point of a fault
/// window is degradation); the post-heal bounds are strict: the paper's
/// consistency claim is that the overlay returns to correct routing.
struct ChaosSlo {
  double max_fault_incorrect_rate = 0.25;
  double max_fault_loss_rate = 0.50;
  double max_heal_incorrect_rate = 0.0;
  /// Post-heal probes are few (heal_probes), so this must leave headroom
  /// above the ~3% residual loss a reconverging overlay shows.
  double max_heal_loss_rate = 0.10;
  SimDuration max_reconverge = minutes(8);

  /// Adversary scenarios (byzantine-*, eclipse-victim) run WITH both
  /// countermeasures on; these strict bounds gate that the defenses work
  /// at the configured adversarial fraction (baseline-vs-countermeasure
  /// ablation lives in bench/tab_adversary, not here).
  double max_adversary_incorrect_rate = 0.01;
  double max_adversary_loss_rate = 0.05;
};

struct ChaosConfig {
  int nodes = 40;
  std::uint64_t seed = 7;
  /// Engine shards. Every scenario is shard-count-invariant: any count
  /// prints the same results.
  std::size_t shards = 1;

  SimDuration settle = minutes(3);       ///< ring build-out before faults
  SimDuration fault_window = seconds(60);
  int heal_probes = 30;

  pastry::Config pastry{};
  ChaosSlo slo{};

  /// Sybil cluster size for the eclipse-victim scenario.
  int eclipse_sybils = 16;

  /// Chaos runs trace every lookup by default (sampling off costs nothing
  /// here — the overlays are small) so an SLO trip can name the offending
  /// causal path instead of just a rate. Set obs.enabled = false to run
  /// the harness blind.
  obs::ObsConfig obs{/*enabled=*/true};

  /// When non-empty and a run trips an SLO, the full flight-recorder
  /// contents are written to "<prefix><scenario>.trace.jsonl" for offline
  /// inspection with tools/trace_explorer.
  std::string trace_dump_prefix;
};

/// Everything one scenario run produced, plus the oracle's verdicts.
struct ChaosResult {
  std::string scenario;
  std::uint64_t seed = 0;

  /// Injection counts by fault kind (the driver's Metrics: one per kind
  /// that acted on a packet, plus stalled deliveries and devoured packets).
  std::array<std::uint64_t, net::kFaultKindCount> injected{};

  // Probe lookups issued while faults were active.
  std::uint64_t fault_issued = 0;
  std::uint64_t fault_delivered = 0;
  std::uint64_t fault_incorrect = 0;

  // Probe lookups issued after heal + reconvergence.
  std::uint64_t heal_issued = 0;
  std::uint64_t heal_delivered = 0;
  std::uint64_t heal_incorrect = 0;

  /// Seconds from heal to ring reconvergence (leaf sets consistent with
  /// the oracle's active set); negative if it never happened in budget.
  double reconverge_seconds = -1.0;

  // Gray-failure scenario verdicts.
  bool stall_rerouted = false;   ///< a peer excluded the stalled node
  bool stall_condemned = false;  ///< a peer put it in its failed set
  bool stall_recovered = false;  ///< it served its keys again afterwards

  std::uint64_t false_positives = 0;  ///< live nodes condemned, whole run
  bool accounting_ok = false;  ///< sent == lost+delivered+unbound
                               ///< +adversarial+in-flight

  // Adversary scenario facts (zero elsewhere).
  std::string adversary_description;  ///< deterministic population dump
  std::uint64_t adversarial_nodes = 0;
  std::uint64_t adversary_drops = 0;       ///< lookups devoured
  std::uint64_t adversary_misroutes = 0;   ///< root claims / off-path hops
  std::uint64_t replies_corrupted = 0;     ///< LS + NN replies lied about
  std::uint64_t leaf_rejections = 0;       ///< density-check vetoes
  std::uint64_t redundant_copies = 0;      ///< diverse-path extra lookups

  /// Deterministic dump of the installed fault rules (byte-for-byte
  /// reproducible from the seed).
  std::string fault_schedule;

  /// Invariant violations; empty means every oracle check passed.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }

  /// Expectation-checker verdict over the run's causal traces (src/obs).
  /// Faults legitimately break some expectations (a stalled node misses
  /// heartbeats), so these are reported alongside — not folded into —
  /// the SLO violations above.
  std::string expectation_summary;
  std::size_t expectation_violations = 0;

  /// Assembled causal paths (obs::describe) of probe lookups that were
  /// lost or misdelivered, attached when an SLO trips — the evidence that
  /// turns "loss rate exceeded" into "this lookup died at hop 3".
  std::vector<std::string> offending_paths;

  /// Full flight-recorder dump written on an SLO trip when the config
  /// asked for one ("" otherwise).
  std::string trace_dump_path;

  double fault_loss_rate() const {
    return fault_issued == 0
               ? 0.0
               : 1.0 - static_cast<double>(fault_delivered) /
                           static_cast<double>(fault_issued);
  }
  double fault_incorrect_rate() const {
    return fault_issued == 0 ? 0.0
                             : static_cast<double>(fault_incorrect) /
                                   static_cast<double>(fault_issued);
  }
  double heal_loss_rate() const {
    return heal_issued == 0 ? 0.0
                            : 1.0 - static_cast<double>(heal_delivered) /
                                        static_cast<double>(heal_issued);
  }
  double heal_incorrect_rate() const {
    return heal_issued == 0 ? 0.0
                            : static_cast<double>(heal_incorrect) /
                                  static_cast<double>(heal_issued);
  }
};

/// Runs named (or seeded-random) fault scenarios against a live overlay
/// and checks oracle invariants: bounded incorrect delivery and lookup
/// loss during the fault, and recovery SLOs after heal — reconvergence of
/// the leaf-set ring against the oracle's ground truth and near-perfect
/// lookups afterwards. Each run builds a fresh overlay on the shared
/// topology, so scenarios are independent and reproducible from the seed.
class ChaosHarness {
 public:
  ChaosHarness(std::shared_ptr<const net::Topology> topology,
               ChaosConfig config);
  ~ChaosHarness();

  /// The named scenarios, in bench/report order: asym-partition, flap,
  /// delay-spike, dup-reorder, gray-stall, combined, byzantine-drop,
  /// byzantine-misroute, eclipse-victim.
  static const std::vector<std::string>& scenarios();

  /// Run one named scenario ("random" runs a seeded random schedule).
  ChaosResult run(const std::string& scenario);

 private:
  /// A tracked probe; its outcome is the driver's delivery verdict.
  struct Probe {
    int phase = 0;
    NodeId key;
  };

  void build_overlay(std::uint64_t seed, bool harden);
  void attach_observability(ChaosResult& res);
  void issue_probe(int phase, const NodeId* key);
  void probe_until(SimTime until, int phase, const NodeId* key);
  bool ring_consistent() const;
  double measure_reconvergence(SimTime heal_at, SimDuration budget);

  std::vector<net::FaultRule> make_schedule(const std::string& scenario,
                                            SimTime t0, SimTime t1,
                                            net::Address victim,
                                            std::vector<net::Address>* minority,
                                            Rng& rng);

  std::shared_ptr<const net::Topology> topology_;
  ChaosConfig cfg_;
  std::unique_ptr<ShardedDriver> driver_;
  std::unordered_map<std::uint64_t, Probe> probes_;

  /// Set while an adversary scenario's population is armed: probe
  /// sampling then rejects adversarial sources and adversarially-rooted
  /// keys (the secure-routing measurement convention — a lookup "from"
  /// or "for" the adversary proves nothing about honest service).
  bool adversary_armed_ = false;
};

}  // namespace mspastry::overlay
