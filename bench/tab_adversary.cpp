// Adversarial routing f-sweep: lookup dependability as a growing fraction
// f of overlay nodes turns Byzantine, with and without the two
// countermeasures (diverse-path redundant lookups, leaf-set plausibility
// checks). Each cell joins a fresh overlay through a joins-only trace,
// lets it settle, corrupts round(f*N) nodes with one behavior (drop /
// misroute / lie), then scores the driver's Poisson probe lookups over a
// measurement window — issued from honest sources for honest-rooted keys,
// the secure-routing measurement convention built into the ShardedDriver
// when an adversary is configured. Prints one row per cell and writes
// BENCH_adversary.json.
//
// The headline claim (EXPERIMENTS.md): at f = 0.2 both countermeasures
// together recover >= 95% lookup success while the baseline is visibly
// degraded.
//
// Usage: tab_adversary [--seed=N] [--smoke] [--shards=N]
//   --smoke: the CI gate — only the corner cells (f=0 purity, f=0.2
//   baseline-vs-both), and a nonzero exit if the f=0.2 "both" cell
//   misses the SLO (incorrect < 1%, lookup failure < 5%).
//   --shards=N (default 4): every cell runs at 1 shard and at N shards;
//   a digest mismatch between the two fails the bench — the
//   shard-count-invariance gate for the adversary, on top of the SLO
//   gates. The table reports the N-shard run.

#include <cstring>

#include "bench_util.hpp"
#include "overlay/adversary.hpp"

using namespace mspastry;
using namespace mspastry::bench;

namespace {

struct Cell {
  const char* config;  // baseline / diverse-path / density-checks / both
  int redundancy;
  bool checks;
  overlay::AdversaryBehavior behavior;
  double f;
};

struct CellResult {
  std::uint64_t issued = 0;
  std::uint64_t correct = 0;    // delivered at the oracle root
  std::uint64_t incorrect = 0;  // delivered, wrong node, never corrected
  pastry::Counters counters;
  std::uint64_t metrics_incorrect_adversarial = 0;
  std::uint64_t metrics_incorrect_stale = 0;
  std::uint64_t metrics_lost_devoured = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t digest = 0;

  double success_rate() const {
    return issued == 0 ? 1.0
                       : static_cast<double>(correct) /
                             static_cast<double>(issued);
  }
  double failure_rate() const { return 1.0 - success_rate(); }
  double incorrect_rate() const {
    return issued == 0 ? 0.0
                       : static_cast<double>(incorrect) /
                             static_cast<double>(issued);
  }
};

/// One cell: a joins-only trace (one join every 2 s, no failures), then
/// the driver's own Poisson probe workload over a measurement window that
/// opens when the adversary arms. Scoring comes from the driver's metrics
/// (honest-source and honest-rooted-key probe conventions are built into
/// the ShardedDriver when an adversary is configured).
CellResult run_cell(
    const std::shared_ptr<const net::Topology>& topology, std::uint64_t seed,
    const Cell& cell, int nodes, std::size_t shards) {
  std::vector<trace::ChurnEvent> events;
  events.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    events.push_back({seconds(2) * i, i, trace::ChurnEventType::kJoin});
  }
  const trace::ChurnTrace joins(std::move(events), "adversary-joins");
  const SimTime arm_at = joins.duration() + minutes(3);  // settle first

  overlay::DriverConfig dcfg;
  dcfg.seed = seed;
  dcfg.warmup = arm_at;  // score only the armed window
  dcfg.lookup_rate_per_node = 0.01;
  dcfg.pastry.lookup_redundancy = cell.redundancy;
  dcfg.pastry.leaf_plausibility_checks = cell.checks;
  overlay::ShardedDriver driver(topology, net::NetworkConfig{}, dcfg,
                                shards);
  if (cell.f > 0.0) {
    overlay::ShardedAdversaryConfig adv;
    adv.behavior = cell.behavior;
    adv.fraction = cell.f;
    adv.arm_at = arm_at;
    adv.seed = seed ^ 0xadd5a17ull;
    driver.set_adversary(adv);
  }
  // Extra = settle + measurement window + straggler drain.
  driver.run_trace(joins, minutes(3) + minutes(5) + seconds(30));

  CellResult r;
  auto& m = driver.metrics();
  r.issued = m.lookups_issued();
  r.correct = m.lookups_delivered_correct();
  r.incorrect =
      m.incorrect_misrouted_by_adversary() + m.incorrect_stale_leaf_set();
  r.counters = driver.counters();
  r.metrics_incorrect_adversarial = m.incorrect_misrouted_by_adversary();
  r.metrics_incorrect_stale = m.incorrect_stale_leaf_set();
  r.metrics_lost_devoured = m.lost_dropped_by_adversary();
  r.executed_events = driver.executed_events();

  std::uint64_t h = kFnvOffset;
  h = hash_u64(h, r.issued);
  h = hash_u64(h, r.correct);
  h = hash_u64(h, r.incorrect);
  h = hash_u64(h, r.executed_events);
  h = hash_u64(h, r.counters.lookups_dropped_adversarial);
  h = hash_u64(h, r.counters.lookups_misrouted_adversarial);
  h = hash_u64(h, r.counters.ls_replies_corrupted);
  h = hash_u64(h, r.counters.redundant_lookup_copies);
  h = hash_u64(h, r.counters.leaf_candidates_rejected);
  h = hash_u64(h, r.metrics_lost_devoured);
  h = hash_u64(h, driver.packets_dropped_adversarial());
  r.digest = h;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 7;
  bool smoke = false;
  std::size_t shards = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<std::size_t>(std::strtoull(argv[i] + 9, nullptr, 10));
      if (shards == 0) shards = 1;
    } else {
      std::fprintf(stderr, "usage: %s [--seed=N] [--smoke] [--shards=N]\n",
                   argv[0]);
      return 2;
    }
  }

  print_header("Adversarial routing: Byzantine fraction sweep");
  std::printf("seed: %llu%s\n", (unsigned long long)seed,
              smoke ? " (smoke: corner cells + SLO gate)" : "");
  std::printf("every cell runs at 1 and %zu shards and the digests must "
              "match\n",
              shards);
  JsonEmitter out("adversary");

  // Interception needs multi-hop routes: with l=32 a small overlay is
  // covered by every leaf set and lookups reach the root in one honest
  // hop, so the sweep runs bigger rings than the chaos scenarios do.
  const int nodes = full_scale() ? 500 : 160;
  const auto topology = make_topology(TopologyKind::kGATech);

  constexpr struct {
    const char* name;
    int redundancy;
    bool checks;
  } kConfigs[] = {
      {"baseline", 1, false},
      {"diverse-path", 3, false},
      {"density-checks", 1, true},
      {"both", 3, true},
  };
  constexpr overlay::AdversaryBehavior kBehaviors[] = {
      overlay::AdversaryBehavior::kDrop,
      overlay::AdversaryBehavior::kMisroute,
      overlay::AdversaryBehavior::kLie,
  };
  constexpr double kFractions[] = {0.05, 0.1, 0.2, 0.3};

  std::vector<Cell> cells;
  if (smoke) {
    // Corner cells only: f=0 purity for "both" (countermeasures must not
    // hurt an honest overlay), and the f=0.2 baseline-vs-both contrast
    // for the two behaviors the SLO gates.
    cells.push_back({"both", 3, true, overlay::AdversaryBehavior::kDrop, 0.0});
    for (const auto b : {overlay::AdversaryBehavior::kDrop,
                         overlay::AdversaryBehavior::kMisroute}) {
      cells.push_back({"baseline", 1, false, b, 0.2});
      cells.push_back({"both", 3, true, b, 0.2});
    }
  } else {
    for (const auto& c : kConfigs) {
      // f=0 once per config (behavior irrelevant with nobody corrupted).
      cells.push_back({c.name, c.redundancy, c.checks,
                       overlay::AdversaryBehavior::kDrop, 0.0});
      for (const auto b : kBehaviors) {
        for (const double f : kFractions) {
          cells.push_back({c.name, c.redundancy, c.checks, b, f});
        }
      }
    }
  }

  std::printf("\n%-15s %-9s %5s %7s %8s %8s %7s %7s  %s\n", "config",
              "behavior", "f", "success", "incorr", "devoured", "misrte",
              "rejects", "digest");
  bool gate_ok = true;
  std::uint64_t suite_digest = kFnvOffset;
  for (const auto& cell : cells) {
    // Per-cell seed: mixed from the grid coordinates so each cell is
    // independently reproducible.
    std::uint64_t cell_seed = seed;
    for (const char* p = cell.config; *p != '\0'; ++p) {
      cell_seed = hash_u64(cell_seed, static_cast<std::uint64_t>(*p));
    }
    cell_seed = hash_u64(cell_seed,
                         static_cast<std::uint64_t>(cell.behavior) ^
                             static_cast<std::uint64_t>(cell.f * 1000.0));
    const CellResult one = run_cell(topology, cell_seed, cell, nodes, 1);
    const CellResult r = run_cell(topology, cell_seed, cell, nodes, shards);
    if (r.digest != one.digest) {
      std::printf("  GATE: %s/%s/f=%.2f digest differs between 1 and %zu "
                  "shards (%016llx vs %016llx)\n",
                  cell.config, overlay::to_string(cell.behavior), cell.f,
                  shards, (unsigned long long)one.digest,
                  (unsigned long long)r.digest);
      gate_ok = false;
    }
    suite_digest = hash_u64(suite_digest, r.digest);

    const char* behavior_name =
        cell.f == 0.0 ? "none" : overlay::to_string(cell.behavior);
    std::printf("%-15s %-9s %5.2f %7.3f %8.3f %8llu %7llu %7llu  %016llx\n",
                cell.config, behavior_name, cell.f, r.success_rate(),
                r.incorrect_rate(),
                (unsigned long long)r.counters.lookups_dropped_adversarial,
                (unsigned long long)r.counters.lookups_misrouted_adversarial,
                (unsigned long long)r.counters.leaf_candidates_rejected,
                (unsigned long long)r.digest);

    out.row(std::string(cell.config) + "/" + behavior_name + "/f=" +
            std::to_string(cell.f).substr(0, 4))
        .field("config", cell.config)
        .field("behavior", behavior_name)
        .field("fraction", cell.f)
        .field("issued", r.issued)
        .field("success_rate", r.success_rate())
        .field("failure_rate", r.failure_rate())
        .field("incorrect_rate", r.incorrect_rate())
        .field("adversary_drops", r.counters.lookups_dropped_adversarial)
        .field("adversary_misroutes",
               r.counters.lookups_misrouted_adversarial)
        .field("replies_corrupted", r.counters.ls_replies_corrupted +
                                        r.counters.nn_replies_corrupted)
        .field("redundant_copies", r.counters.redundant_lookup_copies)
        .field("leaf_rejections", r.counters.leaf_candidates_rejected)
        .field("claims_distrusted", r.counters.failure_claims_distrusted)
        .field("incorrect_adversarial", r.metrics_incorrect_adversarial)
        .field("incorrect_stale", r.metrics_incorrect_stale)
        .field("lost_devoured", r.metrics_lost_devoured)
        .field("executed_events", r.executed_events)
        .hex("digest", r.digest);

    // SLO gates: f=0 must be pure — an honest overlay with
    // countermeasures on loses nothing; f=0.2 "both" must hold the
    // headline bound for drop and misroute.
    if (cell.f == 0.0 &&
        (r.failure_rate() > 0.0 || r.incorrect_rate() > 0.0)) {
      std::printf("  GATE: f=0 %s not pure (failure %.3f incorrect %.3f)\n",
                  cell.config, r.failure_rate(), r.incorrect_rate());
      gate_ok = false;
    }
    if (cell.f == 0.2 && std::strcmp(cell.config, "both") == 0 &&
        cell.behavior != overlay::AdversaryBehavior::kLie) {
      if (r.incorrect_rate() >= 0.01 || r.failure_rate() >= 0.05) {
        std::printf(
            "  GATE: f=0.2 both/%s misses SLO (incorrect %.3f >= 0.01 or "
            "failure %.3f >= 0.05)\n",
            overlay::to_string(cell.behavior), r.incorrect_rate(),
            r.failure_rate());
        gate_ok = false;
      }
    }
  }

  out.row("suite").hex("digest", suite_digest).field("smoke", smoke);
  std::printf("\nsuite digest: %016llx\n",
              (unsigned long long)suite_digest);
  std::printf("overall: %s\n",
              gate_ok ? "all gates passed" : "GATE FAILURES (see above)");
  return gate_ok ? 0 : 1;
}
