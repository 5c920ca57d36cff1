// mspastry_sim — command-line experiment runner.
//
// Runs an MSPastry overlay simulation with a chosen topology, churn trace
// and protocol configuration, and prints the paper's evaluation metrics
// (and optionally the windowed time series) as text.
//
// Examples:
//   mspastry_sim --topology gatech --trace gnutella --node-scale 0.1
//   mspastry_sim --topology corpnet --trace poisson --session-min 30
//                --population 300 --duration-min 90 --loss 0.05
//   mspastry_sim --trace-file churn.txt --no-acks --series rdp
//   mspastry_sim --save-trace churn.txt --trace overnet   (generate only)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "apps/sharded_web_cache.hpp"
#include "common/stats.hpp"
#include "net/corpnet.hpp"
#include "net/hier_as.hpp"
#include "net/transit_stub.hpp"
#include "obs/expectations.hpp"
#include "obs/path_assembler.hpp"
#include "obs/trace_dump.hpp"
#include "overlay/adversary.hpp"
#include "overlay/chaos.hpp"
#include "overlay/sharded_driver.hpp"
#include "trace/churn_generators.hpp"

using namespace mspastry;

namespace {

struct Options {
  std::string topology = "gatech";  // gatech | mercator | corpnet
  std::string trace = "gnutella";   // gnutella | overnet | microsoft | poisson
  std::string trace_file;           // load events instead of generating
  std::string save_trace;           // write the generated trace and exit
  double node_scale = 0.1;
  double time_scale = 0.05;
  double session_min = 60.0;  // poisson only
  int population = 300;       // poisson only
  double duration_min = 90.0; // poisson only
  double loss = 0.0;
  double lookup_rate = 0.01;
  bool squirrel = false;  // attach the Squirrel-style web cache
  std::uint64_t seed = 7;
  std::size_t shards = 1;    // worker shards of the keyed engine
  bool fault_recipe = false; // canonical loss+spike+duplicate plan
  std::string chaos;              // named scenario | "all" | "list"
  std::uint64_t chaos_seed = 0;   // 0 = use --seed
  std::string adversary;          // behavior:fraction, e.g. misroute:0.2
  std::string eclipse_victim;     // hex key to cluster sybils around
  int redundancy = 1;             // diverse-path lookup copies
  bool leaf_checks = false;       // leaf-set plausibility countermeasure
  std::string trace_out;          // causal-trace dump path (obs subsystem)
  double trace_sample = 1.0;      // fraction of lookups/joins traced
  bool check_expectations = false;
  std::string series;  // "", "rdp", "control", "all"
  bool no_acks = false;
  bool no_probing = false;
  bool no_selftuning = false;
  bool no_suppression = false;
  bool no_pns = false;
  int b = 4;
  int l = 32;
  double target_lr = 0.05;
};

void usage() {
  std::puts(
      "mspastry_sim [options]\n"
      "  --topology gatech|mercator|corpnet   underlying network\n"
      "  --trace gnutella|overnet|microsoft|poisson\n"
      "  --trace-file FILE      load churn events (J/F lines) from FILE\n"
      "  --save-trace FILE      generate the trace, save it, and exit\n"
      "  --node-scale X         population scale vs the paper (default 0.1)\n"
      "  --time-scale X         duration scale vs the paper (default 0.05)\n"
      "  --session-min M        poisson: mean session minutes (default 60)\n"
      "  --population N         poisson: steady-state nodes (default 300)\n"
      "  --duration-min M       poisson: trace length (default 90)\n"
      "  --loss P               network loss probability (default 0)\n"
      "  --lookup-rate R        lookups/s/node (default 0.01)\n"
      "  --seed S               RNG seed (default 7); feeds the network,\n"
      "                         trace, and chaos streams, printed in the\n"
      "                         run header for reproducibility\n"
      "  --shards N             worker shards of the keyed engine\n"
      "                         (default 1); the results block is\n"
      "                         byte-identical for every N, including\n"
      "                         --adversary, --eclipse-victim,\n"
      "                         --fault-recipe and --squirrel runs, and\n"
      "                         so is the --chaos output\n"
      "  --fault-recipe         install the canonical fault plan (1% loss,\n"
      "                         20 ms delay spike mid-run, 0.5%\n"
      "                         duplication)\n"
      "  --squirrel             attach the Squirrel-style cooperative web\n"
      "                         cache (diurnal request workload, home-node\n"
      "                         caching) and report hit rates and request\n"
      "                         latencies\n"
      "  --chaos SCENARIO       run a chaos scenario instead of a trace:\n"
      "                         asym-partition|flap|delay-spike|dup-reorder|\n"
      "                         gray-stall|combined|byzantine-drop|\n"
      "                         byzantine-misroute|eclipse-victim|random|all\n"
      "                         (--chaos=list prints the scenario names)\n"
      "  --chaos-seed S         seed for the chaos fault schedule\n"
      "                         (default: --seed)\n"
      "  --adversary B:F        corrupt fraction F of live nodes at warmup\n"
      "                         with behavior B (drop|misroute|lie), e.g.\n"
      "                         --adversary=misroute:0.2\n"
      "  --eclipse-victim KEY   join 16 sybils clustered around hex KEY at\n"
      "                         warmup (combines with --adversary behavior)\n"
      "  --redundancy K         diverse-path lookups: K first-hop-disjoint\n"
      "                         copies, first correct delivery wins\n"
      "  --leaf-checks          enable leaf-set density/spacing\n"
      "                         plausibility checks\n"
      "  --trace=FILE           record causal traces (src/obs) and write a\n"
      "                         flight-recorder dump to FILE as JSON lines\n"
      "                         (--trace-out FILE is the same flag; inspect\n"
      "                         the dump with trace_explorer). With --chaos,\n"
      "                         FILE is a prefix: a scenario that trips an\n"
      "                         SLO dumps to FILE<scenario>.trace.jsonl\n"
      "  --trace-sample R       fraction of lookups/joins traced (default 1)\n"
      "  --check-expectations   run the Pip-style expectation checker over\n"
      "                         the traces; any violation exits nonzero\n"
      "                         (chaos runs report violations but never\n"
      "                         gate on them — faults break expectations)\n"
      "  --b N --l N            Pastry parameters (default 4, 32)\n"
      "  --target-lr X          self-tuning raw-loss target (default 0.05)\n"
      "  --no-acks --no-probing --no-selftuning --no-suppression --no-pns\n"
      "  --series rdp|control|all   also print windowed time series\n");
}

bool parse(int argc, char** argv, Options& o) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--help" || a == "-h") return false;
    else if (a == "--topology") { if (!(v = need(i))) return false; o.topology = v; }
    else if (a == "--trace") { if (!(v = need(i))) return false; o.trace = v; }
    else if (a == "--trace-file") { if (!(v = need(i))) return false; o.trace_file = v; }
    else if (a == "--save-trace") { if (!(v = need(i))) return false; o.save_trace = v; }
    else if (a == "--node-scale") { if (!(v = need(i))) return false; o.node_scale = std::atof(v); }
    else if (a == "--time-scale") { if (!(v = need(i))) return false; o.time_scale = std::atof(v); }
    else if (a == "--session-min") { if (!(v = need(i))) return false; o.session_min = std::atof(v); }
    else if (a == "--population") { if (!(v = need(i))) return false; o.population = std::atoi(v); }
    else if (a == "--duration-min") { if (!(v = need(i))) return false; o.duration_min = std::atof(v); }
    else if (a == "--loss") { if (!(v = need(i))) return false; o.loss = std::atof(v); }
    else if (a == "--lookup-rate") { if (!(v = need(i))) return false; o.lookup_rate = std::atof(v); }
    else if (a == "--seed") { if (!(v = need(i))) return false; o.seed = std::strtoull(v, nullptr, 10); }
    else if (a == "--shards") { if (!(v = need(i))) return false; o.shards = static_cast<std::size_t>(std::atoi(v)); if (o.shards == 0) o.shards = 1; }
    else if (a.rfind("--shards=", 0) == 0) { o.shards = static_cast<std::size_t>(std::atoi(a.c_str() + 9)); if (o.shards == 0) o.shards = 1; }
    else if (a == "--fault-recipe") o.fault_recipe = true;
    else if (a == "--squirrel") o.squirrel = true;
    else if (a == "--chaos") { if (!(v = need(i))) return false; o.chaos = v; }
    else if (a.rfind("--chaos=", 0) == 0) o.chaos = a.substr(8);
    else if (a == "--chaos-seed") { if (!(v = need(i))) return false; o.chaos_seed = std::strtoull(v, nullptr, 10); }
    else if (a.rfind("--chaos-seed=", 0) == 0) o.chaos_seed = std::strtoull(a.c_str() + 13, nullptr, 10);
    else if (a == "--adversary") { if (!(v = need(i))) return false; o.adversary = v; }
    else if (a.rfind("--adversary=", 0) == 0) o.adversary = a.substr(12);
    else if (a == "--eclipse-victim") { if (!(v = need(i))) return false; o.eclipse_victim = v; }
    else if (a.rfind("--eclipse-victim=", 0) == 0) o.eclipse_victim = a.substr(17);
    else if (a == "--redundancy") { if (!(v = need(i))) return false; o.redundancy = std::atoi(v); }
    else if (a.rfind("--redundancy=", 0) == 0) o.redundancy = std::atoi(a.c_str() + 13);
    else if (a == "--leaf-checks") o.leaf_checks = true;
    // "--trace NAME" (space form) is the churn workload above; the "="
    // form and --trace-out are the causal-trace dump path.
    else if (a.rfind("--trace=", 0) == 0) o.trace_out = a.substr(8);
    else if (a == "--trace-out") { if (!(v = need(i))) return false; o.trace_out = v; }
    else if (a == "--trace-sample") { if (!(v = need(i))) return false; o.trace_sample = std::atof(v); }
    else if (a.rfind("--trace-sample=", 0) == 0) o.trace_sample = std::atof(a.c_str() + 15);
    else if (a == "--check-expectations") o.check_expectations = true;
    else if (a == "--b") { if (!(v = need(i))) return false; o.b = std::atoi(v); }
    else if (a == "--l") { if (!(v = need(i))) return false; o.l = std::atoi(v); }
    else if (a == "--target-lr") { if (!(v = need(i))) return false; o.target_lr = std::atof(v); }
    else if (a == "--series") { if (!(v = need(i))) return false; o.series = v; }
    else if (a == "--no-acks") o.no_acks = true;
    else if (a == "--no-probing") o.no_probing = true;
    else if (a == "--no-selftuning") o.no_selftuning = true;
    else if (a == "--no-suppression") o.no_suppression = true;
    else if (a == "--no-pns") o.no_pns = true;
    else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

std::shared_ptr<net::Topology> make_topology(const Options& o) {
  if (o.topology == "gatech") {
    return std::make_shared<net::TransitStubTopology>(
        net::TransitStubParams::scaled(6, 4, 5));
  }
  if (o.topology == "mercator") {
    net::HierASParams p;
    p.autonomous_systems = 80;
    p.routers_per_as = 15;
    return std::make_shared<net::HierASTopology>(p);
  }
  if (o.topology == "corpnet") {
    return std::make_shared<net::CorpNetTopology>(net::CorpNetParams{});
  }
  return nullptr;
}

trace::ChurnTrace make_trace(const Options& o) {
  if (!o.trace_file.empty()) {
    std::ifstream in(o.trace_file);
    if (!in) throw std::runtime_error("cannot open " + o.trace_file);
    return trace::ChurnTrace::load(in, o.trace_file);
  }
  if (o.trace == "gnutella") {
    return trace::generate_synthetic(
        trace::gnutella_params(o.node_scale, o.time_scale, o.seed + 1));
  }
  if (o.trace == "overnet") {
    return trace::generate_synthetic(
        trace::overnet_params(o.node_scale * 4, o.time_scale, o.seed + 1));
  }
  if (o.trace == "microsoft") {
    return trace::generate_synthetic(
        trace::microsoft_params(o.node_scale / 5, o.time_scale, o.seed + 1));
  }
  if (o.trace == "poisson") {
    return trace::generate_poisson(minutes(o.duration_min),
                                   o.session_min * 60.0, o.population,
                                   o.seed + 1);
  }
  throw std::runtime_error("unknown trace: " + o.trace);
}

void print_series(const char* name,
                  const std::vector<overlay::Metrics::SeriesPoint>& s) {
  std::printf("# series: %s (seconds\tvalue)\n", name);
  for (const auto& p : s) std::printf("%.6g\t%.6g\n", p.t_seconds, p.value);
}

/// The paper's evaluation block (adversary extras are printed by the
/// caller).
void print_results(overlay::Metrics& m, const pastry::Counters& c,
                   std::uint64_t executed_events) {
  std::printf("\nresults (post-warmup)\n");
  std::printf("  lookups issued            %llu\n",
              (unsigned long long)m.lookups_issued());
  std::printf("  delivered correctly       %llu\n",
              (unsigned long long)m.lookups_delivered_correct());
  std::printf("  incorrect delivery rate   %.3g\n",
              m.incorrect_delivery_rate());
  std::printf("  lookup loss rate          %.3g\n", m.loss_rate());
  std::printf("  RDP mean / median         %.2f / %.2f\n", m.mean_rdp(),
              m.rdp_samples().quantile(0.5));
  std::printf("  control traffic           %.3f msgs/s/node\n",
              m.control_traffic_rate());
  std::printf("  join latency p50 / p95    %.1f / %.1f s\n",
              m.join_latency_samples().quantile(0.5),
              m.join_latency_samples().quantile(0.95));
  std::printf("  false positives           %llu\n",
              (unsigned long long)c.false_positives);
  std::printf("  probes suppressed         %llu of %llu periodic\n",
              (unsigned long long)c.rt_probes_suppressed,
              (unsigned long long)(c.rt_probes_suppressed +
                                   c.rt_probes_periodic));
  std::printf("  simulator events          %llu\n",
              (unsigned long long)executed_events);
}

/// Causal-trace dump + expectation checking.
int finish_tracing(const Options& o, const obs::TraceDomain& domain,
                   std::size_t overlay_size,
                   const overlay::DriverConfig& dcfg) {
  int rc = 0;
  const auto paths = obs::assemble_paths(domain);
  std::printf("\ncausal traces: %zu paths from %zu node rings "
              "(sample rate %.3g)\n",
              paths.size(), domain.recorder_count(), o.trace_sample);
  if (!o.trace_out.empty()) {
    if (obs::write_trace_dump_file(domain, o.trace_out)) {
      std::printf("trace dump written to %s\n", o.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace dump %s\n",
                   o.trace_out.c_str());
      rc = 2;
    }
  }
  if (o.check_expectations) {
    obs::ExpectationConfig ecfg;
    ecfg.b = o.b;
    ecfg.overlay_size = overlay_size;
    ecfg.t_ls = dcfg.pastry.t_ls;
    ecfg.t_o = dcfg.pastry.t_o;
    ecfg.failed_entry_ttl = pastry::kFailedEntryTtl;
    const auto report = obs::check_expectations(domain, paths, ecfg);
    std::printf("%s", report.summary().c_str());
    if (!report.ok()) rc = 1;
  }
  return rc;
}

/// Parse --adversary behavior:fraction. Returns false (after printing to
/// stderr) on a malformed spec.
bool parse_adversary_spec(const Options& o,
                          overlay::AdversaryBehavior& behavior,
                          double& fraction) {
  behavior = overlay::AdversaryBehavior::kMisroute;
  fraction = 0.0;
  if (o.adversary.empty()) return true;
  const auto colon = o.adversary.find(':');
  const std::string bname = o.adversary.substr(0, colon);
  const auto parsed = overlay::behavior_from_name(bname);
  if (!parsed) {
    std::fprintf(stderr, "unknown adversary behavior: %s\n", bname.c_str());
    return false;
  }
  behavior = *parsed;
  if (colon != std::string::npos) {
    char* end = nullptr;
    fraction = std::strtod(o.adversary.c_str() + colon + 1, &end);
    if (end == o.adversary.c_str() + colon + 1 || *end != '\0' ||
        fraction < 0.0 || fraction > 1.0) {
      std::fprintf(stderr, "bad adversary fraction (want 0..1): %s\n",
                   o.adversary.c_str() + colon + 1);
      return false;
    }
  }
  return true;
}

/// Adversary result block.
void print_adversary_results(overlay::Metrics& m,
                             const pastry::Counters& c) {
  std::printf("  incorrect: adversarial    %llu (stale leaf set %llu)\n",
              (unsigned long long)m.incorrect_misrouted_by_adversary(),
              (unsigned long long)m.incorrect_stale_leaf_set());
  std::printf("  lost: devoured            %llu\n",
              (unsigned long long)m.lost_dropped_by_adversary());
  std::printf("  adversary actions         %llu drops, %llu misroutes, "
              "%llu corrupted replies\n",
              (unsigned long long)c.lookups_dropped_adversarial,
              (unsigned long long)c.lookups_misrouted_adversarial,
              (unsigned long long)(c.ls_replies_corrupted +
                                   c.nn_replies_corrupted));
  std::printf("  countermeasures           %llu redundant copies, "
              "%llu leaf rejections, %llu distrusted claims\n",
              (unsigned long long)c.redundant_lookup_copies,
              (unsigned long long)c.leaf_candidates_rejected,
              (unsigned long long)c.failure_claims_distrusted);
}

int run_trace(const Options& o, std::shared_ptr<net::Topology> topology,
                const net::NetworkConfig& ncfg,
                const overlay::DriverConfig& dcfg,
                const trace::ChurnTrace& churn) {
  overlay::ShardedDriver driver(std::move(topology), ncfg, dcfg, o.shards);
  std::printf("sharded engine: %zu shards requested, %zu effective, "
              "lookahead %lld us\n",
              driver.requested_shards(), driver.effective_shards(),
              (long long)driver.lookahead());
  apps::ShardedWebCacheService squirrel;
  const bool with_adversary =
      !o.adversary.empty() || !o.eclipse_victim.empty();
  try {
    if (o.fault_recipe) {
      driver.add_fault_rule(
          net::FaultRule::loss(net::LinkMatcher::all(), 0.01));
      driver.add_fault_rule(net::FaultRule::delay_spike(
          net::LinkMatcher::all(), milliseconds(20), churn.duration() / 3,
          churn.duration() * 2 / 3));
      driver.add_fault_rule(net::FaultRule::duplicate(
          net::LinkMatcher::all(), 0.005, milliseconds(1)));
      std::printf("fault recipe: loss 1%%, delay spike 20 ms over the "
                  "middle third, duplication 0.5%%\n");
    }
    if (o.squirrel) {
      driver.attach_app(&squirrel);
      std::printf("squirrel: cooperative web cache attached "
                  "(diurnal workload)\n");
    }
    if (with_adversary) {
      overlay::AdversaryBehavior behavior;
      double fraction = 0.0;
      if (!parse_adversary_spec(o, behavior, fraction)) return 2;
      overlay::ShardedAdversaryConfig adv;
      adv.behavior = behavior;
      adv.fraction = fraction;
      adv.arm_at = dcfg.warmup;
      if (!o.eclipse_victim.empty()) {
        adv.eclipse_sybils = 16;
        adv.eclipse_victim = NodeId::from_string(o.eclipse_victim);
      }
      adv.seed = o.seed ^ 0xadd5a17ull;
      driver.set_adversary(adv);
      std::printf(
          "adversary: behavior %s, fraction %.2f, sybils %d, seed %llu, "
          "arms at %.0f s; countermeasures: redundancy %d, leaf-checks %s\n",
          overlay::to_string(behavior), fraction, adv.eclipse_sybils,
          (unsigned long long)adv.seed, to_seconds(adv.arm_at),
          o.redundancy, o.leaf_checks ? "on" : "off");
    }
    driver.run_trace(churn);
  } catch (const overlay::ConfigError& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 2;
  } catch (const pastry::CodecError& e) {
    std::fprintf(stderr, "codec error (%s): %s\n",
                 pastry::wire_status_name(e.status()), e.what());
    return 2;
  }
  print_results(driver.metrics(), driver.counters(),
                driver.executed_events());
  if (with_adversary) {
    print_adversary_results(driver.metrics(), driver.counters());
    std::printf("  packets devoured          %llu; sybils joined %zu\n",
                (unsigned long long)driver.packets_dropped_adversarial(),
                driver.sybil_addresses().size());
  }
  if (o.squirrel) {
    const auto st = squirrel.stats();
    SampleSet lat;
    for (const double s : driver.app_latency_samples()) lat.add(s);
    std::printf("  squirrel requests         %llu (%llu hits, %llu misses, "
                "%llu responses)\n",
                (unsigned long long)st.requests, (unsigned long long)st.hits,
                (unsigned long long)st.misses,
                (unsigned long long)st.responses);
    std::printf("  squirrel latency p50/p95  %.1f / %.1f ms (%zu samples, "
                "%zu objects cached)\n",
                lat.quantile(0.5) * 1e3, lat.quantile(0.95) * 1e3,
                lat.count(), squirrel.cached_total());
  }
  std::printf("  epochs                    %llu\n",
              (unsigned long long)driver.epochs());
  if (o.series == "rdp" || o.series == "all") {
    print_series("RDP", driver.metrics().rdp_series());
  }
  if (o.series == "control" || o.series == "all") {
    print_series("control traffic (msgs/s/node)",
                 driver.metrics().control_traffic_series(churn.duration()));
  }
  if (dcfg.obs.enabled && driver.trace_domain() != nullptr) {
    return finish_tracing(o, *driver.trace_domain(),
                          driver.oracle().active_count(), dcfg);
  }
  return 0;
}

}  // namespace

int run_chaos(const Options& o) {
  auto topology = make_topology(o);
  if (!topology) {
    std::fprintf(stderr, "unknown topology: %s\n", o.topology.c_str());
    return 2;
  }
  overlay::ChaosConfig cfg;
  cfg.seed = o.chaos_seed != 0 ? o.chaos_seed : o.seed;
  cfg.shards = o.shards;
  cfg.pastry.b = o.b;
  cfg.pastry.l = o.l;
  cfg.obs.sample_rate = o.trace_sample;
  cfg.trace_dump_prefix = o.trace_out;
  std::printf("chaos: scenario %s, seed %llu, topology %s\n",
              o.chaos.c_str(), (unsigned long long)cfg.seed,
              topology->name().c_str());
  overlay::ChaosHarness harness(std::move(topology), cfg);
  const auto names = o.chaos == "all"
                         ? overlay::ChaosHarness::scenarios()
                         : std::vector<std::string>{o.chaos};
  bool all_ok = true;
  for (const auto& name : names) {
    overlay::ChaosResult r;
    try {
      r = harness.run(name);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s (known scenarios:", e.what());
      for (const auto& s : overlay::ChaosHarness::scenarios()) {
        std::fprintf(stderr, " %s", s.c_str());
      }
      std::fprintf(stderr, " random all)\n");
      return 2;
    }
    std::printf("\n--- %s (seed %llu) ---\nfault schedule:\n%s",
                r.scenario.c_str(), (unsigned long long)r.seed,
                r.fault_schedule.c_str());
    std::printf(
        "during faults: %llu probes, loss %.3f, incorrect %.3f\n"
        "after heal:    %llu probes, loss %.3f, incorrect %.3f\n",
        (unsigned long long)r.fault_issued, r.fault_loss_rate(),
        r.fault_incorrect_rate(), (unsigned long long)r.heal_issued,
        r.heal_loss_rate(), r.heal_incorrect_rate());
    if (r.reconverge_seconds < 0) {
      std::printf("reconvergence: never\n");
    } else {
      std::printf("reconvergence: %.1f s after heal\n",
                  r.reconverge_seconds);
    }
    if (r.scenario == "gray-stall") {
      std::printf("gray failure: rerouted=%s condemned=%s recovered=%s\n",
                  r.stall_rerouted ? "yes" : "no",
                  r.stall_condemned ? "yes" : "no",
                  r.stall_recovered ? "yes" : "no");
    }
    for (const auto& v : r.violations) {
      std::printf("violation: %s\n", v.c_str());
    }
    if (!r.expectation_summary.empty()) {
      std::printf("%s", r.expectation_summary.c_str());
    }
    for (const auto& p : r.offending_paths) {
      std::printf("\noffending lookup:\n%s", p.c_str());
    }
    if (!r.trace_dump_path.empty()) {
      std::printf("trace dump written to %s\n", r.trace_dump_path.c_str());
    }
    std::printf("verdict: %s\n", r.ok() ? "ok" : "FAIL");
    all_ok = all_ok && r.ok();
  }
  return all_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  if (o.chaos == "list") {
    for (const auto& s : overlay::ChaosHarness::scenarios()) {
      std::puts(s.c_str());
    }
    std::puts("random");
    return 0;
  }
  std::printf("seed: %llu\n", (unsigned long long)o.seed);
  if (!o.chaos.empty()) return run_chaos(o);

  trace::ChurnTrace churn = make_trace(o);
  const auto pop = churn.population_stats();
  std::printf("trace: %s, %d sessions, active %d..%d, %.2f h\n",
              churn.name().c_str(), churn.session_count(), pop.min_active,
              pop.max_active, to_seconds(churn.duration()) / 3600.0);
  if (!o.save_trace.empty()) {
    std::ofstream out(o.save_trace);
    churn.save(out);
    std::printf("trace written to %s\n", o.save_trace.c_str());
    return 0;
  }

  auto topology = make_topology(o);
  if (!topology) {
    std::fprintf(stderr, "unknown topology: %s\n", o.topology.c_str());
    return 2;
  }
  std::printf("topology: %s (%d routers), loss %.1f%%\n",
              topology->name().c_str(), topology->router_count(),
              o.loss * 100);

  net::NetworkConfig ncfg;
  ncfg.loss_rate = o.loss;
  ncfg.lan_delay = o.topology == "mercator" ? 0 : milliseconds(1);

  overlay::DriverConfig dcfg;
  dcfg.lookup_rate_per_node = o.lookup_rate;
  dcfg.seed = o.seed;
  dcfg.warmup = std::min<SimDuration>(churn.duration() / 5, hours(1));
  dcfg.pastry.b = o.b;
  dcfg.pastry.l = o.l;
  dcfg.pastry.per_hop_acks = !o.no_acks;
  dcfg.pastry.active_rt_probing = !o.no_probing;
  dcfg.pastry.self_tuning = !o.no_selftuning;
  dcfg.pastry.suppression = !o.no_suppression;
  dcfg.pastry.pns = !o.no_pns;
  dcfg.pastry.target_raw_loss = o.target_lr;
  dcfg.pastry.lookup_redundancy = o.redundancy;
  dcfg.pastry.leaf_plausibility_checks = o.leaf_checks;
  const bool tracing = !o.trace_out.empty() || o.check_expectations;
  dcfg.obs.enabled = tracing;
  dcfg.obs.sample_rate = o.trace_sample;

  return run_trace(o, topology, ncfg, dcfg, churn);
}
