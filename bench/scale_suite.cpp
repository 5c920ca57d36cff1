// Paper-scale simulation suite: runs N = 10,000-node slices of the
// fig3/fig4/fig5 experiments on the keyed engine and records, per phase,
// the wall-clock, event throughput, epoch count (with the epoch
// telemetry on multi-shard runs) and peak RSS that make those runs
// tractable (slab routing rows, the timer wheel, the
// incremental oracle, the landmark delay oracle). Output lands in
// BENCH_scale.json;
// CI runs `--smoke` with thresholds (see --max-rss-mb /
// --min-events-per-sec) so a memory or throughput regression fails the
// build instead of silently doubling the paper-reproduction budget.
//
// Modes:
//   --smoke             shortened slices (CI budget: a few minutes, Release)
//   default             ~1 simulated hour per overlay slice
//   REPRO_FULL=1        paper-scale slices (hours of wall-clock)
//   --population=100000 the N = 100k tier: a single fig4 slice on the
//                       paper-size 5050-router GATech graph (landmark
//                       delay-oracle mode), emitted to BENCH_scale100k.json
//   --shards=S          overlay slices on S shards of the keyed engine
//                       (default 1)
//   --per-pair-lookahead widen epochs via Topology::min_delay_between
//   --check-hops=TOL    trace a sample of lookups and run the obs
//                       expectation rules, including R7 (analytic mean
//                       hops within TOL of ceil(log_2^b N)); violations
//                       fail the run

#include <cstring>

#include "bench_util.hpp"
#include "obs/expectations.hpp"
#include "overlay/sharded_driver.hpp"

using namespace mspastry;
using namespace mspastry::bench;

namespace {

int g_population = 10000;
bool g_per_pair_lookahead = false;
double g_check_hops = 0.0;  // R7 tolerance; 0 = observability off
int g_expectation_failures = 0;

struct Phase {
  /// What ran, and therefore which telemetry fields mean anything:
  /// kTraceOnly phases have no overlay (no live nodes beyond what the
  /// trace itself says, no shard/epoch telemetry).
  enum class Kind { kTraceOnly, kOverlay };

  std::string name;
  std::string params;
  Kind kind = Kind::kOverlay;
  double wall_seconds = 0.0;
  std::uint64_t executed_events = 0;
  double events_per_sec = 0.0;
  std::uint64_t peak_rss = 0;  ///< process peak at phase end (monotone)
  std::uint64_t digest = 0;
  std::uint64_t live_nodes = 0;  ///< slice end: overlay- or trace-derived
  /// Slice end, kOverlay only: mean PeerTable records and heap bytes per
  /// live node (the first field of the per-node memory census).
  double peer_entries_per_node = 0.0;
  double peer_table_bytes_per_node = 0.0;
  std::size_t shards = 0;        ///< kOverlay only
  std::size_t effective_shards = 0;
  std::uint64_t epochs = 0;
  ShardedSimulator::EpochTelemetry telemetry;  ///< empty at one shard
  net::DelayCacheStats delay_cache;  ///< overlay phases: oracle telemetry
  RunSummary summary;  ///< zero for trace-only phases
};

void emit_phase(JsonEmitter& out, const Phase& p) {
  auto& row = out.row(p.name)
                  .field("params", p.params)
                  .field("population", static_cast<std::uint64_t>(g_population))
                  .field("wall_seconds", p.wall_seconds)
                  .field("executed_events", p.executed_events)
                  .field("events_per_sec", p.events_per_sec)
                  .field("peak_rss_bytes", p.peak_rss)
                  .field("peak_rss_mb",
                         static_cast<double>(p.peak_rss) / (1024 * 1024))
                  .hex("digest", p.digest)
                  .field("live_nodes", p.live_nodes);
  // Engine and overlay telemetry only exists where an overlay ran;
  // emitting zeros for trace-only phases would read as measured facts.
  if (p.kind == Phase::Kind::kOverlay) {
    row.field("shards", p.shards)
        .field("effective_shards", p.effective_shards)
        .field("epochs", p.epochs)
        .field("peer_entries_per_node", p.peer_entries_per_node)
        .field("peer_table_bytes_per_node", p.peer_table_bytes_per_node)
        .field("rdp", p.summary.rdp)
        .field("control_traffic", p.summary.control_traffic)
        .field("loss_rate", p.summary.loss_rate)
        .field("lookups", p.summary.lookups)
        // Delay-oracle telemetry: the superlinear failure mode this suite
        // exists to catch is the row cache quietly regrowing O(R^2).
        .field("oracle_landmark_mode",
               static_cast<std::uint64_t>(p.delay_cache.landmark_mode))
        .field("oracle_clusters",
               static_cast<std::uint64_t>(p.delay_cache.clusters))
        .field("oracle_landmarks",
               static_cast<std::uint64_t>(p.delay_cache.landmarks))
        .field("oracle_bytes", p.delay_cache.oracle_bytes)
        .field("row_cache_bytes", p.delay_cache.row_cache_bytes)
        .field("row_cache_rows", p.delay_cache.cached_rows);
    if (p.effective_shards > 1) emit_epoch_telemetry(row, p.telemetry);
  }
  std::printf(
      "  %-18s %7.1fs wall  %9.3gM events  %8.3gk ev/s  rss %6.0f MB  "
      "digest %016llx\n",
      p.name.c_str(), p.wall_seconds, p.executed_events / 1e6,
      p.events_per_sec / 1e3, p.peak_rss / (1024.0 * 1024.0),
      static_cast<unsigned long long>(p.digest));
  if (p.kind != Phase::Kind::kTraceOnly) {
    std::printf("  %-18s peer table: %.0f entries, %.1f KB per live node\n",
                "", p.peer_entries_per_node,
                p.peer_table_bytes_per_node / 1024.0);
    std::printf(
        "  %-18s delay oracle: %s, %d clusters, %d landmarks, "
        "%.1f MB tables, row cache %.1f MB (%llu rows)\n",
        "", p.delay_cache.landmark_mode ? "landmark" : "exact",
        p.delay_cache.clusters, p.delay_cache.landmarks,
        p.delay_cache.oracle_bytes / (1024.0 * 1024.0),
        p.delay_cache.row_cache_bytes / (1024.0 * 1024.0),
        static_cast<unsigned long long>(p.delay_cache.cached_rows));
    if (p.effective_shards > 1) print_epoch_telemetry(p.telemetry);
  }
}

/// Fig 3 at paper scale is trace generation + analysis only (no overlay):
/// the three measurement-study traces with a 10,000-node Gnutella
/// population. The digest covers the failure-rate series, so generator
/// changes that alter the dynamics show up as a digest change.
Phase run_fig3(SimDuration slice) {
  Phase p;
  p.name = "fig3_traces";
  p.params = "gnutella+overnet+microsoft, slice=" +
             std::to_string(to_seconds(slice)) + "s";
  p.kind = Phase::Kind::kTraceOnly;
  WallTimer timer;
  std::uint64_t h = kFnvOffset;
  trace::SyntheticChurnParams specs[] = {
      trace::gnutella_params(), trace::overnet_params(),
      trace::microsoft_params()};
  specs[0].target_population = g_population;
  for (auto& spec : specs) {
    spec.duration = std::min(spec.duration, slice);
    const auto t = trace::generate_synthetic(spec);
    h = hash_u64(h, static_cast<std::uint64_t>(t.session_count()));
    for (const auto& [ts, rate] : t.failure_rate_series(minutes(10))) {
      h = hash_f64(hash_f64(h, ts), rate);
    }
    // Event count proxy: churn events processed by the analysis.
    p.executed_events += static_cast<std::uint64_t>(t.session_count()) * 2;
    // Slice-end population, derived from the trace itself (this phase
    // runs no overlay): sessions joined but not yet failed at the end.
    std::int64_t live = 0;
    for (const auto& ev : t.events()) {
      live += ev.type == trace::ChurnEventType::kJoin ? 1 : -1;
    }
    p.live_nodes += static_cast<std::uint64_t>(live < 0 ? 0 : live);
  }
  p.wall_seconds = timer.seconds();
  p.events_per_sec =
      p.wall_seconds > 0 ? p.executed_events / p.wall_seconds : 0.0;
  p.peak_rss = peak_rss_bytes();
  p.digest = h;
  return p;
}

/// Run the Pip-style expectation rules (including R7, analytic mean hops)
/// over the run's merged trace domain. Any violation fails the suite.
void check_expectations_for(const std::string& phase, obs::TraceDomain* dom,
                            std::size_t overlay_size) {
  if (dom == nullptr) {
    std::fprintf(stderr, "FAIL: %s: --check-hops set but no trace domain\n",
                 phase.c_str());
    ++g_expectation_failures;
    return;
  }
  obs::ExpectationConfig ecfg;
  ecfg.overlay_size = overlay_size;
  ecfg.analytic_hops_tolerance = g_check_hops;
  const auto paths = obs::assemble_paths(*dom);
  const auto report = obs::check_expectations(*dom, paths, ecfg);
  std::printf("  %-18s %s", "", report.summary().c_str());
  if (!report.ok()) {
    std::fprintf(stderr, "FAIL: %s: %zu expectation violations\n",
                 phase.c_str(), report.violations.size());
    ++g_expectation_failures;
  }
}

/// One overlay slice: build the driver on `topo`, run the trace, collect
/// the standard summary plus the scale telemetry.
Phase run_overlay(const std::string& name, const std::string& params,
                  std::shared_ptr<const net::Topology> topo,
                  const net::NetworkConfig& ncfg,
                  const trace::ChurnTrace& trace, overlay::DriverConfig dcfg,
                  std::size_t shards) {
  Phase p;
  p.name = name;
  p.params = params;
  if (g_check_hops > 0.0) {
    // Sampled causal tracing for the expectation rules. Small rings and a
    // low sample rate keep recorder memory out of the RSS budget.
    dcfg.obs.enabled = true;
    dcfg.obs.sample_rate = 0.05;
    dcfg.obs.ring_capacity = 512;
  }
  WallTimer timer;
  dcfg.per_pair_lookahead = g_per_pair_lookahead;
  overlay::ShardedDriver driver(topo, ncfg, dcfg, shards);
  driver.run_trace(trace);
  p.summary = summarize(driver, timer.seconds());
  p.live_nodes = driver.live_node_count();
  const auto census = driver.peer_census();
  if (census.nodes > 0) {
    const auto n = static_cast<double>(census.nodes);
    p.peer_entries_per_node = static_cast<double>(census.entries) / n;
    p.peer_table_bytes_per_node = static_cast<double>(census.bytes) / n;
  }
  p.shards = shards;
  p.effective_shards = driver.effective_shards();
  p.epochs = driver.epochs();
  p.telemetry = driver.epoch_telemetry();
  if (g_check_hops > 0.0) {
    check_expectations_for(name, driver.trace_domain(), p.live_nodes);
  }
  p.wall_seconds = p.summary.wall_seconds;
  p.executed_events = p.summary.executed_events;
  p.events_per_sec = p.summary.events_per_sec;
  p.digest = p.summary.digest;
  p.peak_rss = peak_rss_bytes();
  p.delay_cache = topo->delay_cache_stats();
  return p;
}

trace::ChurnTrace fig4_trace(SimDuration slice, int population) {
  auto params = trace::gnutella_params();
  params.target_population = population;
  params.duration = slice;
  params.seed = 11;
  return trace::generate_synthetic(params);
}

Phase run_fig4(SimDuration slice, SimDuration warmup, std::size_t shards) {
  // The fig4 Gnutella experiment at the paper's overlay size: Gnutella
  // session dynamics (lognormal sessions, diurnal arrivals) with the
  // population raised to 10,000.
  auto dcfg = base_driver_config(200);
  dcfg.warmup = warmup;
  return run_overlay("fig4_gnutella_10k",
                     "gnutella dynamics, N=" + std::to_string(g_population) +
                         ", slice=" + std::to_string(to_seconds(slice)) + "s",
                     make_topology(TopologyKind::kGATech),
                     make_net_config(TopologyKind::kGATech),
                     fig4_trace(slice, g_population), dcfg, shards);
}

Phase run_fig5(SimDuration slice, SimDuration warmup, std::size_t shards) {
  // One point of the fig5 session-time sweep (30-minute exponential
  // sessions, the paper's mid-churn column) at the paper's N = 10,000.
  auto dcfg = base_driver_config(302);
  dcfg.warmup = warmup;
  const auto trace =
      trace::generate_poisson(slice, 30 * 60.0, g_population, 502, "poisson");
  return run_overlay("fig5_poisson30_10k",
                     "poisson 30min sessions, N=" +
                         std::to_string(g_population) +
                         ", slice=" + std::to_string(to_seconds(slice)) + "s",
                     make_topology(TopologyKind::kGATech),
                     make_net_config(TopologyKind::kGATech), trace, dcfg,
                     shards);
}

/// The N = 100k tier: one fig4-style slice on the *paper-size* GATech
/// graph (5050 routers — landmark oracle mode regardless of REPRO_FULL),
/// normally on the sharded engine. This is the first rung of the
/// 100k -> 1M ladder: the delay oracle holds O(R*k + C^2) tables where
/// the row cache would approach O(R^2).
Phase run_fig4_100k(SimDuration slice, SimDuration warmup,
                    std::size_t shards) {
  auto dcfg = base_driver_config(200);
  dcfg.warmup = warmup;
  return run_overlay("fig4_gnutella_100k",
                     "gnutella dynamics, N=100000, paper-size GATech, "
                     "slice=" +
                         std::to_string(to_seconds(slice)) + "s",
                     std::make_shared<net::TransitStubTopology>(
                         net::TransitStubParams{}),
                     make_net_config(TopologyKind::kGATech),
                     fig4_trace(slice, g_population), dcfg, shards);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double max_rss_mb = 0.0;       // 0 = no threshold
  double min_events_per_sec = 0.0;
  std::size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--max-rss-mb=", 13) == 0) {
      max_rss_mb = std::atof(argv[i] + 13);
    }
    if (std::strncmp(argv[i], "--min-events-per-sec=", 21) == 0) {
      min_events_per_sec = std::atof(argv[i] + 21);
    }
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<std::size_t>(std::atoi(argv[i] + 9));
      if (shards == 0) shards = 1;
    }
    if (std::strncmp(argv[i], "--population=", 13) == 0) {
      g_population = std::atoi(argv[i] + 13);
      if (g_population <= 0) g_population = 10000;
    }
    if (std::strcmp(argv[i], "--per-pair-lookahead") == 0) {
      g_per_pair_lookahead = true;
    }
    if (std::strncmp(argv[i], "--check-hops=", 13) == 0) {
      g_check_hops = std::atof(argv[i] + 13);
    }
  }
  const bool tier_100k = g_population >= 100000;

  JsonEmitter out(tier_100k ? "scale100k" : "scale");
  std::vector<Phase> phases;
  if (tier_100k) {
    print_header("Paper-scale suite: N = 100,000 fig4 slice");
    // The 100k tier is one long overlay phase; the smoke slice is sized
    // for a CI Release job at --shards=8.
    const SimDuration slice =
        smoke ? minutes(12) : (full_scale() ? hours(1) : minutes(30));
    const SimDuration warmup = smoke ? minutes(4) : minutes(10);
    std::printf("slice: %.0f simulated minutes, %zu shards%s%s\n",
                to_seconds(slice) / 60.0, shards,
                g_per_pair_lookahead ? ", per-pair lookahead" : "",
                smoke ? " (smoke)" : "");
    phases.push_back(run_fig4_100k(slice, warmup, shards));
    emit_phase(out, phases.back());
  } else {
    print_header("Paper-scale suite: N = 10,000 slices of fig3/fig4/fig5");
    const SimDuration slice =
        smoke ? minutes(30) : (full_scale() ? hours(4) : hours(1));
    const SimDuration warmup = smoke ? minutes(10) : minutes(20);
    std::printf("slice: %.0f simulated minutes per overlay run, %zu "
                "shards%s%s\n",
                to_seconds(slice) / 60.0, shards,
                g_per_pair_lookahead ? ", per-pair lookahead" : "",
                smoke ? " (smoke)" : "");
    phases.push_back(run_fig3(slice));
    emit_phase(out, phases.back());
    phases.push_back(run_fig4(slice, warmup, shards));
    emit_phase(out, phases.back());
    phases.push_back(run_fig5(slice, warmup, shards));
    emit_phase(out, phases.back());
  }

  // Threshold gates (CI): peak RSS is process-wide, throughput is the
  // slowest overlay phase.
  int failures = g_expectation_failures;
  const double rss_mb = peak_rss_bytes() / (1024.0 * 1024.0);
  if (max_rss_mb > 0 && rss_mb > max_rss_mb) {
    std::fprintf(stderr, "FAIL: peak RSS %.0f MB exceeds budget %.0f MB\n",
                 rss_mb, max_rss_mb);
    ++failures;
  }
  if (min_events_per_sec > 0) {
    for (const auto& p : phases) {
      if (p.summary.executed_events == 0) continue;  // trace-only phase
      if (p.events_per_sec < min_events_per_sec) {
        std::fprintf(stderr,
                     "FAIL: %s throughput %.0f events/s below floor %.0f\n",
                     p.name.c_str(), p.events_per_sec, min_events_per_sec);
        ++failures;
      }
    }
  }
  // Landmark-mode memory invariant: the oracle answered every delay from
  // its O(R*k + C^2) tables — a single cached Dijkstra row means some
  // path regressed to the O(R^2) cache.
  for (const auto& p : phases) {
    if (p.kind == Phase::Kind::kTraceOnly || !p.delay_cache.landmark_mode) {
      continue;
    }
    if (p.delay_cache.cached_rows > 0) {
      std::fprintf(stderr,
                   "FAIL: %s: %llu exact Dijkstra rows cached in landmark "
                   "mode (%llu bytes) — the O(R^2) cache is regrowing\n",
                   p.name.c_str(),
                   static_cast<unsigned long long>(p.delay_cache.cached_rows),
                   static_cast<unsigned long long>(
                       p.delay_cache.row_cache_bytes));
      ++failures;
    }
  }
  std::printf("\npeak RSS %.0f MB across the suite\n", rss_mb);
  return failures == 0 ? 0 : 1;
}
