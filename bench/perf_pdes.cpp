// Parallel sharded simulation (PDES) benchmark. Runs the Figure-4-style
// Gnutella churn replay on the conservative epoch engine at 1, 2, 4 and
// 8 shards and records, per shard count: wall-clock, events/sec, epoch
// count, lookahead, the full run-summary digest, the engine's epoch
// telemetry (epochs run on the worker pool, per-shard busy and
// barrier-wait time, single-threaded time, events-per-epoch histogram)
// and the epoch barrier's cost per crossing, under a host block (cores,
// build type, compiler, revision), in BENCH_pdes.json.
//
// Two gates:
//   1. Determinism (always on): every shard count must produce the exact
//      digest the single-shard run produced — the engine's correctness
//      contract, independent of how many cores the host has. Any
//      mismatch exits nonzero.
//   2. Speedup (hardware-gated): --min-speedup X requires the best
//      multi-shard run to beat single-shard wall-clock by Xx, but only
//      when the host actually has at least that many cores
//      (hardware_concurrency >= shards); on smaller hosts the measured
//      ratio is still recorded, just not gated — a 1-core CI runner
//      cannot exhibit parallel speedup and must not fail for it.
//
// Usage: perf_pdes [--smoke] [--min-speedup X]
//        REPRO_FULL=1 perf_pdes   for paper-scale replay

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "overlay/sharded_driver.hpp"

using namespace mspastry;
using namespace mspastry::bench;

namespace {

struct ShardRun {
  std::size_t shards = 0;
  std::size_t effective = 0;
  std::uint64_t epochs = 0;
  SimDuration lookahead = 0;
  RunSummary summary;
  ShardedSimulator::EpochTelemetry telemetry;
  double barrier_ns_per_crossing = 0.0;
};

ShardRun run_sharded(const trace::ChurnTrace& trace, std::size_t shards) {
  ShardRun r;
  r.shards = shards;
  overlay::ShardedDriver driver(make_topology(TopologyKind::kGATech),
                                make_net_config(TopologyKind::kGATech),
                                base_driver_config(200), shards);
  WallTimer timer;
  driver.run_trace(trace);
  r.summary = summarize(driver, timer.seconds());
  r.effective = driver.effective_shards();
  r.epochs = driver.epochs();
  r.lookahead = driver.lookahead();
  r.telemetry = driver.epoch_telemetry();
  return r;
}

/// Wall time of one epoch barrier crossing at `shards`: every epoch of
/// this engine runs the same few no-op events on each shard, at least
/// kDenseEventsPerEpoch in all so that the epochs go to the worker pool,
/// so an epoch costs two crossings, those events and the single-threaded
/// step between the crossings.
double barrier_ns_per_crossing(std::size_t shards, std::uint64_t epochs) {
  ShardedSimulator eng(shards, 1);
  struct Tick {
    Simulator* sim;
    void operator()() const { sim->schedule_at(sim->now() + 1, Tick{sim}); }
  };
  const std::size_t ticks_per_shard =
      (ShardedSimulator::kDenseEventsPerEpoch + eng.shards() - 1) /
      eng.shards();
  for (std::size_t i = 0; i < eng.shards(); ++i) {
    for (std::size_t k = 0; k < ticks_per_shard; ++k) {
      eng.shard(i).schedule_at(0, Tick{&eng.shard(i)});
    }
  }
  eng.run_until(1000);  // start the pool's threads outside the timing
  const std::uint64_t pool_before = eng.epoch_telemetry().pool_epochs;
  WallTimer timer;
  eng.run_until(1000 + static_cast<SimTime>(epochs));
  const double seconds = timer.seconds();
  if (eng.epoch_telemetry().pool_epochs - pool_before != epochs) {
    std::fprintf(stderr, "FATAL: barrier probe ran epochs off the pool\n");
    std::exit(1);
  }
  return seconds * 1e9 / (2.0 * static_cast<double>(epochs));
}

void print_telemetry(const ShardRun& r) {
  if (r.telemetry.busy_ns.empty()) return;
  print_epoch_telemetry(r.telemetry);
  std::printf("    barrier: %.0f ns/crossing\n", r.barrier_ns_per_crossing);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--min-speedup X]\n", argv[0]);
      return 2;
    }
  }

  print_header("Parallel sharded simulation (perf_pdes)");
  JsonEmitter out("pdes");
  const HostInfo host = host_info();
  const unsigned cores = host.cores;
  emit_host(out, host);

  // The Figure-4 Gnutella churn workload, sized so the smoke run
  // finishes in CI seconds while still crossing thousands of epochs.
  const double ts = smoke ? 0.02 : (full_scale() ? 1.0 : 0.05);
  const double ns = smoke ? 0.1 : node_scale();
  const auto trace = trace::generate_synthetic(
      trace::gnutella_params(ns, ts, /*seed=*/11));
  const std::string params = "trace=gnutella node_scale=" +
                             std::to_string(ns) +
                             " time_scale=" + std::to_string(ts) + " seed=200";

  const std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  const std::uint64_t barrier_epochs = smoke ? 20'000 : 100'000;
  std::vector<ShardRun> runs;
  for (const std::size_t s : shard_counts) {
    ShardRun r = run_sharded(trace, s);
    if (r.effective > 1) {
      r.barrier_ns_per_crossing = barrier_ns_per_crossing(s, barrier_epochs);
    }
    std::printf(
        "  shards=%zu (effective %zu): %9llu events in %7.3fs  "
        "(%9.0f ev/s)  epochs=%llu  digest %016llx\n",
        r.shards, r.effective, (unsigned long long)r.summary.executed_events,
        r.summary.wall_seconds, r.summary.events_per_sec,
        (unsigned long long)r.epochs, (unsigned long long)r.summary.digest);
    print_telemetry(r);
    runs.push_back(r);
  }

  const ShardRun& base = runs.front();
  bool digests_match = true;
  double best_speedup = 1.0;
  std::size_t best_shards = 1;
  for (const ShardRun& r : runs) {
    auto& row = emit_summary_row(out, "pdes_shards_" + std::to_string(r.shards),
                                 params, r.summary)
        .field("shards", r.shards)
        .field("effective_shards", r.effective)
        .field("epochs", r.epochs)
        .field("lookahead_us", r.lookahead);
    emit_epoch_telemetry(row, r.telemetry)
        .field("barrier_ns_per_crossing", r.barrier_ns_per_crossing)
        .field("speedup_vs_1",
               r.summary.wall_seconds > 0
                   ? base.summary.wall_seconds / r.summary.wall_seconds
                   : 0.0);
    if (r.summary.digest != base.summary.digest ||
        r.summary.executed_events != base.summary.executed_events) {
      std::fprintf(stderr,
                   "FATAL: shards=%zu digest %016llx != shards=1 %016llx\n",
                   r.shards, (unsigned long long)r.summary.digest,
                   (unsigned long long)base.summary.digest);
      digests_match = false;
    }
    const double sp = r.summary.wall_seconds > 0
                          ? base.summary.wall_seconds / r.summary.wall_seconds
                          : 0.0;
    if (r.shards > 1 && sp > best_speedup) {
      best_speedup = sp;
      best_shards = r.shards;
    }
  }

  // The speedup gate only binds when the host can physically express the
  // parallelism; the recorded numbers stay honest either way.
  const bool gate_applies = min_speedup > 0.0 && cores >= 2;
  const bool gate_ok = !gate_applies || best_speedup >= min_speedup;
  const char* verdict = gate_applies ? (gate_ok ? "PASS" : "FAIL")
                        : min_speedup > 0.0
                            ? "skipped (single-core host)"
                            : "skipped (--min-speedup not set)";
  std::printf("\n  best speedup: %.2fx at %zu shards (cores=%u)  gate: %s\n",
              best_speedup, best_shards, cores, verdict);
  std::printf("  digests across shard counts: %s\n",
              digests_match ? "MATCH" : "MISMATCH");

  out.row("pdes_compare")
      .field("cores", static_cast<std::uint64_t>(cores))
      .field("digests_match", digests_match)
      .field("best_speedup", best_speedup)
      .field("best_shards", best_shards)
      .field("min_speedup_required", min_speedup)
      .field("speedup_gate_applied", gate_applies);
  out.row("process").field("smoke", smoke).field("peak_rss_bytes",
                                                 peak_rss_bytes());
  out.write();

  if (!digests_match) return 1;
  if (!gate_ok) {
    std::fprintf(stderr, "FATAL: best speedup %.2fx < required %.2fx\n",
                 best_speedup, min_speedup);
    return 1;
  }
  return 0;
}
