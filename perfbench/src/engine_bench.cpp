// One repetition of one benchmark workload on the keyed sharded engine
// (overlay::ShardedDriver, plus apps::ShardedWebCacheService on the
// squirrel workload). perfbench/run.py runs this binary several times per
// benchmark run and reports medians; see perfbench/README.md.
//
//   pb_engine --workload <gnutella|squirrel|poisson_s2> --seed <n>
//             [--trace 0|1] [--scale full|tiny]
//   pb_engine --selftest
//
// Prints human-readable lines, then one JSON object as the last line:
// {"workload", "seed", "traced", "digest", "attempted", "failed",
//  "violations": [...], "host": {...}, "metrics": {name: value}}.
// Exit code 1 when a correctness check fails, 2 on bad usage.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/sharded_web_cache.hpp"
#include "common/hash_mix.hpp"
#include "common/stats.hpp"
#include "host_probe.hpp"
#include "layer_timing.hpp"
#include "net/corpnet.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"
#include "trace/churn_generators.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

using namespace mspastry;

namespace {

// --- Clocks, memory, digest ---------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU seconds, all threads.
double cpu_s() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// FNV-1a over fixed-width values (the bench_util.hpp summary_digest
/// recipe: same seed and same code give the same digest).
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void f64(double v) {
    if (v == 0.0) v = 0.0;  // -0.0 digests like 0.0
    u64(std::bit_cast<std::uint64_t>(v));
  }
};

// --- Workloads -------------------------------------------------------------

enum class Scale { kFull, kTiny };

struct Workload {
  std::shared_ptr<const net::Topology> topology;
  trace::ChurnTrace trace;
  net::NetworkConfig net;
  overlay::DriverConfig driver;
  std::size_t shards = 1;
  bool web = false;
  apps::ShardedWebCacheService::Params web_params;
  /// Simulated end of the run. A trace ends at its last churn event,
  /// which for long-lived sessions is long before the slice ends.
  SimTime end = 0;
  SimTime web_stop = 0;  ///< no web requests at or after this instant
};

/// The squirrel request process over a closed window: forwards every
/// hook to the cache service but issues no request from `stop` on, so
/// every request has a minute of simulated time to be answered before the
/// run ends and an unanswered request is a failure, not a cut-off.
class WindowedWebCache final : public overlay::ShardedApp {
 public:
  WindowedWebCache(apps::ShardedWebCacheService& inner, SimTime stop)
      : inner_(inner), stop_(stop) {}
  void on_run_start(overlay::ShardedDriver& d, std::size_t shards) override {
    inner_.on_run_start(d, shards);
  }
  double workload_rate(SimTime t) const override {
    return t < stop_ ? inner_.workload_rate(t) : 0.0;
  }
  void workload_tick(const overlay::ShardedDriver::AppNode& node) override {
    if (node.now() < stop_) inner_.workload_tick(node);
  }
  void deliver(const overlay::ShardedDriver::AppNode& node,
               const pastry::LookupMsg& m) override {
    inner_.deliver(node, m);
  }
  void packet(const overlay::ShardedDriver::AppNode& node, net::Address from,
              const net::PacketPtr& p) override {
    inner_.packet(node, from, p);
  }

 private:
  apps::ShardedWebCacheService& inner_;
  SimTime stop_;
};

overlay::DriverConfig paper_driver_config(std::uint64_t seed,
                                          SimDuration warmup) {
  overlay::DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.01;  // the paper's base workload
  // One-minute windows: control traffic counts only whole windows that
  // start after warmup, and the slices are tens of minutes long.
  cfg.metrics_window = minutes(1);
  cfg.warmup = warmup;
  cfg.seed = seed;
  return cfg;
}

net::NetworkConfig lan_1ms() {
  net::NetworkConfig cfg;
  cfg.lan_delay = milliseconds(1);  // GATech/CorpNet end-node LAN link
  return cfg;
}

std::shared_ptr<const net::Topology> gatech(Scale scale) {
  // Paper-size GATech: 5050 routers, landmark delay-oracle mode.
  return std::make_shared<net::TransitStubTopology>(
      scale == Scale::kFull ? net::TransitStubParams{}
                            : net::TransitStubParams::scaled(4, 3, 3));
}

struct SetupTimes {
  double topology_s = 0.0;
  double trace_s = 0.0;
};

/// Build the inputs of one workload from the seed alone.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       Scale scale, SetupTimes& t) {
  const bool full = scale == Scale::kFull;
  const std::uint64_t trace_seed = mix64(seed ^ 0x7472616365ull);
  const std::uint64_t driver_seed = mix64(seed ^ 0x6472697665ull);
  Workload w;
  w.net = lan_1ms();
  double t0 = now_s();
  if (name == "gnutella") {
    // fig4: Gnutella-like churn (lognormal sessions, mean 2.3 h, diurnal
    // arrivals) on paper-size GATech at 0.01 lookups/s/node, 1 shard.
    w.topology = gatech(scale);
    t.topology_s = now_s() - t0;
    t0 = now_s();
    auto p = trace::gnutella_params(full ? 0.75 : 0.05, 1.0, trace_seed);
    p.duration = full ? minutes(20) : minutes(12);
    w.trace = trace::generate_synthetic(p);
    w.end = p.duration;
    w.driver = paper_driver_config(driver_seed, minutes(full ? 10 : 5));
  } else if (name == "squirrel") {
    // fig8: the Squirrel web cache on CorpNet (exact delay rows) with the
    // corporate churn shape; more machines and a flat, higher request rate
    // than the 52-machine deployment so the run lasts seconds.
    w.topology = std::make_shared<net::CorpNetTopology>(net::CorpNetParams{});
    t.topology_s = now_s() - t0;
    t0 = now_s();
    trace::SyntheticChurnParams churn;
    churn.duration = full ? minutes(25) : minutes(10);
    churn.mean_session_seconds = 37.7 * 3600;
    churn.median_session_seconds = 30.0 * 3600;
    churn.target_population = full ? 400 : 40;
    churn.seed = trace_seed;
    churn.name = "squirrel-corp";
    w.trace = trace::generate_synthetic(churn);
    w.end = churn.duration;
    w.driver = paper_driver_config(driver_seed, minutes(full ? 10 : 5));
    w.driver.lookup_rate_per_node = 0.0;  // web requests drive all lookups
    w.web = true;
    w.web_params.workload.peak_rate_per_node = full ? 0.5 : 0.2;
    // A floor of 1 flattens the diurnal shape to its office-hours peak.
    w.web_params.workload.off_hours_floor = 1.0;
    // Requests stop a minute before the end, so each has that long to be
    // answered (the lookup loss grace is also a minute).
    w.web_stop = w.end - seconds(60);
  } else if (name == "poisson_s2") {
    // fig5: Poisson arrivals, exponential 30-minute sessions, dense, on 2
    // shards (the main thread runs shard 0, one worker runs shard 1). The
    // initial population joins over the first 5 minutes; the slice runs
    // 15 minutes past that ramp, and the warm-up ends a minute after it.
    w.topology = gatech(scale);
    t.topology_s = now_s() - t0;
    t0 = now_s();
    w.end = full ? minutes(20) : minutes(8);
    w.trace = trace::generate_poisson(w.end, 30 * 60.0, full ? 500 : 80,
                                      trace_seed, "poisson30");
    w.driver = paper_driver_config(driver_seed, minutes(full ? 6 : 3));
    w.shards = 2;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  t.trace_s = now_s() - t0;
  return w;
}

// --- One run -----------------------------------------------------------------

struct Output {
  std::map<std::string, double> metrics;
  std::vector<std::string> violations;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per-layer metrics that do not apply to this workload, with why.
  std::map<std::string, std::string> absent;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Set-up is repeated in one process until it has taken this long (at
/// most kMaxSetups times, at least once), and its times are medians over
/// the repetitions. On the GATech workloads one set-up already takes
/// longer; squirrel's takes about a millisecond, which a single sample
/// would measure as process start-up and allocator noise.
constexpr double kSetupBudgetS = 0.25;
constexpr std::size_t kMaxSetups = 64;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Output run_workload(const std::string& name, std::uint64_t seed, Scale scale,
                    bool traced) {
  Output out;
  auto& m = out.metrics;
  perfbench::SpanRegistry spans;

  // The app objects are declared before the driver so they outlive it.
  std::unique_ptr<apps::ShardedWebCacheService> cache;
  std::unique_ptr<WindowedWebCache> windowed;
  std::unique_ptr<perfbench::TimedApp> timed_app;
  Workload w;
  std::unique_ptr<overlay::ShardedDriver> driver;
  std::vector<double> setup_v, topology_v, trace_v, driver_v;
  double setup_spent = 0.0;
  do {
    // Only the last set-up is run; each earlier one is torn down first
    // (untimed), so no two are alive at once.
    driver.reset();
    w = Workload{};
    const double setup_start = now_s();
    SetupTimes st;
    w = make_workload(name, seed, scale, st);
    std::shared_ptr<const net::Topology> topo = w.topology;
    if (traced) topo = std::make_shared<perfbench::TimedTopology>(topo, spans);
    const double driver_start = now_s();
    driver = std::make_unique<overlay::ShardedDriver>(topo, w.net, w.driver,
                                                      w.shards);
    const double setup_end = now_s();
    setup_v.push_back(setup_end - setup_start);
    topology_v.push_back(st.topology_s);
    trace_v.push_back(st.trace_s);
    driver_v.push_back(setup_end - driver_start);
    setup_spent += setup_end - setup_start;
  } while (setup_spent < kSetupBudgetS && setup_v.size() < kMaxSetups);
  if (w.web) {
    cache = std::make_unique<apps::ShardedWebCacheService>(w.web_params);
    windowed = std::make_unique<WindowedWebCache>(*cache, w.web_stop);
    timed_app = std::make_unique<perfbench::TimedApp>(*windowed, spans);
    driver->attach_app(traced
                           ? static_cast<overlay::ShardedApp*>(timed_app.get())
                           : windowed.get());
  }
  const double setup_end = now_s();
  const double rss_setup_mb = current_rss_mb();

  // --- Timed: run_trace, then ~ShardedDriver (reading results between
  // the two is not timed). --------------------------------------------------
  const double cpu0 = cpu_s();
  driver->run_trace(w.trace,
                    std::max<SimDuration>(0, w.end - w.trace.duration()));
  const double run_trace_s = now_s() - setup_end;
  const double cpu1 = cpu_s();

  auto& dm = driver->metrics();
  const pastry::Counters c = driver->counters();
  const std::uint64_t events = driver->executed_events();
  const std::uint64_t epochs = driver->epochs();
  const std::uint64_t sent = driver->packets_sent();
  const std::uint64_t lost = driver->packets_lost();
  const std::uint64_t delivered = driver->packets_delivered();
  const std::uint64_t unbound = driver->packets_dropped_unbound();
  const std::uint64_t adversarial = driver->packets_dropped_adversarial();
  const std::int64_t in_flight = driver->packets_in_flight();
  const std::size_t live = driver->live_node_count();
  const std::size_t effective_shards = driver->effective_shards();
  const std::vector<double> latencies = driver->app_latency_samples();
  const net::DelayCacheStats oracle = w.topology->delay_cache_stats();

  const std::uint64_t issued = dm.lookups_issued();
  const std::uint64_t correct = dm.lookups_delivered_correct();
  const std::uint64_t incorrect = dm.lookups_delivered_incorrect();
  const std::uint64_t lookups_lost = dm.lookups_lost();
  const double rdp_p50 = dm.rdp_samples().quantile(0.5);
  const double rdp_p95 = dm.rdp_samples().quantile(0.95);
  const std::size_t rdp_samples = dm.rdp_samples().count();
  const double control = dm.control_traffic_rate();
  const double join_p50 = dm.join_latency_samples().quantile(0.5);
  const double join_p95 = dm.join_latency_samples().quantile(0.95);
  const double join_success =
      ratio(static_cast<double>(dm.joins_completed()),
            static_cast<double>(dm.joins_started()));
  const double mean_rdp = dm.mean_rdp();
  const double loss_rate = dm.loss_rate();
  const double incorrect_rate = dm.incorrect_delivery_rate();

  const double cpu2 = cpu_s();
  const double teardown_start = now_s();
  driver.reset();  // teardown is part of the run users pay for
  const double teardown_s = now_s() - teardown_start;
  const double run_s = run_trace_s + teardown_s;
  const double run_cpu_s = (cpu1 - cpu0) + (cpu_s() - cpu2);
  const apps::ShardedWebCacheService::Stats web =
      cache ? cache->stats() : apps::ShardedWebCacheService::Stats{};
  SampleSet app_latency;
  for (const double s : latencies) app_latency.add(s);

  // --- Correctness gate ---------------------------------------------------
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) out.violations.push_back(what);
  };
  check(static_cast<std::int64_t>(sent) ==
            static_cast<std::int64_t>(lost + delivered + unbound +
                                      adversarial) +
                in_flight,
        "packet identity: sent != lost + delivered + dropped_unbound + "
        "dropped_adversarial + in_flight");
  check(in_flight >= 0, "negative packets in flight");
  check(correct + incorrect + lookups_lost <= issued,
        "lookup accounting: correct + incorrect + lost > issued");
  check(rdp_samples <= correct, "more RDP samples than correct deliveries");
  check(issued > 0, "no lookups issued after warmup");
  check(events > 0 && live > 0, "empty run");
  check(effective_shards == w.shards, "ran on fewer shards than requested");
  if (w.web) {
    check(web.requests > 0, "no web requests");
    check(web.responses <= web.requests, "web: responses > requests");
    check(latencies.size() == web.responses,
          "web: latency samples != responses");
  }

  // --- Digest: events, paper metrics, protocol counters ------------------
  Digest d;
  d.u64(events);
  d.f64(mean_rdp);
  d.f64(rdp_p50);
  d.f64(control);
  d.f64(loss_rate);
  d.f64(incorrect_rate);
  d.u64(issued);
  d.f64(join_p50);
  d.f64(join_p95);
  for (const std::uint64_t v :
       {c.heartbeats_sent, c.rt_probes_sent, c.ls_probes_sent,
        c.distance_probes_sent, c.acks_sent, c.ack_timeouts,
        c.lookups_forwarded, c.joins_completed, c.nodes_marked_faulty,
        sent, lost, delivered, unbound}) {
    d.u64(v);
  }
  if (w.web) {
    for (const std::uint64_t v :
         {web.requests, web.hits, web.misses, web.responses,
          static_cast<std::uint64_t>(cache->cached_total())}) {
      d.u64(v);
    }
    for (const double s : latencies) d.f64(s);
  }
  out.digest = d.h;

  // --- Operations attempted / failed ---------------------------------------
  // Lookups (lost or delivered to the wrong node fail); on squirrel every
  // lookup carries a web request, which also fails when never answered.
  out.attempted = issued;
  out.failed = lookups_lost + incorrect;
  if (w.web) {
    out.attempted = web.requests;
    out.failed = web.requests - std::min(web.requests, web.responses) +
                 incorrect;
  }

  // --- End-to-end metrics --------------------------------------------------
  m["setup_s"] = median_of(setup_v);
  m["run_s"] = run_s;
  m["cpu_s"] = run_cpu_s;
  m["peak_rss_mb"] = peak_rss_mb();
  m["rdp_p50"] = rdp_p50;
  m["control_msgs_per_node_s"] = control;

  // --- Per-layer metrics ---------------------------------------------------
  m["trace.generate_s"] = median_of(trace_v);
  m["trace.sessions"] = w.trace.session_count();
  m["net.topology_build_s"] = median_of(topology_v);
  m["net.oracle_mb"] =
      static_cast<double>(oracle.oracle_bytes + oracle.row_cache_bytes) /
      (1024.0 * 1024.0);
  m["net.packets_sent"] = static_cast<double>(sent);
  m["net.packets_lost"] = static_cast<double>(lost);
  m["net.packets_delivered"] = static_cast<double>(delivered);
  m["sim.events"] = static_cast<double>(events);
  m["sim.ns_per_event"] =
      ratio(run_trace_s * 1e9, static_cast<double>(events));
  m["sim.epochs"] = static_cast<double>(epochs);
  m["sim.events_per_epoch"] =
      ratio(static_cast<double>(events), static_cast<double>(epochs));
  m["sim.busy_threads"] = ratio(run_cpu_s, run_s);
  m["overlay.driver_build_s"] = median_of(driver_v);
  m["overlay.run_trace_s"] = run_trace_s;
  m["overlay.teardown_s"] = teardown_s;
  m["overlay.lookups_issued"] = static_cast<double>(issued);
  m["overlay.lookups_lost"] = static_cast<double>(lookups_lost);
  m["overlay.lookups_incorrect"] = static_cast<double>(incorrect);
  m["overlay.lookup_loss_rate"] = loss_rate;
  m["overlay.incorrect_rate"] = incorrect_rate;
  m["overlay.rdp_p95"] = rdp_p95;
  m["overlay.join_success"] = join_success;
  m["overlay.live_nodes"] = static_cast<double>(live);
  const double rss_run_mb = std::max(0.0, peak_rss_mb() - rss_setup_mb);
  m["overlay.rss_run_mb"] = rss_run_mb;
  m["overlay.kb_per_node"] = ratio(rss_run_mb * 1024.0,
                                   static_cast<double>(live));
  m["pastry.lookups_forwarded"] = static_cast<double>(c.lookups_forwarded);
  // Every squirrel lookup is a web request; the built-in Poisson workload
  // counts only post-warmup lookups, while the counters span the run.
  m["pastry.hops_per_lookup"] =
      ratio(static_cast<double>(c.lookups_forwarded),
            static_cast<double>(w.web ? web.requests : 0));
  m["pastry.acks_sent"] = static_cast<double>(c.acks_sent);
  m["pastry.ack_timeouts"] = static_cast<double>(c.ack_timeouts);
  m["pastry.reroute_ratio"] = ratio(static_cast<double>(c.ack_timeouts),
                                    static_cast<double>(c.lookups_forwarded));
  m["pastry.heartbeats_sent"] = static_cast<double>(c.heartbeats_sent);
  m["pastry.rt_probes_sent"] = static_cast<double>(c.rt_probes_sent);
  m["pastry.ls_probes_sent"] = static_cast<double>(c.ls_probes_sent);
  m["pastry.distance_probes_sent"] =
      static_cast<double>(c.distance_probes_sent);
  m["pastry.joins_completed"] = static_cast<double>(c.joins_completed);
  m["pastry.nodes_marked_faulty"] = static_cast<double>(c.nodes_marked_faulty);
  m["pastry.false_positive_ratio"] =
      ratio(static_cast<double>(c.false_positives),
            static_cast<double>(c.nodes_marked_faulty));
  m["pastry.join_latency_p50_s"] = join_p50;
  m["apps.requests"] = static_cast<double>(web.requests);
  m["apps.response_ratio"] = ratio(static_cast<double>(web.responses),
                                   static_cast<double>(web.requests));
  m["apps.hit_ratio"] = ratio(static_cast<double>(web.hits),
                              static_cast<double>(web.requests));
  m["apps.web_latency_p50_ms"] = app_latency.quantile(0.5) * 1000.0;
  m["apps.web_latency_p99_ms"] = app_latency.quantile(0.99) * 1000.0;
  if (!w.web) {
    out.absent["pastry.hops_per_lookup"] =
        "the driver counts only post-warmup lookups; squirrel only";
    for (const char* name :
         {"apps.requests", "apps.response_ratio", "apps.hit_ratio",
          "apps.upcall_calls", "apps.upcall_self_s", "apps.web_latency_p50_ms",
          "apps.web_latency_p99_ms"}) {
      out.absent[name] = "no application attached; squirrel only";
    }
  }
  if (traced) {
    using perfbench::Span;
    const auto tot = spans.totals();
    auto at = [&](Span s) { return tot[static_cast<int>(s)]; };
    m["net.delay_calls"] = static_cast<double>(at(Span::kDelay).calls);
    m["net.delay_s"] = at(Span::kDelay).total_s;
    std::uint64_t upcalls = 0;
    double upcall_self = 0.0;
    for (const Span s : {Span::kAppRunStart, Span::kAppWorkloadRate,
                         Span::kAppWorkloadTick, Span::kAppDeliver,
                         Span::kAppPacket}) {
      upcalls += at(s).calls;
      upcall_self += at(s).self_s;
    }
    m["apps.upcall_calls"] = static_cast<double>(upcalls);
    m["apps.upcall_self_s"] = upcall_self;
  }
  return out;
}

// --- Self-test: the decorator forwards without perturbing ----------------

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("selftest FAIL: %s\n", what);
      ++failures;
    }
  };
  const std::shared_ptr<const net::Topology> bare[] = {
      gatech(Scale::kTiny),
      std::make_shared<net::CorpNetTopology>(net::CorpNetParams{})};
  for (const auto& topo : bare) {
    perfbench::SpanRegistry reg;
    perfbench::TimedTopology timed(topo, reg);
    expect(timed.router_count() == topo->router_count(), "router_count");
    expect(timed.name() == topo->name(), "name");
    expect(timed.min_positive_delay() == topo->min_positive_delay(),
           "min_positive_delay");
    std::uint64_t state = 12345;
    const int n = topo->router_count();
    int pairs = 0;
    for (int i = 0; i < 2000; ++i) {
      state = mix64(state);
      const int a = static_cast<int>(state % static_cast<std::uint64_t>(n));
      const int b = static_cast<int>((state >> 32) %
                                     static_cast<std::uint64_t>(n));
      expect(timed.delay(a, b) == topo->delay(a, b), "delay(a, b)");
      expect(timed.attachable(a) == topo->attachable(a), "attachable");
      ++pairs;
    }
    const std::vector<int> ga{0, 1};
    const std::vector<int> gb{n - 2, n - 1};
    expect(timed.min_delay_between(ga, gb) == topo->min_delay_between(ga, gb),
           "min_delay_between");
    const auto sa = timed.delay_cache_stats();
    const auto sb = topo->delay_cache_stats();
    expect(sa.landmark_mode == sb.landmark_mode &&
               sa.oracle_bytes == sb.oracle_bytes,
           "delay_cache_stats");
    const auto tot = reg.totals();
    expect(tot[static_cast<int>(perfbench::Span::kDelay)].calls ==
               static_cast<std::uint64_t>(pairs),
           "delay span count");
    std::printf("selftest: %s: %d sampled router pairs agree\n",
                topo->name().c_str(), pairs);
  }
  // Nested spans: a child's time is excluded from its parent's self time.
  {
    perfbench::SpanRegistry reg;
    {
      perfbench::SpanRegistry::Scope outer(reg, perfbench::Span::kAppDeliver);
      perfbench::SpanRegistry::Scope inner(reg, perfbench::Span::kDelay);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const auto tot = reg.totals();
    const auto& outer = tot[static_cast<int>(perfbench::Span::kAppDeliver)];
    const auto& inner = tot[static_cast<int>(perfbench::Span::kDelay)];
    expect(inner.total_s >= 0.004, "inner span measured");
    expect(outer.self_s < outer.total_s - 0.9 * inner.total_s,
           "nested span excluded from parent self time");
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') std::putchar('\\');
    std::putchar(ch);
  }
  std::putchar('"');
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <gnutella|squirrel|poisson_s2> "
               "--seed <n> [--trace 0|1] [--scale full|tiny]\n"
               "       %s --selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  Scale scale = Scale::kFull;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") return selftest();
    if (!has_value) return usage(argv[0]);
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        return usage(argv[0]);
      }
      try {
        seed = std::stoull(v);
      } catch (const std::out_of_range&) {
        return usage(argv[0]);
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage(argv[0]);
      traced = v == "1";
    } else if (a == "--scale") {
      if (v != "full" && v != "tiny") return usage(argv[0]);
      scale = v == "tiny" ? Scale::kTiny : Scale::kFull;
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty()) return usage(argv[0]);

  Output out;
  try {
    // The host-speed probe brackets the whole repetition on this thread;
    // run.py divides the repetition's times by the mean of the two.
    const double probe_before_s = perfbench::host_probe_s();
    out = run_workload(workload, seed, scale, traced);
    out.metrics["host.probe_s"] =
        0.5 * (probe_before_s + perfbench::host_probe_s());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_engine: %s\n", e.what());
    return 2;
  }
  for (const auto& v : out.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  std::printf("digest %016llx  events %.0f  run_s %.3f  setup_s %.3f\n",
              static_cast<unsigned long long>(out.digest),
              out.metrics["sim.events"], out.metrics["run_s"],
              out.metrics["setup_s"]);

  std::printf("{\"workload\": ");
  print_json_string(workload);
  std::printf(", \"seed\": %llu, \"traced\": %s, \"digest\": \"%016llx\", "
              "\"attempted\": %llu, \"failed\": %llu, \"violations\": [",
              static_cast<unsigned long long>(seed), traced ? "true" : "false",
              static_cast<unsigned long long>(out.digest),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.violations.size(); ++i) {
    if (i > 0) std::printf(", ");
    print_json_string(out.violations[i]);
  }
  std::printf("], \"absent\": {");
  bool first = true;
  for (const auto& [k, why] : out.absent) {
    std::printf("%s", first ? "" : ", ");
    print_json_string(k);
    std::printf(": ");
    print_json_string(why);
    first = false;
  }
  std::printf("}, \"host\": {\"cores\": %u, \"build_type\": ",
              std::thread::hardware_concurrency());
  print_json_string(PB_BUILD_TYPE);
  std::printf(", \"compiler\": ");
  print_json_string(__VERSION__);
  std::printf("}, \"metrics\": {");
  first = true;
  for (const auto& [k, v] : out.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(),
                std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::printf("}}\n");
  return out.violations.empty() ? 0 : 1;
}
