// Churn observatory: run a Gnutella-like churn trace and watch the
// overlay's self-* machinery react in real time — the failure-rate
// estimate, the self-tuned probing period, leaf-set health and routing
// quality. A compact tour of the paper's Section 4 techniques.

#include <cstdio>
#include <memory>
#include <unordered_map>

#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"
#include "trace/churn_generators.hpp"

using namespace mspastry;

int main() {
  auto topology = std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(4, 3, 4));

  overlay::DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.02;
  cfg.warmup = minutes(10);
  cfg.seed = 5;
  overlay::ShardedDriver driver(topology, net::NetworkConfig{}, cfg, 1);

  // Two hours of Gnutella-like churn over ~150 nodes.
  const auto trace = trace::generate_synthetic(
      trace::gnutella_params(/*node_scale=*/0.075, /*time_scale=*/0.033));
  const auto pop = trace.population_stats();
  std::printf("trace: %d sessions, active population %d..%d, %.1f h\n",
              trace.session_count(), pop.min_active, pop.max_active,
              to_seconds(trace.duration()) / 3600.0);

  // Drive the trace manually — each churn event at its own instant — so
  // we can print a dashboard line every ten simulated minutes.
  std::unordered_map<std::int32_t, net::Address> session;
  const auto& events = trace.events();
  std::size_t next = 0;
  driver.start_workload();

  std::printf(
      "\n  time   active   mu(est)      Trt    leaf-health   RDP(mean)\n");
  for (SimTime t = minutes(10); t <= trace.duration(); t += minutes(10)) {
    for (; next < events.size() && events[next].time <= t; ++next) {
      const auto& e = events[next];
      driver.run_until(e.time);
      if (e.type == trace::ChurnEventType::kJoin) {
        session[e.node] = driver.add_node();
      } else if (const auto it = session.find(e.node);
                 it != session.end()) {
        driver.kill_node(it->second);
        session.erase(it);
      }
    }
    driver.run_until(t);
    // Sample one long-lived witness node.
    double mu = 0.0;
    double trt = 0.0;
    int sampled = 0;
    int healthy_leaves = 0;
    int active = 0;
    for (const auto a : driver.live_addresses()) {
      const auto* n = driver.node(a);
      if (!n->active()) continue;
      ++active;
      if (sampled < 20) {
        mu += n->estimate_failure_rate();
        trt += n->current_trt_seconds();
        ++sampled;
      }
      if (n->leaf_set().full()) ++healthy_leaves;
    }
    if (sampled > 0) {
      mu /= sampled;
      trt /= sampled;
    }
    std::printf("  %4.0fm   %5d    %.2e   %5.0fs     %3d%%        %.2f\n",
                to_seconds(t) / 60.0, active, mu, trt,
                active ? 100 * healthy_leaves / active : 0,
                driver.metrics().mean_rdp());
  }
  driver.finish();

  auto& m = driver.metrics();
  std::printf("\nfinal: %llu lookups, %.2g lost, %.2g misdelivered, "
              "RDP %.2f, %.2f control msgs/s/node, joins p50 %.1fs\n",
              (unsigned long long)m.lookups_issued(), m.loss_rate(),
              m.incorrect_delivery_rate(), m.mean_rdp(),
              m.control_traffic_rate(),
              m.join_latency_samples().quantile(0.5));
  return m.incorrect_delivery_rate() == 0.0 ? 0 : 1;
}
