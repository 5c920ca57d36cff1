// Squirrel-like decentralized web cache on MSPastry (Iyer, Rowstron,
// Druschel — the application used to validate the paper's simulator,
// Figure 8): each machine runs a proxy, URLs are hashed to keys, and the
// key's root node is the object's home cache.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/sharded_web_cache.hpp"
#include "common/stats.hpp"
#include "net/corpnet.hpp"
#include "overlay/sharded_driver.hpp"

using namespace mspastry;

int main() {
  // A corporate network, as in the Squirrel deployment.
  auto topology =
      std::make_shared<net::CorpNetTopology>(net::CorpNetParams{});

  // 52 desktop proxies (as in the MSR deployment) join 2 s apart, then
  // the office browses for one simulated hour.
  constexpr int kProxies = 52;
  std::vector<trace::ChurnEvent> joins;
  for (int i = 0; i < kProxies; ++i) {
    joins.push_back({seconds(2) * i, i, trace::ChurnEventType::kJoin});
  }
  const trace::ChurnTrace trace(std::move(joins), "office");

  overlay::DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;  // web requests drive all lookups
  cfg.warmup = 0;
  cfg.seed = 3;

  // Zipf-ish popularity over 500 pages, ~0.5 requests/s across the office
  // at a flat rate (every hour counts as office hours).
  apps::ShardedWebCacheService::Params params;
  params.origin_delay = milliseconds(200);
  params.workload.peak_rate_per_node = 0.5 / kProxies;
  params.workload.off_hours_floor = 1.0;
  params.workload.weekend_factor = 1.0;
  params.workload.url_count = 500;
  apps::ShardedWebCacheService cache(params);

  overlay::ShardedDriver driver(topology, net::NetworkConfig{}, cfg, 1);
  driver.attach_app(&cache);

  std::printf("starting %d desktop proxies, then one hour of browsing...\n",
              kProxies);
  driver.run_trace(trace, hours(1));

  const auto s = cache.stats();
  SampleSet latency;
  for (const double x : driver.app_latency_samples()) latency.add(x);
  std::printf("\nresults\n");
  std::printf("  requests:        %llu\n", (unsigned long long)s.requests);
  std::printf("  cache hits:      %llu (%.0f%%)\n",
              (unsigned long long)s.hits,
              s.requests ? 100.0 * s.hits / s.requests : 0.0);
  std::printf("  origin fetches:  %llu\n", (unsigned long long)s.misses);
  std::printf("  responses:       %llu\n", (unsigned long long)s.responses);
  std::printf("  mean latency:    %.0f ms (hit path avoids the %.0f ms origin fetch)\n",
              latency.mean() * 1000.0,
              to_seconds(params.origin_delay) * 1000.0);
  std::printf("  overlay traffic: %.2f msgs/s/node\n",
              driver.metrics().total_traffic_rate());

  // Where did the objects land? Count per-node cache occupancy spread.
  int holders = 0;
  std::size_t largest = 0;
  for (net::Address a = 0; a < kProxies; ++a) {
    const auto n = cache.cached_on(a);
    if (n > 0) ++holders;
    largest = std::max(largest, n);
  }
  std::printf("  cache spread:    %d nodes hold objects (max %zu per node)\n",
              holders, largest);
  return s.responses == s.requests ? 0 : 1;
}
