#pragma once

#include <memory>

#include "common/rng.hpp"
#include "net/delay_oracle.hpp"
#include "net/routed_graph.hpp"
#include "net/topology.hpp"

namespace mspastry::net {

/// Parameters for the transit-stub generator. The defaults reproduce the
/// structure of the paper's GATech topology (generated with the Georgia
/// Tech topology generator): 10 transit domains with an average of 5
/// routers each, 10 stub domains attached per transit router, 10 routers
/// per stub domain — 5050 routers in total.
struct TransitStubParams {
  int transit_domains = 10;
  int routers_per_transit_domain = 5;
  int stub_domains_per_transit_router = 10;
  int routers_per_stub_domain = 10;

  // Link delays (one-way). GT-ITM derives delays from embedding geometry;
  // we draw them from ranges representative of WAN/MAN/LAN links.
  double inter_transit_delay_ms_min = 20.0;
  double inter_transit_delay_ms_max = 60.0;
  double intra_transit_delay_ms_min = 4.0;
  double intra_transit_delay_ms_max = 20.0;
  double transit_stub_delay_ms_min = 2.0;
  double transit_stub_delay_ms_max = 10.0;
  double intra_stub_delay_ms_min = 0.5;
  double intra_stub_delay_ms_max = 3.0;

  std::uint64_t seed = 42;

  /// Delay-oracle configuration. The defaults keep every graph at or below
  /// 2048 routers on byte-exact Dijkstra rows; the paper-size 5050-router
  /// GATech graph (and anything larger) switches to landmark synthesis.
  /// Clustering: the whole transit core is one cluster (transit paths roam
  /// freely across transit domains), each stub domain is its own cluster
  /// (it talks to the world only through its gateway link).
  DelayOracleParams oracle;

  /// A smaller topology with the same shape, for fast test/bench runs.
  static TransitStubParams scaled(int transit_domains, int stubs_per_router,
                                  int routers_per_stub) {
    TransitStubParams p;
    p.transit_domains = transit_domains;
    p.stub_domains_per_transit_router = stubs_per_router;
    p.routers_per_stub_domain = routers_per_stub;
    return p;
  }
};

/// GATech-like transit-stub topology. End nodes attach to stub routers
/// only (via a 1 ms LAN link, NetworkConfig::lan_delay, as in the paper).
class TransitStubTopology final : public Topology {
 public:
  explicit TransitStubTopology(const TransitStubParams& params);

  int router_count() const override { return graph_.router_count(); }
  SimDuration delay(int a, int b) const override {
    return oracle_->delay(a, b);
  }
  std::string name() const override { return "GATech"; }
  bool attachable(int router) const override {
    return router >= first_stub_router_;
  }
  SimDuration min_positive_delay() const override {
    return graph_.min_link_delay();
  }
  SimDuration min_delay_between(std::span<const int> a,
                                std::span<const int> b) const override {
    return oracle_->min_delay_between(a, b);
  }
  DelayCacheStats delay_cache_stats() const override {
    return oracle_->stats();
  }

  int transit_router_count() const { return first_stub_router_; }
  const RoutedGraph& graph() const { return graph_; }
  const DelayOracle& oracle() const { return *oracle_; }

 private:
  RoutedGraph graph_;
  int first_stub_router_;
  std::unique_ptr<DelayOracle> oracle_;  // built after the graph, in the ctor
};

}  // namespace mspastry::net
