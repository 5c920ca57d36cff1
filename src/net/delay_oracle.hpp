#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/sim_time.hpp"
#include "net/routed_graph.hpp"
#include "net/topology.hpp"

namespace mspastry::net {

/// How the oracle answers delay queries.
enum class DelayOracleMode {
  kAuto,      ///< exact at or below kExactThreshold routers, else landmark
  kExact,     ///< always delegate to the graph's lazy Dijkstra row cache
  kLandmark,  ///< always synthesize from cluster landmarks
};

/// Auto-mode switch point. Exact rows cost O(R) per queried source and
/// O(R^2) worst case; below this they are both cheap and byte-exact, so
/// every existing test/bench configuration (<= ~1200 routers) keeps its
/// digests. Above it the landmark tables win asymptotically.
inline constexpr int kExactThreshold = 2048;

struct DelayOracleParams {
  DelayOracleMode mode = DelayOracleMode::kAuto;

  /// Landmarks per cluster (cap). Border routers — routers with a link
  /// leaving their cluster — are chosen first: every inter-cluster path
  /// must pass through a border on each side, so when a cluster's borders
  /// all fit under the cap, synthesis through them is exact (see below).
  int landmarks_per_cluster = 12;
};

/// Hierarchical landmark delay oracle: answers Topology::delay() for
/// cluster-structured router graphs in O(k^2) time and
/// O(R*k + sum(n_c^2) + L^2 + C^2) memory instead of the O(R^2) a full
/// Dijkstra row cache approaches on large graphs.
///
/// The generators all build *clustered* graphs — transit-stub stub
/// domains, hier-AS autonomous systems, corpnet campuses — where
/// inter-cluster traffic funnels through a few border routers. The oracle
/// exploits that:
///
///  - intra-cluster: exact Dijkstra restricted to the cluster subgraph,
///    stored dense per cluster (sum of n_c^2 entries). For all three
///    generators the policy-shortest path between two routers of a
///    cluster never leaves it (stubs and campuses attach through a single
///    gateway; hier-AS inter-AS weights exceed any intra path), so the
///    restricted answer equals the full-graph one.
///  - inter-cluster: d(a, b) ~= min over landmark pairs of
///    d(a, L_a) + d(L_a, L_b) + d(L_b, b), with d(a, L_a) / d(L_b, b)
///    full-graph distances stored per router (R*k entries) and the
///    landmark-pair matrix dense (L^2 entries). When the true path's exit
///    border of cluster(a) and entry border of cluster(b) are both
///    landmarks, shortest-path subpath decomposition makes the synthesized
///    value exact; only clusters with more borders than the landmark cap
///    contribute error (gated at <= 15% max / <= 5% mean by tests).
///  - per-cluster-pair lower bounds: every path from cluster A to cluster
///    B contains a contiguous segment from a border of A to a border of
///    B, so min over *all* border pairs (not just landmarks) of the exact
///    border-to-border delay lower-bounds every A-to-B delay. Stored as a
///    dense C^2 matrix; min_delay_between() answers from it, which gives
///    the sharded engine per-shard-pair lookahead far wider than the
///    global min-link bound.
///
/// Correctness requirement on the graph: link weights must determine path
/// delays (equal-weight paths have equal delay). All three generators
/// satisfy it — transit-stub and corpnet use weight = delay, hier-AS uses
/// uniform per-hop delay with hop-counting weights — and the decomposition
/// arguments above rely on it.
///
/// Thread safety: construction is single-threaded and eager; afterwards
/// every query is a pure read of immutable tables, so concurrent delay()
/// calls from sharded workers need no synchronisation. In exact mode the
/// oracle delegates to the graph's published-pointer row cache, which
/// handles concurrent first-query fills itself.
class DelayOracle {
 public:
  /// `graph` must outlive the oracle and must not gain links afterwards.
  /// `cluster_of[r]` maps every router to a dense cluster id in [0, C).
  DelayOracle(const RoutedGraph& graph, std::vector<int> cluster_of,
              const DelayOracleParams& params = {});

  bool landmark_mode() const { return landmark_mode_; }
  int cluster_count() const { return cluster_count_; }
  int landmark_count() const { return static_cast<int>(landmarks_.size()); }
  int cluster_of(int router) const {
    return cluster_of_[static_cast<std::size_t>(router)];
  }

  /// One-way delay between two routers; kTimeNever when unreachable.
  SimDuration delay(int a, int b) const;

  /// Lower bound on delay between any router in `a` and any *distinct*
  /// router in `b` (Topology::min_delay_between semantics). Landmark mode
  /// answers from the border-pair matrix (plus exact intra distances when
  /// the groups share a cluster); exact mode takes the true pairwise
  /// minimum. Returns kTimeNever when no cross pair is reachable.
  SimDuration min_delay_between(std::span<const int> a,
                                std::span<const int> b) const;

  /// Exact-delay lower bound for the (ca, cb) cluster pair, ca != cb
  /// (landmark mode only; kTimeNever when the clusters cannot reach each
  /// other). Exposed for tests.
  SimDuration cluster_pair_lower_bound(int ca, int cb) const;

  DelayCacheStats stats() const;

 private:
  void build_landmark_tables();
  SimDuration intra_delay(int a, int b) const;

  const RoutedGraph& graph_;
  std::vector<int> cluster_of_;
  DelayOracleParams params_;
  int cluster_count_ = 0;
  bool landmark_mode_ = false;

  // --- Landmark-mode tables (empty in exact mode) --------------------------
  std::vector<std::vector<int>> members_;   ///< routers per cluster
  std::vector<int> index_in_cluster_;       ///< position within members_
  std::vector<int> landmarks_;              ///< global landmark router ids
  std::vector<int> cluster_landmark_first_; ///< per cluster: offset into
                                            ///< landmarks_ (C+1 entries)
  /// d(r, L) for every router r and each landmark L of r's own cluster,
  /// flat R x landmarks_per_cluster (kTimeNever-padded).
  std::vector<SimDuration> to_landmark_;
  int to_landmark_stride_ = 0;
  /// Dense landmark-pair matrix, L x L.
  std::vector<SimDuration> landmark_matrix_;
  /// Exact intra-cluster distances: per-cluster dense n_c x n_c blocks.
  std::vector<SimDuration> intra_;
  std::vector<std::size_t> intra_offset_;   ///< per cluster, into intra_
  /// C x C min border-pair exact delay (the per-cluster-pair lower bound).
  std::vector<SimDuration> pair_lower_bound_;
};

}  // namespace mspastry::net
