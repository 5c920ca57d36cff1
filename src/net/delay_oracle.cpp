#include "net/delay_oracle.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <utility>

namespace mspastry::net {

namespace {

/// Bytes held by a vector's buffer (capacity, matching what the allocator
/// actually reserved).
template <typename T>
std::uint64_t buffer_bytes(const std::vector<T>& v) {
  return static_cast<std::uint64_t>(v.capacity()) * sizeof(T);
}

}  // namespace

DelayOracle::DelayOracle(const RoutedGraph& graph, std::vector<int> cluster_of,
                         const DelayOracleParams& params)
    : graph_(graph), cluster_of_(std::move(cluster_of)), params_(params) {
  assert(static_cast<int>(cluster_of_.size()) == graph_.router_count());
  for (int c : cluster_of_) {
    assert(c >= 0);
    cluster_count_ = std::max(cluster_count_, c + 1);
  }
  switch (params_.mode) {
    case DelayOracleMode::kExact:
      landmark_mode_ = false;
      break;
    case DelayOracleMode::kLandmark:
      landmark_mode_ = true;
      break;
    case DelayOracleMode::kAuto:
      landmark_mode_ = graph_.router_count() > kExactThreshold;
      break;
  }
  if (landmark_mode_) build_landmark_tables();
}

void DelayOracle::build_landmark_tables() {
  const int n = graph_.router_count();
  const int c_count = cluster_count_;

  members_.assign(static_cast<std::size_t>(c_count), {});
  index_in_cluster_.assign(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    auto& list = members_[static_cast<std::size_t>(cluster_of_[r])];
    index_in_cluster_[static_cast<std::size_t>(r)] =
        static_cast<int>(list.size());
    list.push_back(r);
  }

  // Border routers: any router with a link leaving its cluster. Every
  // inter-cluster path crosses one on each side, which is what makes both
  // the landmark synthesis and the per-cluster-pair lower bound work.
  std::vector<std::vector<int>> borders(static_cast<std::size_t>(c_count));
  for (int r = 0; r < n; ++r) {
    const int cr = cluster_of_[static_cast<std::size_t>(r)];
    for (const RoutedGraph::Edge& e : graph_.edges(r)) {
      if (cluster_of_[static_cast<std::size_t>(e.to)] != cr) {
        borders[static_cast<std::size_t>(cr)].push_back(r);
        break;
      }
    }
  }

  // Landmarks: up to landmarks_per_cluster borders per cluster, evenly
  // spaced through the border list so multi-border clusters keep spatially
  // spread coverage rather than the first k by index.
  const int k = std::max(1, params_.landmarks_per_cluster);
  cluster_landmark_first_.assign(static_cast<std::size_t>(c_count) + 1, 0);
  for (int c = 0; c < c_count; ++c) {
    const auto& blist = borders[static_cast<std::size_t>(c)];
    const int take = std::min<int>(k, static_cast<int>(blist.size()));
    for (int i = 0; i < take; ++i) {
      const std::size_t pick =
          (take == static_cast<int>(blist.size()))
              ? static_cast<std::size_t>(i)
              : static_cast<std::size_t>(i) * blist.size() /
                    static_cast<std::size_t>(take);
      landmarks_.push_back(blist[pick]);
    }
    cluster_landmark_first_[static_cast<std::size_t>(c) + 1] =
        static_cast<int>(landmarks_.size());
  }
  const int l_count = static_cast<int>(landmarks_.size());

  // Global landmark index per router (or -1), to fill the landmark-pair
  // matrix from border rows in O(1) per entry.
  std::vector<int> landmark_index(static_cast<std::size_t>(n), -1);
  for (int gi = 0; gi < l_count; ++gi) {
    landmark_index[static_cast<std::size_t>(landmarks_[gi])] = gi;
  }

  to_landmark_stride_ = k;
  to_landmark_.assign(static_cast<std::size_t>(n) * k, kTimeNever);
  landmark_matrix_.assign(
      static_cast<std::size_t>(l_count) * l_count, kTimeNever);
  pair_lower_bound_.assign(
      static_cast<std::size_t>(c_count) * c_count, kTimeNever);

  // One full-graph Dijkstra per border router (transient row). Each row
  // feeds three tables:
  //  - to_landmark_ columns for the border's own cluster, when it is a
  //    landmark (full-graph distances — synthesis must be free to route
  //    a->L through other clusters if policy routing does);
  //  - the dense landmark-pair matrix;
  //  - the per-cluster-pair lower bound, which takes *all* border pairs,
  //    not just landmark pairs, so it stays a true bound even when a
  //    cluster has more borders than landmarks.
  std::vector<SimDuration> row_delay;
  std::vector<int> row_hops;
  for (int c = 0; c < c_count; ++c) {
    for (int b : borders[static_cast<std::size_t>(c)]) {
      graph_.compute_row(b, row_delay, row_hops);

      const int gi = landmark_index[static_cast<std::size_t>(b)];
      if (gi >= 0) {
        const int slot = gi - cluster_landmark_first_[static_cast<std::size_t>(c)];
        for (int r : members_[static_cast<std::size_t>(c)]) {
          to_landmark_[static_cast<std::size_t>(r) * k + slot] =
              row_delay[static_cast<std::size_t>(r)];
        }
        for (int gj = 0; gj < l_count; ++gj) {
          landmark_matrix_[static_cast<std::size_t>(gi) * l_count + gj] =
              row_delay[static_cast<std::size_t>(landmarks_[gj])];
        }
      }

      for (int c2 = 0; c2 < c_count; ++c2) {
        if (c2 == c) continue;
        auto& lb =
            pair_lower_bound_[static_cast<std::size_t>(c) * c_count + c2];
        for (int b2 : borders[static_cast<std::size_t>(c2)]) {
          const SimDuration d = row_delay[static_cast<std::size_t>(b2)];
          if (d < lb) lb = d;
        }
      }
    }
  }

  // Exact intra-cluster distances: Dijkstra restricted to the cluster
  // subgraph, one dense n_c x n_c block per cluster. Local (in-cluster)
  // indices keep the scratch arrays at cluster size.
  intra_offset_.assign(static_cast<std::size_t>(c_count) + 1, 0);
  for (int c = 0; c < c_count; ++c) {
    const std::size_t nc = members_[static_cast<std::size_t>(c)].size();
    intra_offset_[static_cast<std::size_t>(c) + 1] =
        intra_offset_[static_cast<std::size_t>(c)] + nc * nc;
  }
  intra_.assign(intra_offset_.back(), kTimeNever);

  std::vector<double> dist;
  std::vector<SimDuration> dly;
  using Item = std::pair<double, int>;  // (policy weight, local index)
  for (int c = 0; c < c_count; ++c) {
    const auto& list = members_[static_cast<std::size_t>(c)];
    const int nc = static_cast<int>(list.size());
    const std::size_t base = intra_offset_[static_cast<std::size_t>(c)];
    for (int s = 0; s < nc; ++s) {
      dist.assign(static_cast<std::size_t>(nc),
                  std::numeric_limits<double>::infinity());
      dly.assign(static_cast<std::size_t>(nc), kTimeNever);
      std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
      dist[static_cast<std::size_t>(s)] = 0.0;
      dly[static_cast<std::size_t>(s)] = 0;
      pq.emplace(0.0, s);
      while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d > dist[static_cast<std::size_t>(u)]) continue;
        for (const RoutedGraph::Edge& e :
             graph_.edges(list[static_cast<std::size_t>(u)])) {
          if (cluster_of_[static_cast<std::size_t>(e.to)] != c) continue;
          const int v = index_in_cluster_[static_cast<std::size_t>(e.to)];
          const double nd = d + e.weight;
          if (nd < dist[static_cast<std::size_t>(v)]) {
            dist[static_cast<std::size_t>(v)] = nd;
            dly[static_cast<std::size_t>(v)] =
                dly[static_cast<std::size_t>(u)] + e.delay;
            pq.emplace(nd, v);
          }
        }
      }
      for (int t = 0; t < nc; ++t) {
        intra_[base + static_cast<std::size_t>(s) * nc + t] =
            dly[static_cast<std::size_t>(t)];
      }
    }
  }
}

SimDuration DelayOracle::intra_delay(int a, int b) const {
  const int c = cluster_of_[static_cast<std::size_t>(a)];
  const std::size_t nc = members_[static_cast<std::size_t>(c)].size();
  const std::size_t ia =
      static_cast<std::size_t>(index_in_cluster_[static_cast<std::size_t>(a)]);
  const std::size_t ib =
      static_cast<std::size_t>(index_in_cluster_[static_cast<std::size_t>(b)]);
  return intra_[intra_offset_[static_cast<std::size_t>(c)] + ia * nc + ib];
}

SimDuration DelayOracle::delay(int a, int b) const {
  assert(a >= 0 && a < graph_.router_count());
  assert(b >= 0 && b < graph_.router_count());
  if (a == b) return 0;
  if (!landmark_mode_) return graph_.delay(a, b);

  const int ca = cluster_of_[static_cast<std::size_t>(a)];
  const int cb = cluster_of_[static_cast<std::size_t>(b)];
  if (ca == cb) return intra_delay(a, b);

  const int l_count = static_cast<int>(landmarks_.size());
  const int fa = cluster_landmark_first_[static_cast<std::size_t>(ca)];
  const int na = cluster_landmark_first_[static_cast<std::size_t>(ca) + 1] - fa;
  const int fb = cluster_landmark_first_[static_cast<std::size_t>(cb)];
  const int nb = cluster_landmark_first_[static_cast<std::size_t>(cb) + 1] - fb;

  SimDuration best = kTimeNever;
  const SimDuration* ta =
      &to_landmark_[static_cast<std::size_t>(a) * to_landmark_stride_];
  const SimDuration* tb =
      &to_landmark_[static_cast<std::size_t>(b) * to_landmark_stride_];
  for (int i = 0; i < na; ++i) {
    if (ta[i] == kTimeNever) continue;
    const SimDuration* mid =
        &landmark_matrix_[static_cast<std::size_t>(fa + i) * l_count + fb];
    for (int j = 0; j < nb; ++j) {
      if (tb[j] == kTimeNever || mid[j] == kTimeNever) continue;
      const SimDuration cand = ta[i] + mid[j] + tb[j];
      if (cand < best) best = cand;
    }
  }
  return best;
}

SimDuration DelayOracle::cluster_pair_lower_bound(int ca, int cb) const {
  assert(landmark_mode_);
  assert(ca != cb);
  return pair_lower_bound_[static_cast<std::size_t>(ca) * cluster_count_ + cb];
}

SimDuration DelayOracle::min_delay_between(std::span<const int> a,
                                           std::span<const int> b) const {
  SimDuration best = kTimeNever;
  if (!landmark_mode_) {
    for (int ra : a) {
      for (int rb : b) {
        if (ra == rb) continue;
        const SimDuration d = graph_.delay(ra, rb);
        if (d < best) best = d;
      }
    }
    return best;
  }

  // Distinct-cluster pairs answer from the dense border-pair matrix;
  // clusters straddling both groups (rare — shard partitions are
  // router-contiguous) fall back to exact intra distances.
  std::vector<char> in_a(static_cast<std::size_t>(cluster_count_), 0);
  std::vector<char> in_b(static_cast<std::size_t>(cluster_count_), 0);
  for (int ra : a) in_a[static_cast<std::size_t>(cluster_of_[ra])] = 1;
  for (int rb : b) in_b[static_cast<std::size_t>(cluster_of_[rb])] = 1;
  for (int ca = 0; ca < cluster_count_; ++ca) {
    if (!in_a[static_cast<std::size_t>(ca)]) continue;
    for (int cb = 0; cb < cluster_count_; ++cb) {
      if (!in_b[static_cast<std::size_t>(cb)] || ca == cb) continue;
      const SimDuration d = cluster_pair_lower_bound(ca, cb);
      if (d < best) best = d;
    }
  }
  for (int ra : a) {
    const int ca = cluster_of_[static_cast<std::size_t>(ra)];
    if (!in_b[static_cast<std::size_t>(ca)]) continue;
    for (int rb : b) {
      if (rb == ra || cluster_of_[static_cast<std::size_t>(rb)] != ca) continue;
      const SimDuration d = intra_delay(ra, rb);
      if (d < best) best = d;
    }
  }
  return best;
}

DelayCacheStats DelayOracle::stats() const {
  DelayCacheStats s;
  s.landmark_mode = landmark_mode_;
  s.row_cache_bytes = graph_.cache_bytes();
  s.cached_rows = graph_.cached_rows();
  if (!landmark_mode_) return s;
  s.clusters = cluster_count_;
  s.landmarks = static_cast<int>(landmarks_.size());
  s.oracle_bytes = buffer_bytes(to_landmark_) + buffer_bytes(landmark_matrix_) +
                   buffer_bytes(intra_) + buffer_bytes(pair_lower_bound_) +
                   buffer_bytes(cluster_of_) + buffer_bytes(index_in_cluster_) +
                   buffer_bytes(landmarks_) +
                   buffer_bytes(cluster_landmark_first_) +
                   buffer_bytes(intra_offset_);
  for (const auto& m : members_) s.oracle_bytes += buffer_bytes(m);
  return s;
}

}  // namespace mspastry::net
