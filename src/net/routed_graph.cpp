#include "net/routed_graph.hpp"

#include <cassert>
#include <limits>
#include <memory>
#include <queue>

namespace mspastry::net {

void RoutedGraph::add_link(int a, int b, double weight, SimDuration delay) {
  assert(a >= 0 && a < router_count());
  assert(b >= 0 && b < router_count());
  assert(a != b && weight > 0 && delay > 0);
  adjacency_[a].push_back(Edge{b, weight, delay});
  adjacency_[b].push_back(Edge{a, weight, delay});
  links_ += 2;
  if (delay < min_link_delay_) min_link_delay_ = delay;
  // Paths may change. Generators build before querying, so during a build
  // there is nothing to drop and the sweep over every row slot is skipped.
  if (cached_rows() > 0) clear_cache();
}

void RoutedGraph::clear_cache() {
  for (auto& slot : cache_) {
    delete slot.exchange(nullptr, std::memory_order_relaxed);
  }
  cache_bytes_.store(0, std::memory_order_relaxed);
  cached_rows_.store(0, std::memory_order_relaxed);
}

void RoutedGraph::compute_row(int src, std::vector<SimDuration>& delay_out,
                              std::vector<int>& hops_out) const {
  const int n = router_count();
  assert(src >= 0 && src < n);
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  delay_out.assign(n, kTimeNever);
  hops_out.assign(n, -1);

  using Item = std::pair<double, int>;  // (policy weight, router)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[src] = 0.0;
  delay_out[src] = 0;
  hops_out[src] = 0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (const Edge& e : adjacency_[u]) {
      const double nd = d + e.weight;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        delay_out[e.to] = delay_out[u] + e.delay;
        hops_out[e.to] = hops_out[u] + 1;
        pq.emplace(nd, e.to);
      }
    }
  }
}

const RoutedGraph::Row& RoutedGraph::row_from(int src) const {
  auto& slot = cache_[static_cast<std::size_t>(src)];
  if (const Row* row = slot.load(std::memory_order_acquire)) return *row;

  std::lock_guard<std::mutex> lock(fill_mutex_);
  if (const Row* row = slot.load(std::memory_order_relaxed)) return *row;

  auto row = std::make_unique<Row>();
  compute_row(src, row->delay, row->hops);
  cache_bytes_.fetch_add(
      sizeof(Row) +
          row->delay.capacity() * sizeof(SimDuration) +
          row->hops.capacity() * sizeof(int),
      std::memory_order_relaxed);
  cached_rows_.fetch_add(1, std::memory_order_relaxed);
  Row* published = row.release();
  slot.store(published, std::memory_order_release);
  return *published;
}

SimDuration RoutedGraph::delay(int a, int b) const {
  if (a == b) return 0;
  return row_from(a).delay[b];
}

int RoutedGraph::hops(int a, int b) const {
  if (a == b) return 0;
  return row_from(a).hops[b];
}

bool RoutedGraph::connected() const {
  if (router_count() == 0) return true;
  const Row& row = row_from(0);
  for (int i = 0; i < router_count(); ++i) {
    if (row.delay[i] == kTimeNever) return false;
  }
  return true;
}

}  // namespace mspastry::net
