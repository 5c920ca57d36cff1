#include "apps/sharded_web_cache.hpp"

#include <algorithm>
#include <cmath>

namespace mspastry::apps {

net::PacketPtr ShardedWebCacheService::RequestData::clone_into(
    pastry::MessagePool& pool) const {
  return pool.make<RequestData>(*this);
}

net::PacketPtr ShardedWebCacheService::ResponseMsg::clone_into(
    pastry::MessagePool& pool) const {
  return pool.make<ResponseMsg>(*this);
}

NodeId ShardedWebCacheService::url_key(int page) {
  return NodeId::hash_of("http://corp/" + std::to_string(std::max(0, page)));
}

ShardedWebCacheService::Stats ShardedWebCacheService::stats() const {
  Stats total;
  for (const ShardState& s : shards_) {
    total.requests += s.stats.requests;
    total.hits += s.stats.hits;
    total.misses += s.stats.misses;
    total.responses += s.stats.responses;
  }
  return total;
}

std::size_t ShardedWebCacheService::cached_total() const {
  std::size_t total = 0;
  for (const ShardState& s : shards_) {
    for (const auto& [addr, cache] : s.caches) total += cache.size();
  }
  return total;
}

std::size_t ShardedWebCacheService::cached_on(net::Address a) const {
  std::size_t total = 0;
  for (const ShardState& s : shards_) {
    const auto it = s.caches.find(a);
    if (it != s.caches.end()) total += it->second.size();
  }
  return total;
}

void ShardedWebCacheService::on_run_start(overlay::ShardedDriver&,
                                          std::size_t shards) {
  shards_.assign(shards, ShardState{});
}

double ShardedWebCacheService::workload_rate(SimTime t) const {
  return shape_.rate_at(t);
}

void ShardedWebCacheService::workload_tick(
    const overlay::ShardedDriver::AppNode& node) {
  ShardState& st = shards_[node.shard()];
  // Same Zipf-like draw as WebWorkload::pick_url, but from the node's own
  // stream: the URL sequence a node requests is shard-count-invariant.
  const double u = node.rng().uniform();
  const int page = static_cast<int>(std::pow(
                       static_cast<double>(params_.workload.url_count), u)) -
                   1;
  const NodeId key = url_key(page);

  auto data = pastry::make_msg<RequestData>(node.pool());
  // Ops are (requester uid, per-requester seq): unique, and identical at
  // any shard count (a shared next_op_ counter would interleave).
  const auto self = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(node.self()));
  data->op = ((self + 1) << 32) | st.op_seq[node.self()]++;
  data->url_key = key;
  data->requester = node.self();
  st.pending[data->op] = node.now();
  ++st.stats.requests;
  node.issue_lookup(key, data->op, data);
}

void ShardedWebCacheService::respond(
    const overlay::ShardedDriver::AppNode& node, const RequestData& req,
    bool was_cached) {
  auto resp = pastry::make_msg<ResponseMsg>(node.pool());
  resp->op = req.op;
  resp->was_cached = was_cached;
  node.send_packet(req.requester, resp);
}

void ShardedWebCacheService::deliver(
    const overlay::ShardedDriver::AppNode& node, const pastry::LookupMsg& m) {
  auto req = dynamic_pointer_cast<const RequestData>(m.app_data);
  if (!req) return;
  ShardState& st = shards_[node.shard()];
  auto& cache = st.caches[node.self()];
  if (cache.count(req->url_key) > 0) {
    ++st.stats.hits;
    respond(node, *req, /*was_cached=*/true);
    return;
  }
  ++st.stats.misses;
  // Origin fetch: after the simulated delay, cache the object and respond.
  // The AppNode copy stays valid because the callback is liveness-guarded
  // (dropped if this home node dies first).
  node.schedule(params_.origin_delay, [this, node, req] {
    ShardState& s = shards_[node.shard()];
    auto& c = s.caches[node.self()];
    if (params_.capacity > 0 && c.size() >= params_.capacity) {
      c.erase(c.begin());  // crude eviction; enough for simulation
    }
    c.insert(req->url_key);
    respond(node, *req, /*was_cached=*/false);
  });
}

void ShardedWebCacheService::packet(
    const overlay::ShardedDriver::AppNode& node, net::Address /*from*/,
    const net::PacketPtr& packet) {
  auto resp = dynamic_pointer_cast<const ResponseMsg>(packet);
  if (!resp) return;
  ShardState& st = shards_[node.shard()];
  const auto it = st.pending.find(resp->op);
  if (it == st.pending.end()) return;
  node.record_latency(to_seconds(node.now() - it->second));
  st.pending.erase(it);
  ++st.stats.responses;
}

}  // namespace mspastry::apps
