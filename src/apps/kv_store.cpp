#include "apps/kv_store.hpp"

namespace mspastry::apps {

using AppNode = overlay::ShardedDriver::AppNode;

void KvStoreService::on_run_start(overlay::ShardedDriver& driver,
                                  std::size_t shards) {
  driver_ = &driver;
  shards_.assign(shards, ShardState{});
}

std::uint64_t KvStoreService::put(net::Address via, const std::string& key,
                                  std::string value, PutCallback done) {
  const auto node = driver_->app_node(via);
  if (!node) return 0;
  ShardState& st = shards_[node->shard()];
  const NodeId key_id = NodeId::hash_of(key);
  auto data = pastry::make_msg<PutData>(node->pool());
  data->op = next_op_++;
  data->key_id = key_id;
  data->value = std::move(value);
  data->requester = via;
  st.pending[data->op] = Pending{std::move(done), {}};
  ++st.stats.puts;
  node->issue_lookup(key_id, data->op, data);
  return data->op;
}

std::uint64_t KvStoreService::get(net::Address via, const std::string& key,
                                  GetCallback done) {
  const auto node = driver_->app_node(via);
  if (!node) return 0;
  ShardState& st = shards_[node->shard()];
  const NodeId key_id = NodeId::hash_of(key);
  auto data = pastry::make_msg<GetData>(node->pool());
  data->op = next_op_++;
  data->key_id = key_id;
  data->requester = via;
  st.pending[data->op] = Pending{{}, std::move(done)};
  ++st.stats.gets;
  node->issue_lookup(key_id, data->op, data);
  return data->op;
}

KvStoreService::Stats KvStoreService::stats() const {
  Stats total;
  for (const ShardState& st : shards_) {
    total.puts += st.stats.puts;
    total.gets += st.stats.gets;
    total.get_hits += st.stats.get_hits;
    total.get_misses += st.stats.get_misses;
    total.replicas_stored += st.stats.replicas_stored;
  }
  return total;
}

std::size_t KvStoreService::stored_on(net::Address a) const {
  for (const ShardState& st : shards_) {
    const auto it = st.stores.find(a);
    if (it != st.stores.end()) return it->second.size();
  }
  return 0;
}

void KvStoreService::store(const AppNode& node, NodeId key_id,
                           const std::string& value) {
  ShardState& st = shards_[node.shard()];
  st.stores[node.self()][key_id] = value;
  // The first object a node holds starts its repair timer.
  if (repair_interval_ > 0 && st.repairing.insert(node.self()).second) {
    node.schedule(repair_interval_, [this, node] { repair_tick(node); });
  }
}

void KvStoreService::repair_tick(const AppNode& node) {
  node.schedule(repair_interval_, [this, node] { repair_tick(node); });
  const pastry::PastryNode& n = node.node();
  if (!n.active()) return;
  // Copy the owned objects first: replicate() sends, and a send to this
  // node's own store may land before the scan ends.
  std::vector<std::pair<NodeId, std::string>> owned;
  for (const auto& [key, value] : shards_[node.shard()].stores[node.self()]) {
    if (n.believes_root_of(key)) owned.emplace_back(key, value);
  }
  for (const auto& [key, value] : owned) replicate(node, key, value);
}

void KvStoreService::replicate(const AppNode& node, NodeId key_id,
                               const std::string& value) {
  // Closest leaf-set neighbours, half per side (the members vector is
  // sorted by clockwise distance: front = successors, back = predecessors).
  const auto& members = node.node().leaf_set().members();
  const int per_side = replicas_ / 2;
  std::vector<net::Address> targets;
  const int sz = static_cast<int>(members.size());
  for (int i = 0; i < per_side && i < sz; ++i) {
    targets.push_back(members[static_cast<std::size_t>(i)].addr);
  }
  for (int i = 0; i < replicas_ - per_side && sz - 1 - i >= per_side; ++i) {
    targets.push_back(members[static_cast<std::size_t>(sz - 1 - i)].addr);
  }
  for (const net::Address t : targets) {
    auto r = pastry::make_msg<ReplicateMsg>(node.pool());
    r->key_id = key_id;
    r->value = value;
    node.send_packet(t, r);
  }
}

void KvStoreService::deliver(const AppNode& node, const pastry::LookupMsg& m) {
  if (const auto* putd = dynamic_cast<const PutData*>(m.app_data.get())) {
    store(node, putd->key_id, putd->value);
    replicate(node, putd->key_id, putd->value);
    auto resp = pastry::make_msg<ResponseMsg>(node.pool());
    resp->op = putd->op;
    resp->is_put = true;
    resp->found = true;
    node.send_packet(putd->requester, resp);
    return;
  }
  if (const auto* getd = dynamic_cast<const GetData*>(m.app_data.get())) {
    auto resp = pastry::make_msg<ResponseMsg>(node.pool());
    resp->op = getd->op;
    resp->is_put = false;
    const auto& store = shards_[node.shard()].stores[node.self()];
    const auto it = store.find(getd->key_id);
    if (it != store.end()) {
      resp->found = true;
      resp->value = it->second;
    }
    node.send_packet(getd->requester, resp);
  }
}

void KvStoreService::packet(const AppNode& node, net::Address /*from*/,
                            const net::PacketPtr& p) {
  if (const auto* rep = dynamic_cast<const ReplicateMsg*>(p.get())) {
    store(node, rep->key_id, rep->value);
    ++shards_[node.shard()].stats.replicas_stored;
    return;
  }
  const auto* resp = dynamic_cast<const ResponseMsg*>(p.get());
  if (resp == nullptr) return;
  ShardState& st = shards_[node.shard()];
  const auto it = st.pending.find(resp->op);
  if (it == st.pending.end()) return;
  Pending pending = std::move(it->second);
  st.pending.erase(it);
  if (resp->is_put) {
    if (pending.put_cb) pending.put_cb(resp->found);
    return;
  }
  if (resp->found) {
    ++st.stats.get_hits;
  } else {
    ++st.stats.get_misses;
  }
  if (pending.get_cb) pending.get_cb(resp->found, resp->value);
}

}  // namespace mspastry::apps
