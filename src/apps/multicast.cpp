#include "apps/multicast.hpp"

namespace mspastry::apps {

using AppNode = overlay::ShardedDriver::AppNode;

namespace {
std::uint64_t dedup_key(NodeId group, std::uint64_t msg_id) {
  return std::hash<NodeId>{}(group) ^ (msg_id * 0x9e3779b97f4a7c15ull);
}
}  // namespace

void MulticastService::on_run_start(overlay::ShardedDriver& driver,
                                    std::size_t shards) {
  driver_ = &driver;
  shards_.assign(shards, ShardState{});
}

MulticastService::Stats MulticastService::stats() const {
  Stats total;
  for (const ShardState& st : shards_) {
    total.subscribes += st.stats.subscribes;
    total.publishes += st.stats.publishes;
    total.deliveries += st.stats.deliveries;
    total.forwards += st.stats.forwards;
  }
  return total;
}

void MulticastService::subscribe(net::Address member, NodeId group) {
  if (const auto node = driver_->app_node(member)) subscribe(*node, group);
}

void MulticastService::subscribe(const AppNode& node, NodeId group) {
  ShardState& st = shards_[node.shard()];
  ++st.stats.subscribes;
  st.state[node.self()][group].member = true;
  // A member's first subscription starts its soft-state refresh timer.
  if (refresh_interval_ > 0 && st.refreshing.insert(node.self()).second) {
    node.schedule(refresh_interval_, [this, node] { refresh_tick(node); });
  }
  auto data = pastry::make_msg<SubscribeData>(node.pool());
  data->group = group;
  data->member = node.self();
  node.issue_lookup(group, 0, data);
}

void MulticastService::refresh_tick(const AppNode& node) {
  node.schedule(refresh_interval_, [this, node] { refresh_tick(node); });
  // Snapshot first: subscribing routes lookups, whose upcalls touch state.
  std::vector<NodeId> groups;
  for (const auto& [group, gs] : shards_[node.shard()].state[node.self()]) {
    if (gs.member) groups.push_back(group);
  }
  for (const NodeId group : groups) subscribe(node, group);
}

void MulticastService::publish(net::Address via, NodeId group,
                               std::uint64_t msg_id) {
  const auto node = driver_->app_node(via);
  if (!node) return;
  ++shards_[node->shard()].stats.publishes;
  auto data = pastry::make_msg<PublishData>(node->pool());
  data->group = group;
  data->msg_id = msg_id;
  node->issue_lookup(group, msg_id, data);
}

const MulticastService::GroupState* MulticastService::find(
    net::Address node, NodeId group) const {
  for (const ShardState& st : shards_) {
    const auto nit = st.state.find(node);
    if (nit == st.state.end()) continue;
    const auto git = nit->second.find(group);
    return git == nit->second.end() ? nullptr : &git->second;
  }
  return nullptr;
}

std::size_t MulticastService::children_of(net::Address node,
                                          NodeId group) const {
  const GroupState* gs = find(node, group);
  return gs == nullptr ? 0 : gs->children.size();
}

bool MulticastService::is_member(net::Address node, NodeId group) const {
  const GroupState* gs = find(node, group);
  return gs != nullptr && gs->member;
}

bool MulticastService::forward(const AppNode& node, const pastry::LookupMsg& m,
                               const pastry::NodeDescriptor& /*next*/) {
  // Publish lookups always continue to the root.
  const auto* sub = dynamic_cast<const SubscribeData*>(m.app_data.get());
  if (sub == nullptr) return false;
  // Origin hop: the member is routing its own subscribe; nothing to
  // splice yet (m.sender is stamped only on transmission).
  const net::Address self = node.self();
  if (!m.sender.valid() || m.sender.addr == self) return false;
  GroupState& gs = shards_[node.shard()].state[self][sub->group];
  const bool was_in_tree = gs.in_tree || gs.member;
  gs.children.insert(m.sender.addr);
  if (was_in_tree) return true;  // already in the tree: absorb the join
  gs.in_tree = true;  // this node now forwards for the group
  return false;
}

void MulticastService::deliver(const AppNode& node,
                               const pastry::LookupMsg& m) {
  if (const auto* sub = dynamic_cast<const SubscribeData*>(m.app_data.get())) {
    const net::Address self = node.self();
    GroupState& gs = shards_[node.shard()].state[self][sub->group];
    gs.in_tree = true;  // the rendezvous root anchors the tree
    if (m.sender.valid() && m.sender.addr != self) {
      gs.children.insert(m.sender.addr);
    }
    return;
  }
  if (const auto* pub = dynamic_cast<const PublishData*>(m.app_data.get())) {
    disseminate(node, pub->group, pub->msg_id);
  }
}

void MulticastService::disseminate(const AppNode& node, NodeId group,
                                   std::uint64_t msg_id) {
  ShardState& st = shards_[node.shard()];
  const net::Address self = node.self();
  if (!st.seen[self].insert(dedup_key(group, msg_id)).second) return;
  const GroupState& gs = st.state[self][group];
  if (gs.member) {
    ++st.stats.deliveries;
    if (on_message) on_message(self, group, msg_id);
  }
  for (const net::Address child : gs.children) {
    auto data = pastry::make_msg<TreeData>(node.pool());
    data->group = group;
    data->msg_id = msg_id;
    ++st.stats.forwards;
    node.send_packet(child, data);
  }
}

void MulticastService::packet(const AppNode& node, net::Address /*from*/,
                              const net::PacketPtr& p) {
  if (const auto* tree = dynamic_cast<const TreeData*>(p.get())) {
    disseminate(node, tree->group, tree->msg_id);
  }
}

}  // namespace mspastry::apps
