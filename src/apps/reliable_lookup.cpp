#include "apps/reliable_lookup.hpp"

#include <algorithm>

namespace mspastry::apps {

using AppNode = overlay::ShardedDriver::AppNode;

ReliableLookupService::ReliableLookupService()
    : ReliableLookupService(Params{}) {}

void ReliableLookupService::on_run_start(overlay::ShardedDriver& driver,
                                         std::size_t shards) {
  driver_ = &driver;
  shards_.assign(shards, ShardState{});
}

ReliableLookupService::Stats ReliableLookupService::stats() const {
  Stats total;
  for (const ShardState& st : shards_) {
    total.requests += st.stats.requests;
    total.acked += st.stats.acked;
    total.retransmissions += st.stats.retransmissions;
    total.failures += st.stats.failures;
  }
  return total;
}

std::uint64_t ReliableLookupService::lookup(net::Address via, NodeId key,
                                            Callback done) {
  const auto node = driver_->app_node(via);
  if (!node) return 0;
  ShardState& st = shards_[node->shard()];
  const std::uint64_t op = next_op_++;
  Pending p;
  p.via = via;
  p.key = key;
  p.done = std::move(done);
  st.pending.emplace(op, std::move(p));
  ++st.stats.requests;
  transmit(*node, op);
  return op;
}

void ReliableLookupService::transmit(const AppNode& node, std::uint64_t op) {
  const Pending& p = shards_[node.shard()].pending.at(op);
  auto data = pastry::make_msg<RequestData>(node.pool());
  data->op = op;
  data->requester = p.via;
  node.issue_lookup(p.key, op, data);
  // Dropped with the node; a request that is answered first finds no
  // pending entry when this fires.
  node.schedule(params_.retry_after,
                [this, node, op] { on_timeout(node, op); });
}

void ReliableLookupService::on_timeout(const AppNode& node, std::uint64_t op) {
  ShardState& st = shards_[node.shard()];
  const auto it = st.pending.find(op);
  if (it == st.pending.end()) return;
  if (it->second.retries >= params_.max_retries) {
    fail(st, op);
    return;
  }
  it->second.retries += 1;
  ++st.stats.retransmissions;
  transmit(node, op);
}

void ReliableLookupService::fail(ShardState& st, std::uint64_t op) {
  const auto it = st.pending.find(op);
  Pending finished = std::move(it->second);
  st.pending.erase(it);
  ++st.stats.failures;
  if (finished.done) finished.done(false, net::kNullAddress);
}

void ReliableLookupService::node_down(const AppNode& node) {
  // The requester died: its requests die with it, in op order.
  ShardState& st = shards_[node.shard()];
  std::vector<std::uint64_t> ops;
  for (const auto& [op, p] : st.pending) {
    if (p.via == node.self()) ops.push_back(op);
  }
  std::sort(ops.begin(), ops.end());
  for (const std::uint64_t op : ops) fail(st, op);
}

void ReliableLookupService::deliver(const AppNode& node,
                                    const pastry::LookupMsg& m) {
  const auto* req = dynamic_cast<const RequestData*>(m.app_data.get());
  if (req == nullptr) return;
  auto ack = pastry::make_msg<E2eAck>(node.pool());
  ack->op = req->op;
  node.send_packet(req->requester, ack);
}

void ReliableLookupService::packet(const AppNode& node, net::Address from,
                                   const net::PacketPtr& pkt) {
  const auto* ack = dynamic_cast<const E2eAck*>(pkt.get());
  if (ack == nullptr) return;
  ShardState& st = shards_[node.shard()];
  const auto it = st.pending.find(ack->op);
  if (it == st.pending.end()) return;  // duplicate ack
  Pending p = std::move(it->second);
  st.pending.erase(it);
  ++st.stats.acked;
  if (p.done) p.done(true, from);
}

}  // namespace mspastry::apps
