#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "overlay/sharded_driver.hpp"

namespace mspastry::apps {

/// A Scribe-like application-level multicast system (Castro, Druschel,
/// Kermarrec, Rowstron): a group is named by a key; the key's root is the
/// rendezvous point. Subscriptions are routed toward the root, and each
/// node along the route splices itself into the tree (via the common-API
/// forward() upcall), recording the previous hop as a child. Published
/// messages flow from the root down the reverse-path tree.
///
/// Tree state is soft: members should re-subscribe periodically (as in
/// Scribe) so the tree heals around failed forwarders.
///
/// Attach with ShardedDriver::attach_app. Tree state and counters are per
/// shard; on_message runs on the member's shard.
class MulticastService final : public overlay::ShardedApp {
 public:

  static NodeId group_id(const std::string& name) {
    return NodeId::hash_of("group:" + name);
  }

  /// Subscribe the live node at `member` to the group (between runs).
  /// Safe to call repeatedly (soft-state refresh).
  void subscribe(net::Address member, NodeId group);

  /// Enable Scribe's soft-state maintenance: every `interval`, each live
  /// member re-subscribes to each of its groups, healing tree edges that
  /// broke when forwarders failed. Call once, before subscribing.
  void enable_auto_refresh(SimDuration interval) {
    refresh_interval_ = interval;
  }

  /// Publish a message to the group from live node `via` (between runs):
  /// routed to the rendezvous root, then disseminated down the tree.
  void publish(net::Address via, NodeId group, std::uint64_t msg_id);

  /// Invoked once per (member, message) delivery.
  std::function<void(net::Address member, NodeId group, std::uint64_t msg)>
      on_message;

  struct Stats {
    std::uint64_t subscribes = 0;
    std::uint64_t publishes = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t forwards = 0;  ///< tree-edge transmissions
  };
  /// Summed over shards.
  Stats stats() const;

  /// Tree introspection (tests): children of a node for a group.
  std::size_t children_of(net::Address node, NodeId group) const;
  bool is_member(net::Address node, NodeId group) const;

  // ShardedApp --------------------------------------------------------------
  void on_run_start(overlay::ShardedDriver& driver,
                    std::size_t shards) override;
  double workload_rate(SimTime) const override { return 0.0; }
  void workload_tick(const overlay::ShardedDriver::AppNode&) override {}
  void deliver(const overlay::ShardedDriver::AppNode& node,
               const pastry::LookupMsg& m) override;
  bool forward(const overlay::ShardedDriver::AppNode& node,
               const pastry::LookupMsg& m,
               const pastry::NodeDescriptor& next) override;
  void packet(const overlay::ShardedDriver::AppNode& node, net::Address from,
              const net::PacketPtr& p) override;

 private:
  struct SubscribeData final : pastry::CloneableAppData {
    NodeId group;
    net::Address member = net::kNullAddress;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
      return pool.make<SubscribeData>(*this);
    }
  };
  struct PublishData final : pastry::CloneableAppData {
    NodeId group;
    std::uint64_t msg_id = 0;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
      return pool.make<PublishData>(*this);
    }
  };
  struct TreeData final : pastry::CloneableAppData {
    NodeId group;
    std::uint64_t msg_id = 0;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
      return pool.make<TreeData>(*this);
    }
  };

  struct GroupState {
    std::unordered_set<net::Address> children;
    bool member = false;
    bool in_tree = false;  ///< this node forwards for the group
  };

  struct ShardState {
    /// Per-node, per-group forwarding state.
    std::unordered_map<net::Address, std::unordered_map<NodeId, GroupState>>
        state;
    /// Per-node duplicate suppression: (group, msg) pairs already seen.
    std::unordered_map<net::Address, std::unordered_set<std::uint64_t>> seen;
    std::unordered_set<net::Address> refreshing;  ///< members with a timer
    Stats stats;
  };

  void subscribe(const overlay::ShardedDriver::AppNode& node, NodeId group);
  void disseminate(const overlay::ShardedDriver::AppNode& node, NodeId group,
                   std::uint64_t msg_id);
  void refresh_tick(const overlay::ShardedDriver::AppNode& node);
  const GroupState* find(net::Address node, NodeId group) const;

  overlay::ShardedDriver* driver_ = nullptr;
  SimDuration refresh_interval_ = 0;  // 0 = auto-refresh off
  std::vector<ShardState> shards_;
};

}  // namespace mspastry::apps
