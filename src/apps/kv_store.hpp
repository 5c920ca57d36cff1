#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "overlay/sharded_driver.hpp"

namespace mspastry::apps {

/// A PAST-like replicated key-value store on top of MSPastry: values live
/// at the key's root node and are replicated to the nearest leaf-set
/// neighbours, so they survive root failures (the archival-storage use
/// case the paper's introduction cites for consistent routing).
///
/// Attach with ShardedDriver::attach_app. Stores, pending requests and
/// counters are per shard; callbacks run on the requester's shard.
class KvStoreService final : public overlay::ShardedApp {
 public:
  /// `replicas` additional copies beyond the root (spread over the
  /// closest leaf-set neighbours, half per side).
  explicit KvStoreService(int replicas = 4) : replicas_(replicas) {}

  using PutCallback = std::function<void(bool ok)>;
  using GetCallback = std::function<void(bool found, const std::string&)>;

  /// Store key -> value, initiated from live node `via` (between runs).
  std::uint64_t put(net::Address via, const std::string& key,
                    std::string value, PutCallback done = {});

  /// Fetch a value, initiated from live node `via` (between runs).
  std::uint64_t get(net::Address via, const std::string& key,
                    GetCallback done = {});

  struct Stats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t get_hits = 0;
    std::uint64_t get_misses = 0;
    std::uint64_t replicas_stored = 0;
  };
  /// Summed over shards.
  Stats stats() const;

  /// Number of objects held by a node (root copies + replicas).
  std::size_t stored_on(net::Address a) const;

  /// Enable PAST-like replica maintenance: every `interval`, each node
  /// holding objects scans its store; for every object it believes it is
  /// the root of, it re-replicates to its current leaf-set neighbours.
  /// This keeps the replica set aligned with the ring as nodes come and
  /// go, so data survives arbitrarily many sequential root failures (not
  /// just the first). Call once, before storing anything.
  void enable_repair(SimDuration interval) { repair_interval_ = interval; }

  // ShardedApp --------------------------------------------------------------
  void on_run_start(overlay::ShardedDriver& driver,
                    std::size_t shards) override;
  double workload_rate(SimTime) const override { return 0.0; }
  void workload_tick(const overlay::ShardedDriver::AppNode&) override {}
  void deliver(const overlay::ShardedDriver::AppNode& node,
               const pastry::LookupMsg& m) override;
  void packet(const overlay::ShardedDriver::AppNode& node, net::Address from,
              const net::PacketPtr& p) override;

 private:
  struct PutData final : pastry::CloneableAppData {
    std::uint64_t op = 0;
    NodeId key_id;
    std::string value;
    net::Address requester = net::kNullAddress;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
      return pool.make<PutData>(*this);
    }
  };
  struct GetData final : pastry::CloneableAppData {
    std::uint64_t op = 0;
    NodeId key_id;
    net::Address requester = net::kNullAddress;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
      return pool.make<GetData>(*this);
    }
  };
  struct ReplicateMsg final : pastry::CloneableAppData {
    NodeId key_id;
    std::string value;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
      return pool.make<ReplicateMsg>(*this);
    }
  };
  struct ResponseMsg final : pastry::CloneableAppData {
    std::uint64_t op = 0;
    bool is_put = false;
    bool found = false;
    std::string value;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
      return pool.make<ResponseMsg>(*this);
    }
  };

  struct Pending {
    PutCallback put_cb;
    GetCallback get_cb;
  };

  struct ShardState {
    /// Per-session object stores (a crashed node loses its store; that is
    /// the point of replication).
    std::unordered_map<net::Address, std::unordered_map<NodeId, std::string>>
        stores;
    std::unordered_map<std::uint64_t, Pending> pending;  ///< by op
    std::unordered_set<net::Address> repairing;  ///< nodes with a timer
    Stats stats;
  };

  void store(const overlay::ShardedDriver::AppNode& node, NodeId key_id,
             const std::string& value);
  void replicate(const overlay::ShardedDriver::AppNode& node, NodeId key_id,
                 const std::string& value);
  void repair_tick(const overlay::ShardedDriver::AppNode& node);

  overlay::ShardedDriver* driver_ = nullptr;
  int replicas_;
  SimDuration repair_interval_ = 0;  // 0 = repair off
  std::uint64_t next_op_ = 1;  ///< put/get run between runs, in order
  std::vector<ShardState> shards_;
};

}  // namespace mspastry::apps
