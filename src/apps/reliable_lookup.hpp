#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "overlay/sharded_driver.hpp"

namespace mspastry::apps {

/// End-to-end reliable lookups (Section 3.2: "Applications that require
/// guaranteed delivery can use end-to-end acks and retransmissions"): the
/// requester retransmits a lookup until the key's root acknowledges it
/// directly, surviving even the rare losses that per-hop recovery misses
/// (e.g. a lookup buffered at a node that dies mid-join).
///
/// Attach with ShardedDriver::attach_app. Pending requests and counters
/// are per shard; callbacks run on the requester's shard.
class ReliableLookupService final : public overlay::ShardedApp {
 public:
  struct Params {
    /// Retransmission interval (end-to-end, so much coarser than the
    /// per-hop RTO) and the retry budget before reporting failure.
    SimDuration retry_after = seconds(5);
    int max_retries = 5;
  };

  ReliableLookupService();
  explicit ReliableLookupService(Params params) : params_(params) {}

  /// done(ok, root_address): ok is false after the retry budget runs out
  /// or when the requester dies first.
  using Callback = std::function<void(bool ok, net::Address root)>;

  /// Look `key` up from live node `via` (between runs).
  std::uint64_t lookup(net::Address via, NodeId key, Callback done = {});

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t acked = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t failures = 0;
  };
  /// Summed over shards.
  Stats stats() const;

  // ShardedApp --------------------------------------------------------------
  void on_run_start(overlay::ShardedDriver& driver,
                    std::size_t shards) override;
  double workload_rate(SimTime) const override { return 0.0; }
  void workload_tick(const overlay::ShardedDriver::AppNode&) override {}
  void deliver(const overlay::ShardedDriver::AppNode& node,
               const pastry::LookupMsg& m) override;
  void packet(const overlay::ShardedDriver::AppNode& node, net::Address from,
              const net::PacketPtr& p) override;
  void node_down(const overlay::ShardedDriver::AppNode& node) override;

 private:
  struct RequestData final : pastry::CloneableAppData {
    std::uint64_t op = 0;
    net::Address requester = net::kNullAddress;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
      return pool.make<RequestData>(*this);
    }
  };
  struct E2eAck final : pastry::CloneableAppData {
    std::uint64_t op = 0;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override {
      return pool.make<E2eAck>(*this);
    }
  };

  struct Pending {
    net::Address via = net::kNullAddress;
    NodeId key;
    int retries = 0;
    Callback done;
  };

  struct ShardState {
    std::unordered_map<std::uint64_t, Pending> pending;  ///< by op
    Stats stats;
  };

  void transmit(const overlay::ShardedDriver::AppNode& node,
                std::uint64_t op);
  void on_timeout(const overlay::ShardedDriver::AppNode& node,
                  std::uint64_t op);
  void fail(ShardState& st, std::uint64_t op);

  overlay::ShardedDriver* driver_ = nullptr;
  Params params_;
  std::uint64_t next_op_ = 1;  ///< lookup() runs between runs, in order
  std::vector<ShardState> shards_;
};

}  // namespace mspastry::apps
