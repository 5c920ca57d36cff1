#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/web_workload.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry::apps {

/// A Squirrel-like decentralized cooperative web cache (Iyer, Rowstron,
/// Druschel), the application used to validate the paper's simulator
/// (Figure 8): every participating desktop runs a proxy; a web object's
/// URL is hashed to a key, and the key's root node is the object's "home
/// node", responsible for caching it. Requests are routed through MSPastry
/// to the home node; on a miss the home node fetches from the origin
/// server (simulated as a configurable delay) and caches.
///
/// Built on the ShardedDriver's app contract, so its results are
/// byte-identical at any shard count:
///  - all mutable state (caches, pending requests, counters) is replicated
///    per shard and only touched by the owning worker;
///  - request ops are keyed (requester uid, per-requester seq), never a
///    shared counter, so ids are identical at any shard count;
///  - URL popularity draws come from the requesting node's own RNG stream
///    (same Zipf-like sampling formula as WebWorkload::pick_url);
///  - the request rate is WebWorkload::rate_at — a pure function of time —
///    evaluated independently by every shard;
///  - request/response payloads implement pastry::CloneableAppData so they
///    can cross shard boundaries at epoch barriers;
///  - end-to-end latencies flow through AppNode::record_latency into the
///    driver's S-invariant ledger (ShardedDriver::app_latency_samples).
class ShardedWebCacheService final : public overlay::ShardedApp {
 public:
  struct Params {
    /// Simulated origin-server fetch time on a cache miss.
    SimDuration origin_delay = milliseconds(150);
    /// Cache capacity per node (objects); 0 = unbounded.
    std::size_t capacity = 0;
    /// Workload shape (diurnal office-hours rate + URL popularity).
    WebWorkloadParams workload;
  };

  explicit ShardedWebCacheService(Params params) : params_(params) {}
  ShardedWebCacheService() : ShardedWebCacheService(Params{}) {}

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;       ///< served from the home-node cache
    std::uint64_t misses = 0;     ///< required an origin fetch
    std::uint64_t responses = 0;  ///< responses received by requesters
  };

  /// Counters summed over shards (call after the run).
  Stats stats() const;

  /// Objects cached across all nodes, summed over shards.
  std::size_t cached_total() const;

  /// Objects cached on node `a` (0 for a node that never cached).
  std::size_t cached_on(net::Address a) const;

  /// The overlay key of workload URL `page` — lets scenarios aim an
  /// eclipse attack at a hot object's home node.
  static NodeId url_key(int page);

  // ShardedApp interface ----------------------------------------------------
  void on_run_start(overlay::ShardedDriver& driver,
                    std::size_t shards) override;
  double workload_rate(SimTime t) const override;
  void workload_tick(const overlay::ShardedDriver::AppNode& node) override;
  void deliver(const overlay::ShardedDriver::AppNode& node,
               const pastry::LookupMsg& m) override;
  void packet(const overlay::ShardedDriver::AppNode& node, net::Address from,
              const net::PacketPtr& packet) override;

 private:
  struct RequestData final : pastry::CloneableAppData {
    std::uint64_t op = 0;
    NodeId url_key;
    net::Address requester = net::kNullAddress;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override;
  };
  struct ResponseMsg final : pastry::CloneableAppData {
    std::uint64_t op = 0;
    bool was_cached = false;
    net::PacketPtr clone_into(pastry::MessagePool& pool) const override;
  };

  /// One shard's replica; only the owning worker touches it mid-run.
  struct ShardState {
    Stats stats;
    std::unordered_map<net::Address, std::unordered_set<NodeId>> caches;
    std::unordered_map<std::uint64_t, SimTime> pending;  // op -> issue time
    std::unordered_map<net::Address, std::uint32_t> op_seq;
  };

  void respond(const overlay::ShardedDriver::AppNode& node,
               const RequestData& req, bool was_cached);

  Params params_;
  /// Used only for rate_at (const, draw-free); URL draws use node streams.
  WebWorkload shape_{params_.workload, /*seed=*/0};
  std::vector<ShardState> shards_;
};

}  // namespace mspastry::apps
