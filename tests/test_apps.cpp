#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/kv_store.hpp"
#include "apps/multicast.hpp"
#include "apps/sharded_web_cache.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::ShardedDriver;

struct AppFixture {
  std::shared_ptr<net::Topology> topo =
      std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(3, 3, 4));
  std::unique_ptr<ShardedDriver> driver;

  explicit AppFixture(std::uint64_t seed, int nodes) {
    DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.0;
    cfg.warmup = 0;
    cfg.seed = seed;
    driver =
        std::make_unique<ShardedDriver>(topo, net::NetworkConfig{}, cfg, 1);
    for (int i = 0; i < nodes; ++i) {
      driver->add_node();
      driver->run_for(seconds(2));
    }
    driver->run_for(minutes(2));
  }

  net::Address random_node() {
    return driver->oracle().random_active(driver->rng())->second;
  }
};

// --- KV store (PAST-like) ---------------------------------------------------

TEST(KvStore, PutThenGetRoundTrip) {
  AppFixture f(61, 30);
  apps::KvStoreService kv;
  f.driver->attach_app(&kv);

  bool put_ok = false;
  kv.put(f.random_node(), "hello", "world", [&](bool ok) { put_ok = ok; });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(put_ok);

  std::string got;
  bool found = false;
  kv.get(f.random_node(), "hello", [&](bool ok, const std::string& v) {
    found = ok;
    got = v;
  });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(found);
  EXPECT_EQ(got, "world");
  EXPECT_EQ(kv.stats().get_hits, 1u);
}

TEST(KvStore, MissingKeyReportsNotFound) {
  AppFixture f(62, 20);
  apps::KvStoreService kv;
  f.driver->attach_app(&kv);
  bool called = false;
  bool found = true;
  kv.get(f.random_node(), "nope", [&](bool ok, const std::string&) {
    called = true;
    found = ok;
  });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(called);
  EXPECT_FALSE(found);
  EXPECT_EQ(kv.stats().get_misses, 1u);
}

TEST(KvStore, ReplicatesToLeafNeighbours) {
  AppFixture f(63, 30);
  apps::KvStoreService kv(/*replicas=*/4);
  f.driver->attach_app(&kv);
  kv.put(f.random_node(), "k1", "v1");
  f.driver->run_for(seconds(10));
  EXPECT_EQ(kv.stats().replicas_stored, 4u);
  // Exactly 5 copies exist in the system (root + 4 replicas).
  std::size_t copies = 0;
  for (const auto a : f.driver->live_addresses()) copies += kv.stored_on(a);
  EXPECT_EQ(copies, 5u);
}

TEST(KvStore, SurvivesRootFailure) {
  AppFixture f(64, 30);
  apps::KvStoreService kv(4);
  f.driver->attach_app(&kv);
  kv.put(f.random_node(), "durable", "data");
  f.driver->run_for(seconds(10));
  // Kill the current root of the key.
  const auto root =
      f.driver->oracle().root_of(NodeId::hash_of("durable"));
  ASSERT_TRUE(root);
  f.driver->kill_node(*root);
  f.driver->run_for(minutes(3));  // detection + leaf repair
  // The new root is one of the old leaf-set neighbours, which holds a
  // replica: the get still succeeds.
  bool found = false;
  std::string got;
  kv.get(f.random_node(), "durable", [&](bool ok, const std::string& v) {
    found = ok;
    got = v;
  });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(found);
  EXPECT_EQ(got, "data");
}

TEST(KvStore, ManyKeysSpreadOverNodes) {
  AppFixture f(65, 30);
  apps::KvStoreService kv(0);
  f.driver->attach_app(&kv);
  for (int i = 0; i < 60; ++i) {
    kv.put(f.random_node(), "key" + std::to_string(i), "v");
    f.driver->run_for(milliseconds(300));
  }
  f.driver->run_for(seconds(10));
  // At least a third of the nodes should hold something (hashing spreads).
  int holders = 0;
  for (const auto a : f.driver->live_addresses()) {
    if (kv.stored_on(a) > 0) ++holders;
  }
  EXPECT_GE(holders, 10);
}

TEST(KvStore, RepairSurvivesSequentialRootFailures) {
  // Without repair, replicas are placed only at put time: killing the
  // root and then its successors one by one eventually destroys all
  // copies. With PAST-like repair enabled, the replica set follows the
  // ring and the object survives.
  AppFixture f(76, 40);
  apps::KvStoreService kv(/*replicas=*/4);
  f.driver->attach_app(&kv);
  kv.enable_repair(minutes(2));
  kv.put(f.random_node(), "perennial", "still-here");
  f.driver->run_for(seconds(10));
  const NodeId key = NodeId::hash_of("perennial");
  // Kill the current root four times in a row, waiting for detection,
  // leaf repair and a replica-repair round in between.
  for (int round = 0; round < 4; ++round) {
    const auto root = f.driver->oracle().root_of(key);
    ASSERT_TRUE(root);
    f.driver->kill_node(*root);
    f.driver->run_for(minutes(4));
  }
  bool found = false;
  std::string got;
  kv.get(f.random_node(), "perennial", [&](bool ok, const std::string& v) {
    found = ok;
    got = v;
  });
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(found);
  EXPECT_EQ(got, "still-here");
}

// --- Web cache (Squirrel-like), on the keyed trace engine -----------------

/// Forwards to a ShardedWebCacheService but drops workload ticks before
/// `start`, so every request is issued into a settled overlay (a request
/// issued mid-join can land on a root that a later joiner displaces).
class SettledWebCache final : public overlay::ShardedApp {
 public:
  SettledWebCache(apps::ShardedWebCacheService& inner, SimTime start)
      : inner_(inner), start_(start) {}
  void on_run_start(overlay::ShardedDriver& d, std::size_t shards) override {
    inner_.on_run_start(d, shards);
  }
  double workload_rate(SimTime t) const override {
    return inner_.workload_rate(t);
  }
  void workload_tick(const overlay::ShardedDriver::AppNode& n) override {
    if (n.now() >= start_) inner_.workload_tick(n);
  }
  void deliver(const overlay::ShardedDriver::AppNode& n,
               const pastry::LookupMsg& m) override {
    inner_.deliver(n, m);
  }
  void packet(const overlay::ShardedDriver::AppNode& n, net::Address from,
              const net::PacketPtr& p) override {
    inner_.packet(n, from, p);
  }

 private:
  apps::ShardedWebCacheService& inner_;
  SimTime start_;
};

/// `nodes` proxies join 2 s apart and settle for 2 minutes; then they
/// browse for `browse` at the cache's workload rate. Session addresses
/// are 0..nodes-1. Returns the end-to-end latency samples.
std::vector<double> run_web_cache(apps::ShardedWebCacheService& cache,
                                  std::uint64_t seed, int nodes,
                                  SimDuration browse) {
  std::vector<trace::ChurnEvent> events;
  for (int i = 0; i < nodes; ++i) {
    events.push_back({seconds(2) * i, i, trace::ChurnEventType::kJoin});
  }
  const trace::ChurnTrace joins(std::move(events), "web-cache-joins");
  const SimTime start = joins.duration() + minutes(2);
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = seed;
  SettledWebCache settled(cache, start);  // outlives the driver using it
  overlay::ShardedDriver driver(std::make_shared<net::TransitStubTopology>(
                                    net::TransitStubParams::scaled(3, 3, 4)),
                                net::NetworkConfig{}, cfg, 1);
  driver.attach_app(&settled);
  driver.run_trace(joins, minutes(2) + browse);
  return driver.app_latency_samples();
}

/// Web-cache parameters with a flat per-proxy request rate (every hour is
/// office hours, weekends included) over a `pages`-URL universe.
apps::ShardedWebCacheService::Params flat_params(double rate, int pages) {
  apps::ShardedWebCacheService::Params p;
  p.workload.peak_rate_per_node = rate;
  p.workload.off_hours_floor = 1.0;
  p.workload.weekend_factor = 1.0;
  p.workload.url_count = pages;
  return p;
}

TEST(WebCache, FirstRequestMissesThenHits) {
  apps::ShardedWebCacheService cache(flat_params(0.002, 1));
  run_web_cache(cache, 66, 25, minutes(10));
  const auto st = cache.stats();
  ASSERT_GE(st.requests, 2u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, st.requests - 1);
  EXPECT_EQ(st.responses, st.requests);
}

TEST(WebCache, HitIsFasterThanMiss) {
  auto params = flat_params(0.002, 1);
  params.origin_delay = milliseconds(500);
  apps::ShardedWebCacheService cache(params);
  const auto lat = run_web_cache(cache, 67, 25, minutes(10));
  ASSERT_EQ(cache.stats().misses, 1u);
  // One sample includes the origin fetch; every hit is faster than it.
  ASSERT_GE(lat.size(), 2u);
  const auto miss = std::max_element(lat.begin(), lat.end());
  EXPECT_GE(*miss, 0.5);
  for (auto it = lat.begin(); it != lat.end(); ++it) {
    if (it != miss) {
      EXPECT_LT(*it, 0.5);
    }
  }
}

TEST(WebCache, SameUrlCachedOnSingleHomeNode) {
  apps::ShardedWebCacheService cache(flat_params(0.002, 1));
  run_web_cache(cache, 68, 25, minutes(10));
  int holders = 0;
  for (net::Address a = 0; a < 25; ++a) {
    if (cache.cached_on(a) > 0) ++holders;
  }
  EXPECT_EQ(holders, 1);  // exactly the home node
  EXPECT_EQ(cache.cached_total(), 1u);
  EXPECT_GE(cache.stats().hits, 1u);
}

TEST(WebCache, CapacityEvicts) {
  auto params = flat_params(0.02, 100);
  params.capacity = 3;
  apps::ShardedWebCacheService cache(params);
  run_web_cache(cache, 69, 10, minutes(10));
  // Each miss caches one object and only eviction removes one.
  EXPECT_GT(cache.stats().misses, cache.cached_total());
  for (net::Address a = 0; a < 10; ++a) {
    EXPECT_LE(cache.cached_on(a), 3u);
  }
}

// --- Multicast (Scribe-like) --------------------------------------------------

TEST(Multicast, MembersReceivePublishedMessages) {
  AppFixture f(70, 30);
  apps::MulticastService mc;
  f.driver->attach_app(&mc);
  const NodeId group = apps::MulticastService::group_id("news");
  std::vector<net::Address> members;
  const auto addrs = f.driver->live_addresses();
  for (int i = 0; i < 10; ++i) {
    members.push_back(addrs[static_cast<std::size_t>(i)]);
    mc.subscribe(members.back(), group);
  }
  f.driver->run_for(seconds(10));
  std::set<net::Address> got;
  mc.on_message = [&](net::Address m, NodeId g, std::uint64_t id) {
    EXPECT_EQ(g, group);
    EXPECT_EQ(id, 7u);
    got.insert(m);
  };
  mc.publish(addrs.back(), group, 7);
  f.driver->run_for(seconds(10));
  EXPECT_EQ(got.size(), members.size());
  for (const auto m : members) EXPECT_TRUE(got.count(m) > 0) << m;
}

TEST(Multicast, NonMembersDoNotReceive) {
  AppFixture f(71, 20);
  apps::MulticastService mc;
  f.driver->attach_app(&mc);
  const NodeId group = apps::MulticastService::group_id("quiet");
  const auto addrs = f.driver->live_addresses();
  mc.subscribe(addrs[0], group);
  f.driver->run_for(seconds(5));
  std::set<net::Address> got;
  mc.on_message = [&](net::Address m, NodeId, std::uint64_t) {
    got.insert(m);
  };
  mc.publish(addrs[1], group, 1);
  f.driver->run_for(seconds(10));
  EXPECT_EQ(got, (std::set<net::Address>{addrs[0]}));
}

TEST(Multicast, DuplicatePublishSuppressed) {
  AppFixture f(72, 20);
  apps::MulticastService mc;
  f.driver->attach_app(&mc);
  const NodeId group = apps::MulticastService::group_id("dup");
  const auto addrs = f.driver->live_addresses();
  mc.subscribe(addrs[0], group);
  f.driver->run_for(seconds(5));
  int deliveries = 0;
  mc.on_message = [&](net::Address, NodeId, std::uint64_t) { ++deliveries; };
  mc.publish(addrs[1], group, 5);
  mc.publish(addrs[2], group, 5);  // same message id: suppressed
  f.driver->run_for(seconds(10));
  EXPECT_EQ(deliveries, 1);
}

TEST(Multicast, ResubscribeIsIdempotent) {
  AppFixture f(73, 20);
  apps::MulticastService mc;
  f.driver->attach_app(&mc);
  const NodeId group = apps::MulticastService::group_id("refresh");
  const auto addrs = f.driver->live_addresses();
  for (int i = 0; i < 3; ++i) {
    mc.subscribe(addrs[0], group);
    f.driver->run_for(seconds(5));
  }
  int deliveries = 0;
  mc.on_message = [&](net::Address, NodeId, std::uint64_t) { ++deliveries; };
  mc.publish(addrs[1], group, 9);
  f.driver->run_for(seconds(10));
  EXPECT_EQ(deliveries, 1);
}

TEST(Multicast, AutoRefreshHealsTreeAfterForwarderCrash) {
  AppFixture f(75, 30);
  apps::MulticastService mc;
  f.driver->attach_app(&mc);
  mc.enable_auto_refresh(seconds(30));
  const NodeId group = apps::MulticastService::group_id("healing");
  const auto addrs = f.driver->live_addresses();
  std::set<net::Address> members;
  for (int i = 0; i < 12; ++i) {
    members.insert(addrs[static_cast<std::size_t>(i)]);
    mc.subscribe(addrs[static_cast<std::size_t>(i)], group);
  }
  f.driver->run_for(seconds(10));
  // Crash several non-member nodes (potential interior forwarders).
  for (int i = 20; i < 25; ++i) {
    f.driver->kill_node(addrs[static_cast<std::size_t>(i)]);
  }
  // Wait for failure detection plus at least two refresh rounds.
  f.driver->run_for(minutes(4));
  std::set<net::Address> got;
  mc.on_message = [&](net::Address m, NodeId, std::uint64_t) {
    got.insert(m);
  };
  mc.publish(addrs[15], group, 42);
  f.driver->run_for(seconds(10));
  EXPECT_EQ(got, members);
}

TEST(Multicast, TwoAppsShareOneOverlay) {
  // The driver must dispatch kv and multicast traffic independently.
  AppFixture f(74, 20);
  apps::KvStoreService kv;
  apps::MulticastService mc;
  f.driver->attach_app(&kv);
  f.driver->attach_app(&mc);
  const NodeId group = apps::MulticastService::group_id("mix");
  const auto addrs = f.driver->live_addresses();
  mc.subscribe(addrs[0], group);
  bool put_ok = false;
  kv.put(addrs[1], "mixed", "use", [&](bool ok) { put_ok = ok; });
  f.driver->run_for(seconds(10));
  int deliveries = 0;
  mc.on_message = [&](net::Address, NodeId, std::uint64_t) { ++deliveries; };
  mc.publish(addrs[2], group, 1);
  f.driver->run_for(seconds(10));
  EXPECT_TRUE(put_ok);
  EXPECT_EQ(deliveries, 1);
}

}  // namespace
}  // namespace mspastry
