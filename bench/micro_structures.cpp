// Micro-benchmarks (google-benchmark) for the core data structures and
// hot paths: identifier arithmetic, leaf-set and routing-table updates,
// next-hop selection, the self-tuning solver, topology shortest-path
// queries, and the message path (pooled allocation vs make_shared,
// SmallVec vs std::vector payload fills). Not from the paper; these bound
// the per-event simulation cost.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/small_vec.hpp"
#include "net/transit_stub.hpp"
#include "pastry/leaf_set.hpp"
#include "pastry/message.hpp"
#include "pastry/message_pool.hpp"
#include "pastry/routing_table.hpp"
#include "pastry/self_tuning.hpp"

namespace {

using namespace mspastry;
using namespace mspastry::pastry;

void BM_NodeIdSharedPrefix(benchmark::State& state) {
  Rng rng(1);
  const NodeId a = rng.node_id();
  const NodeId b = rng.node_id();
  const int bb = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.shared_prefix_length(b, bb));
  }
}
BENCHMARK(BM_NodeIdSharedPrefix)->Arg(1)->Arg(4);

void BM_NodeIdRingDistance(benchmark::State& state) {
  Rng rng(2);
  const NodeId a = rng.node_id();
  const NodeId b = rng.node_id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.ring_distance_to(b));
  }
}
BENCHMARK(BM_NodeIdRingDistance);

void BM_NodeIdHashOf(benchmark::State& state) {
  const std::string url = "http://example.com/some/moderately/long/path";
  for (auto _ : state) {
    benchmark::DoNotOptimize(NodeId::hash_of(url));
  }
}
BENCHMARK(BM_NodeIdHashOf);

void BM_LeafSetAdd(benchmark::State& state) {
  Rng rng(3);
  const NodeId self = rng.node_id();
  std::vector<NodeDescriptor> candidates;
  for (int i = 0; i < 1024; ++i) {
    candidates.push_back({rng.node_id(), i});
  }
  std::size_t i = 0;
  LeafSet ls(self, 32);
  for (auto _ : state) {
    ls.add(candidates[i++ & 1023]);
  }
}
BENCHMARK(BM_LeafSetAdd);

void BM_LeafSetClosest(benchmark::State& state) {
  Rng rng(4);
  const NodeId self = rng.node_id();
  LeafSet ls(self, 32);
  for (int i = 0; i < 64; ++i) ls.add({rng.node_id(), i});
  const NodeId key = rng.node_id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ls.closest(key));
  }
}
BENCHMARK(BM_LeafSetClosest);

void BM_RoutingTableAddWithRtt(benchmark::State& state) {
  Rng rng(5);
  const NodeId self = rng.node_id();
  std::vector<NodeDescriptor> candidates;
  for (int i = 0; i < 4096; ++i) candidates.push_back({rng.node_id(), i});
  RoutingTable rt(self, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    rt.add_with_rtt(candidates[i & 4095],
                    milliseconds(static_cast<std::int64_t>(i & 127) + 1),
                    true);
    ++i;
  }
}
BENCHMARK(BM_RoutingTableAddWithRtt);

void BM_RoutingTableSlotLookup(benchmark::State& state) {
  Rng rng(6);
  const NodeId self = rng.node_id();
  RoutingTable rt(self, 4);
  for (int i = 0; i < 1000; ++i) rt.add({rng.node_id(), i});
  const NodeId key = rng.node_id();
  for (auto _ : state) {
    const auto [r, c] = rt.slot_of(key);
    benchmark::DoNotOptimize(rt.get(r, c));
  }
}
BENCHMARK(BM_RoutingTableSlotLookup);

void BM_SelfTuneSolve(benchmark::State& state) {
  const Config cfg;
  double mu = 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selftune::tune_trt(cfg, mu, 10000.0));
    mu = mu < 1e-2 ? mu * 1.01 : 1e-4;  // vary to defeat caching
  }
}
BENCHMARK(BM_SelfTuneSolve);

void BM_TopologyDelayCached(benchmark::State& state) {
  net::TransitStubTopology topo(net::TransitStubParams::scaled(6, 4, 5));
  Rng rng(7);
  const int n = topo.router_count();
  const int a = topo.transit_router_count();  // first stub router
  // Warm the row cache, then measure lookups.
  benchmark::DoNotOptimize(topo.delay(a, n - 1));
  int b = a + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.delay(a, b));
    if (++b >= n) b = a;
  }
  (void)rng;
}
BENCHMARK(BM_TopologyDelayCached);

void BM_TopologyDelayColdRow(benchmark::State& state) {
  // Cost of the first query from a fresh source router (one Dijkstra).
  const auto params = net::TransitStubParams::scaled(6, 4, 5);
  for (auto _ : state) {
    state.PauseTiming();
    net::TransitStubTopology topo(params);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        topo.delay(topo.transit_router_count(), topo.router_count() - 1));
  }
}
BENCHMARK(BM_TopologyDelayColdRow)->Unit(benchmark::kMicrosecond);

// Exact vs landmark delay-oracle query on the same graph: the landmark
// path is a k x k min over precomputed tables (no Dijkstra, no cache),
// the exact path is a warm row-cache hit. The interesting number is how
// close the landmark query gets to the cached exact lookup — that gap is
// what N = 100k pays per delay() in exchange for dropping the O(R^2)
// row cache.
void BM_DelayOracleExactQuery(benchmark::State& state) {
  auto params = net::TransitStubParams::scaled(6, 4, 5);
  params.oracle.mode = net::DelayOracleMode::kExact;
  net::TransitStubTopology topo(params);
  const int n = topo.router_count();
  const int a = topo.transit_router_count();
  benchmark::DoNotOptimize(topo.delay(a, n - 1));  // warm the row
  int b = a + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.delay(a, b));
    if (++b >= n) b = a;
  }
}
BENCHMARK(BM_DelayOracleExactQuery);

void BM_DelayOracleLandmarkQuery(benchmark::State& state) {
  auto params = net::TransitStubParams::scaled(6, 4, 5);
  params.oracle.mode = net::DelayOracleMode::kLandmark;
  net::TransitStubTopology topo(params);
  const int n = topo.router_count();
  const int a = topo.transit_router_count();
  int b = a + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.delay(a, b));
    if (++b >= n) b = a;
  }
}
BENCHMARK(BM_DelayOracleLandmarkQuery);

// --- Message path (PR-3): pooled allocation vs make_shared ------------------
//
// A shared_ptr mirror of HeartbeatMsg/LsProbeMsg, local to the bench, so
// the comparison stays honest after the production types moved to the
// pool. These isolate allocation; MessagePoolDifferential checks the
// full replay.

struct SharedMsgBase {
  virtual ~SharedMsgBase() = default;
  NodeDescriptor sender;
};

struct SharedHeartbeat final : SharedMsgBase {};

struct SharedLsProbe final : SharedMsgBase {
  std::vector<NodeDescriptor> leaf;
  std::vector<NodeDescriptor> failed;
};

void BM_MsgAllocHeartbeatSharedPtr(benchmark::State& state) {
  for (auto _ : state) {
    auto m = std::make_shared<SharedHeartbeat>();
    benchmark::DoNotOptimize(m.get());
  }
}
BENCHMARK(BM_MsgAllocHeartbeatSharedPtr);

void BM_MsgAllocHeartbeatPooled(benchmark::State& state) {
  MessagePool pool;
  for (auto _ : state) {
    auto m = make_msg<HeartbeatMsg>(pool);
    benchmark::DoNotOptimize(m.get());
  }
}
BENCHMARK(BM_MsgAllocHeartbeatPooled);

void BM_MsgAllocLsProbeSharedPtr(benchmark::State& state) {
  Rng rng(8);
  std::vector<NodeDescriptor> peers;
  for (int i = 0; i < 32; ++i) peers.push_back({rng.node_id(), i});
  for (auto _ : state) {
    auto m = std::make_shared<SharedLsProbe>();
    m->leaf.assign(peers.begin(), peers.end());
    benchmark::DoNotOptimize(m.get());
  }
}
BENCHMARK(BM_MsgAllocLsProbeSharedPtr);

void BM_MsgAllocLsProbePooled(benchmark::State& state) {
  Rng rng(8);
  std::vector<NodeDescriptor> peers;
  for (int i = 0; i < 32; ++i) peers.push_back({rng.node_id(), i});
  MessagePool pool;
  for (auto _ : state) {
    auto m = make_msg<LsProbeMsg>(pool, false);
    m->leaf.assign(peers.begin(), peers.end());
    benchmark::DoNotOptimize(m.get());
  }
}
BENCHMARK(BM_MsgAllocLsProbePooled);

void BM_MsgDispatchRefcount(benchmark::State& state) {
  // The per-dispatch pointer traffic on the pooled path: one copy (the
  // handler cast) and two moves, all non-atomic.
  MessagePool pool;
  auto m = make_msg<HeartbeatMsg>(pool);
  MessagePtr slot(m);
  for (auto _ : state) {
    MessagePtr moved(std::move(slot));
    MessagePtr cast(moved);
    benchmark::DoNotOptimize(cast.get());
    slot = std::move(moved);
  }
}
BENCHMARK(BM_MsgDispatchRefcount);

// --- SmallVec vs std::vector payload fills ----------------------------------

void BM_PayloadFillStdVector(benchmark::State& state) {
  Rng rng(9);
  std::vector<NodeDescriptor> peers;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    peers.push_back({rng.node_id(), static_cast<std::int32_t>(i)});
  }
  for (auto _ : state) {
    std::vector<NodeDescriptor> v;  // fresh each time: heap alloc + copy
    v.assign(peers.begin(), peers.end());
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_PayloadFillStdVector)->Arg(8)->Arg(32);

void BM_PayloadFillSmallVec(benchmark::State& state) {
  Rng rng(9);
  std::vector<NodeDescriptor> peers;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    peers.push_back({rng.node_id(), static_cast<std::int32_t>(i)});
  }
  for (auto _ : state) {
    LeafVec v;  // inline capacity 32: fill is a bulk copy, no heap
    v.assign(peers.begin(), peers.end());
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_PayloadFillSmallVec)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
