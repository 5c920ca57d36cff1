// The observability subsystem (src/obs): flight-recorder ring semantics,
// deterministic trace-id sampling, causal-path assembly from synthetic
// rings (per-hop latency attribution, reroutes, duplicates, wire drops,
// overwrite-aware completeness), the dump/reload round trip, and
// end-to-end trace capture on a live overlay under injected faults.

#include "obs/path_assembler.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "net/fault_plan.hpp"
#include "net/transit_stub.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_dump.hpp"
#include "overlay/sharded_driver.hpp"

namespace mspastry {
namespace {

using obs::EventKind;
using obs::FlightRecorder;
using obs::ObsConfig;
using obs::TraceDomain;
using overlay::DriverConfig;
using overlay::ShardedDriver;

ObsConfig obs_on(std::size_t ring_capacity = 64) {
  ObsConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = ring_capacity;
  return cfg;
}

// ------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingOverwritesOldestKeepingAContiguousSuffix) {
  FlightRecorder r(1, obs_on(8));
  EXPECT_EQ(r.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    r.record(seconds(static_cast<std::int64_t>(i)), EventKind::kHeartbeatTick,
             0, net::kNullAddress, 0, i);
  }
  EXPECT_EQ(r.recorded(), 20u);
  EXPECT_EQ(r.dropped(), 12u);
  const auto events = r.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].aux, 12 + i);  // oldest retained first, no gaps
  }
}

TEST(FlightRecorder, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1, obs_on(5)).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(1, obs_on(0)).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(1, obs_on(4096)).capacity(), 4096u);
}

TEST(FlightRecorder, TraceIdsAreDeterministicAndNeverZero) {
  for (std::uint64_t id = 0; id < 1000; ++id) {
    const std::uint64_t t = obs::lookup_trace_id(id);
    EXPECT_NE(t, 0u);  // 0 is reserved for "untraced"
    EXPECT_EQ(t, obs::lookup_trace_id(id));  // re-derivable after the fact
  }
  EXPECT_NE(obs::join_trace_id(3, 1), 0u);
  EXPECT_NE(obs::join_trace_id(3, 1), obs::join_trace_id(3, 2));
  EXPECT_NE(obs::join_trace_id(3, 1), obs::join_trace_id(4, 1));
}

TEST(FlightRecorder, HashThresholdSamplingIsDeterministicEverywhere) {
  const FlightRecorder all(1, obs_on());
  ObsConfig cfg = obs_on();
  cfg.sample_rate = 0.0;
  const FlightRecorder none(1, cfg);
  cfg.sample_rate = 0.5;
  const FlightRecorder half(1, cfg);
  const TraceDomain half_domain(cfg);

  int kept = 0;
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    EXPECT_EQ(all.sample_lookup(id), obs::lookup_trace_id(id));
    EXPECT_EQ(none.sample_lookup(id), 0u);
    // The recorder (sampling at the origin) and the domain (re-deriving
    // the id after the fact) must agree on which lookups were traced.
    EXPECT_EQ(half.sample_lookup(id), half_domain.trace_id_for_lookup(id));
    kept += half.sample_lookup(id) != 0;
  }
  EXPECT_GT(kept, 1700);  // hash-threshold keeps ~ rate of the ids
  EXPECT_LT(kept, 2300);
}

// ----------------------------------------------- path assembly, synthetic
//
// These drive the assembler with hand-written rings so each stitching
// rule is pinned down exactly; live-overlay coverage follows below.

constexpr std::uint64_t kTrace = 0xABCDu;

TEST(PathAssembler, StitchesACleanTwoHopPathWithLatencyBreakdown) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  FlightRecorder& b = d.recorder_for(2);
  FlightRecorder& c = d.recorder_for(3);

  a.record(0, EventKind::kLookupIssued, kTrace, net::kNullAddress, 0, 42);
  a.record(milliseconds(1), EventKind::kForward, kTrace, 2, 1);
  b.record(milliseconds(10), EventKind::kRecv, kTrace, 1, 1);
  b.record(milliseconds(11), EventKind::kForward, kTrace, 3, 2);
  a.record(milliseconds(30), EventKind::kAckRecv, kTrace, 2, 1);
  c.record(milliseconds(25), EventKind::kRecv, kTrace, 2, 2);
  c.record(milliseconds(25), EventKind::kDeliver, kTrace, 2, 2);
  b.record(milliseconds(40), EventKind::kAckRecv, kTrace, 3, 2);

  const auto p = obs::assemble_path(d, kTrace);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->is_join);
  EXPECT_EQ(p->origin, 1);
  EXPECT_TRUE(p->delivered);
  EXPECT_EQ(p->delivered_by, 3);
  EXPECT_EQ(p->issued_at, 0);
  EXPECT_EQ(p->total_latency(), milliseconds(25));
  EXPECT_TRUE(p->complete);
  EXPECT_EQ(p->timeouts, 0);
  EXPECT_EQ(p->retransmits, 0);

  ASSERT_EQ(p->hops.size(), 2u);
  const obs::HopRecord& h1 = p->hops[0];
  EXPECT_EQ(h1.from, 1);
  EXPECT_EQ(h1.to, 2);
  EXPECT_EQ(h1.attempts, 1);
  EXPECT_EQ(h1.transmission, milliseconds(9));
  EXPECT_EQ(h1.acked, milliseconds(30));
  const obs::HopRecord& h2 = p->hops[1];
  EXPECT_EQ(h2.from, 2);
  EXPECT_EQ(h2.to, 3);
  EXPECT_EQ(h2.transmission, milliseconds(14));
  EXPECT_EQ(p->total_transmission(), milliseconds(23));
}

TEST(PathAssembler, AttributesRtoWaitToRetransmittedHops) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  FlightRecorder& b = d.recorder_for(2);

  a.record(0, EventKind::kLookupIssued, kTrace, net::kNullAddress, 0, 1);
  a.record(milliseconds(1), EventKind::kForward, kTrace, 2, 1);
  a.record(milliseconds(31), EventKind::kAckTimeout, kTrace, 2, 1);
  a.record(milliseconds(31), EventKind::kRetransmit, kTrace, 2, 1);
  b.record(milliseconds(45), EventKind::kRecv, kTrace, 1, 1);
  b.record(milliseconds(45), EventKind::kDeliver, kTrace, 1, 1);
  a.record(milliseconds(60), EventKind::kAckRecv, kTrace, 2, 1);

  const auto p = obs::assemble_path(d, kTrace);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->delivered);
  EXPECT_EQ(p->timeouts, 1);
  EXPECT_EQ(p->retransmits, 1);
  ASSERT_EQ(p->hops.size(), 1u);
  EXPECT_EQ(p->hops[0].attempts, 2);
  EXPECT_EQ(p->hops[0].rto_wait, milliseconds(30));
  // Transmission counts from the retransmission that actually arrived.
  EXPECT_EQ(p->hops[0].transmission, milliseconds(14));
}

TEST(PathAssembler, ReroutePenaltySpansFirstAttemptToVerdict) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  FlightRecorder& c = d.recorder_for(3);

  a.record(0, EventKind::kLookupIssued, kTrace, net::kNullAddress, 0, 1);
  a.record(milliseconds(1), EventKind::kForward, kTrace, 2, 1);
  a.record(milliseconds(31), EventKind::kAckTimeout, kTrace, 2, 1);
  a.record(milliseconds(31), EventKind::kRetransmit, kTrace, 2, 1);
  a.record(milliseconds(61), EventKind::kAckTimeout, kTrace, 2, 1);
  a.record(milliseconds(61), EventKind::kReroute, kTrace, 2, 1);
  a.record(milliseconds(61), EventKind::kForward, kTrace, 3, 2);
  c.record(milliseconds(75), EventKind::kRecv, kTrace, 1, 2);
  c.record(milliseconds(75), EventKind::kDeliver, kTrace, 1, 2);
  a.record(milliseconds(90), EventKind::kAckRecv, kTrace, 3, 2);

  const auto p = obs::assemble_path(d, kTrace);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->delivered);
  EXPECT_EQ(p->delivered_by, 3);  // trace id survived the reroute
  EXPECT_EQ(p->reroutes, 1);
  EXPECT_EQ(p->timeouts, 2);
  ASSERT_EQ(p->hops.size(), 2u);
  EXPECT_TRUE(p->hops[0].rerouted);
  EXPECT_EQ(p->hops[0].reroute_penalty, milliseconds(60));
  EXPECT_EQ(p->hops[0].rto_wait, milliseconds(60));
  EXPECT_EQ(p->total_reroute_penalty(), milliseconds(60));
  EXPECT_FALSE(p->hops[1].rerouted);
}

TEST(PathAssembler, CountsDuplicatedArrivalsOnce) {
  TraceDomain d(obs_on());
  d.recorder_for(1).record(0, EventKind::kLookupIssued, kTrace,
                           net::kNullAddress, 0, 1);
  d.recorder_for(1).record(milliseconds(1), EventKind::kForward, kTrace, 2, 1);
  FlightRecorder& b = d.recorder_for(2);
  b.record(milliseconds(10), EventKind::kRecv, kTrace, 1, 1);
  b.record(milliseconds(12), EventKind::kRecv, kTrace, 1, 1);  // injected dup
  b.record(milliseconds(10), EventKind::kDeliver, kTrace, 1, 1);

  const auto p = obs::assemble_path(d, kTrace);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->delivered);
  EXPECT_EQ(p->duplicate_recvs, 1);
  ASSERT_EQ(p->hops.size(), 1u);
  EXPECT_EQ(p->hops[0].received, milliseconds(10));  // first arrival wins
}

TEST(PathAssembler, WireDropWithoutDeliveryMarksThePathLost) {
  TraceDomain d(obs_on());
  FlightRecorder& a = d.recorder_for(1);
  a.record(0, EventKind::kLookupIssued, kTrace, net::kNullAddress, 0, 1);
  a.record(milliseconds(1), EventKind::kForward, kTrace, 2, 1);
  a.record(milliseconds(2), EventKind::kNetDrop, kTrace, 2, 1);

  const auto p = obs::assemble_path(d, kTrace);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->delivered);
  EXPECT_TRUE(p->net_lost);
  ASSERT_EQ(p->hops.size(), 1u);
  EXPECT_TRUE(p->hops[0].net_dropped);
  EXPECT_NE(obs::describe(*p).find("lost-in-network"), std::string::npos);
}

TEST(PathAssembler, OverwrittenRingMarksThePathIncomplete) {
  TraceDomain d(obs_on(4));
  FlightRecorder& a = d.recorder_for(1);
  a.record(0, EventKind::kLookupIssued, kTrace, net::kNullAddress, 0, 1);
  a.record(milliseconds(1), EventKind::kForward, kTrace, 2, 1);
  for (int i = 1; i <= 4; ++i) {  // wrap: both trace events fall off
    a.record(seconds(i), EventKind::kHeartbeatTick, 0, net::kNullAddress);
  }
  FlightRecorder& b = d.recorder_for(2);
  b.record(milliseconds(10), EventKind::kRecv, kTrace, 1, 1);
  b.record(milliseconds(10), EventKind::kDeliver, kTrace, 1, 1);

  const auto p = obs::assemble_path(d, kTrace);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->delivered);
  EXPECT_FALSE(p->complete);  // node 1's ring cannot vouch for the window
  EXPECT_NE(obs::describe(*p).find("INCOMPLETE"), std::string::npos);
}

TEST(PathAssembler, DumpReloadRoundTripPreservesVerdicts) {
  TraceDomain d(obs_on(8));
  FlightRecorder& a = d.recorder_for(1);
  FlightRecorder& b = d.recorder_for(2);
  a.record(0, EventKind::kLookupIssued, kTrace, net::kNullAddress, 0, 1);
  a.record(milliseconds(1), EventKind::kForward, kTrace, 2, 1);
  b.record(milliseconds(10), EventKind::kRecv, kTrace, 1, 1);
  b.record(milliseconds(10), EventKind::kDeliver, kTrace, 1, 1);
  a.record(milliseconds(30), EventKind::kAckRecv, kTrace, 2, 1);
  for (int i = 1; i <= 10; ++i) {  // wrap node 2's ring past capacity
    b.record(seconds(i), EventKind::kHeartbeatTick, 0, net::kNullAddress);
  }

  std::stringstream dump;
  obs::write_trace_dump(d, dump);
  const auto rows = obs::parse_dump_rows(dump);
  ASSERT_FALSE(rows.empty());
  const TraceDomain reloaded = obs::load_trace_dump(rows);

  ASSERT_EQ(reloaded.recorder_count(), 2u);
  const FlightRecorder* rb = reloaded.find(2);
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(rb->recorded(), b.recorded());  // overwrite accounting survives
  EXPECT_EQ(rb->dropped(), b.dropped());

  const auto before = obs::assemble_paths(d);
  const auto after = obs::assemble_paths(reloaded);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].trace_id, after[i].trace_id);
    EXPECT_EQ(before[i].delivered, after[i].delivered);
    EXPECT_EQ(before[i].complete, after[i].complete);
    EXPECT_EQ(before[i].issued_at, after[i].issued_at);
    EXPECT_EQ(before[i].hops.size(), after[i].hops.size());
    EXPECT_EQ(obs::describe(before[i]), obs::describe(after[i]));
  }
}

// -------------------------------------------------- live-overlay capture

struct ObsFixture {
  std::shared_ptr<net::Topology> topo =
      std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(3, 3, 4));
  std::unique_ptr<ShardedDriver> driver;

  ObsFixture(std::uint64_t seed, int nodes,
             std::size_t ring_capacity = 4096) {
    DriverConfig cfg;
    cfg.lookup_rate_per_node = 0.0;
    cfg.warmup = 0;
    cfg.seed = seed;
    cfg.obs = obs_on(ring_capacity);
    net::NetworkConfig ncfg;
    driver = std::make_unique<ShardedDriver>(topo, ncfg, cfg, 1);
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

TEST(ObsLive, EveryLookupYieldsADeliveredCausalPath) {
  ObsFixture f(301, 20);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 25; ++i) {
    ids.push_back(
        f.driver->issue_lookup(f.random_node(), f.driver->rng().node_id()));
    f.driver->run_for(milliseconds(500));
  }
  f.driver->run_for(seconds(30));

  obs::TraceDomain* dom = f.driver->trace_domain();
  ASSERT_NE(dom, nullptr);
  int multi_hop = 0;
  for (const std::uint64_t id : ids) {
    const std::uint64_t tid = dom->trace_id_for_lookup(id);
    ASSERT_NE(tid, 0u);
    const auto p = obs::assemble_path(*dom, tid);
    ASSERT_TRUE(p.has_value()) << "no ring events for lookup " << id;
    EXPECT_TRUE(p->delivered);
    EXPECT_TRUE(p->complete);
    if (!p->hops.empty()) {
      ++multi_hop;
      // The last transmission's receiver is the node that delivered.
      EXPECT_EQ(p->hops.back().to, p->delivered_by);
    }
  }
  EXPECT_GT(multi_hop, 0);

  // Joins were traced too (every node but the bootstrap sent a request).
  const auto paths = obs::assemble_paths(*dom);
  int joins = 0;
  for (const auto& p : paths) joins += p.is_join;
  EXPECT_GT(joins, 0);
}

TEST(ObsLive, TraceIdSurvivesRetransmitAndRerouteAroundAStalledNode) {
  ObsFixture f(302, 20);
  const auto pick = f.driver->oracle().random_active(f.driver->rng());
  const net::Address victim = pick->second;
  const NodeId victim_key = pick->first;
  const SimTime t0 = f.driver->now();
  f.driver->add_fault_rule(
      net::FaultRule::stall({victim}, t0, t0 + seconds(8)));

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    net::Address from = f.random_node();
    while (from == victim) from = f.random_node();
    ids.push_back(f.driver->issue_lookup(from, victim_key));
    f.driver->run_for(seconds(1));
  }
  f.driver->run_for(seconds(30));

  obs::TraceDomain* dom = f.driver->trace_domain();
  ASSERT_NE(dom, nullptr);
  int timeouts = 0, recovered = 0;
  SimDuration rto_wait = 0;
  for (const std::uint64_t id : ids) {
    const auto p = obs::assemble_path(*dom, dom->trace_id_for_lookup(id));
    ASSERT_TRUE(p.has_value());
    timeouts += p->timeouts;
    rto_wait += p->total_rto_wait();
    if (p->delivered && (p->retransmits > 0 || p->reroutes > 0)) ++recovered;
  }
  EXPECT_GT(timeouts, 0);       // the stall forced RTO expiries
  EXPECT_GT(rto_wait, 0);       // ...and they are attributed as waiting time
  EXPECT_GT(recovered, 0);      // the id rode through the recovery machinery
}

TEST(ObsLive, InjectedDuplicatesShowUpAsDuplicateArrivals) {
  ObsFixture f(303, 16);
  const SimTime t0 = f.driver->now();
  f.driver->add_fault_rule(net::FaultRule::duplicate(
      net::LinkMatcher::all(), 1.0, milliseconds(5), t0, t0 + seconds(15)));

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(
        f.driver->issue_lookup(f.random_node(), f.driver->rng().node_id()));
    f.driver->run_for(seconds(1));
  }
  f.driver->run_for(seconds(30));

  obs::TraceDomain* dom = f.driver->trace_domain();
  ASSERT_NE(dom, nullptr);
  int dups = 0, delivered = 0;
  for (const std::uint64_t id : ids) {
    const auto p = obs::assemble_path(*dom, dom->trace_id_for_lookup(id));
    ASSERT_TRUE(p.has_value());
    dups += p->duplicate_recvs;
    delivered += p->delivered;
  }
  EXPECT_GT(dups, 0);  // duplicated packets dedup into the same hop
  EXPECT_EQ(delivered, static_cast<int>(ids.size()));  // and deliver once
}

TEST(ObsLive, TinyRingsWrapInSteadyStateWithoutBreakingAssembly) {
  ObsFixture f(304, 12, /*ring_capacity=*/16);
  for (int i = 0; i < 10; ++i) {
    f.driver->issue_lookup(f.random_node(), f.driver->rng().node_id());
    f.driver->run_for(seconds(1));
  }
  f.driver->run_for(minutes(1));

  obs::TraceDomain* dom = f.driver->trace_domain();
  ASSERT_NE(dom, nullptr);
  std::uint64_t dropped = 0;
  dom->for_each_recorder([&](const FlightRecorder& r) {
    EXPECT_EQ(r.capacity(), 16u);
    dropped += r.dropped();
  });
  EXPECT_GT(dropped, 0u);  // the join + maintenance chatter wrapped them
  for (const auto& p : obs::assemble_paths(*dom)) {
    EXPECT_NE(p.trace_id, 0u);
  }
}

TEST(ObsLive, DisabledByDefaultAndCreatesNoDomain) {
  std::shared_ptr<net::Topology> topo =
      std::make_shared<net::TransitStubTopology>(
          net::TransitStubParams::scaled(3, 3, 4));
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 305;
  net::NetworkConfig ncfg;
  ShardedDriver driver(topo, ncfg, cfg, 1);
  for (int i = 0; i < 8; ++i) {
    driver.add_node();
    driver.run_for(seconds(2));
  }
  driver.run_for(minutes(1));
  EXPECT_EQ(driver.trace_domain(), nullptr);
  driver.issue_lookup(driver.oracle().random_active(driver.rng())->second,
                      driver.rng().node_id());
  driver.run_for(seconds(10));  // lookups still flow with tracing off
}

TEST(ObsLive, DumpReloadOfALiveRunMatchesInProcessAssembly) {
  ObsFixture f(306, 15);
  for (int i = 0; i < 10; ++i) {
    f.driver->issue_lookup(f.random_node(), f.driver->rng().node_id());
    f.driver->run_for(seconds(1));
  }
  f.driver->run_for(seconds(30));

  obs::TraceDomain* dom = f.driver->trace_domain();
  ASSERT_NE(dom, nullptr);
  std::stringstream dump;
  obs::write_trace_dump(*dom, dump);
  const TraceDomain reloaded = obs::load_trace_dump(obs::parse_dump_rows(dump));

  EXPECT_EQ(reloaded.recorder_count(), dom->recorder_count());
  const auto before = obs::assemble_paths(*dom);
  const auto after = obs::assemble_paths(reloaded);
  ASSERT_EQ(before.size(), after.size());
  ASSERT_GT(before.size(), 0u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(obs::describe(before[i]), obs::describe(after[i]));
  }
}

}  // namespace
}  // namespace mspastry
