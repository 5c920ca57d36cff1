// Differential test for the incremental oracle: the delta-maintained
// successor/ring-consistency state must be indistinguishable from the
// old full-rescan algorithms at every step of a randomized churn trace,
// including a fault window that perturbs leaf sets mid-run. Verdict
// streams from both sides are folded into FNV digests that must match
// exactly (digest-identical, per the scale-up acceptance criteria).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/fault_plan.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"
#include "pastry/node.hpp"

namespace mspastry {
namespace {

using overlay::DriverConfig;
using overlay::ShardedDriver;

// --- Full-rescan reference (the pre-incremental algorithms) -----------------

struct RingEntry {
  NodeId id;
  net::Address addr;
};

// Ground truth rebuilt from scratch: every live *active* node, sorted.
std::vector<RingEntry> rescan_ring(ShardedDriver& d) {
  std::vector<RingEntry> ring;
  for (const net::Address a : d.live_addresses()) {
    const auto* n = d.node(a);
    if (n == nullptr || !n->active()) continue;
    ring.push_back({n->descriptor().id, a});
  }
  std::sort(ring.begin(), ring.end(),
            [](const RingEntry& x, const RingEntry& y) { return x.id < y.id; });
  return ring;
}

std::optional<RingEntry> rescan_successor(const std::vector<RingEntry>& ring,
                                          NodeId id) {
  if (ring.size() < 2) return std::nullopt;
  auto it = std::upper_bound(
      ring.begin(), ring.end(), id,
      [](NodeId k, const RingEntry& e) { return k < e.id; });
  if (it == ring.end()) it = ring.begin();
  if (it->id == id) {
    ++it;
    if (it == ring.end()) it = ring.begin();
  }
  return *it;
}

// The old ChaosHarness::ring_consistent full scan, verbatim semantics.
bool rescan_ring_consistent(ShardedDriver& d,
                            const std::vector<RingEntry>& ring) {
  std::size_t active_nodes = 0;
  for (const net::Address a : d.live_addresses()) {
    const auto* n = d.node(a);
    if (n == nullptr || !n->active()) continue;
    ++active_nodes;
    const auto succ = rescan_successor(ring, n->descriptor().id);
    const auto right = n->leaf_set().right_neighbour();
    if (!succ) {
      if (right) return false;
      continue;
    }
    if (!right || right->addr != succ->addr) return false;
  }
  return active_nodes >= 2;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ull;
  return h;
}

struct Digests {
  std::uint64_t incremental = 0xcbf29ce484222325ull;
  std::uint64_t rescan = 0xcbf29ce484222325ull;
  int consistent_steps = 0;
  int inconsistent_steps = 0;
};

// Compare the incremental oracle against the rescan reference at the
// current instant, and fold both verdict streams into the digests.
void check_step(ShardedDriver& d, Digests& dig, int step) {
  const auto ring = rescan_ring(d);

  // successor_of must agree for every active id (and for probe keys that
  // are not members).
  for (const RingEntry& e : ring) {
    const auto inc = d.oracle().successor_of(e.id);
    const auto ref = rescan_successor(ring, e.id);
    ASSERT_EQ(inc.has_value(), ref.has_value()) << "step " << step;
    if (inc) {
      ASSERT_EQ(inc->first, ref->id) << "step " << step;
      ASSERT_EQ(inc->second, ref->addr) << "step " << step;
      dig.incremental = fnv(dig.incremental, inc->first.value().lo);
      dig.incremental = fnv(dig.incremental,
                            static_cast<std::uint64_t>(inc->second));
      dig.rescan = fnv(dig.rescan, ref->id.value().lo);
      dig.rescan = fnv(dig.rescan, static_cast<std::uint64_t>(ref->addr));
    }
  }

  const bool inc_ok = d.oracle().ring_consistent();
  const bool ref_ok = rescan_ring_consistent(d, ring);
  EXPECT_EQ(inc_ok, ref_ok)
      << "consistency verdicts diverged at step " << step << " (active "
      << ring.size() << ", inconsistent " << d.oracle().inconsistent_count()
      << ")";
  dig.incremental = fnv(dig.incremental, inc_ok ? 1 : 0);
  dig.rescan = fnv(dig.rescan, ref_ok ? 1 : 0);
  (inc_ok ? dig.consistent_steps : dig.inconsistent_steps) += 1;
}

TEST(OracleDifferential, RandomChurnAndFaultsMatchFullRescan) {
  auto topo = std::make_shared<net::TransitStubTopology>(
      net::TransitStubParams::scaled(4, 3, 4));
  DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.0;
  cfg.warmup = 0;
  cfg.seed = 0xd1ff;
  auto driver =
      std::make_unique<ShardedDriver>(topo, net::NetworkConfig{}, cfg, 1);
  Rng script(0x5c217);

  // Bootstrap a small overlay.
  for (int i = 0; i < 24; ++i) {
    driver->add_node();
    driver->run_for(seconds(2));
  }
  driver->run_for(minutes(5));

  Digests dig;
  check_step(*driver, dig, -1);

  // A mid-run fault window stirs leaf sets: 20% uniform loss plus one
  // flapping victim. Mismatch windows (false negatives, repair traffic)
  // must be reported identically by both implementations.
  const SimTime f0 = driver->now() + seconds(60);
  const SimTime f1 = f0 + seconds(90);
  {
    auto loss = net::FaultRule::loss(net::LinkMatcher::all(), 0.2, f0, f1);
    loss.seed = script.next_u64();
    driver->add_fault_rule(loss);
    const auto addrs = driver->live_addresses();
    auto flap = net::FaultRule::flap(
        net::LinkMatcher::endpoint({addrs[script.uniform_index(addrs.size())]}),
        seconds(10), 0.5, f0, f1);
    flap.seed = script.next_u64();
    driver->add_fault_rule(flap);
  }

  for (int step = 0; step < 220; ++step) {
    const double roll = script.uniform(0.0, 1.0);
    const auto addrs = driver->live_addresses();
    if (roll < 0.20) {
      driver->add_node();
    } else if (roll < 0.40 && addrs.size() > 6) {
      // Kill a random live node — sometimes one still mid-join, which
      // exercises the not-yet-active removal path.
      driver->kill_node(addrs[script.uniform_index(addrs.size())]);
    } else if (roll < 0.46 && addrs.size() > 6) {
      driver->leave_node(addrs[script.uniform_index(addrs.size())]);
    }
    driver->run_for(seconds(1 + script.uniform_index(8)));
    check_step(*driver, dig, step);
  }

  // Let the overlay heal and verify both sides converge to "consistent".
  driver->run_for(minutes(10));
  check_step(*driver, dig, 9999);
  EXPECT_TRUE(driver->oracle().ring_consistent());

  EXPECT_EQ(dig.incremental, dig.rescan)
      << "incremental oracle is not digest-identical to the full rescan";
  // The trace must exercise both verdicts, or the comparison proves
  // nothing: kills leave stale right neighbours until detection, so some
  // steps are inconsistent; quiet stretches reconverge.
  EXPECT_GT(dig.consistent_steps, 0);
  EXPECT_GT(dig.inconsistent_steps, 0);
}

}  // namespace
}  // namespace mspastry
