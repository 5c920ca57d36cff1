#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"

namespace mspastry {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Cross-shard hand-off as ShardedDriver does it: per-(src, dst) rows,
/// each written only by the src shard's worker during the parallel phase,
/// scheduled onto dst in row order by the barrier hook.
class Outbox {
 public:
  explicit Outbox(ShardedSimulator& eng)
      : eng_(eng), rows_(eng.shards() * eng.shards()) {}

  void post(std::size_t src, std::size_t dst, SimTime t,
            Simulator::Callback fn) {
    EXPECT_GE(t, eng_.epoch_end()) << "cross-shard event inside the epoch";
    rows_[src * eng_.shards() + dst].push_back(Posted{t, std::move(fn)});
  }

  /// The run_until barrier hook.
  ShardedSimulator::BarrierFn hook() {
    return [this](SimTime) {
      const std::size_t n = eng_.shards();
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        for (Posted& p : rows_[i]) {
          eng_.shard(i % n).schedule_at(p.t, std::move(p.fn));
        }
        rows_[i].clear();
      }
    };
  }

 private:
  struct Posted {
    SimTime t;
    Simulator::Callback fn;
  };
  ShardedSimulator& eng_;
  std::vector<std::vector<Posted>> rows_;
};

constexpr int kActors = 12;
constexpr SimDuration kL = 64;  // engine lookahead under test
constexpr SimTime kHorizon = 400'000'000;
constexpr int kTtl = 60;
constexpr int kTicketBits = 13;
constexpr SimTime kGrid = SimTime{kActors} << kTicketBits;

/// A deterministic message-passing workload whose behavior depends on
/// arrival *order*: each actor folds every delivery into running state,
/// and what it sends next depends on that state. Every delivery time is
/// unique by construction — its residue mod kGrid is a ticket encoding
/// (sender, per-sender send counter), so no two sends can ever land on
/// the same instant regardless of execution interleaving (checked via
/// time_collision) — so the order, and therefore the digest, must be
/// identical on the raw simulator and on the sharded engine at any
/// shard count.
struct World {
  struct Actor {
    std::uint64_t state = 0x243f6a8885a308d3ull;
    std::uint64_t digest = 14695981039346656037ull;
    std::uint64_t received = 0;
    std::uint64_t sends = 0;
    SimTime last = -1;
    bool time_collision = false;
  };
  std::array<Actor, kActors> actors;

  /// post(from, to, at, value, ttl); from == -1 seeds the workload.
  std::function<void(int, int, SimTime, std::uint64_t, int)> post;

  void receive(int self, SimTime t, std::uint64_t v, int ttl) {
    Actor& a = actors[static_cast<std::size_t>(self)];
    if (t <= a.last) a.time_collision = true;  // would make order ambiguous
    a.last = t;
    a.state = mix64(a.state ^ v ^ static_cast<std::uint64_t>(t));
    a.digest = (a.digest ^ a.state) * 1099511628211ull;
    ++a.received;
    if (ttl <= 0) return;
    // Expected fanout ≈ 2/6 + (5/6)(12/13) ≈ 1.10: mildly supercritical,
    // so the cascade neither dies out nor explodes before the TTL.
    const int fanout =
        a.state % 6 == 0 ? 2 : (a.state % 13 == 0 ? 0 : 1);
    for (int k = 0; k < fanout; ++k) {
      const std::uint64_t h = mix64(a.state + static_cast<std::uint64_t>(k));
      const int to = static_cast<int>(h % kActors);
      // Unique-by-construction delivery time: round past t + kL (the
      // cross-shard contract) onto the kGrid lattice, add a random hop
      // count of grid steps, and stamp the (sender, send counter) ticket
      // into the residue. Tickets only repeat after 2^kTicketBits sends
      // by one actor — far beyond this workload — and the collision flag
      // would catch it.
      const SimTime ticket =
          (SimTime{self} << kTicketBits) |
          static_cast<SimTime>(a.sends++ & ((1u << kTicketBits) - 1));
      const SimTime q = (t + kL) / kGrid + 1 + static_cast<SimTime>(
                                                   (h >> 8) % 15);
      post(self, to, q * kGrid + ticket, mix64(h), ttl - 1);
    }
  }

  void seed() {
    for (int i = 0; i < kActors; ++i) {
      post(-1, i, kActors + i, mix64(1000 + static_cast<std::uint64_t>(i)),
           kTtl);
    }
  }

  /// Per-actor digests combined in actor-id order: invariant across any
  /// actor→shard placement.
  std::uint64_t combined() const {
    std::uint64_t d = 1469598103934665603ull;
    for (const Actor& a : actors) {
      EXPECT_FALSE(a.time_collision);
      d = (d ^ a.digest) * 1099511628211ull;
      d = (d ^ a.received) * 1099511628211ull;
    }
    return d;
  }

  std::uint64_t total_received() const {
    std::uint64_t n = 0;
    for (const Actor& a : actors) n += a.received;
    return n;
  }
};

std::uint64_t run_raw(std::uint64_t* events_out = nullptr) {
  Simulator sim;
  World w;
  w.post = [&](int, int to, SimTime at, std::uint64_t v, int ttl) {
    sim.schedule_at(at, [&w, to, at, v, ttl] { w.receive(to, at, v, ttl); });
  };
  w.seed();
  sim.run_until(kHorizon);
  if (events_out != nullptr) *events_out = sim.executed_events();
  return w.combined();
}

std::uint64_t run_sharded(std::size_t shards,
                          std::uint64_t* events_out = nullptr,
                          std::uint64_t* epochs_out = nullptr) {
  ShardedSimulator eng(shards, kL);
  Outbox out(eng);
  World w;
  const auto shard_of = [&eng](int a) {
    return static_cast<std::size_t>(a) % eng.shards();
  };
  w.post = [&](int from, int to, SimTime at, std::uint64_t v, int ttl) {
    const std::size_t dst = shard_of(to);
    const std::size_t src = from < 0 ? dst : shard_of(from);
    if (src == dst) {
      eng.shard(dst).schedule_at(
          at, [&w, to, at, v, ttl] { w.receive(to, at, v, ttl); });
    } else {
      out.post(src, dst, at,
               [&w, to, at, v, ttl] { w.receive(to, at, v, ttl); });
    }
  };
  w.seed();
  eng.run_until(kHorizon, out.hook());
  if (events_out != nullptr) *events_out = eng.executed_events();
  if (epochs_out != nullptr) *epochs_out = eng.epochs();
  return w.combined();
}

TEST(ShardedSim, MatchesRawSimulatorAtEveryShardCount) {
  std::uint64_t raw_events = 0;
  const std::uint64_t want = run_raw(&raw_events);
  ASSERT_GT(raw_events, 1000u);  // the workload actually did something
  for (const std::size_t s : {1u, 2u, 4u, 8u}) {
    std::uint64_t events = 0;
    std::uint64_t epochs = 0;
    const std::uint64_t got = run_sharded(s, &events, &epochs);
    EXPECT_EQ(got, want) << "shards=" << s;
    EXPECT_EQ(events, raw_events) << "shards=" << s;
    if (s > 1) {
      EXPECT_GT(epochs, 1u) << "shards=" << s;
    }
  }
}

TEST(ShardedSim, ZeroLookaheadFallsBackToSingleShard) {
  ShardedSimulator eng(4, 0);
  EXPECT_EQ(eng.shards(), 1u);
  EXPECT_EQ(eng.requested_shards(), 4u);
  int fired = 0;
  eng.shard(0).schedule_at(10, [&fired] { ++fired; });
  eng.run_until(100);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSim, NegativeLookaheadFallsBackToSingleShard) {
  ShardedSimulator eng(8, -5);
  EXPECT_EQ(eng.shards(), 1u);
}

TEST(ShardedSim, DeliveryExactlyAtEpochBoundaryExecutesOnce) {
  // Shard 0's t=0 event posts to shard 1 at exactly now + lookahead —
  // the first epoch's end. The conservative contract allows it: events
  // with t == epoch_end run in the *next* epoch.
  ShardedSimulator eng(2, 100);
  ASSERT_EQ(eng.shards(), 2u);
  Outbox out(eng);
  int fired = 0;
  SimTime fired_at = -1;
  eng.shard(0).schedule_at(0, [&] {
    out.post(0, 1, eng.shard(0).now() + 100, [&] {
      ++fired;
      fired_at = eng.shard(1).now();
    });
  });
  eng.run_until(1000, out.hook());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fired_at, 100);
  EXPECT_GE(eng.epochs(), 2u);
}

TEST(ShardedSim, CancellationRacingABarrierIsDeterministic) {
  // Shard 0 arms a timer for t=500, then cancels it at t=450 — inside an
  // epoch whose barrier also drains a cross-shard delivery landing at
  // t=500 on shard 0. The cancel must kill only the timer; the drained
  // delivery must still fire. Run at 1 and 2 shards and compare.
  const auto run = [](std::size_t shards) {
    ShardedSimulator eng(shards, 100);
    Outbox out(eng);
    std::uint64_t digest = 0;
    TimerId timer = kInvalidTimer;
    eng.shard(0).schedule_at(0, [&] {
      timer = eng.shard(0).schedule_at(500, [&] { digest |= 1; });
    });
    eng.shard(0).schedule_at(450, [&] { eng.shard(0).cancel(timer); });
    const std::size_t src = eng.shards() > 1 ? 1 : 0;
    eng.shard(src).schedule_at(390, [&, src] {
      const SimTime at = eng.shard(src).now() + 110;  // = 500
      if (src == 0) {
        eng.shard(0).schedule_at(at, [&] { digest |= 2; });
      } else {
        out.post(1, 0, at, [&] { digest |= 2; });
      }
    });
    eng.run_until(1000, out.hook());
    return digest;
  };
  EXPECT_EQ(run(1), 2u);
  EXPECT_EQ(run(2), 2u);
}

TEST(ShardedSim, PostBeforeRunAndIdleShardsAreHarmless) {
  // Shards with no work must not stall the others, and posting before
  // the first epoch (epoch_end == 0) is allowed.
  ShardedSimulator eng(4, 50);
  ASSERT_EQ(eng.shards(), 4u);
  Outbox out(eng);
  int fired = 0;
  out.post(0, 3, 75, [&fired] { ++fired; });
  eng.shard(0).schedule_at(10, [] {});
  eng.run_until(10'000, out.hook());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.executed_events(), 2u);
}

/// Tokens hopping around a ring of actors, one hop per lookahead, all in
/// lockstep on multiples of kL: each epoch is one such instant and runs
/// one event per token alive then, so a run is almost nothing but epoch
/// turnovers. Token k hops from tokens[k].start until tokens[k].stop.
/// Each token folds its own path into its own state, so the digest does
/// not depend on the order in which same-time hops execute.
constexpr int kRingActors = 8;

struct Token {
  SimTime start = 0;
  SimTime stop = kTimeNever;
};

/// `n` tokens alive over [start, stop).
std::vector<Token> tokens(std::size_t n, SimTime start = 0,
                          SimTime stop = kTimeNever) {
  return std::vector<Token>(n, Token{start, stop});
}

/// The 2-token ring: ~2 events per epoch, far below the pool's threshold.
std::vector<Token> sparse_ring() { return tokens(2); }

/// Twice the pool's threshold of events per epoch, for the whole run.
std::vector<Token> dense_ring() {
  return tokens(2 * ShardedSimulator::kDenseEventsPerEpoch);
}

/// One epoch of a raw ring run: its events, and a bit per shard (under
/// the engine's actor % shards placement) that had one of them.
struct EpochLoad {
  std::uint64_t events = 0;
  std::uint32_t shards = 0;
};

struct RingRun {
  std::uint64_t events = 0;
  std::uint64_t cross_posts = 0;  // hops between actors on different shards
  std::uint64_t digest = 0;
  std::vector<EpochLoad> epochs;  // raw runs only
};

struct Ring {
  std::vector<Token> tokens;
  std::vector<std::uint64_t> state;
  /// hop(token, from_actor, to_actor, at)
  std::function<void(int, int, int, SimTime)> hop;

  explicit Ring(std::vector<Token> t)
      : tokens(std::move(t)), state(tokens.size(), 0) {}

  void arrive(int token, int actor, SimTime t) {
    const auto k = static_cast<std::size_t>(token);
    std::uint64_t& st = state[k];
    st = mix64(st ^ (static_cast<std::uint64_t>(actor) << 40) ^
               static_cast<std::uint64_t>(t));
    const int next =
        (actor + 1 + static_cast<int>(st % (kRingActors - 1))) % kRingActors;
    if (t + kL < tokens[k].stop) hop(token, actor, next, t + kL);
  }

  void seed() {
    for (std::size_t k = 0; k < tokens.size(); ++k) {
      hop(static_cast<int>(k), -1, static_cast<int>(k % kRingActors),
          tokens[k].start);
    }
  }

  std::uint64_t digest() const {
    std::uint64_t d = 1469598103934665603ull;
    for (const std::uint64_t st : state) d = (d ^ st) * 1099511628211ull;
    return d;
  }
};

/// The ring on the raw simulator; cross_posts and epochs assume the
/// engine's actor % shards placement.
RingRun ring_raw(std::size_t shards, SimTime horizon,
                 const std::vector<Token>& toks) {
  Simulator sim;
  Ring ring(toks);
  RingRun r;
  std::vector<EpochLoad> loads(static_cast<std::size_t>(horizon / kL) + 1);
  ring.hop = [&](int token, int from, int to, SimTime at) {
    const std::size_t dst = static_cast<std::size_t>(to) % shards;
    if (from >= 0 && static_cast<std::size_t>(from) % shards != dst) {
      ++r.cross_posts;
    }
    sim.schedule_at(at, [&ring, &loads, dst, token, to, at] {
      EpochLoad& l = loads[static_cast<std::size_t>(at / kL)];
      ++l.events;
      l.shards |= 1u << dst;
      ring.arrive(token, to, at);
    });
  };
  ring.seed();
  sim.run_until(horizon);
  r.events = sim.executed_events();
  r.digest = ring.digest();
  for (const EpochLoad& l : loads) {
    if (l.events > 0) r.epochs.push_back(l);
  }
  return r;
}

RingRun ring_sharded(ShardedSimulator& eng, SimTime horizon,
                     const std::vector<Token>& toks) {
  Outbox out(eng);
  Ring ring(toks);
  RingRun r;
  // One counter per source shard: only that shard's worker writes it.
  std::vector<std::uint64_t> posts(eng.shards(), 0);
  const auto shard_of = [&eng](int a) {
    return static_cast<std::size_t>(a) % eng.shards();
  };
  ring.hop = [&](int token, int from, int to, SimTime at) {
    const std::size_t dst = shard_of(to);
    const std::size_t src = from < 0 ? dst : shard_of(from);
    auto fn = [&ring, token, to, at] { ring.arrive(token, to, at); };
    if (src == dst) {
      eng.shard(dst).schedule_at(at, std::move(fn));
    } else {
      ++posts[src];
      out.post(src, dst, at, std::move(fn));
    }
  };
  ring.seed();
  eng.run_until(horizon, out.hook());
  r.cross_posts = std::accumulate(posts.begin(), posts.end(), std::uint64_t{0});
  r.events = eng.executed_events();
  r.digest = ring.digest();
  return r;
}

/// The engine's dispatch rule replayed on a raw run's epochs: an epoch
/// goes to the pool when at least two shards have work in it and the
/// last completed window of kDispatchWindow epochs averaged at least
/// kDenseEventsPerEpoch events.
std::uint64_t predicted_pool_epochs(const std::vector<EpochLoad>& epochs) {
  constexpr std::uint64_t kWindow = ShardedSimulator::kDispatchWindow;
  std::uint64_t pool = 0;
  std::uint64_t window_events = 0;
  bool dense = false;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (dense && std::popcount(epochs[i].shards) >= 2) ++pool;
    window_events += epochs[i].events;
    if ((i + 1) % kWindow == 0) {
      dense = window_events >= kWindow * ShardedSimulator::kDenseEventsPerEpoch;
      window_events = 0;
    }
  }
  return pool;
}

std::uint64_t histogram_total(const ShardedSimulator::EpochTelemetry& t) {
  return std::accumulate(t.events_per_epoch_log2.begin(),
                         t.events_per_epoch_log2.end(), std::uint64_t{0});
}

TEST(ShardedSim, HundredThousandNearEmptyEpochsMatchRawSimulator) {
  // ~100k epochs of two events each, at 2 and 4 shards: too sparse for
  // the pool, so the main thread runs every one and takes no clock read.
  constexpr SimTime kRingHorizon = 100'000 * kL;
  for (const std::size_t s : {2u, 4u}) {
    const RingRun want = ring_raw(s, kRingHorizon, sparse_ring());
    ASSERT_GT(want.cross_posts, 100'000u);
    ShardedSimulator eng(s, kL);
    const RingRun got = ring_sharded(eng, kRingHorizon, sparse_ring());
    EXPECT_EQ(got.events, want.events) << "shards=" << s;
    EXPECT_EQ(got.cross_posts, want.cross_posts) << "shards=" << s;
    EXPECT_EQ(got.digest, want.digest) << "shards=" << s;
    EXPECT_GE(eng.epochs(), 100'000u) << "shards=" << s;
    EXPECT_EQ(want.epochs.size(), eng.epochs()) << "shards=" << s;

    // Every epoch ran exactly two events: all in bucket 2.
    const auto& t = eng.epoch_telemetry();
    EXPECT_EQ(t.events_per_epoch_log2[2], eng.epochs()) << "shards=" << s;
    EXPECT_EQ(histogram_total(t), eng.epochs()) << "shards=" << s;
    EXPECT_EQ(t.pool_epochs, 0u) << "shards=" << s;
    EXPECT_EQ(t.busy_ns, std::vector<std::uint64_t>(s, 0)) << "shards=" << s;
    EXPECT_EQ(t.wait_ns, std::vector<std::uint64_t>(s, 0)) << "shards=" << s;
    EXPECT_EQ(t.serial_ns, 0u) << "shards=" << s;
  }
}

TEST(ShardedSim, TwentyThousandDensePoolEpochsMatchRawSimulator) {
  // Barrier stress: a dense ring crosses the pool's barrier twice per
  // epoch for over 20k epochs, at 2 and 4 shards.
  constexpr SimTime kRingHorizon = 20'500 * kL;
  for (const std::size_t s : {2u, 4u}) {
    const RingRun want = ring_raw(s, kRingHorizon, dense_ring());
    ShardedSimulator eng(s, kL);
    const RingRun got = ring_sharded(eng, kRingHorizon, dense_ring());
    EXPECT_EQ(got.events, want.events) << "shards=" << s;
    EXPECT_EQ(got.cross_posts, want.cross_posts) << "shards=" << s;
    EXPECT_EQ(got.digest, want.digest) << "shards=" << s;

    const auto& t = eng.epoch_telemetry();
    EXPECT_GE(t.pool_epochs, 20'000u) << "shards=" << s;
    EXPECT_EQ(t.pool_epochs, predicted_pool_epochs(want.epochs))
        << "shards=" << s;
    EXPECT_EQ(histogram_total(t), eng.epochs()) << "shards=" << s;
    ASSERT_EQ(t.busy_ns.size(), s);
    ASSERT_EQ(t.wait_ns.size(), s);
    for (std::size_t i = 0; i < s; ++i) {
      EXPECT_GT(t.busy_ns[i], 0u) << "shards=" << s << " shard " << i;
    }
    EXPECT_GT(t.serial_ns, 0u) << "shards=" << s;
  }
}

TEST(ShardedSim, PoolRunsOnlyTheDensePhase) {
  // Sparse, dense, sparse: 2 tokens throughout, and 4·K more in the
  // middle third. The pool takes the dense phase one window late and
  // hands the last sparse phase back one window late.
  constexpr SimTime kDenseFrom = 3'000 * kL;
  constexpr SimTime kDenseTo = 6'000 * kL;
  constexpr SimTime kRingHorizon = 9'000 * kL;
  std::vector<Token> toks = sparse_ring();
  const std::vector<Token> burst = tokens(
      4 * ShardedSimulator::kDenseEventsPerEpoch, kDenseFrom, kDenseTo);
  toks.insert(toks.end(), burst.begin(), burst.end());
  constexpr std::uint64_t kWindow = ShardedSimulator::kDispatchWindow;
  for (const std::size_t s : {2u, 4u}) {
    const RingRun want = ring_raw(s, kRingHorizon, toks);
    ShardedSimulator eng(s, kL);
    const RingRun got = ring_sharded(eng, kRingHorizon, toks);
    EXPECT_EQ(got.events, want.events) << "shards=" << s;
    EXPECT_EQ(got.cross_posts, want.cross_posts) << "shards=" << s;
    EXPECT_EQ(got.digest, want.digest) << "shards=" << s;
    EXPECT_EQ(want.epochs.size(), eng.epochs()) << "shards=" << s;

    const auto& t = eng.epoch_telemetry();
    EXPECT_EQ(t.pool_epochs, predicted_pool_epochs(want.epochs))
        << "shards=" << s;
    // 3,000 dense epochs, give or take the window's lag at either end.
    const std::uint64_t dense_epochs = (kDenseTo - kDenseFrom) / kL;
    EXPECT_GE(t.pool_epochs, dense_epochs - 2 * kWindow) << "shards=" << s;
    EXPECT_LE(t.pool_epochs, dense_epochs + kWindow) << "shards=" << s;
    EXPECT_EQ(histogram_total(t), eng.epochs()) << "shards=" << s;
  }
}

TEST(ShardedSim, SingleShardRunRecordsNoEpochTelemetry) {
  ShardedSimulator eng(1, kL);
  const RingRun got = ring_sharded(eng, 1000 * kL, dense_ring());
  EXPECT_GT(got.events, 1000u);
  const auto& t = eng.epoch_telemetry();
  EXPECT_EQ(t.pool_epochs, 0u);
  EXPECT_TRUE(t.busy_ns.empty());
  EXPECT_TRUE(t.wait_ns.empty());
  EXPECT_EQ(t.serial_ns, 0u);
  EXPECT_EQ(histogram_total(t), 0u);
}

TEST(ShardedSim, OversubscribedPoolCompletes) {
  // One more thread than the host has hardware threads (capped at 8):
  // the barrier must park instead of spinning, and still finish.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t s = std::max(2u, std::min(hw + 1, 8u));
  constexpr SimTime kRingHorizon = 20'000 * kL;
  const RingRun want = ring_raw(s, kRingHorizon, dense_ring());
  ShardedSimulator eng(s, kL);
  ASSERT_EQ(eng.shards(), s);
  const RingRun got = ring_sharded(eng, kRingHorizon, dense_ring());
  EXPECT_EQ(got.events, want.events) << "shards=" << s;
  EXPECT_EQ(got.cross_posts, want.cross_posts) << "shards=" << s;
  EXPECT_EQ(got.digest, want.digest) << "shards=" << s;
  EXPECT_GT(eng.epoch_telemetry().pool_epochs, 0u) << "shards=" << s;
}

TEST(ShardedSim, DestroyingAPoolParkedAtEpochStartJoins) {
  // After run_until returns, the workers wait at the next epoch's start
  // crossing; past the spin budget they park. Destruction must wake and
  // join them.
  constexpr SimTime kRingHorizon = 200 * kL;
  for (const std::size_t s : {2u, 4u}) {
    const RingRun want = ring_raw(s, kRingHorizon, dense_ring());
    for (int round = 0; round < 3; ++round) {
      RingRun got;
      {
        ShardedSimulator eng(s, kL);
        got = ring_sharded(eng, kRingHorizon, dense_ring());
        EXPECT_GT(eng.epoch_telemetry().pool_epochs, 0u) << "shards=" << s;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      EXPECT_EQ(got.digest, want.digest) << "shards=" << s;
      EXPECT_EQ(got.events, want.events) << "shards=" << s;
    }
  }
}

}  // namespace
}  // namespace mspastry
