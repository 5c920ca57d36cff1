// PeerTable against a std::unordered_map reference model: random
// insert/find/erase sequences, plus hand-built layouts for the cases a
// linear-probing table gets wrong — clusters that wrap past the last slot,
// backward-shift deletion inside a cluster, and growth during an insert.

#include "pastry/peer_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace mspastry::pastry {
namespace {

using Model = std::unordered_map<net::Address, SimTime>;

/// Every address the model knows is in the table with the model's value,
/// every probed address the model lacks is absent, and the sizes agree.
void expect_matches(const PeerTable& t, const Model& model,
                    net::Address universe) {
  ASSERT_EQ(t.size(), model.size());
  for (net::Address a = 0; a < universe; ++a) {
    const PeerState* p = t.find(a);
    const auto it = model.find(a);
    if (it == model.end()) {
      EXPECT_EQ(p, nullptr) << "address " << a;
    } else {
      ASSERT_NE(p, nullptr) << "address " << a;
      EXPECT_EQ(p->last_heard, it->second) << "address " << a;
    }
  }
}

/// `count` addresses >= `from` whose probe starts at `slot`.
std::vector<net::Address> keys_homed_at(const PeerTable& t, std::size_t slot,
                                        int count, net::Address from = 0) {
  std::vector<net::Address> out;
  for (net::Address a = from; static_cast<int>(out.size()) < count; ++a) {
    if (t.home(a) == slot) out.push_back(a);
  }
  return out;
}

TEST(PeerTable, EmptyTableFindsNothing) {
  PeerTable t;
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_EQ(t.find(net::kNullAddress), nullptr);
  EXPECT_FALSE(t.erase(7));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.bytes(), 0u);
}

TEST(PeerTable, FreshRecordIsDefault) {
  PeerTable t;
  PeerState& p = t.get(5);
  EXPECT_EQ(p.present, 0);
  EXPECT_FALSE(p.excluded);
  EXPECT_FALSE(p.rtt.seeded());
  p.stamp(PeerState::kSent, p.last_sent, 42);
  p.excluded = true;
  p.rtt.sample(milliseconds(10));
  EXPECT_TRUE(t.find(5)->has(PeerState::kSent));
  EXPECT_FALSE(t.find(5)->has(PeerState::kHeard));
  // Erase forgets every field: the next record for the address is fresh.
  EXPECT_TRUE(t.erase(5));
  EXPECT_EQ(t.find(5), nullptr);
  const PeerState& q = t.get(5);
  EXPECT_EQ(q.present, 0);
  EXPECT_FALSE(q.excluded);
  EXPECT_FALSE(q.rtt.seeded());
}

TEST(PeerTable, RandomOperationsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    PeerTable t;
    Model model;
    // A small universe keeps the hit rate of finds and erases high; the
    // insert bias makes the table grow through several doublings.
    const net::Address universe = seed % 2 == 0 ? 64 : 700;
    for (int op = 0; op < 20000; ++op) {
      const auto a = static_cast<net::Address>(rng.uniform_index(
          static_cast<std::uint64_t>(universe)));
      const std::uint64_t kind = rng.uniform_index(10);
      if (kind < 5) {
        PeerState& p = t.get(a);
        p.stamp(PeerState::kHeard, p.last_heard, op);
        model[a] = op;
      } else if (kind < 8) {
        EXPECT_EQ(t.erase(a), model.erase(a) > 0);
      } else {
        const PeerState* p = t.find(a);
        const auto it = model.find(a);
        ASSERT_EQ(p != nullptr, it != model.end());
        if (p != nullptr) {
          EXPECT_EQ(p->last_heard, it->second);
        }
      }
      ASSERT_EQ(t.size(), model.size());
      ASSERT_LE(t.size() * 4, t.capacity() * 3);  // load stays <= 3/4
      if (op % 1000 == 0) expect_matches(t, model, universe);
    }
    expect_matches(t, model, universe);
  }
}

TEST(PeerTable, ClusterWrapsPastLastSlot) {
  PeerTable t;
  t.get(1'000'000);  // allocate the minimum table
  const std::size_t cap = t.capacity();
  const std::size_t last = cap - 1;
  // Four keys homed at the last slot occupy it and wrap into slots 0-2;
  // two keys homed at slot 0 land behind them.
  const auto tail = keys_homed_at(t, last, 4);
  const auto head = keys_homed_at(t, 0, 2);
  Model model{{1'000'000, 0}};
  SimTime v = 1;
  for (const auto a : tail) t.get(a).last_heard = model[a] = v++;
  for (const auto a : head) t.get(a).last_heard = model[a] = v++;
  ASSERT_EQ(t.capacity(), cap);  // no growth: the layout is as built
  const net::Address universe = std::max(tail.back(), head.back()) + 1;
  expect_matches(t, model, universe);

  // Deleting inside the wrapped run shifts the later members back across
  // the end of the array; each key must stay reachable from its home.
  for (const auto a : {tail[0], tail[2], head[0]}) {
    EXPECT_TRUE(t.erase(a));
    model.erase(a);
    expect_matches(t, model, universe);
  }
  // Re-inserting fills the holes without duplicating anyone.
  for (const auto a : {tail[2], head[0], tail[0]}) {
    t.get(a).last_heard = model[a] = v++;
    expect_matches(t, model, universe);
  }
}

TEST(PeerTable, BackwardShiftKeepsClusterReachable) {
  PeerTable t;
  t.get(1'000'000);
  const std::size_t h = 5;
  // Three keys share home h; one key homed at h + 1 is pushed behind
  // them, and one homed at h + 4 sits at its own home after the run.
  const auto same = keys_homed_at(t, h, 3);
  const auto next = keys_homed_at(t, h + 1, 1);
  const auto own = keys_homed_at(t, h + 4, 1);
  Model model{{1'000'000, 0}};
  SimTime v = 1;
  for (const auto a : same) t.get(a).last_heard = model[a] = v++;
  t.get(next[0]).last_heard = model[next[0]] = v++;
  t.get(own[0]).last_heard = model[own[0]] = v++;
  const net::Address universe =
      std::max({same.back(), next[0], own[0]}) + 1;
  expect_matches(t, model, universe);

  // Erase the middle of the shared-home run, then its head: the h + 1
  // key must move back without passing its own home.
  EXPECT_TRUE(t.erase(same[1]));
  model.erase(same[1]);
  expect_matches(t, model, universe);
  EXPECT_TRUE(t.erase(same[0]));
  model.erase(same[0]);
  expect_matches(t, model, universe);
  EXPECT_FALSE(t.erase(same[0]));  // already gone
  EXPECT_TRUE(t.erase(next[0]));
  model.erase(next[0]);
  expect_matches(t, model, universe);
}

TEST(PeerTable, GrowthDuringInsertKeepsEveryRecord) {
  PeerTable t;
  t.get(0);
  const std::size_t cap = t.capacity();
  Model model{{0, 0}};
  net::Address a = 1;
  // Fill to exactly 3/4 load: no growth yet.
  while ((t.size() + 1) * 4 <= cap * 3) {
    PeerState& p = t.get(a);
    p.last_heard = model[a] = 10 * a;
    p.excluded = a % 3 == 0;
    ++a;
  }
  ASSERT_EQ(t.capacity(), cap);
  // The next insert doubles the table; the record it returns is the new
  // one and every old record moved intact.
  PeerState& fresh = t.get(a);
  EXPECT_EQ(t.capacity(), 2 * cap);
  EXPECT_EQ(fresh.present, 0);
  fresh.last_heard = model[a] = 10 * a;
  expect_matches(t, model, a + 1);
  EXPECT_EQ(t.count_if([](const PeerState& p) { return p.excluded; }),
            static_cast<std::size_t>((a - 1) / 3));
  EXPECT_EQ(t.bytes(),
            t.capacity() * (sizeof(net::Address) + sizeof(PeerState)));
}

}  // namespace
}  // namespace mspastry::pastry
