// Message-pool invariants (PR-3 "zero-allocation message path"): slot
// reuse, generation-checked recycling, aliasing semantics under the fault
// plan's duplication rule, SmallVec payload behaviour, and a randomized
// differential check that a pooled delivery sequence is content-identical
// to the same sequence over the pre-PR-3 shared_ptr representation.
// Replayed on the warm pool, the same sequence allocates no heap.

#include "pastry/message_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <vector>

#include "common/small_vec.hpp"
#include "pastry/message.hpp"

namespace mspastry {
namespace {

using pastry::MessagePool;
using pastry::MsgType;
using pastry::NodeDescriptor;

NodeDescriptor desc(std::uint64_t hi, std::uint64_t lo, std::int32_t addr) {
  return NodeDescriptor{NodeId{hi, lo}, addr};
}

// --- Slot reuse and generations ---------------------------------------------

TEST(MessagePool, ReusesSlotAndBumpsGeneration) {
  MessagePool pool;
  auto m1 = pastry::make_msg<pastry::HeartbeatMsg>(pool);
  const void* addr1 = m1.get();
  const std::uint32_t gen1 = MessagePool::slot_generation(*m1);
  EXPECT_GE(gen1, 1u);
  m1.reset();
  EXPECT_EQ(pool.live(), 0u);

  auto m2 = pastry::make_msg<pastry::HeartbeatMsg>(pool);
  EXPECT_EQ(static_cast<const void*>(m2.get()), addr1)
      << "free list should hand back the recycled slot";
  EXPECT_EQ(MessagePool::slot_generation(*m2), gen1 + 1)
      << "recycled slot must be distinguishable from its previous life";
  EXPECT_EQ(pool.stats().reused, 1u);
}

TEST(MessagePool, DistinctTypesGetDistinctSlabs) {
  MessagePool pool;
  auto hb = pastry::make_msg<pastry::HeartbeatMsg>(pool);
  const void* hb_addr = hb.get();
  hb.reset();
  // An allocation of a different type must not reuse the heartbeat slot.
  auto ack = pastry::make_msg<pastry::AckMsg>(pool);
  EXPECT_NE(static_cast<const void*>(ack.get()), hb_addr);
  // But the same type does.
  auto hb2 = pastry::make_msg<pastry::HeartbeatMsg>(pool);
  EXPECT_EQ(static_cast<const void*>(hb2.get()), hb_addr);
}

TEST(MessagePool, AliasPinsSlotUntilLastReferenceDrops) {
  // The fault plan's duplication rule delivers one packet several times:
  // the duplicates are refcount aliases of one slot, and the slot must
  // not recycle while any of them is still in flight.
  MessagePool pool;
  auto m = pastry::make_msg<pastry::AckMsg>(pool);
  m->hop_seq = 42;
  const std::uint32_t gen = MessagePool::slot_generation(*m);

  pastry::MessagePtr dup1(m);  // duplication aliases
  pastry::MessagePtr dup2(m);
  EXPECT_EQ(m.use_count(), 3u);

  m.reset();
  dup1.reset();
  ASSERT_EQ(pool.live(), 1u) << "slot recycled while an alias was live";
  EXPECT_EQ(MessagePool::slot_generation(*dup2), gen)
      << "generation must not change while the object is alive";
  EXPECT_EQ(static_cast<const pastry::AckMsg&>(*dup2).hop_seq, 42u);

  dup2.reset();
  EXPECT_EQ(pool.live(), 0u);
  auto next = pastry::make_msg<pastry::AckMsg>(pool);
  EXPECT_EQ(MessagePool::slot_generation(*next), gen + 1);
}

TEST(MessagePool, ChunksAmortizeAndSteadyStateIsHeapFree) {
  MessagePool pool;
  std::vector<pastry::MessagePtr> held;
  // First chunk covers kChunkSlots=64 live messages of one type.
  for (int i = 0; i < 64; ++i) {
    held.push_back(pastry::make_msg<pastry::HeartbeatMsg>(pool));
  }
  EXPECT_EQ(pool.stats().chunk_allocs, 1u);
  held.push_back(pastry::make_msg<pastry::HeartbeatMsg>(pool));
  EXPECT_EQ(pool.stats().chunk_allocs, 2u);
  held.clear();

  // Steady state: churning through any number of messages at a peak
  // occupancy the slabs have already seen carves no new chunks.
  const std::uint64_t chunks = pool.stats().chunk_allocs;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 65; ++i) {
      held.push_back(pastry::make_msg<pastry::HeartbeatMsg>(pool));
    }
    held.clear();
  }
  EXPECT_EQ(pool.stats().chunk_allocs, chunks);
  EXPECT_GT(pool.stats().reused, 0u);
}

TEST(MessagePool, LiveCountTracksOutstandingMessages) {
  MessagePool pool;
  auto a = pastry::make_msg<pastry::HeartbeatMsg>(pool);
  auto b = pastry::make_msg<pastry::AckMsg>(pool);
  EXPECT_EQ(pool.live(), 2u);
  a.reset();
  EXPECT_EQ(pool.live(), 1u);
  b.reset();
  EXPECT_EQ(pool.live(), 0u);
}

TEST(MessagePool, UnpooledObjectsReportGenerationZero) {
  auto m = make_refcounted<pastry::HeartbeatMsg>();
  EXPECT_EQ(MessagePool::slot_generation(*m), 0u);
}

// --- SmallVec payloads ------------------------------------------------------

TEST(SmallVecPayload, StaysInlineUpToCapacity) {
  const std::uint64_t spills0 = small_vec_spills();
  SmallVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(small_vec_spills(), spills0);
  v.push_back(4);  // fifth element crosses the inline capacity
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(small_vec_spills(), spills0 + 1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVecPayload, BulkAssignMatchesSource) {
  std::vector<NodeDescriptor> src;
  for (int i = 0; i < 20; ++i) {
    src.push_back(desc(i, i * 7u, i));
  }
  SmallVec<NodeDescriptor, 32> v;
  v.assign(src.begin(), src.end());
  ASSERT_EQ(v.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(v[i].id, src[i].id);
    EXPECT_EQ(v[i].addr, src[i].addr);
  }
  EXPECT_FALSE(v.spilled());
  // Re-assign with fewer elements reuses the buffer.
  v.assign(src.begin(), src.begin() + 3);
  EXPECT_EQ(v.size(), 3u);
}

TEST(SmallVecPayload, MoveStealsSpilledBuffer) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  ASSERT_TRUE(v.spilled());
  const int* buf = v.data();
  SmallVec<int, 2> w(std::move(v));
  EXPECT_EQ(w.data(), buf) << "move of a spilled vec should steal the block";
  EXPECT_EQ(w.size(), 10u);
  EXPECT_TRUE(v.empty());
}

// --- Randomized differential: pooled vs shared_ptr delivery sequences -------
//
// Mirror of the pre-PR-3 message representation (shared_ptr<const M>,
// std::vector payloads), kept local to the test. Both representations
// replay one random op sequence — allocate, fill, duplicate-alias, a
// lookup hop (incoming message plus its next-hop clone), a row-announce
// fan-out (one pooled message aliased per destination, one legacy
// message per destination), FIFO dispatch — and must fold to the same
// content digest.

namespace legacy {

struct Message {
  explicit Message(MsgType t) : type(t) {}
  virtual ~Message() = default;
  MsgType type;
  NodeDescriptor sender;
};

struct LsProbeMsg final : Message {
  explicit LsProbeMsg(bool reply)
      : Message(reply ? MsgType::kLsProbeReply : MsgType::kLsProbe) {}
  std::vector<NodeDescriptor> leaf;
  std::vector<NodeDescriptor> failed;
};

struct RtRowReplyMsg final : Message {
  RtRowReplyMsg() : Message(MsgType::kRtRowReply) {}
  int row = 0;
  std::vector<NodeDescriptor> entries;
};

struct RtRowAnnounceMsg final : Message {
  RtRowAnnounceMsg() : Message(MsgType::kRtRowAnnounce) {}
  int row = 0;
  std::vector<NodeDescriptor> entries;
};

struct AckMsg final : Message {
  AckMsg() : Message(MsgType::kAck) {}
  std::uint64_t hop_seq = 0;
};

struct LookupMsg final : Message {
  LookupMsg() : Message(MsgType::kLookup) {}
  NodeId key;
  std::uint64_t hop_seq = 0;
  std::uint64_t lookup_id = 0;
};

}  // namespace legacy

struct PooledTypes {
  using Probe = pastry::LsProbeMsg;
  using Row = pastry::RtRowReplyMsg;
  using Announce = pastry::RtRowAnnounceMsg;
  using Ack = pastry::AckMsg;
  using Lookup = pastry::LookupMsg;
};

struct LegacyTypes {
  using Probe = legacy::LsProbeMsg;
  using Row = legacy::RtRowReplyMsg;
  using Announce = legacy::RtRowAnnounceMsg;
  using Ack = legacy::AckMsg;
  using Lookup = legacy::LookupMsg;
};

std::uint64_t fold(std::uint64_t h, const NodeDescriptor& d) {
  h = (h * 0x100000001b3ull) ^ d.id.value().hi;
  h = (h * 0x100000001b3ull) ^ d.id.value().lo;
  h = (h * 0x100000001b3ull) ^ static_cast<std::uint32_t>(d.addr);
  return h;
}

template <class T, class Ptr>
std::uint64_t fold_msg(std::uint64_t h, const Ptr& p) {
  h = (h * 0x100000001b3ull) ^ static_cast<std::uint64_t>(p->type);
  h = fold(h, p->sender);
  switch (p->type) {
    case MsgType::kLsProbe:
    case MsgType::kLsProbeReply: {
      const auto& m = static_cast<const typename T::Probe&>(*p);
      h = (h * 0x100000001b3ull) ^ (m.leaf.size() * 64 + m.failed.size());
      for (const auto& d : m.leaf) h = fold(h, d);
      for (const auto& d : m.failed) h = fold(h, d);
      break;
    }
    case MsgType::kRtRowReply: {
      const auto& m = static_cast<const typename T::Row&>(*p);
      h = (h * 0x100000001b3ull) ^ static_cast<std::uint64_t>(m.row);
      for (const auto& d : m.entries) h = fold(h, d);
      break;
    }
    case MsgType::kRtRowAnnounce: {
      const auto& m = static_cast<const typename T::Announce&>(*p);
      h = (h * 0x100000001b3ull) ^ static_cast<std::uint64_t>(m.row + 16);
      for (const auto& d : m.entries) h = fold(h, d);
      break;
    }
    case MsgType::kAck:
      h = (h * 0x100000001b3ull) ^
          static_cast<const typename T::Ack&>(*p).hop_seq;
      break;
    case MsgType::kLookup: {
      const auto& m = static_cast<const typename T::Lookup&>(*p);
      h = (h * 0x100000001b3ull) ^ m.key.value().lo;
      h = (h * 0x100000001b3ull) ^ m.lookup_id;
      h = (h * 0x100000001b3ull) ^ m.hop_seq;
      break;
    }
    default:
      break;
  }
  return h;
}

/// One pass of the differential script over `pool`; every pass replays
/// the same ops.
void replay_against_shared_ptr(MessagePool& pool) {
  std::vector<NodeDescriptor> roster;
  for (int i = 0; i < 48; ++i) {
    roster.push_back(desc(0x1000 + i, i * 0x9e3779b9ull, i));
  }

  std::deque<pastry::MessagePtr> pooled_q;
  std::deque<std::shared_ptr<const legacy::Message>> legacy_q;
  std::uint64_t pooled_h = 0xcbf29ce484222325ull;
  std::uint64_t legacy_h = 0xcbf29ce484222325ull;

  auto dispatch_front = [&] {
    pooled_h = fold_msg<PooledTypes>(pooled_h, pooled_q.front());
    legacy_h = fold_msg<LegacyTypes>(legacy_h, legacy_q.front());
    pooled_q.pop_front();
    legacy_q.pop_front();
  };

  std::mt19937_64 rng(0xd1ffe7e57ull);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t r = rng();
    const NodeDescriptor& sender = roster[(r >> 8) % roster.size()];
    switch (r % 6) {
      case 0: {
        const std::size_t nleaf = (r >> 16) % 33;
        const std::size_t nfail = (r >> 24) % 9;
        auto p = pastry::make_msg<pastry::LsProbeMsg>(pool, (r >> 32) & 1);
        p->sender = sender;
        p->leaf.assign(roster.begin(), roster.begin() + nleaf);
        p->failed.assign(roster.begin(), roster.begin() + nfail);
        auto l = std::make_shared<legacy::LsProbeMsg>((r >> 32) & 1);
        l->sender = sender;
        l->leaf.assign(roster.begin(), roster.begin() + nleaf);
        l->failed.assign(roster.begin(), roster.begin() + nfail);
        pooled_q.push_back(std::move(p));
        legacy_q.push_back(std::move(l));
        break;
      }
      case 1: {
        const std::size_t n = (r >> 16) % 17;
        auto p = pastry::make_msg<pastry::RtRowReplyMsg>(pool);
        p->sender = sender;
        p->row = static_cast<int>((r >> 40) & 7);
        p->entries.assign(roster.begin(), roster.begin() + n);
        auto l = std::make_shared<legacy::RtRowReplyMsg>();
        l->sender = sender;
        l->row = static_cast<int>((r >> 40) & 7);
        l->entries.assign(roster.begin(), roster.begin() + n);
        pooled_q.push_back(std::move(p));
        legacy_q.push_back(std::move(l));
        break;
      }
      case 2: {
        auto p = pastry::make_msg<pastry::AckMsg>(pool);
        p->sender = sender;
        p->hop_seq = r >> 16;
        auto l = std::make_shared<legacy::AckMsg>();
        l->sender = sender;
        l->hop_seq = r >> 16;
        pooled_q.push_back(std::move(p));
        legacy_q.push_back(std::move(l));
        break;
      }
      case 3: {
        // One routing hop: the incoming lookup and the clone forwarded
        // to the next hop (fresh message, copied fields, hop_seq + 1).
        const NodeDescriptor& hop = roster[(r >> 16) % roster.size()];
        const NodeId key{r * 0x9e3779b97f4a7c15ull, r};
        auto p = pastry::make_msg<pastry::LookupMsg>(pool);
        p->sender = sender;
        p->key = key;
        p->lookup_id = static_cast<std::uint64_t>(step);
        p->hop_seq = r >> 40;
        auto pc = pastry::make_msg<pastry::LookupMsg>(pool);
        pc->sender = hop;
        pc->key = p->key;
        pc->lookup_id = p->lookup_id;
        pc->hop_seq = p->hop_seq + 1;
        auto l = std::make_shared<legacy::LookupMsg>();
        l->sender = sender;
        l->key = key;
        l->lookup_id = static_cast<std::uint64_t>(step);
        l->hop_seq = r >> 40;
        auto lc = std::make_shared<legacy::LookupMsg>(*l);
        lc->sender = hop;
        lc->hop_seq = l->hop_seq + 1;
        pooled_q.push_back(std::move(p));
        pooled_q.push_back(std::move(pc));
        legacy_q.push_back(std::move(l));
        legacy_q.push_back(std::move(lc));
        break;
      }
      case 4: {
        // Join-time row announce to 2..9 destinations: one pooled message
        // aliased per destination; the legacy layer built one per
        // destination.
        const std::size_t n = (r >> 16) % 17;
        const unsigned fanout = 2 + static_cast<unsigned>((r >> 24) % 8);
        const int row = static_cast<int>((r >> 40) & 7);
        auto p = pastry::make_msg<pastry::RtRowAnnounceMsg>(pool);
        p->sender = sender;
        p->row = row;
        p->entries.assign(roster.begin(), roster.begin() + n);
        pastry::MessagePtr shared = std::move(p);
        for (unsigned i = 0; i < fanout; ++i) {
          pooled_q.push_back(shared);
          auto l = std::make_shared<legacy::RtRowAnnounceMsg>();
          l->sender = sender;
          l->row = row;
          l->entries.assign(roster.begin(), roster.begin() + n);
          legacy_q.push_back(std::move(l));
        }
        break;
      }
      default: {
        // Fault-plan duplication: alias a random in-flight message on
        // both sides (a refcount bump, never a deep copy).
        if (!pooled_q.empty()) {
          const std::size_t i = (r >> 16) % pooled_q.size();
          pooled_q.push_back(pooled_q[i]);
          legacy_q.push_back(legacy_q[i]);
        }
        break;
      }
    }
    while (pooled_q.size() > 12) dispatch_front();
    ASSERT_EQ(pooled_h, legacy_h) << "diverged at step " << step;
  }
  while (!pooled_q.empty()) dispatch_front();
  EXPECT_EQ(pooled_h, legacy_h);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(MessagePoolDifferential, PooledSequenceMatchesSharedPtrSequence) {
  MessagePool pool;
  replay_against_shared_ptr(pool);
  EXPECT_GT(pool.stats().reused, 0u);

  // The first pass grew each slab to the script's peak occupancy, so the
  // same script again runs on recycled slots alone: steady-state traffic
  // carves no chunk and spills no payload to the heap.
  const std::uint64_t chunks = pool.stats().chunk_allocs;
  const std::uint64_t spills = small_vec_spills();
  replay_against_shared_ptr(pool);
  EXPECT_EQ(pool.stats().chunk_allocs, chunks) << "steady state hit the heap";
  EXPECT_EQ(small_vec_spills(), spills) << "a payload outgrew its capacity";
}

}  // namespace
}  // namespace mspastry
