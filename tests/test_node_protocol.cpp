// Fine-grained protocol tests driving a single PastryNode through a
// scripted environment: the Figure-2 rules, probe retry sequences,
// suppression evidence, exclusion semantics, and buffering, pinned down
// message by message.

#include <gtest/gtest.h>

#include <algorithm>

#include "mock_env.hpp"

namespace mspastry {
namespace {

using pastry::Config;
using pastry::LsProbeMsg;
using pastry::MsgType;
using pastry::NodeDescriptor;
using testing::nd;
using testing::NodeHarness;

const NodeDescriptor kSelf = nd(1000, 0);

// --- Bootstrap & basic state ------------------------------------------------

TEST(NodeProtocol, BootstrapActivatesImmediately) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  EXPECT_TRUE(h.node->active());
  EXPECT_EQ(h.env.activations(), 1);
  EXPECT_EQ(h.counters.joins_completed, 1u);
}

TEST(NodeProtocol, SingletonDeliversOwnLookups) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.node->lookup(NodeId{0, 5}, /*lookup_id=*/42);
  EXPECT_EQ(h.env.delivered(), std::vector<std::uint64_t>{42});
}

TEST(NodeProtocol, InactiveNodeBuffersLookups) {
  NodeHarness h(kSelf);
  h.node->lookup(NodeId{0, 5}, 42);
  EXPECT_TRUE(h.env.delivered().empty());
  EXPECT_EQ(h.node->debug_state().buffered_messages, 1u);
  h.node->bootstrap();  // activation flushes the buffer
  EXPECT_EQ(h.env.delivered(), std::vector<std::uint64_t>{42});
}

// --- LS probe handling (Figure 2) --------------------------------------------

TEST(NodeProtocol, LsProbeInsertsSenderAndIsAnswered) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.env.drain();
  h.receive_ls_probe(nd(1010, 1));
  EXPECT_TRUE(h.node->leaf_set().contains(1));
  const auto replies =
      h.env.outgoing<LsProbeMsg>(MsgType::kLsProbeReply);
  ASSERT_EQ(replies.size(), 1u);
  // The reply carries our leaf set (now containing the sender).
  ASSERT_EQ(replies[0]->leaf.size(), 1u);
  EXPECT_EQ(replies[0]->leaf[0].addr, 1);
}

TEST(NodeProtocol, LsProbeReplyDoesNotTriggerAnotherReply) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.env.drain();
  h.receive_ls_probe(nd(1010, 1), {}, {}, /*reply=*/true);
  EXPECT_EQ(h.env.count_outgoing(MsgType::kLsProbeReply), 0);
  EXPECT_TRUE(h.node->leaf_set().contains(1));
}

TEST(NodeProtocol, CandidatesFromProbeAreProbedNotInserted) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.env.drain();
  // Probe from node 1 advertising node 2: node 2 must be probed before
  // inclusion, never inserted directly (we have not heard from it).
  h.receive_ls_probe(nd(1010, 1), {nd(1020, 2)});
  EXPECT_FALSE(h.node->leaf_set().contains(2));
  int probes_to_2 = 0;
  for (const auto& s : h.env.drain()) {
    if (s.to == 2 && s.msg->type == MsgType::kLsProbe) ++probes_to_2;
  }
  EXPECT_EQ(probes_to_2, 1);
}

TEST(NodeProtocol, ProbedCandidateJoinsLeafSetOnReply) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.receive_ls_probe(nd(1010, 1), {nd(1020, 2)});
  h.env.drain();
  h.receive_ls_probe(nd(1020, 2), {}, {}, /*reply=*/true);
  EXPECT_TRUE(h.node->leaf_set().contains(2));
}

TEST(NodeProtocol, FailedSetMemberIsRemovedAndConfirmProbed) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  // Learn node 2 directly first.
  h.receive_ls_probe(nd(1020, 2));
  ASSERT_TRUE(h.node->leaf_set().contains(2));
  h.env.drain();
  // Node 1 announces node 2 failed: we must drop it from the leaf set and
  // probe it to confirm (false-positive recovery).
  h.receive_ls_probe(nd(1010, 1), {}, {nd(1020, 2)});
  EXPECT_FALSE(h.node->leaf_set().contains(2));
  int confirm = 0;
  for (const auto& s : h.env.drain()) {
    if (s.to == 2 && s.msg->type == MsgType::kLsProbe) ++confirm;
  }
  EXPECT_EQ(confirm, 1);
}

TEST(NodeProtocol, FalsePositiveRecoversWhenNodeAnswers) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.receive_ls_probe(nd(1020, 2));
  h.receive_ls_probe(nd(1010, 1), {}, {nd(1020, 2)});
  EXPECT_FALSE(h.node->leaf_set().contains(2));
  // Node 2 answers the confirm probe: it is alive and returns.
  h.receive_ls_probe(nd(1020, 2), {}, {}, /*reply=*/true);
  EXPECT_TRUE(h.node->leaf_set().contains(2));
  EXPECT_EQ(h.node->debug_state().failed_set_size, 0u);
}

TEST(NodeProtocol, UnconfirmedFailureIsMarkedFaultyAfterRetries) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.receive_ls_probe(nd(1020, 2));
  h.env.drain();
  h.receive_ls_probe(nd(1010, 1), {}, {nd(1020, 2)});
  // Confirm probe + kMaxProbeRetries retries, spaced To apart, then the
  // node is marked faulty.
  const Config cfg;
  h.env.run_for((pastry::kMaxProbeRetries + 1) * cfg.t_o + seconds(1));
  EXPECT_EQ(h.env.marked_faulty(), std::vector<net::Address>{2});
  EXPECT_EQ(h.node->debug_state().failed_set_size, 1u);
  // All three transmissions happened.
  int probes_to_2 = 0;
  for (const auto& s : h.env.drain()) {
    if (s.to == 2 && s.msg->type == MsgType::kLsProbe) ++probes_to_2;
  }
  EXPECT_EQ(probes_to_2, 1 + pastry::kMaxProbeRetries);
}

TEST(NodeProtocol, FailedNodesAreNotProbedAgain) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.receive_ls_probe(nd(1020, 2));
  h.receive_ls_probe(nd(1010, 1), {}, {nd(1020, 2)});
  const Config cfg;
  h.env.run_for((pastry::kMaxProbeRetries + 1) * cfg.t_o + seconds(1));
  h.env.drain();
  // Another announcement of the same failure: already in failed set, no
  // further probes to 2.
  h.receive_ls_probe(nd(1010, 1), {nd(1020, 2)}, {nd(1020, 2)});
  for (const auto& s : h.env.drain()) {
    EXPECT_NE(s.to, 2);
  }
}

// --- Heartbeats and the right-neighbour watch --------------------------------

TEST(NodeProtocol, HeartbeatGoesToLeftNeighbourOnly) {
  Config cfg;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(1010, 1));  // right neighbour (successor)
  h.receive_ls_probe(nd(990, 2));   // left neighbour (predecessor)
  h.env.drain();
  // Two full periods: the first tick may be suppressed by the probe
  // replies we just sent.
  h.env.run_for(2 * cfg.t_ls + seconds(2));
  int to_left = 0;
  int to_right = 0;
  for (const auto& s : h.env.drain()) {
    if (s.msg->type != MsgType::kHeartbeat) continue;
    to_left += s.to == 2;
    to_right += s.to == 1;
  }
  EXPECT_GE(to_left, 1);
  EXPECT_EQ(to_right, 0);
}

TEST(NodeProtocol, HeartbeatSuppressedByRecentTraffic) {
  Config cfg;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(990, 2));  // left neighbour
  // Keep the link warm: a probe FROM them every 10 s makes us reply,
  // which counts as recent send and suppresses our heartbeat.
  for (int i = 0; i < 12; ++i) {
    h.env.run_for(seconds(10));
    h.receive_ls_probe(nd(990, 2));
  }
  int heartbeats = 0;
  for (const auto& s : h.env.drain()) {
    heartbeats += s.msg->type == MsgType::kHeartbeat;
  }
  EXPECT_EQ(heartbeats, 0);
  EXPECT_GT(h.counters.heartbeats_suppressed, 0u);
}

TEST(NodeProtocol, SilentRightNeighbourGetsSuspected) {
  Config cfg;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(1010, 1));  // right neighbour
  h.env.drain();
  // Silence for Tls + To + slack: the watch must probe it; with no reply
  // it is eventually marked faulty.
  h.env.run_for(cfg.t_ls + cfg.t_o + cfg.t_ls + seconds(1));
  EXPECT_GT(h.counters.ls_probes_suspect, 0u);
  h.env.run_for((pastry::kMaxProbeRetries + 1) * cfg.t_o + seconds(1));
  EXPECT_FALSE(h.node->leaf_set().contains(1));
}

TEST(NodeProtocol, ChattyRightNeighbourIsNotSuspected) {
  Config cfg;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(1010, 1));
  for (int i = 0; i < 10; ++i) {
    h.env.run_for(seconds(20));
    auto hb = make_refcounted<pastry::HeartbeatMsg>();
    h.receive(nd(1010, 1), std::move(hb));
  }
  EXPECT_EQ(h.counters.ls_probes_suspect, 0u);
  EXPECT_TRUE(h.node->leaf_set().contains(1));
}

// --- Lookup routing, acks, exclusion -----------------------------------------

TEST(NodeProtocol, ReceivedLookupIsAcked) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.env.drain();
  auto m = make_refcounted<pastry::LookupMsg>();
  m->key = NodeId{0, 999};
  m->lookup_id = 7;
  m->hop_seq = 1234;
  m->wants_ack = true;
  m->source = nd(500, 9);
  h.receive(nd(500, 9), std::move(m));
  const auto acks = h.env.outgoing<pastry::AckMsg>(MsgType::kAck);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->hop_seq, 1234u);
  EXPECT_EQ(h.env.delivered(), std::vector<std::uint64_t>{7});
}

TEST(NodeProtocol, NoAckWhenLookupOptsOut) {
  // A peer may send a lookup with wants_ack cleared (the rt wire codec
  // carries the flag): it is neither acked nor tracked on the next hop.
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.receive_ls_probe(nd(2000, 1));
  h.env.drain();
  const auto opted_out = [](std::uint64_t key, std::uint64_t lookup_id) {
    auto m = make_refcounted<pastry::LookupMsg>();
    m->key = NodeId{0, key};
    m->lookup_id = lookup_id;
    m->wants_ack = false;
    m->source = nd(500, 9);
    return m;
  };
  h.receive(nd(500, 9), opted_out(999, 7));  // this node is the root
  EXPECT_EQ(h.env.delivered(), std::vector<std::uint64_t>{7});
  h.receive(nd(500, 9), opted_out(2001, 8));  // node 1 is the root
  const auto sent = h.env.drain();
  ASSERT_EQ(sent.size(), 1u);  // the forward; no ack for either lookup
  EXPECT_EQ(sent[0].to, 1);
  const auto& fwd = static_cast<const pastry::LookupMsg&>(*sent[0].msg);
  EXPECT_EQ(fwd.lookup_id, 8u);
  EXPECT_FALSE(fwd.wants_ack);
  EXPECT_EQ(h.node->debug_state().pending_acks, 0u);
}

TEST(NodeProtocol, ForwardedLookupAwaitsAckThenSettles) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.receive_ls_probe(nd(2000, 1));
  h.env.drain();
  h.node->lookup(NodeId{0, 2001}, 7);  // closest is node 1
  auto sent = h.env.drain();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].to, 1);
  EXPECT_EQ(h.node->debug_state().pending_acks, 1u);
  auto ack = make_refcounted<pastry::AckMsg>();
  ack->hop_seq =
      static_cast<const pastry::LookupMsg&>(*sent[0].msg).hop_seq;
  h.receive(nd(2000, 1), std::move(ack));
  EXPECT_EQ(h.node->debug_state().pending_acks, 0u);
}

TEST(NodeProtocol, AckTimeoutRetransmitsOnceThenExcludes) {
  Config cfg;  // defaults: 1 retransmit, exclude-root on
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(2000, 1));
  h.env.drain();
  h.node->lookup(NodeId{0, 2001}, 7);
  // First transmission + one retransmit to the same destination.
  h.env.run_for(seconds(8));
  int lookups_to_1 = 0;
  for (const auto& s : h.env.drain()) {
    lookups_to_1 += s.to == 1 && s.msg->type == MsgType::kLookup;
  }
  EXPECT_EQ(lookups_to_1, 2);
  EXPECT_GE(h.counters.ack_timeouts, 2u);
  // After exclusion the local node is the closest live candidate: the
  // lookup is delivered here, and the dead node ends up marked faulty.
  EXPECT_EQ(h.env.delivered(), std::vector<std::uint64_t>{7});
  h.env.run_for(seconds(12));
  EXPECT_FALSE(h.node->leaf_set().contains(1));
}

TEST(NodeProtocol, ConsistencyModeRetransmitsUntilProbeSettles) {
  Config cfg;
  cfg.exclude_root_on_ack_timeout = false;  // consistency over latency
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(2000, 1));
  h.env.drain();
  h.node->lookup(NodeId{0, 2001}, 7);
  h.env.run_for(seconds(2));
  // Not delivered locally while the closer node is merely excluded.
  EXPECT_TRUE(h.env.delivered().empty());
  // Once the probe sequence marks it faulty, the lookup lands here.
  h.env.run_for(seconds(30));
  EXPECT_EQ(h.env.delivered(), std::vector<std::uint64_t>{7});
}

TEST(NodeProtocol, HearingFromExcludedNodeLiftsExclusion) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.receive_ls_probe(nd(2000, 1));
  h.env.drain();
  h.node->lookup(NodeId{0, 2001}, 7);
  h.env.run_for(seconds(8));  // timeout + retransmit + exclusion
  EXPECT_GT(h.node->debug_state().excluded_size, 0u);
  h.receive_ls_probe(nd(2000, 1), {}, {}, /*reply=*/true);
  EXPECT_EQ(h.node->debug_state().excluded_size, 0u);
}

/// Run until the node excludes `a` after missed acks (not yet condemned).
void run_until_excluded(NodeHarness& h, net::Address a) {
  for (int i = 0; i < 200 && !h.node->currently_excludes(a); ++i) {
    h.env.run_for(milliseconds(100));
  }
  ASSERT_TRUE(h.node->currently_excludes(a));
}

/// Ack every lookup captured since the last drain, as its receiver.
void ack_lookups(NodeHarness& h, const std::vector<NodeDescriptor>& peers) {
  for (const auto& s : h.env.drain()) {
    if (s.msg->type != MsgType::kLookup) continue;
    for (const NodeDescriptor& p : peers) {
      if (p.addr != s.to) continue;
      auto ack = make_refcounted<pastry::AckMsg>();
      ack->hop_seq = static_cast<const pastry::LookupMsg&>(*s.msg).hop_seq;
      h.receive(p, std::move(ack));
    }
  }
}

/// Destinations of the lookups captured since the last drain.
std::vector<net::Address> lookup_destinations(NodeHarness& h) {
  std::vector<net::Address> to;
  for (const auto& s : h.env.drain()) {
    if (s.msg->type == MsgType::kLookup) to.push_back(s.to);
  }
  return to;
}

TEST(NodeProtocol, ExcludedClosestLeafMemberRoutesToNextClosest) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.receive_ls_probe(nd(2000, 1));  // closest to key 2001
  h.receive_ls_probe(nd(2010, 2));  // next closest
  h.receive_ls_probe(nd(500, 3));
  h.env.drain();
  h.node->lookup(NodeId{0, 2001}, 7);
  EXPECT_EQ(lookup_destinations(h), std::vector<net::Address>{1});
  run_until_excluded(h, 1);
  ack_lookups(h, {nd(2010, 2)});  // the reroute went to node 2
  EXPECT_FALSE(h.node->currently_excludes(2));
  // While node 1 is excluded, a fresh lookup goes straight to node 2.
  h.node->lookup(NodeId{0, 2001}, 8);
  EXPECT_EQ(lookup_destinations(h), std::vector<net::Address>{2});
  EXPECT_TRUE(h.env.delivered().empty());
}

TEST(NodeProtocol, ConsistencyModeRetransmitsToExcludedTrueRoot) {
  Config cfg;
  cfg.exclude_root_on_ack_timeout = false;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(2000, 1));  // the true root of key 2001
  h.receive_ls_probe(nd(500, 3));   // farther from the key than self
  h.env.drain();
  h.node->lookup(NodeId{0, 2001}, 7);
  run_until_excluded(h, 1);
  h.env.drain();
  // Self is the closest member that is not excluded, but node 1 is only
  // suspected: the lookup still goes to it rather than landing here.
  h.node->lookup(NodeId{0, 2001}, 8);
  EXPECT_EQ(lookup_destinations(h), std::vector<net::Address>{1});
  EXPECT_TRUE(h.env.delivered().empty());
}

TEST(NodeProtocol, ExclusionCountMatchesPeerTableScan) {
  Config cfg;
  cfg.l = 4;
  NodeHarness h(kSelf, cfg);
  const auto check = [&](std::size_t want) {
    const auto d = h.node->debug_state();
    EXPECT_EQ(d.excluded_size, d.excluded_scanned);
    EXPECT_EQ(d.excluded_size, want);
  };
  h.node->bootstrap();
  h.receive_ls_probe(nd(2000, 1));
  h.receive_ls_probe(nd(3000, 2));
  h.receive_ls_probe(nd(990, 3));
  h.receive_ls_probe(nd(980, 4));
  h.env.drain();
  check(0);
  // Two lookups time out on node 1 (excluded once, counted once) and one
  // on node 3; their reroutes are acked, so nobody else is excluded.
  h.node->lookup(NodeId{0, 2001}, 7);
  h.node->lookup(NodeId{0, 2002}, 8);
  h.node->lookup(NodeId{0, 989}, 9);
  run_until_excluded(h, 1);
  run_until_excluded(h, 3);
  ack_lookups(h, {nd(3000, 2), nd(980, 4)});
  check(2);
  // Any message heard from an excluded peer lifts its exclusion, and a
  // message from a peer that is not excluded changes nothing.
  h.receive(nd(3000, 2), make_refcounted<pastry::RtProbeMsg>(false));
  check(2);
  h.receive(nd(2000, 1), make_refcounted<pastry::RtProbeMsg>(false));
  check(1);
  // LEAVE from an excluded peer forgets it.
  h.receive(nd(990, 3), make_refcounted<pastry::LeaveMsg>());
  EXPECT_FALSE(h.node->currently_excludes(3));
  check(0);
  // Exclude node 1 again and let its suspicion probes go unanswered:
  // mark_faulty forgets it too (the mock answers no repair probe either,
  // so other members are condemned alongside).
  h.env.drain();
  h.node->lookup(NodeId{0, 2001}, 10);
  run_until_excluded(h, 1);
  ack_lookups(h, {nd(3000, 2), nd(980, 4)});
  check(1);
  h.env.run_for((pastry::kMaxProbeRetries + 1) * cfg.t_o + seconds(1));
  const auto& faulty = h.env.marked_faulty();
  ASSERT_NE(std::find(faulty.begin(), faulty.end(), 1), faulty.end());
  check(0);
}

// Condemning a peer and hearing its LEAVE forget everything remembered
// about it: exclusion, and the send time that would otherwise suppress the
// first heartbeat to it after it returns. l = 2 keeps the leaf set
// complete once the peer is back, so no repair probe goes to it before
// the heartbeat.
int heartbeats_to(const std::vector<testing::MockEnv::Sent>& sent,
                  net::Address to) {
  int n = 0;
  for (const auto& s : sent) {
    n += s.to == to && s.msg->type == MsgType::kHeartbeat;
  }
  return n;
}

/// Run until the node's next heartbeat tick has fired (sent or
/// suppressed); requires a left neighbour.
void run_past_next_tick(NodeHarness& h) {
  const auto ticks = [&] {
    return h.counters.heartbeats_sent + h.counters.heartbeats_suppressed;
  };
  const auto before = ticks();
  while (ticks() == before) h.env.run_for(milliseconds(100));
}

/// Node 2 (left neighbour) returns after being forgotten; node 1 (right
/// neighbour) answers the repair probes its departure caused.
void bring_back_left_neighbour(NodeHarness& h) {
  h.receive_ls_probe(nd(990, 2), {}, {}, /*reply=*/true);
  h.receive_ls_probe(nd(1010, 1), {}, {}, /*reply=*/true);
  ASSERT_TRUE(h.node->leaf_set().contains(2));
  h.env.drain();
}

TEST(NodeProtocol, MarkFaultyForgetsPeerState) {
  Config cfg;
  cfg.l = 2;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(990, 2));   // left neighbour
  h.receive_ls_probe(nd(1010, 1));  // right neighbour
  h.env.drain();
  h.node->lookup(NodeId{0, 989}, 7);  // routed to node 2, never acked
  h.env.run_for(seconds(8));          // timeout + retransmit + exclusion
  EXPECT_TRUE(h.node->currently_excludes(2));
  EXPECT_EQ(h.node->debug_state().excluded_size, 1u);
  const std::size_t entries = h.node->debug_state().peer_entries;
  // The suspicion probes go unanswered: node 2 is condemned.
  h.env.run_for((pastry::kMaxProbeRetries + 1) * cfg.t_o + seconds(1));
  ASSERT_EQ(h.env.marked_faulty(), std::vector<net::Address>{2});
  EXPECT_FALSE(h.node->currently_excludes(2));
  EXPECT_EQ(h.node->debug_state().excluded_size, 0u);
  EXPECT_EQ(h.node->debug_state().peer_entries, entries - 1);
  // It was only slow. Once it is back, the next heartbeat goes out
  // although the probes to it were sent less than Tls before.
  bring_back_left_neighbour(h);
  const auto suppressed = h.counters.heartbeats_suppressed;
  run_past_next_tick(h);
  EXPECT_EQ(heartbeats_to(h.env.drain(), 2), 1);
  EXPECT_EQ(h.counters.heartbeats_suppressed, suppressed);
}

TEST(NodeProtocol, LeaveForgetsPeerState) {
  Config cfg;
  cfg.l = 2;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(990, 2));   // left neighbour
  h.receive_ls_probe(nd(1010, 1));  // right neighbour
  h.env.drain();
  h.node->lookup(NodeId{0, 989}, 7);
  h.env.run_for(seconds(8));
  EXPECT_TRUE(h.node->currently_excludes(2));
  EXPECT_EQ(h.node->debug_state().excluded_size, 1u);
  // A probe answered just before the LEAVE: a send to node 2 right now.
  h.receive(nd(990, 2), make_refcounted<pastry::RtProbeMsg>(false));
  const std::size_t entries = h.node->debug_state().peer_entries;
  h.receive(nd(990, 2), make_refcounted<pastry::LeaveMsg>());
  EXPECT_FALSE(h.node->currently_excludes(2));
  EXPECT_EQ(h.node->debug_state().excluded_size, 0u);
  EXPECT_EQ(h.node->debug_state().peer_entries, entries - 1);
  // The session comes back: nothing sent before its LEAVE suppresses the
  // next heartbeat to it.
  bring_back_left_neighbour(h);
  const auto suppressed = h.counters.heartbeats_suppressed;
  run_past_next_tick(h);
  EXPECT_EQ(heartbeats_to(h.env.drain(), 2), 1);
  EXPECT_EQ(h.counters.heartbeats_suppressed, suppressed);
}

// --- Routing-table liveness probing + suppression ------------------------------

TEST(NodeProtocol, RtProbeIsAnswered) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.env.drain();
  h.receive(nd(77, 5), make_refcounted<pastry::RtProbeMsg>(false));
  EXPECT_EQ(h.env.count_outgoing(MsgType::kRtProbeReply), 1);
}

TEST(NodeProtocol, DistanceProbeEchoesSequence) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.env.drain();
  auto p = make_refcounted<pastry::DistanceProbeMsg>(false);
  p->seq = 555;
  h.receive(nd(77, 5), std::move(p));
  const auto replies =
      h.env.outgoing<pastry::DistanceProbeMsg>(MsgType::kDistanceProbeReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0]->seq, 555u);
}

TEST(NodeProtocol, DistanceReportSeedsRoutingTable) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  // A peer measured its RTT to us and reports it (symmetric probing): we
  // adopt it into the routing table with that distance.
  auto rep = make_refcounted<pastry::DistanceReportMsg>();
  rep->rtt = milliseconds(12);
  const NodeDescriptor peer{NodeId{0x5000000000000000ull, 0}, 5};
  h.receive(peer, std::move(rep));
  EXPECT_TRUE(h.node->routing_table().contains(5));
  const auto* e = h.node->routing_table().find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rtt, milliseconds(12));
}

TEST(NodeProtocol, RtRowRequestReturnsRow) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  auto rep = make_refcounted<pastry::DistanceReportMsg>();
  rep->rtt = milliseconds(5);
  const NodeDescriptor peer{NodeId{0x5000000000000000ull, 0}, 5};
  h.receive(peer, std::move(rep));
  h.env.drain();
  auto req = make_refcounted<pastry::RtRowRequestMsg>();
  const auto [row, col] =
      h.node->routing_table().slot_of(peer.id);
  (void)col;
  req->row = row;
  h.receive(nd(77, 9), std::move(req));
  const auto replies =
      h.env.outgoing<pastry::RtRowReplyMsg>(MsgType::kRtRowReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0]->row, row);
  ASSERT_EQ(replies[0]->entries.size(), 1u);
  EXPECT_EQ(replies[0]->entries[0].addr, 5);
}

// --- Join protocol ------------------------------------------------------------

TEST(NodeProtocol, JoinStartsWithNearestNeighbourProbe) {
  NodeHarness h(kSelf);
  h.node->join(nd(5000, 3));
  EXPECT_FALSE(h.node->active());
  // First action: a single distance probe to the bootstrap.
  EXPECT_EQ(h.env.count_outgoing(MsgType::kDistanceProbe), 1);
  EXPECT_EQ(h.counters.joins_started, 1u);
}

TEST(NodeProtocol, StaleJoinReplyIgnored) {
  NodeHarness h(kSelf);
  h.node->join(nd(5000, 3));
  auto reply = make_refcounted<pastry::JoinReplyMsg>();
  reply->join_epoch = 999;  // wrong epoch
  reply->leaf_set = {nd(900, 4)};
  h.receive(nd(5000, 3), std::move(reply));
  // No probes to the advertised leaf member.
  for (const auto& s : h.env.drain()) {
    EXPECT_NE(s.to, 4);
  }
}

TEST(NodeProtocol, JoinRequestRoutedThroughNodeGainsRows) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  // Give the node one routing-table entry to contribute; it also probes
  // us into its leaf set (an empty leaf set with a non-empty table would
  // otherwise trigger the mass-failure delivery guard).
  auto rep = make_refcounted<pastry::DistanceReportMsg>();
  rep->rtt = milliseconds(5);
  const NodeDescriptor entry{NodeId{0x7000000000000000ull, 0}, 5};
  h.receive(entry, std::move(rep));
  h.receive_ls_probe(entry);
  h.env.drain();
  // A join request for a joiner whose id shares no prefix with us: we
  // contribute row 0 and, being the only node, answer as the root.
  auto jr = make_refcounted<pastry::JoinRequestMsg>();
  const NodeDescriptor joiner{NodeId{0x3000000000000000ull, 0}, 8};
  jr->key = joiner.id;
  jr->joiner = joiner;
  jr->join_epoch = 1;
  jr->wants_ack = false;
  h.receive(nd(5000, 3), std::move(jr));
  const auto replies =
      h.env.outgoing<pastry::JoinReplyMsg>(MsgType::kJoinReply);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_FALSE(replies[0]->rows.empty());
  EXPECT_EQ(replies[0]->rows[0].first, 0);
  ASSERT_EQ(replies[0]->rows[0].second.size(), 1u);
  EXPECT_EQ(replies[0]->rows[0].second[0].addr, 5);
}

TEST(NodeProtocol, InactiveRootBuffersJoinRequestUntilActive) {
  NodeHarness h(kSelf);
  // Not bootstrapped: we are not active.
  auto jr = make_refcounted<pastry::JoinRequestMsg>();
  const NodeDescriptor joiner{NodeId{0x3000000000000000ull, 0}, 8};
  jr->key = joiner.id;
  jr->joiner = joiner;
  jr->join_epoch = 1;
  jr->wants_ack = false;
  h.receive(nd(5000, 3), std::move(jr));
  EXPECT_EQ(h.env.count_outgoing(MsgType::kJoinReply), 0);
  EXPECT_GE(h.node->debug_state().buffered_messages, 1u);
  h.node->bootstrap();
  EXPECT_EQ(h.env.count_outgoing(MsgType::kJoinReply), 1);
}

// --- Self-tuning plumbing -------------------------------------------------------

TEST(NodeProtocol, TrtHintsArePiggybackedOnMessages) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.receive_ls_probe(nd(1010, 1));
  bool found = false;
  for (const auto& s : h.env.drain()) {
    if (s.msg->trt_hint_s > 0.0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(NodeProtocol, SelfTuningOffSendsNoHints) {
  Config cfg;
  cfg.self_tuning = false;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  h.receive_ls_probe(nd(1010, 1));
  for (const auto& s : h.env.drain()) {
    EXPECT_EQ(s.msg->trt_hint_s, 0.0);
  }
}

TEST(NodeProtocol, MedianOfGossipedTrtHints) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  // Three leaf members gossiping hints 100 s, 200 s, 900 s: the median
  // ends up between the clamps and near 200 s once retune runs.
  const double hints[] = {100.0, 200.0, 900.0};
  for (int i = 0; i < 3; ++i) {
    auto m = make_refcounted<LsProbeMsg>(false);
    m->trt_hint_s = hints[i];
    m->sender = nd(1010 + static_cast<std::uint64_t>(i), i + 1);
    h.node->handle(i + 1, m);
  }
  h.env.run_for(minutes(2));  // let a scan tick retune
  // Own estimate is kTrtMax-ish (no observed failures) so the median of
  // {own, 100, 200, 900} is one of the middle values.
  EXPECT_GE(h.node->current_trt_seconds(), 200.0);
}

}  // namespace
}  // namespace mspastry
