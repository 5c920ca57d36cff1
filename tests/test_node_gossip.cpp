// Tests for the PNS gossip machinery at single-node granularity: distance
// sessions (median of three), symmetric reports, row announcements,
// periodic maintenance, passive repair, and the measurement TTL.

#include <gtest/gtest.h>

#include "mock_env.hpp"

namespace mspastry {
namespace {

using pastry::Config;
using pastry::MsgType;
using pastry::NodeDescriptor;
using testing::nd;
using testing::NodeHarness;

const NodeDescriptor kSelf = nd(1000, 0);

// A peer whose id occupies routing-table slot (0, c) relative to kSelf
// (kSelf's first hex digit is 0).
NodeDescriptor rt_peer(unsigned digit, net::Address addr) {
  return NodeDescriptor{NodeId{static_cast<std::uint64_t>(digit) << 60, 1},
                        addr};
}

/// Feed a row announcement containing `peers` for row 0.
void announce_row(NodeHarness& h, const NodeDescriptor& from,
                  std::vector<NodeDescriptor> peers) {
  auto m = make_refcounted<pastry::RtRowAnnounceMsg>();
  m->row = 0;
  m->entries = std::move(peers);
  h.receive(from, std::move(m));
}

/// Run the simulation for `duration`, answering every distance probe sent
/// to `peer` with the given round-trip delay (polled at 10 ms
/// granularity, so measured samples are rtt + <=10 ms). Returns how many
/// probes were answered. All other outgoing messages are appended to
/// `kept` (if given) for the caller to inspect.
int answer_distance_probes(NodeHarness& h, const NodeDescriptor& peer,
                           SimDuration rtt, SimDuration duration,
                           std::vector<testing::MockEnv::Sent>* kept =
                               nullptr) {
  int answered = 0;
  const SimTime end = h.env.now() + duration;
  while (h.env.now() < end) {
    h.env.run_for(milliseconds(10));
    for (auto& s : h.env.drain()) {
      if (s.to != peer.addr || s.msg->type != MsgType::kDistanceProbe) {
        if (kept != nullptr) kept->push_back(s);
        continue;
      }
      const auto& probe =
          static_cast<const pastry::DistanceProbeMsg&>(*s.msg);
      h.env.run_for(rtt);
      auto reply = make_refcounted<pastry::DistanceProbeMsg>(true);
      reply->seq = probe.seq;
      h.receive(peer, std::move(reply));
      ++answered;
    }
  }
  return answered;
}

TEST(NodeGossip, RowAnnouncementTriggersDistanceSession) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.env.drain();
  const auto peer = rt_peer(7, 5);
  announce_row(h, nd(900, 9), {peer});
  EXPECT_EQ(h.env.count_outgoing(MsgType::kDistanceProbe), 1);
  // The session sends pastry::kDistanceProbeCount probes, spaced apart.
  h.env.run_for(seconds(3));
  EXPECT_EQ(h.env.count_outgoing(MsgType::kDistanceProbe),
            pastry::kDistanceProbeCount);
}

TEST(NodeGossip, MeasuredCandidateIsAdoptedWithMedianRtt) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.env.drain();
  const auto peer = rt_peer(7, 5);
  announce_row(h, nd(900, 9), {peer});
  const int answered =
      answer_distance_probes(h, peer, milliseconds(20), seconds(8));
  EXPECT_EQ(answered, pastry::kDistanceProbeCount);
  ASSERT_TRUE(h.node->routing_table().contains(5));
  const auto* e = h.node->routing_table().find(5);
  EXPECT_NEAR(to_seconds(e->rtt), 0.020, 0.015);
}

TEST(NodeGossip, AdoptionSendsSymmetricReport) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  const auto peer = rt_peer(7, 5);
  announce_row(h, nd(900, 9), {peer});
  std::vector<testing::MockEnv::Sent> kept;
  answer_distance_probes(h, peer, milliseconds(10), seconds(8), &kept);
  int reports_to_peer = 0;
  for (const auto& s : kept) {
    reports_to_peer +=
        s.to == peer.addr && s.msg->type == MsgType::kDistanceReport;
  }
  EXPECT_EQ(reports_to_peer, 1);
}

TEST(NodeGossip, SymmetricReportsDisabledByConfig) {
  Config cfg;
  cfg.symmetric_probes = false;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  const auto peer = rt_peer(7, 5);
  announce_row(h, nd(900, 9), {peer});
  std::vector<testing::MockEnv::Sent> kept;
  answer_distance_probes(h, peer, milliseconds(10), seconds(8), &kept);
  for (const auto& s : kept) {
    EXPECT_NE(s.msg->type, MsgType::kDistanceReport);
  }
  EXPECT_TRUE(h.node->routing_table().contains(5));
}

TEST(NodeGossip, MeasurementTtlPreventsImmediateReprobe) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  const auto peer = rt_peer(7, 5);
  const auto rival = rt_peer(7, 6);  // same slot as peer
  announce_row(h, nd(900, 9), {peer});
  answer_distance_probes(h, peer, milliseconds(5), seconds(8));
  ASSERT_TRUE(h.node->routing_table().contains(5));
  // Measure the rival once; it loses (slower), so it is not adopted...
  announce_row(h, nd(900, 9), {rival});
  answer_distance_probes(h, rival, milliseconds(50), seconds(8));
  EXPECT_TRUE(h.node->routing_table().contains(5));
  h.env.drain();
  // ...and re-announcing it within the TTL triggers no new probes.
  announce_row(h, nd(900, 9), {rival});
  h.env.run_for(seconds(5));
  EXPECT_EQ(h.env.count_outgoing(MsgType::kDistanceProbe), 0);
}

TEST(NodeGossip, PnsReplacementOnFasterCandidate) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  const auto slow = rt_peer(7, 5);
  const auto fast = rt_peer(7, 6);
  announce_row(h, nd(900, 9), {slow});
  answer_distance_probes(h, slow, milliseconds(80), seconds(8));
  ASSERT_TRUE(h.node->routing_table().contains(5));
  announce_row(h, nd(900, 9), {fast});
  answer_distance_probes(h, fast, milliseconds(10), seconds(8));
  EXPECT_TRUE(h.node->routing_table().contains(6));
  EXPECT_FALSE(h.node->routing_table().contains(5));  // PNS replaced it
}

TEST(NodeGossip, NoPnsKeepsIncumbentDespiteFasterCandidate) {
  Config cfg;
  cfg.pns = false;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  const auto slow = rt_peer(7, 5);
  announce_row(h, nd(900, 9), {slow});
  answer_distance_probes(h, slow, milliseconds(80), seconds(8));
  ASSERT_TRUE(h.node->routing_table().contains(5));
  h.env.drain();
  // Without PNS, a taken slot is not even re-measured.
  const auto fast = rt_peer(7, 6);
  announce_row(h, nd(900, 9), {fast});
  EXPECT_EQ(h.env.count_outgoing(MsgType::kDistanceProbe), 0);
  EXPECT_TRUE(h.node->routing_table().contains(5));
}

TEST(NodeGossip, PeriodicMaintenanceRequestsRows) {
  Config cfg;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  // Seed one routing-table entry via a direct report.
  auto rep = make_refcounted<pastry::DistanceReportMsg>();
  rep->rtt = milliseconds(10);
  h.receive(rt_peer(7, 5), std::move(rep));
  h.env.drain();
  h.env.run_for(cfg.rt_maintenance_period + minutes(1));
  int row_requests = 0;
  for (const auto& s : h.env.drain()) {
    row_requests += s.msg->type == MsgType::kRtRowRequest && s.to == 5;
  }
  EXPECT_GE(row_requests, 1);
}

TEST(NodeGossip, RtProbeTimeoutDropsEntryWithoutAnnouncement) {
  Config cfg;
  NodeHarness h(kSelf, cfg);
  h.node->bootstrap();
  auto rep = make_refcounted<pastry::DistanceReportMsg>();
  rep->rtt = milliseconds(10);
  h.receive(rt_peer(7, 5), std::move(rep));
  // Also add a leaf member to observe (absence of) announcements.
  h.receive_ls_probe(nd(1010, 1));
  h.env.drain();
  // The self-tuned scan eventually probes entry 5; it never answers.
  h.env.run_for(hours(3));
  EXPECT_FALSE(h.node->routing_table().contains(5));
  // Lazy repair: no LS-probe announcement wave for RT-only failures.
  for (const auto& s : h.env.drain()) {
    if (s.to == 1 && s.msg->type == MsgType::kLsProbe) {
      const auto& m = static_cast<const pastry::LsProbeMsg&>(*s.msg);
      EXPECT_TRUE(m.failed.empty());
    }
  }
}

TEST(NodeGossip, PassiveRepairOfferProbedBeforeInsertion) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  h.env.drain();
  // Someone answers our (hypothetical) entry request with a candidate: we
  // must measure it, not insert it blindly.
  auto offer = make_refcounted<pastry::RtEntryReplyMsg>();
  offer->row = 0;
  offer->col = 7;
  offer->entry = rt_peer(7, 5);
  h.receive(nd(900, 9), std::move(offer));
  EXPECT_FALSE(h.node->routing_table().contains(5));
  EXPECT_GE(h.env.count_outgoing(MsgType::kDistanceProbe), 1);
}

TEST(NodeGossip, EntryRequestAnsweredFromOwnState) {
  NodeHarness h(kSelf);
  h.node->bootstrap();
  auto rep = make_refcounted<pastry::DistanceReportMsg>();
  rep->rtt = milliseconds(10);
  const auto peer = rt_peer(7, 5);
  h.receive(peer, std::move(rep));
  h.env.drain();
  // A node with id 2... asks us for its slot matching peer's prefix.
  const NodeDescriptor requester{NodeId{0x2000000000000000ull, 0}, 9};
  auto req = make_refcounted<pastry::RtEntryRequestMsg>();
  const auto [r, c] = pastry::slot_for(requester.id, peer.id, 4);
  req->row = r;
  req->col = c;
  h.receive(requester, std::move(req));
  const auto replies =
      h.env.outgoing<pastry::RtEntryReplyMsg>(MsgType::kRtEntryReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0]->entry.valid());
  EXPECT_EQ(replies[0]->entry.addr, 5);
}

}  // namespace
}  // namespace mspastry
