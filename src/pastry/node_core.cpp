#include <algorithm>
#include <cassert>

#include "pastry/node.hpp"

namespace mspastry::pastry {

PastryNode::PastryNode(const Config& cfg, NodeDescriptor self, Env& env,
                       Counters& counters)
    : cfg_(cfg),
      self_(self),
      env_(env),
      counters_(counters),
      rec_(env.recorder()),
      leaf_(self.id, cfg.l),
      rt_(self.id, cfg.b, env.routing_arena()),
      fail_est_(kFailureHistory),
      trt_local_s_(to_seconds(cfg.self_tuning ? kTrtMax : cfg.t_rt_fixed)),
      trt_current_s_(trt_local_s_) {}

PastryNode::~PastryNode() {
  cancel_timer(heartbeat_timer_);
  cancel_timer(watch_timer_);
  cancel_timer(rt_scan_timer_);
  cancel_timer(maintenance_timer_);
  cancel_timer(join_retry_timer_);
  for (auto& [a, p] : ls_probing_) cancel_timer(p.timer);
  for (auto& [a, p] : rt_probing_) cancel_timer(p.timer);
  for (auto& [s, p] : pending_acks_) cancel_timer(p.timer);
  for (auto& [s, d] : dist_sessions_) cancel_timer(d.timer);
}

void PastryNode::cancel_timer(TimerId& t) {
  if (t != kInvalidTimer) {
    env_.cancel(t);
    t = kInvalidTimer;
  }
}

void PastryNode::send(net::Address to, const IntrusivePtr<Message>& m) {
  assert(to != net::kNullAddress);
  m->sender = self_;
  m->trt_hint_s = cfg_.self_tuning ? trt_local_s_ : 0.0;
  PeerState& p = peers_.get(to);
  p.stamp(PeerState::kSent, p.last_sent, env_.now());
  env_.send(to, m);
}

PeerState* PastryNode::heard_from(const NodeDescriptor& d) {
  if (!d.valid() || d.id == self_.id) return nullptr;
  PeerState& p = peers_.get(d.addr);
  p.stamp(PeerState::kHeard, p.last_heard, env_.now());
  if (p.excluded) {  // evidence of liveness ends ack-exclusion
    p.excluded = false;
    --excluded_peers_;
  }
  if (!failed_.empty() && failed_.erase(d.addr) > 0) {
    trace_node(obs::EventKind::kAbsolve, d.addr);  // a false positive
  }
  return &p;
}

void PastryNode::forget_peer(net::Address a) {
  const PeerState* p = peers_.find(a);
  if (p == nullptr) return;
  if (p->excluded) --excluded_peers_;
  peers_.erase(a);
}

std::size_t PastryNode::routing_state_size() const {
  std::unordered_set<net::Address> uniq;
  for (const auto& m : leaf_.members()) uniq.insert(m.addr);
  rt_.for_each([&](int, int, const RoutingTable::Entry& e) {
    uniq.insert(e.node.addr);
  });
  return uniq.size();
}

double PastryNode::estimate_overlay_size() const {
  // Section 4.1: use the density of nodeIds in the leaf set. If the leaf
  // set wraps (fewer than l members) it holds the whole ring.
  if (leaf_.size() < cfg_.l) return static_cast<double>(leaf_.size() + 1);
  const NodeDescriptor lm = *leaf_.leftmost();
  const NodeDescriptor rm = *leaf_.rightmost();
  const double arc = self_.id.clockwise_distance_to(rm.id).to_double() +
                     lm.id.clockwise_distance_to(self_.id).to_double();
  if (arc <= 0.0) return static_cast<double>(leaf_.size() + 1);
  const double spacing =
      arc / static_cast<double>(leaf_.left_count() + leaf_.right_count());
  constexpr double kRing = 340282366920938463463374607431768211456.0;  // 2^128
  return std::max(2.0, kRing / spacing);
}

bool PastryNode::believes_root_of(NodeId key) const {
  if (!active_) return false;
  bool fb = false;
  int er = -1;
  int ec = -1;
  return !next_hop(key, {}, &fb, &er, &ec).valid();
}

bool PastryNode::in_failed(net::Address a) const {
  if (failed_.empty()) return false;
  const auto it = failed_.find(a);
  if (it == failed_.end()) return false;
  if (env_.now() - it->second.since > kFailedEntryTtl) {
    // Lazy expiry: const_cast is confined here; the set is a cache of
    // verdicts, not protocol-visible state.
    const_cast<PastryNode*>(this)->failed_.erase(a);
    return false;
  }
  return true;
}

double PastryNode::estimate_failure_rate() const {
  return fail_est_.estimate(env_.now(), routing_state_size());
}

PastryNode::DebugState PastryNode::debug_state() const {
  DebugState d;
  d.active = active_;
  d.joining = joining_;
  d.join_epoch = join_epoch_;
  d.leaf_size = leaf_.size();
  d.rt_entries = rt_.entry_count();
  d.ls_probes_outstanding = ls_probing_.size();
  d.rt_probes_outstanding = rt_probing_.size();
  d.pending_acks = pending_acks_.size();
  d.buffered_messages = buffered_.size();
  d.failed_set_size = failed_.size();
  d.excluded_size = excluded_peers_;
  d.excluded_scanned =
      peers_.count_if([](const PeerState& p) { return p.excluded; });
  d.peer_entries = peers_.size();
  d.peer_table_bytes = peers_.bytes();
  d.nn_outstanding = nn_outstanding_;
  d.small_ring_converged = small_ring_converged_;
  d.repair_stalls = repair_stalls_;
  return d;
}

void PastryNode::leave() {
  std::unordered_set<net::Address> told;
  for (const NodeDescriptor& m : leaf_.members()) {
    if (told.insert(m.addr).second) {
      send(m.addr, make_msg<LeaveMsg>(env_.pool()));
    }
  }
  rt_.for_each([&](int, int, const RoutingTable::Entry& e) {
    if (told.insert(e.node.addr).second) {
      send(e.node.addr, make_msg<LeaveMsg>(env_.pool()));
    }
  });
  active_ = false;  // stop delivering; the host tears us down next
}

// ---------------------------------------------------------------------------
// Ingress dispatch
// ---------------------------------------------------------------------------

void PastryNode::handle(net::Address from, const MessagePtr& msg) {
  assert(msg != nullptr);
  PeerState* sender = heard_from(msg->sender);
  // Any unsolicited message (including acks, per Section 4.1) counts as
  // probe-suppressing evidence; replies to our own probes do not.
  const bool unsolicited = msg->type != MsgType::kRtProbeReply &&
                           msg->type != MsgType::kLsProbeReply &&
                           msg->type != MsgType::kDistanceProbeReply;
  if (unsolicited || msg->trt_hint_s > 0.0) {
    PeerState& p = sender != nullptr && msg->sender.addr == from
                       ? *sender
                       : peers_.get(from);
    if (unsolicited) {
      p.stamp(PeerState::kSuppressHeard, p.suppress_heard, env_.now());
    }
    if (msg->trt_hint_s > 0.0) {
      p.trt_hint_s = msg->trt_hint_s;
      p.present |= PeerState::kTrtHint;
    }
  }

  switch (msg->type) {
    case MsgType::kLookup: {
      const auto& m = static_cast<const LookupMsg&>(*msg);
      trace_path(obs::EventKind::kRecv, m.trace_id, from, m.hops, m.hop_seq);
      if (m.wants_ack && cfg_.per_hop_acks) {
        auto ack = make_msg<AckMsg>(env_.pool());
        ack->hop_seq = m.hop_seq;
        ++counters_.acks_sent;
        send(from, ack);
      }
      route(make_msg<LookupMsg>(env_.pool(), m), {});
      return;
    }
    case MsgType::kJoinRequest: {
      const auto& m = static_cast<const JoinRequestMsg&>(*msg);
      trace_path(obs::EventKind::kRecv, m.trace_id, from, m.hops, m.hop_seq);
      if (m.wants_ack && cfg_.per_hop_acks) {
        auto ack = make_msg<AckMsg>(env_.pool());
        ack->hop_seq = m.hop_seq;
        ++counters_.acks_sent;
        send(from, ack);
      }
      auto copy = make_msg<JoinRequestMsg>(env_.pool(), m);
      // Contribute routing-table rows for every prefix depth this node
      // shares with the joiner that the message does not carry yet.
      const int depth = self_.id.shared_prefix_length(copy->joiner.id, cfg_.b);
      for (int r = 0; r <= depth && r < rt_.rows(); ++r) {
        const bool have = std::any_of(
            copy->rows.begin(), copy->rows.end(),
            [r](const auto& pr) { return pr.first == r; });
        if (!have) {
          auto entries = rt_.row_entries(r);
          if (!entries.empty()) copy->rows.emplace_back(r, std::move(entries));
        }
      }
      route(copy, {});
      return;
    }
    case MsgType::kAck: {
      const auto& m = static_cast<const AckMsg&>(*msg);
      on_ack(from, m.hop_seq);
      return;
    }
    case MsgType::kLsProbe:
      handle_ls_probe(static_cast<const LsProbeMsg&>(*msg), false);
      return;
    case MsgType::kLsProbeReply:
      handle_ls_probe(static_cast<const LsProbeMsg&>(*msg), true);
      return;
    case MsgType::kHeartbeat:
      return;  // liveness already recorded by heard_from
    case MsgType::kRtProbe: {
      send(from, make_msg<RtProbeMsg>(env_.pool(), true));
      return;
    }
    case MsgType::kRtProbeReply: {
      const auto it = rt_probing_.find(from);
      if (it != rt_probing_.end()) {
        if (it->second.retries == 0) {
          peers_.get(from).rtt.sample(env_.now() - it->second.sent_at);
        }
        cancel_timer(it->second.timer);
        rt_probing_.erase(it);
      }
      return;
    }
    case MsgType::kDistanceProbe: {
      const auto& m = static_cast<const DistanceProbeMsg&>(*msg);
      auto reply = make_msg<DistanceProbeMsg>(env_.pool(), true);
      reply->seq = m.seq;
      send(from, reply);
      return;
    }
    case MsgType::kDistanceProbeReply: {
      const auto& m = static_cast<const DistanceProbeMsg&>(*msg);
      on_distance_reply(from, m.seq);
      return;
    }
    case MsgType::kDistanceReport: {
      // Symmetric probing: the sender measured its RTT to us; the value is
      // ours too (delays are symmetric), so consider it for our table
      // without probing back.
      const auto& m = static_cast<const DistanceReportMsg&>(*msg);
      consider_for_rt(m.sender, m.rtt, /*report_symmetric=*/false);
      return;
    }
    case MsgType::kRtRowRequest: {
      const auto& m = static_cast<const RtRowRequestMsg&>(*msg);
      auto reply = make_msg<RtRowReplyMsg>(env_.pool());
      reply->row = m.row;
      reply->entries = rt_.row_entries(m.row);
      send(from, reply);
      return;
    }
    case MsgType::kRtRowReply:
    case MsgType::kRtRowAnnounce: {
      // Constrained gossiping: probe unknown nodes in the received row and
      // adopt the closer ones (handled by the distance sessions).
      const RowVec* entries;
      if (msg->type == MsgType::kRtRowReply) {
        entries = &static_cast<const RtRowReplyMsg&>(*msg).entries;
      } else {
        entries = &static_cast<const RtRowAnnounceMsg&>(*msg).entries;
      }
      for (const NodeDescriptor& d : *entries) {
        if (d.id == self_.id || rt_.contains(d.addr) || in_failed(d.addr)) {
          continue;
        }
        const auto [r, c] = rt_.slot_of(d.id);
        if (r < 0) continue;
        const auto* cur = rt_.get(r, c);
        if (cur != nullptr && !cfg_.pns) continue;  // slot taken, no PNS
        start_distance_session(d, ProbePurpose::kRtCandidate,
                               kDistanceProbeCount);
      }
      return;
    }
    case MsgType::kRtEntryRequest: {
      const auto& m = static_cast<const RtEntryRequestMsg&>(*msg);
      auto reply = make_msg<RtEntryReplyMsg>(env_.pool());
      reply->row = m.row;
      reply->col = m.col;
      // Return any node we know that fits the requester's slot.
      rt_.for_each([&](int, int, const RoutingTable::Entry& e) {
        if (reply->entry.valid()) return;
        const auto [rr, cc] = slot_for(m.sender.id, e.node.id, cfg_.b);
        if (rr == m.row && cc == m.col) reply->entry = e.node;
      });
      if (!reply->entry.valid()) {
        for (const NodeDescriptor& d : leaf_.members()) {
          const auto [rr, cc] = slot_for(m.sender.id, d.id, cfg_.b);
          if (rr == m.row && cc == m.col) {
            reply->entry = d;
            break;
          }
        }
      }
      send(from, reply);
      return;
    }
    case MsgType::kRtEntryReply: {
      const auto& m = static_cast<const RtEntryReplyMsg&>(*msg);
      if (m.entry.valid() && !rt_.contains(m.entry.addr) &&
          !in_failed(m.entry.addr) && m.entry.id != self_.id) {
        // Passive repair: probe before inserting (never insert during
        // repair without hearing from the node directly).
        start_distance_session(m.entry, ProbePurpose::kRtCandidate,
                               kDistanceProbeCount);
      }
      return;
    }
    case MsgType::kNnRequest: {
      auto reply = make_msg<NnReplyMsg>(env_.pool());
      reply->candidates = close_nodes_for(self_.id);
      if (adversary_ != nullptr &&
          adversary_->corrupt_nn_reply(reply->candidates)) {
        ++counters_.nn_replies_corrupted;
      }
      send(from, reply);
      return;
    }
    case MsgType::kNnReply:
      handle_nn_reply(static_cast<const NnReplyMsg&>(*msg));
      return;
    case MsgType::kJoinReply:
      handle_join_reply(static_cast<const JoinReplyMsg&>(*msg));
      return;
    case MsgType::kLeave: {
      // Direct word from the departing node: drop it everywhere, no probe
      // needed (and no announcement — every member gets its own notice).
      // It does NOT go into failed_: the address never comes back, and a
      // rejoining machine arrives with a fresh id and address anyway.
      leaf_.remove(from);
      notify_right_changed();
      rt_.remove(from);
      forget_peer(from);
      if (active_ && !leaf_complete()) repair_leaf_set();
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Routing (Figure 2, routei)
// ---------------------------------------------------------------------------

bool PastryNode::is_excluded(net::Address a,
                             const std::vector<net::Address>& excluded) const {
  if (currently_excludes(a) || in_failed(a)) return true;
  return std::find(excluded.begin(), excluded.end(), a) != excluded.end();
}

NodeDescriptor PastryNode::next_hop(
    NodeId key, const std::vector<net::Address>& excluded,
    bool* used_rt_fallback, int* empty_row, int* empty_col) const {
  *used_rt_fallback = false;
  *empty_row = -1;
  *empty_col = -1;

  // Case 1: the key is within the leaf-set arc: the closest of leaf set
  // members and self owns it. Exclusions are rare, so take the closest
  // first and check only it; the full scan below runs only when the
  // winner is excluded.
  if (leaf_.covers(key)) {
    const std::optional<NodeDescriptor> winner = leaf_.closest(key);
    if (!winner) return {};  // self is the closest
    if (!is_excluded(winner->addr, excluded)) return *winner;
    NodeDescriptor best{};  // invalid == self
    NodeId best_id = self_.id;
    for (const NodeDescriptor& m : leaf_.members()) {
      // No leaf member is ever in failed_ (leaf_.add runs after
      // heard_from cleared the sender; mark_faulty removes from the leaf
      // set first), so the fast path above, which calls in_failed on the
      // winner only, skips no lazy expiry.
      assert(failed_.count(m.addr) == 0);
      if (is_excluded(m.addr, excluded)) continue;
      if (m.id.closer_to(key, best_id)) {
        best = m;
        best_id = m.id;
      }
    }
    if (!best.valid() && !cfg_.exclude_root_on_ack_timeout) {
      // Self would deliver — but only because every closer member is
      // temporarily excluded (not confirmed faulty). Keep retransmitting
      // toward the true root instead of misdelivering; the concurrent
      // probe resolves the member's fate within (retries+1)*To.
      NodeDescriptor cand{};
      NodeId cand_id = self_.id;
      for (const NodeDescriptor& m : leaf_.members()) {
        if (in_failed(m.addr)) continue;
        if (m.id.closer_to(key, cand_id)) {
          cand = m;
          cand_id = m.id;
        }
      }
      if (cand.valid()) return cand;
    }
    return best;
  }

  // Case 2: routing-table hop on the shared prefix.
  const int r = self_.id.shared_prefix_length(key, cfg_.b);
  const int c = static_cast<int>(key.digit(r, cfg_.b));
  const RoutingTable::Entry* e = rt_.get(r, c);
  if (e != nullptr && !is_excluded(e->node.addr, excluded)) {
    return e->node;
  }
  if (e == nullptr) {
    *empty_row = r;
    *empty_col = c;
  }

  // Case 3: route around the hole: any known node strictly closer to the
  // key than we are, with a shared prefix at least as long.
  *used_rt_fallback = true;
  NodeDescriptor best{};
  U128 best_dist = self_.id.ring_distance_to(key);
  auto try_candidate = [&](const NodeDescriptor& d) {
    if (is_excluded(d.addr, excluded)) return;
    if (d.id.shared_prefix_length(key, cfg_.b) < r) return;
    const U128 dist = d.id.ring_distance_to(key);
    if (dist < best_dist) {
      best = d;
      best_dist = dist;
    }
  };
  for (const NodeDescriptor& m : leaf_.members()) try_candidate(m);
  rt_.for_each([&](int, int, const RoutingTable::Entry& en) {
    try_candidate(en.node);
  });
  return best;  // invalid == deliver locally
}

void PastryNode::route(const IntrusivePtr<RoutedMessage>& m,
                       const std::vector<net::Address>& excluded) {
  if (m->hops >= kMaxRouteHops) {
    ++counters_.lookups_dropped_no_route;
    trace_path(obs::EventKind::kDrop, m->trace_id, net::kNullAddress, m->hops);
    return;
  }
  bool fallback = false;
  int er = -1;
  int ec = -1;
  const NodeDescriptor next = next_hop(m->key, excluded, &fallback, &er, &ec);
  if (adversary_ != nullptr && m->type == MsgType::kLookup &&
      adversary_route(m, next, excluded)) {
    return;  // the adversary consumed or diverted the message
  }
  if (!next.valid()) {
    receive_root(m);
    return;
  }
  if (m->type == MsgType::kLookup &&
      env_.on_forward(static_cast<const LookupMsg&>(*m), next)) {
    trace_path(obs::EventKind::kAppConsumed, m->trace_id, next.addr, m->hops);
    return;  // the application consumed the message at this hop
  }
  // Passive routing-table repair: we found our slot (er, ec) empty while
  // routing; ask the next hop whether it knows a node for it.
  if (er >= 0 && next.valid()) {
    auto req = make_msg<RtEntryRequestMsg>(env_.pool());
    req->row = er;
    req->col = ec;
    send(next.addr, req);
  }
  forward(m, next, excluded);
}

bool PastryNode::adversary_route(const IntrusivePtr<RoutedMessage>& m,
                                 const NodeDescriptor& next,
                                 const std::vector<net::Address>& excluded) {
  switch (adversary_->on_route(*m, leaf_.covers(m->key))) {
    case AdversaryPolicy::RouteAction::kHonest:
      return false;
    case AdversaryPolicy::RouteAction::kDrop: {
      // Ack-then-devour: the upstream hop already got its per-hop ack
      // from handle(), so to it the transmission succeeded. The driver
      // accounts for the pretend forward (sent + adversarially dropped)
      // and records it on this node's ring for causal-path evidence, but
      // delivery is never scheduled.
      ++counters_.lookups_dropped_adversarial;
      if (next.valid()) {
        auto copy = make_msg<LookupMsg>(env_.pool(),
                                        static_cast<const LookupMsg&>(*m));
        copy->hops = m->hops + 1;
        copy->hop_seq = 0;
        env_.devour(next.addr, copy);
      }
      return true;
    }
    case AdversaryPolicy::RouteAction::kMisroute: {
      if (leaf_.covers(m->key)) {
        // Plausible root claim: deliver locally past closer leaf-set
        // members. This is the measurable misdelivery the oracle-verdict
        // expectation rule catches.
        ++counters_.lookups_misrouted_adversarial;
        receive_root(m);
        return true;
      }
      // Forward off-path: a live-but-wrong hop (the leaf member farthest
      // from the key) instead of the prefix-matching next hop. Honest
      // downstream nodes reconverge, so this costs hops and ack budget
      // rather than guaranteeing failure.
      NodeDescriptor wrong{};
      bool have = false;
      U128 worst{};
      for (const NodeDescriptor& cand : leaf_.members()) {
        if (cand.addr == next.addr || is_excluded(cand.addr, excluded)) {
          continue;
        }
        const U128 dist = cand.id.ring_distance_to(m->key);
        if (!have || worst < dist) {
          wrong = cand;
          worst = dist;
          have = true;
        }
      }
      if (!wrong.valid()) return false;  // nothing plausible: act honest
      ++counters_.lookups_misrouted_adversarial;
      forward(m, wrong, excluded);
      return true;
    }
  }
  return false;
}

void PastryNode::receive_root(const IntrusivePtr<RoutedMessage>& m) {
  if (!active_) {
    // Figure 2: never deliver (or answer joins) while inactive; buffer and
    // re-route after activation.
    buffer_message(m);
    return;
  }
  // Mass-failure guard: an active node whose entire leaf set vanished must
  // repair before delivering (Section 3.1's generalized repair).
  if (leaf_.empty() && rt_.entry_count() > 0) {
    buffer_message(m);
    repair_leaf_set();
    return;
  }
  if (m->type == MsgType::kLookup) {
    deliver_lookup(static_cast<const LookupMsg&>(*m));
    return;
  }
  if (m->type == MsgType::kJoinRequest) {
    const auto& jr = static_cast<const JoinRequestMsg&>(*m);
    auto reply = make_msg<JoinReplyMsg>(env_.pool());
    reply->join_epoch = jr.join_epoch;
    reply->rows = jr.rows;
    // Contribute this (root) node's rows as well.
    const int depth = self_.id.shared_prefix_length(jr.joiner.id, cfg_.b);
    for (int r = 0; r <= depth && r < rt_.rows(); ++r) {
      const bool have = std::any_of(
          reply->rows.begin(), reply->rows.end(),
          [r](const auto& pr) { return pr.first == r; });
      if (!have) {
        auto entries = rt_.row_entries(r);
        if (!entries.empty()) reply->rows.emplace_back(r, std::move(entries));
      }
    }
    reply->leaf_set = leaf_.members();
    trace_path(obs::EventKind::kDeliver, jr.trace_id, jr.joiner.addr,
               jr.hops, jr.join_epoch);
    send(jr.joiner.addr, reply);
    return;
  }
}

void PastryNode::deliver_lookup(const LookupMsg& m) {
  trace_path(obs::EventKind::kDeliver, m.trace_id, m.source.addr, m.hops,
             m.lookup_id);
  env_.on_deliver(m);
}

void PastryNode::buffer_message(const IntrusivePtr<RoutedMessage>& m) {
  constexpr std::size_t kMaxBuffered = 1024;
  if (buffered_.size() >= kMaxBuffered) {
    trace_path(obs::EventKind::kDrop, buffered_.front()->trace_id,
               net::kNullAddress, buffered_.front()->hops);
    buffered_.erase(buffered_.begin());
    ++counters_.lookups_dropped_no_route;
  }
  trace_path(obs::EventKind::kBuffered, m->trace_id, net::kNullAddress,
             m->hops);
  buffered_.push_back(m);
}

void PastryNode::flush_buffered() {
  auto pending = std::move(buffered_);
  buffered_.clear();
  for (auto& m : pending) route(m, {});
}

// ---------------------------------------------------------------------------
// Per-hop acks (Section 3.2)
// ---------------------------------------------------------------------------

SimDuration PastryNode::rto_for(net::Address a) const {
  const PeerState* p = peers_.find(a);
  if (p != nullptr && p->rtt.seeded()) return p->rtt.rto(cfg_);
  // No sample yet: if the routing table knows a measured RTT, derive an
  // aggressive timeout from it; otherwise use the configured initial RTO.
  const RoutingTable::Entry* e = rt_.find(a);
  if (e != nullptr && e->rtt != kTimeNever) {
    return std::clamp(2 * e->rtt, kRtoMin, kRtoMax);
  }
  return cfg_.rto_initial;
}

IntrusivePtr<RoutedMessage> PastryNode::clone_routed(const RoutedMessage& m) {
  if (m.type == MsgType::kLookup) {
    return make_msg<LookupMsg>(env_.pool(), static_cast<const LookupMsg&>(m));
  }
  return make_msg<JoinRequestMsg>(env_.pool(),
                                  static_cast<const JoinRequestMsg&>(m));
}

void PastryNode::forward(const IntrusivePtr<RoutedMessage>& m,
                         const NodeDescriptor& next,
                         std::vector<net::Address> excluded) {
  IntrusivePtr<RoutedMessage> copy = clone_routed(*m);
  copy->hops = m->hops + 1;
  if (m->type == MsgType::kLookup) ++counters_.lookups_forwarded;

  if (!(cfg_.per_hop_acks && m->wants_ack)) {
    copy->hop_seq = 0;
    trace_path(obs::EventKind::kForward, copy->trace_id, next.addr,
               copy->hops);
    send(next.addr, copy);
    return;
  }
  const std::uint64_t seq = next_hop_seq_++;
  copy->hop_seq = seq;
  trace_path(obs::EventKind::kForward, copy->trace_id, next.addr, copy->hops,
             seq);
  PendingAck pending;
  pending.msg = copy;
  pending.dest = next.addr;
  pending.excluded = std::move(excluded);
  pending.sent_at = env_.now();
  pending.timer = env_.schedule(rto_for(next.addr),
                                [this, seq] { on_ack_timeout(seq); });
  pending_acks_.emplace(seq, std::move(pending));
  send(next.addr, copy);
}

void PastryNode::on_ack(net::Address from, std::uint64_t hop_seq) {
  const auto it = pending_acks_.find(hop_seq);
  if (it == pending_acks_.end() || it->second.dest != from) return;
  trace_path(obs::EventKind::kAckRecv, it->second.msg->trace_id, from,
             it->second.msg->hops, hop_seq);
  cancel_timer(it->second.timer);
  peers_.get(from).rtt.sample(env_.now() - it->second.sent_at);
  pending_acks_.erase(it);
}

void PastryNode::on_ack_timeout(std::uint64_t hop_seq) {
  const auto it = pending_acks_.find(hop_seq);
  if (it == pending_acks_.end()) return;
  PendingAck pending = std::move(it->second);
  pending_acks_.erase(it);
  pending.timer = kInvalidTimer;
  ++counters_.ack_timeouts;
  trace_path(obs::EventKind::kAckTimeout, pending.msg->trace_id, pending.dest,
             pending.msg->hops, hop_seq);

  // Our own join request never got past the seed: restart the join from a
  // fresh bootstrap right away (a joiner has no routing state to reroute
  // with).
  if (pending.msg->type == MsgType::kJoinRequest && joining_ && !active_ &&
      static_cast<const JoinRequestMsg&>(*pending.msg).joiner.addr ==
          self_.addr) {
    trace_path(obs::EventKind::kJoinRestart, pending.msg->trace_id,
               pending.dest, pending.msg->hops, join_epoch_);
    const auto bootstrap = env_.bootstrap_candidate();
    if (bootstrap && bootstrap->id != self_.id) {
      start_join(*bootstrap);
    }
    return;
  }

  // A single lost ack is recovered by retransmitting to the same
  // destination before treating it as suspect.
  if (pending.same_dest_retries < kAckRetransmits) {
    const std::uint64_t seq = next_hop_seq_++;
    pending.msg = clone_routed(*pending.msg);
    pending.msg->hop_seq = seq;
    pending.same_dest_retries += 1;
    pending.sent_at = env_.now();
    trace_path(obs::EventKind::kRetransmit, pending.msg->trace_id,
               pending.dest, pending.msg->hops, seq);
    pending.timer = env_.schedule(2 * rto_for(pending.dest),
                                  [this, seq] { on_ack_timeout(seq); });
    send(pending.dest, pending.msg);
    pending_acks_.emplace(seq, std::move(pending));
    return;
  }

  // Temporarily exclude the unresponsive node and probe it; it is only
  // marked faulty if the probe times out.
  if (PeerState& p = peers_.get(pending.dest); !p.excluded) {
    p.excluded = true;
    ++excluded_peers_;
  }
  trace_node(obs::EventKind::kSuspect, pending.dest);
  if (auto d = leaf_.find(pending.dest)) {
    // First-hand suspicion (missed ack): announce if confirmed dead.
    ++counters_.ls_probes_suspect;
    probe(*d, /*announce_on_timeout=*/true);
  } else if (const RoutingTable::Entry* e = rt_.find(pending.dest)) {
    send_rt_probe(e->node);
  }

  if (cfg_.mutation_suppress_reroute) {
    // Injected bug (see Config): the message is silently abandoned. The
    // expectation checker's timeout-followed-by-reaction rule exists to
    // catch exactly this.
    return;
  }

  std::vector<net::Address> excl = pending.excluded;
  excl.push_back(pending.dest);

  // If routing-with-exclusions still points at the same destination, the
  // consistency rule in next_hop fired (the destination is the closest
  // live-as-far-as-we-know root): retransmit with exponential backoff
  // rather than misdeliver locally.
  bool fb = false;
  int er = -1;
  int ec = -1;
  const NodeDescriptor next = next_hop(pending.msg->key, excl, &fb, &er, &ec);
  if (next.valid() && next.addr == pending.dest) {
    if (pending.same_dest_retries >= kMaxSameDestRetransmits) {
      ++counters_.lookups_dropped_no_route;
      trace_path(obs::EventKind::kDrop, pending.msg->trace_id, pending.dest,
                 pending.msg->hops);
      return;
    }
    const std::uint64_t seq = next_hop_seq_++;
    pending.msg = clone_routed(*pending.msg);
    pending.msg->hop_seq = seq;
    pending.same_dest_retries += 1;
    pending.sent_at = env_.now();
    trace_path(obs::EventKind::kRetransmit, pending.msg->trace_id,
               pending.dest, pending.msg->hops, seq);
    const SimDuration backoff = std::min<SimDuration>(
        rto_for(pending.dest) << std::min(pending.same_dest_retries, 8),
        kRtoMax);
    pending.timer =
        env_.schedule(backoff, [this, seq] { on_ack_timeout(seq); });
    send(pending.dest, pending.msg);
    pending_acks_.emplace(seq, std::move(pending));
    return;
  }

  trace_path(obs::EventKind::kReroute, pending.msg->trace_id, pending.dest,
             pending.msg->hops);
  route(pending.msg, excl);
}

// ---------------------------------------------------------------------------
// Lookup origination
// ---------------------------------------------------------------------------

void PastryNode::lookup(NodeId key, std::uint64_t lookup_id,
                        std::uint64_t payload, net::PacketPtr app_data) {
  auto m = make_msg<LookupMsg>(env_.pool());
  m->key = key;
  m->lookup_id = lookup_id;
  m->payload = payload;
  m->app_data = std::move(app_data);
  m->source = self_;
  m->sent_at = env_.now();
  m->trace_id = rec_ != nullptr ? rec_->sample_lookup(lookup_id) : 0;
  trace_path(obs::EventKind::kLookupIssued, m->trace_id, net::kNullAddress, 0,
             lookup_id);
  if (!active_) {
    buffer_message(m);
    return;
  }
  if (cfg_.lookup_redundancy <= 1) {
    route(m, {});
    return;
  }
  // Diverse-path redundancy: route k copies with pairwise-distinct first
  // hops, accumulated as per-copy exclusions. Disjointness is first-hop
  // only — Pastry's prefix routing converges paths near the root, so
  // interior disjointness is best-effort by construction. Redundant
  // copies are untraced (causal-path assembly is per-path); the
  // application layer deduplicates with first-correct-wins.
  std::vector<net::Address> used;
  for (int k = 0; k < cfg_.lookup_redundancy; ++k) {
    bool fb = false;
    int er = -1;
    int ec = -1;
    const NodeDescriptor first = next_hop(key, used, &fb, &er, &ec);
    if (k == 0) {
      route(m, {});
      if (!first.valid()) return;  // delivered locally: one copy suffices
    } else {
      // Never let exclusion pressure turn a redundant copy into a local
      // (mis)delivery: stop when no further disjoint first hop exists.
      if (!first.valid()) return;
      auto copy = make_msg<LookupMsg>(env_.pool(), *m);
      copy->trace_id = 0;
      ++counters_.redundant_lookup_copies;
      route(copy, used);
    }
    used.push_back(first.addr);
  }
}

}  // namespace mspastry::pastry
