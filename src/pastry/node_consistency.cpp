#include <algorithm>
#include <cassert>

#include "pastry/node.hpp"

namespace mspastry::pastry {

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void PastryNode::bootstrap() {
  assert(!active_ && !joining_);
  join_started_ = env_.now();
  ++counters_.joins_started;
  activate();
}

// ---------------------------------------------------------------------------
// Leaf-set probing (Figure 2)
// ---------------------------------------------------------------------------

void PastryNode::probe(const NodeDescriptor& j, bool announce_on_timeout) {
  if (!j.valid() || j.id == self_.id) return;
  if (in_failed(j.addr)) return;
  if (const auto it = ls_probing_.find(j.addr); it != ls_probing_.end()) {
    // Already probing; at most upgrade the announce flag.
    it->second.announce_on_timeout |= announce_on_timeout;
    return;
  }
  auto m = make_msg<LsProbeMsg>(env_.pool(), /*reply=*/false);
  m->leaf = leaf_.members();
  m->failed.reserve(failed_.size());
  for (const auto& [a, d] : failed_) m->failed.push_back(d.node);
  ++counters_.ls_probes_sent;
  trace_node(joining_ && !active_ ? obs::EventKind::kJoinProbe
                                  : obs::EventKind::kLsProbeSent,
             j.addr);
  send(j.addr, m);
  LsProbeState st;
  st.target = j;
  st.retries = 0;
  st.announce_on_timeout = announce_on_timeout;
  st.sent_at = env_.now();
  st.timer = env_.schedule(cfg_.t_o,
                           [this, a = j.addr] { on_ls_probe_timeout(a); });
  ls_probing_.emplace(j.addr, std::move(st));
}

void PastryNode::on_ls_probe_timeout(net::Address j) {
  const auto it = ls_probing_.find(j);
  if (it == ls_probing_.end()) return;
  LsProbeState& st = it->second;
  st.timer = kInvalidTimer;
  if (st.retries < kMaxProbeRetries) {
    st.retries += 1;
    auto m = make_msg<LsProbeMsg>(env_.pool(), /*reply=*/false);
    m->leaf = leaf_.members();
    m->failed.reserve(failed_.size());
    for (const auto& [a, d] : failed_) m->failed.push_back(d.node);
    ++counters_.ls_probes_sent;
    trace_node(joining_ && !active_ ? obs::EventKind::kJoinProbe
                                    : obs::EventKind::kLsProbeSent,
               j);
    send(j, m);
    st.timer =
        env_.schedule(cfg_.t_o, [this, j] { on_ls_probe_timeout(j); });
    // The probe just stopped being first-attempt: it no longer blocks
    // activation, so re-evaluate.
    done_probing(j);
    return;
  }
  const NodeDescriptor target = st.target;
  const bool announce = st.announce_on_timeout;
  ls_probing_.erase(it);
  mark_faulty(target, announce);
  done_probing(target.addr);
}

void PastryNode::notify_right_changed() {
  const auto r = leaf_.right_neighbour();
  std::optional<net::Address> now_right;
  if (r) now_right = r->addr;
  if (now_right == last_right_) return;
  last_right_ = now_right;
  env_.on_right_neighbour(r);
}

void PastryNode::mark_faulty(const NodeDescriptor& j, bool announce) {
  const bool was_leaf = leaf_.contains(j.addr);
  leaf_.remove(j.addr);
  notify_right_changed();
  rt_.remove(j.addr);
  forget_peer(j.addr);
  trace_node(obs::EventKind::kCondemn, j.addr);
  failed_.emplace(j.addr, FailedEntry{j, env_.now()});
  fail_est_.record_failure(env_.now());
  ++counters_.nodes_marked_faulty;
  env_.on_marked_faulty(j.addr);
  if (announce && was_leaf) {
    // Tell the rest of the leaf set that j failed (Section 4.1): the
    // failed set piggybacked on these probes carries the news, and the
    // replies bring candidate replacements.
    for (const NodeDescriptor& n : leaf_.members()) {
      ++counters_.ls_probes_announce;
      probe(n);
    }
  }
}

void PastryNode::handle_ls_probe(const LsProbeMsg& m, bool is_reply) {
  const NodeDescriptor j = m.sender;
  if (!j.valid() || j.id == self_.id) return;
  // heard_from() already removed j from failed_. Insert j directly: we
  // heard from it — unless its announced id is implausibly dense
  // (eclipse clusters pack sybil ids around a victim; the density check
  // keeps them out of the leaf set while still learning the node for
  // routing-table purposes, where one entry per prefix slot bounds the
  // damage).
  if (plausible_leaf_candidate(j)) {
    leaf_.add(j);
  } else {
    ++counters_.leaf_candidates_rejected;
  }
  rt_.add(j);

  // Nodes the sender believes failed: probe the ones in our leaf set to
  // confirm (recovering from false positives), then drop them from the
  // leaf set.
  for (const NodeDescriptor& f : m.failed) {
    if (f.addr == self_.addr || f.id == self_.id) continue;
    if (leaf_.contains(f.addr)) {
      ++counters_.ls_probes_confirm;
      probe(f);
      if (cfg_.leaf_plausibility_checks) {
        // Skeptical mode: hearsay triggers the confirming probe but the
        // member stays until that probe itself times out (mark_faulty
        // removes it then). An adversary claiming healthy neighbors dead
        // costs probe traffic, not membership.
        ++counters_.failure_claims_distrusted;
      } else {
        leaf_.remove(f.addr);
      }
    }
  }
  notify_right_changed();  // covers both the add and the removals above

  // Candidates from the sender's leaf set: probe before inclusion. Probe
  // only as many as the leaf set is short of (plus slack), closest first:
  // an undersized leaf set admits anything, and probing every name in
  // every received probe would echo each membership change into O(l^2)
  // probe waves.
  std::vector<NodeDescriptor> candidates;
  for (const NodeDescriptor& d : m.leaf) {
    if (d.id == self_.id || in_failed(d.addr)) continue;
    if (leaf_.contains(d.addr)) continue;
    if (!plausible_leaf_candidate(d)) {
      ++counters_.leaf_candidates_rejected;
      continue;
    }
    if (leaf_would_admit(d)) candidates.push_back(d);
  }
  const int deficit = cfg_.l - leaf_.size();
  const std::size_t budget =
      deficit > 0 ? static_cast<std::size_t>(deficit) : 2;
  if (candidates.size() > budget) {
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<std::ptrdiff_t>(budget),
                      candidates.end(),
                      [this](const NodeDescriptor& a, const NodeDescriptor& b) {
                        return self_.id.ring_distance_to(a.id) <
                               self_.id.ring_distance_to(b.id);
                      });
    candidates.resize(budget);
  }
  for (const NodeDescriptor& d : candidates) {
    ++counters_.ls_probes_candidate;
    if (active_) ++counters_.ls_probes_candidate_active;
    probe(d);
  }

  if (!is_reply) {
    auto reply = make_msg<LsProbeMsg>(env_.pool(), /*reply=*/true);
    reply->leaf = leaf_.members();
    // Generalized repair aid (Section 3.1): when the requester's leaf set
    // is empty (mass failure), also offer close nodes drawn from the
    // routing table. Not done for ordinary probes: routing-table entries
    // are repaired lazily and may be stale, and probing stale candidates
    // delays the requester's activation by a full probe timeout.
    if (m.leaf.empty()) {
      for (const NodeDescriptor& d : close_nodes_for(j.id)) {
        if (std::none_of(reply->leaf.begin(), reply->leaf.end(),
                         [&](const NodeDescriptor& x) {
                           return x.addr == d.addr;
                         })) {
          reply->leaf.push_back(d);
        }
      }
    }
    reply->failed.reserve(failed_.size());
    for (const auto& [a, d] : failed_) reply->failed.push_back(d.node);
    if (adversary_ != nullptr &&
        adversary_->corrupt_ls_reply(reply->leaf, reply->failed)) {
      ++counters_.ls_replies_corrupted;
    }
    send(j.addr, reply);
  } else {
    const auto it = ls_probing_.find(j.addr);
    if (it != ls_probing_.end()) {
      if (it->second.retries == 0) {
        peers_.get(j.addr).rtt.sample(env_.now() - it->second.sent_at);
      }
      cancel_timer(it->second.timer);
      ls_probing_.erase(it);
    }
    done_probing(j.addr);
    return;
  }
  // An incoming probe may have completed this (still joining) node's leaf
  // set; every member in it either probed us or replied to our probe, so
  // the mutual-awareness precondition for activation holds.
  if (!active_ && joining_ && ls_probing_.empty()) try_complete();
}

bool PastryNode::has_blocking_ls_probes() const {
  for (const auto& [a, st] : ls_probing_) {
    (void)a;
    if (st.retries == 0) return true;
  }
  return false;
}

void PastryNode::done_probing(net::Address /*j*/) {
  if (has_blocking_ls_probes()) return;
  try_complete();
}

bool PastryNode::leaf_complete() const {
  if (leaf_.full()) return true;
  return small_ring_converged_ && !leaf_.empty();
}

void PastryNode::try_complete() {
  if (leaf_complete()) {
    if (!active_) activate();
    return;
  }
  repair_leaf_set();
}

std::uint64_t PastryNode::leaf_membership_hash() const {
  std::uint64_t h = 1469598103934665603ull;
  for (const NodeDescriptor& m : leaf_.members()) {
    h = (h ^ static_cast<std::uint64_t>(m.addr)) * 1099511628211ull;
  }
  return h;
}

void PastryNode::repair_leaf_set() {
  const std::uint64_t hash = leaf_membership_hash();
  bool progressed = hash != last_membership_hash_;
  last_membership_hash_ = hash;
  if (!active_) {
    // A joiner progresses only by meeting members it has not seen. Under
    // loss, failure hearsay removes live members and their confirming
    // probes re-admit them; counting that churn as change can hold a
    // joiner in a small ring inactive for minutes while lookups queue at
    // it.
    progressed = false;
    for (const NodeDescriptor& m : leaf_.members()) {
      if (std::find(join_leaf_seen_.begin(), join_leaf_seen_.end(),
                    m.addr) == join_leaf_seen_.end()) {
        join_leaf_seen_.push_back(m.addr);
        progressed = true;
      }
    }
  }
  if (!progressed) {
    ++repair_stalls_;
  } else {
    repair_stalls_ = 0;
    small_ring_converged_ = false;
  }
  if (repair_stalls_ >= 2 && !leaf_.empty()) {
    // Probing the extremes twice added nothing: the ring is smaller than
    // the leaf set; treat it as complete.
    small_ring_converged_ = true;
    if (!active_) activate();
    return;
  }

  bool sent = false;
  if (leaf_.empty()) {
    // Mass failure: seed repair from the routing table. Probe the nodes
    // closest to us on each side; their replies carry close nodes and the
    // repair converges in O(log N) iterations (Section 3.1).
    NodeDescriptor best_cw{};
    NodeDescriptor best_ccw{};
    U128 cw_d = kU128Max;
    U128 ccw_d = kU128Max;
    rt_.for_each([&](int, int, const RoutingTable::Entry& e) {
      if (in_failed(e.node.addr)) return;
      const U128 cw = self_.id.clockwise_distance_to(e.node.id);
      const U128 ccw = e.node.id.clockwise_distance_to(self_.id);
      if (cw < cw_d) {
        cw_d = cw;
        best_cw = e.node;
      }
      if (ccw < ccw_d) {
        ccw_d = ccw;
        best_ccw = e.node;
      }
    });
    if (best_cw.valid()) {
      ++counters_.ls_probes_repair;
      probe(best_cw);
      sent = true;
    }
    if (best_ccw.valid() && best_ccw.addr != best_cw.addr) {
      ++counters_.ls_probes_repair;
      probe(best_ccw);
      sent = true;
    }
  } else if (leaf_.size() < cfg_.l) {
    // Figure 2's done-probing repair: the leaf set is short of members;
    // the extremes know nodes farther out on their side, so probing them
    // extends coverage (their replies carry their own leaf sets).
    const auto lm = leaf_.leftmost();
    const auto rm = leaf_.rightmost();
    ++counters_.ls_probes_repair;
    probe(*lm);
    sent = true;
    if (rm->addr != lm->addr) {
      ++counters_.ls_probes_repair;
      probe(*rm);
    }
  }
  if (!sent && ls_probing_.empty()) {
    // Nothing to probe right now (targets already probing or failed);
    // retry after a timeout instead of spinning. The retry re-evaluates
    // completeness unconditionally: the leaf set may have been completed
    // in the meantime by incoming probes from other nodes.
    env_.schedule(cfg_.t_o, [this] {
      if (ls_probing_.empty()) try_complete();
    });
    ++repair_stalls_;
  }
}

void PastryNode::activate() {
  assert(!active_);
  active_ = true;
  joining_ = false;
  join_leaf_seen_ = {};
  trace_node(obs::EventKind::kActivated, net::kNullAddress, join_epoch_);
  failed_.clear();
  cancel_timer(join_retry_timer_);
  ++counters_.joins_completed;

  // Periodic machinery. Small random phases avoid lock-step storms.
  const SimDuration hb_phase = from_seconds(
      env_.rng().uniform(0.0, to_seconds(cfg_.t_ls)));
  heartbeat_timer_ =
      env_.schedule(hb_phase, [this] { heartbeat_tick(); });
  watch_timer_ = env_.schedule(cfg_.t_ls + cfg_.t_o + hb_phase,
                               [this] { watch_tick(); });
  if (cfg_.active_rt_probing) {
    retune();
    rt_scan_timer_ = env_.schedule(
        from_seconds(env_.rng().uniform(1.0, trt_current_s_)),
        [this] { rt_scan_tick(); });
  }
  maintenance_timer_ = env_.schedule(
      from_seconds(env_.rng().uniform(0.5, 1.0) *
                   to_seconds(cfg_.rt_maintenance_period)),
      [this] { rt_maintenance_tick(); });

  env_.on_activated();
  announce_rows();
  flush_buffered();
}

bool PastryNode::leaf_would_admit(const NodeDescriptor& d) const {
  if (leaf_.size() < cfg_.l) return true;
  const U128 cw = self_.id.clockwise_distance_to(d.id);
  const U128 ccw = d.id.clockwise_distance_to(self_.id);
  const U128 cw_edge = self_.id.clockwise_distance_to(leaf_.rightmost()->id);
  const U128 ccw_edge = leaf_.leftmost()->id.clockwise_distance_to(self_.id);
  return cw < cw_edge || ccw < ccw_edge;
}

bool PastryNode::plausible_leaf_candidate(const NodeDescriptor& d) const {
  if (!cfg_.leaf_plausibility_checks) return true;
  // Too few members to estimate density: admit everything (a bootstrap
  // ring must be able to grow from one node).
  if (leaf_.size() < cfg_.l / 2) return true;
  const double n_hat = estimate_overlay_size();
  constexpr double kRing = 340282366920938463463374607431768211456.0;  // 2^128
  const double min_spacing = kRing / n_hat / kLeafDensityFactor;
  if (self_.id.ring_distance_to(d.id).to_double() < min_spacing) return false;
  for (const NodeDescriptor& m : leaf_.members()) {
    if (m.id.ring_distance_to(d.id).to_double() < min_spacing) return false;
  }
  return true;
}

std::vector<NodeDescriptor> PastryNode::close_nodes_for(NodeId target) const {
  // The l+1 nodes we know (leaf set + routing table) closest to `target`
  // on the ring.
  std::vector<NodeDescriptor> all;
  all.reserve(leaf_.members().size() + rt_.entry_count());
  for (const NodeDescriptor& m : leaf_.members()) all.push_back(m);
  rt_.for_each([&](int, int, const RoutingTable::Entry& e) {
    if (!leaf_.contains(e.node.addr)) all.push_back(e.node);
  });
  std::sort(all.begin(), all.end(),
            [target](const NodeDescriptor& a, const NodeDescriptor& b) {
              return a.id.ring_distance_to(target) <
                     b.id.ring_distance_to(target);
            });
  if (all.size() > static_cast<std::size_t>(cfg_.l + 1)) {
    all.resize(static_cast<std::size_t>(cfg_.l + 1));
  }
  return all;
}

// ---------------------------------------------------------------------------
// Structured heartbeats (Section 4.1)
// ---------------------------------------------------------------------------

void PastryNode::heartbeat_tick() {
  heartbeat_timer_ = env_.schedule(cfg_.t_ls, [this] { heartbeat_tick(); });
  trace_node(obs::EventKind::kHeartbeatTick);
  const auto left = leaf_.left_neighbour();
  if (!left) return;
  if (cfg_.suppression) {
    const PeerState* p = peers_.find(left->addr);
    if (p != nullptr && p->has(PeerState::kSent) &&
        env_.now() - p->last_sent < cfg_.t_ls) {
      ++counters_.heartbeats_suppressed;
      return;
    }
  }
  ++counters_.heartbeats_sent;
  send(left->addr, make_msg<HeartbeatMsg>(env_.pool()));
}

void PastryNode::watch_tick() {
  watch_timer_ = env_.schedule(cfg_.t_ls, [this] { watch_tick(); });
  const auto right = leaf_.right_neighbour();
  if (!right) return;
  const PeerState* p = peers_.find(right->addr);
  const SimTime heard =
      p != nullptr && p->has(PeerState::kHeard) ? p->last_heard : 0;
  if (env_.now() - heard > cfg_.t_ls + cfg_.t_o) {
    // SUSPECT-FAULTY (Figure 2); first-hand detection announces.
    ++counters_.ls_probes_suspect;
    probe(*right, /*announce_on_timeout=*/true);
  }
}

}  // namespace mspastry::pastry
