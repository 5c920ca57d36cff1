#include <algorithm>
#include <cassert>

#include "pastry/node.hpp"

namespace mspastry::pastry {

// ---------------------------------------------------------------------------
// Routing-table liveness probing with self-tuned period (Section 4.1)
// ---------------------------------------------------------------------------

void PastryNode::retune() {
  if (!cfg_.self_tuning) {
    trt_local_s_ = to_seconds(cfg_.t_rt_fixed);
    trt_current_s_ = trt_local_s_;
    return;
  }
  const double mu = estimate_failure_rate();
  const double n = estimate_overlay_size();
  trt_local_s_ = selftune::tune_trt(cfg_, mu, n);

  // Median of the gossiped estimates from current routing-state members
  // plus our own (Section 4.1).
  std::vector<double> est;
  est.push_back(trt_local_s_);
  const auto add_hint = [&](net::Address a) {
    const PeerState* p = peers_.find(a);
    if (p != nullptr && p->has(PeerState::kTrtHint)) {
      est.push_back(p->trt_hint_s);
    }
  };
  for (const NodeDescriptor& m : leaf_.members()) add_hint(m.addr);
  rt_.for_each(
      [&](int, int, const RoutingTable::Entry& e) { add_hint(e.node.addr); });
  const auto mid = est.begin() + static_cast<std::ptrdiff_t>(est.size() / 2);
  std::nth_element(est.begin(), mid, est.end());
  trt_current_s_ = std::clamp(*mid, to_seconds(cfg_.t_rt_min),
                              to_seconds(kTrtMax));
}

void PastryNode::rt_scan_tick() {
  retune();
  // Scan more often than the probe period so per-entry due times are hit
  // with little slack; each entry is probed at most once per Trt. The
  // 60 s cap keeps the self-tuner responsive when Trt itself is long.
  const double scan_s = std::clamp(trt_current_s_ / 4.0, 1.0, 60.0);
  rt_scan_timer_ =
      env_.schedule(from_seconds(scan_s), [this] { rt_scan_tick(); });
  const SimTime now = env_.now();
  const SimDuration period = from_seconds(trt_current_s_);
  std::vector<NodeDescriptor> to_probe;
  to_probe.reserve(rt_.entry_count());
  rt_.for_each([&](int, int, const RoutingTable::Entry& e) {
    if (leaf_.contains(e.node.addr)) return;  // covered by the leaf-set
                                              // heartbeat structure
    PeerState& p = peers_.get(e.node.addr);
    if (!p.has(PeerState::kProbeDue)) {
      // Fresh entry: first probe one period from now.
      p.stamp(PeerState::kProbeDue, p.last_probe_due, now);
      return;
    }
    if (now - p.last_probe_due < period) return;  // not due yet
    p.last_probe_due = now;
    if (cfg_.suppression && p.has(PeerState::kSuppressHeard) &&
        now - p.suppress_heard < period) {
      // Other traffic replaced this probing cycle (Section 4.1).
      ++counters_.rt_probes_suppressed;
      return;
    }
    ++counters_.rt_probes_periodic;
    to_probe.push_back(e.node);
  });
  for (const NodeDescriptor& d : to_probe) {
    // Stagger within the scan interval to avoid probe bursts.
    const SimDuration jitter =
        from_seconds(env_.rng().uniform(0.0, std::min(scan_s * 0.5, 5.0)));
    env_.schedule(jitter, [this, d] {
      if (rt_.contains(d.addr)) send_rt_probe(d);
    });
  }
}

void PastryNode::send_rt_probe(const NodeDescriptor& j) {
  if (rt_probing_.count(j.addr) > 0 || in_failed(j.addr)) return;
  ++counters_.rt_probes_sent;
  trace_node(obs::EventKind::kRtProbeSent, j.addr);
  send(j.addr, make_msg<RtProbeMsg>(env_.pool(), false));
  RtProbeState st;
  st.target = j;
  st.sent_at = env_.now();
  st.timer = env_.schedule(cfg_.t_o,
                           [this, a = j.addr] { on_rt_probe_timeout(a); });
  rt_probing_.emplace(j.addr, std::move(st));
}

void PastryNode::on_rt_probe_timeout(net::Address j) {
  const auto it = rt_probing_.find(j);
  if (it == rt_probing_.end()) return;
  RtProbeState& st = it->second;
  st.timer = kInvalidTimer;
  if (st.retries < kMaxProbeRetries) {
    st.retries += 1;
    ++counters_.rt_probes_sent;
    send(j, make_msg<RtProbeMsg>(env_.pool(), false));
    st.timer = env_.schedule(cfg_.t_o, [this, j] { on_rt_probe_timeout(j); });
    return;
  }
  const NodeDescriptor target = st.target;
  rt_probing_.erase(it);
  // Routing-table repair is lazy (periodic + passive), so just drop the
  // node; no announcement.
  mark_faulty(target, /*announce=*/false);
}

// ---------------------------------------------------------------------------
// Distance probing / PNS (Section 4.2)
// ---------------------------------------------------------------------------

std::uint64_t PastryNode::start_distance_session(const NodeDescriptor& target,
                                                 ProbePurpose purpose,
                                                 int probes) {
  assert(probes >= 1);
  if (target.id == self_.id || in_failed(target.addr)) return 0;
  if (purpose == ProbePurpose::kRtCandidate) {
    const PeerState* p = peers_.find(target.addr);
    if (p != nullptr && p->has(PeerState::kMeasured) &&
        env_.now() - p->measured_at < kDistanceMeasurementTtl) {
      return 0;  // measured recently; gossip will re-offer it later anyway
    }
  }
  // One session per target at a time.
  for (const auto& [id, s] : dist_sessions_) {
    if (s.target.addr == target.addr && s.purpose == purpose) return 0;
  }
  const std::uint64_t id = next_session_id_++;
  DistanceSession s;
  s.target = target;
  s.purpose = purpose;
  s.want = probes;
  dist_sessions_.emplace(id, std::move(s));
  distance_session_step(id);
  return id;
}

void PastryNode::distance_session_step(std::uint64_t session_id) {
  const auto it = dist_sessions_.find(session_id);
  if (it == dist_sessions_.end()) return;
  DistanceSession& s = it->second;
  s.timer = kInvalidTimer;
  if (s.sent < s.want) {
    const std::uint64_t seq = next_probe_seq_++;
    dist_probes_[seq] = OutstandingProbe{session_id, env_.now()};
    auto m = make_msg<DistanceProbeMsg>(env_.pool(), false);
    m->seq = seq;
    ++counters_.distance_probes_sent;
    send(s.target.addr, m);
    s.sent += 1;
    const SimDuration final_wait =
        s.purpose == ProbePurpose::kNearestNeighbour ? cfg_.nn_probe_timeout
                                                     : cfg_.t_o;
    const SimDuration next_in =
        s.sent < s.want ? kDistanceProbeSpacing : final_wait;
    s.timer = env_.schedule(next_in,
                            [this, session_id] {
                              distance_session_step(session_id);
                            });
    return;
  }
  finish_distance_session(session_id);
}

void PastryNode::on_distance_reply(net::Address from, std::uint64_t seq) {
  const auto it = dist_probes_.find(seq);
  if (it == dist_probes_.end()) return;
  const OutstandingProbe probe = it->second;
  dist_probes_.erase(it);
  const auto sit = dist_sessions_.find(probe.session);
  if (sit == dist_sessions_.end()) return;
  DistanceSession& s = sit->second;
  if (s.target.addr != from) return;
  const SimDuration rtt = env_.now() - probe.sent_at;
  s.samples.push_back(rtt);
  peers_.get(from).rtt.sample(rtt);
  if (static_cast<int>(s.samples.size()) == s.want) {
    cancel_timer(s.timer);
    finish_distance_session(probe.session);
  }
}

void PastryNode::finish_distance_session(std::uint64_t session_id) {
  const auto it = dist_sessions_.find(session_id);
  if (it == dist_sessions_.end()) return;
  DistanceSession s = std::move(it->second);
  dist_sessions_.erase(it);
  cancel_timer(s.timer);
  if (s.samples.empty()) {
    // No reply at all: treat as a failed measurement. For the nearest-
    // neighbour walk this counts as "candidate unusable".
    if (s.purpose == ProbePurpose::kNearestNeighbour && joining_) {
      nn_outstanding_ -= 1;
      if (nn_outstanding_ <= 0) nn_measurement_done();
    }
    return;
  }
  std::sort(s.samples.begin(), s.samples.end());
  const SimDuration rtt = s.samples[s.samples.size() / 2];
  on_distance_measured(s.target, rtt, s.purpose);
}

void PastryNode::on_distance_measured(const NodeDescriptor& target,
                                      SimDuration rtt, ProbePurpose purpose) {
  switch (purpose) {
    case ProbePurpose::kRtCandidate:
      consider_for_rt(target, rtt, cfg_.symmetric_probes);
      return;
    case ProbePurpose::kNearestNeighbour:
      if (!joining_) return;
      if (rtt < nn_best_rtt_) {
        nn_best_ = target;
        nn_best_rtt_ = rtt;
      }
      nn_outstanding_ -= 1;
      if (nn_outstanding_ <= 0) nn_measurement_done();
      return;
  }
}

void PastryNode::consider_for_rt(const NodeDescriptor& d, SimDuration rtt,
                                 bool report_symmetric) {
  if (d.id == self_.id || in_failed(d.addr)) return;
  PeerState& p = peers_.get(d.addr);
  p.stamp(PeerState::kMeasured, p.measured_at, env_.now());
  p.rtt.sample(rtt);  // seed the RTO estimator too
  rt_.add_with_rtt(d, rtt, cfg_.pns);
  if (report_symmetric) {
    auto m = make_msg<DistanceReportMsg>(env_.pool());
    m->rtt = rtt;
    send(d.addr, m);
  }
}

// ---------------------------------------------------------------------------
// Periodic routing-table maintenance + join-time row announcements
// ---------------------------------------------------------------------------

void PastryNode::rt_maintenance_tick() {
  maintenance_timer_ = env_.schedule(cfg_.rt_maintenance_period,
                                     [this] { rt_maintenance_tick(); });
  // Ask one node per row for its corresponding row; probe what comes back
  // (the handler for kRtRowReply does that) and keep the closer nodes.
  for (int r = 0; r < rt_.rows(); ++r) {
    const auto entries = rt_.row_entries(r);
    if (entries.empty()) continue;
    const NodeDescriptor& pick =
        entries[env_.rng().uniform_index(entries.size())];
    auto m = make_msg<RtRowRequestMsg>(env_.pool());
    m->row = r;
    send(pick.addr, m);
  }
}

void PastryNode::announce_rows() {
  // Section 2: after initializing its routing table, the new node sends
  // row r to every node in that row; receivers probe the unknown entries
  // and adopt the closer ones — gossip that keeps tables near-perfect.
  for (int r = 0; r < rt_.rows(); ++r) {
    auto entries = rt_.row_entries(r);
    if (entries.empty()) continue;
    // One pooled message shared by every destination in the row: the
    // header send() stamps is identical per destination, so all copies
    // alias a single refcounted object instead of cloning per receiver.
    auto m = make_msg<RtRowAnnounceMsg>(env_.pool());
    m->row = r;
    m->entries = entries;
    for (const NodeDescriptor& d : entries) {
      send(d.addr, m);
    }
  }
  // Also measure distances to our own entries so PNS comparisons and RTO
  // seeds have data. The joiner initiates (symmetry-breaking of Section
  // 4.2); peers learn their value from our DistanceReport.
  rt_.for_each([&](int, int, const RoutingTable::Entry& e) {
    if (e.rtt == kTimeNever) {
      start_distance_session(e.node, ProbePurpose::kRtCandidate,
                             kDistanceProbeCount);
    }
  });
}

}  // namespace mspastry::pastry
