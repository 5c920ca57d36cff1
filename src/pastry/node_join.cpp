#include <algorithm>
#include <cassert>

#include "pastry/node.hpp"

namespace mspastry::pastry {

void PastryNode::join(NodeDescriptor bootstrap) {
  assert(!active_ && !joining_);
  assert(bootstrap.valid());
  joining_ = true;
  join_started_ = env_.now();
  ++counters_.joins_started;
  trace_node(obs::EventKind::kJoinStart, bootstrap.addr, join_epoch_ + 1);
  fail_est_.record_join(env_.now());
  join_retry_timer_ =
      env_.schedule(cfg_.join_retry, [this] { on_join_retry(); });
  start_join(bootstrap);
}

void PastryNode::start_join(const NodeDescriptor& bootstrap) {
  ++join_epoch_;
  join_reply_seen_ = false;
  nn_visited_.clear();
  nn_iteration_ = 0;
  nn_current_ = NodeDescriptor{};
  nn_current_rtt_ = kTimeNever;
  nn_best_ = NodeDescriptor{};
  nn_best_rtt_ = kTimeNever;
  nn_outstanding_ = 1;
  nn_visited_.insert(bootstrap.addr);
  // Measure the bootstrap itself first (single probe, Section 4.2: the
  // nearest-neighbour walk uses one sample per candidate).
  if (start_distance_session(bootstrap, ProbePurpose::kNearestNeighbour,
                             1) == 0) {
    // Could not start (e.g. marked failed): fall back to joining via it.
    nn_current_ = bootstrap;
    send_join_request();
  }
}

void PastryNode::nn_request(const NodeDescriptor& target) {
  send(target.addr, make_msg<NnRequestMsg>(env_.pool()));
  // If the reply never arrives (loss or death), push on with what we have.
  const std::uint64_t epoch = join_epoch_;
  const int iter = nn_iteration_;
  env_.schedule(2 * cfg_.t_o, [this, epoch, iter] {
    if (joining_ && join_epoch_ == epoch && nn_iteration_ == iter &&
        nn_outstanding_ == 0) {
      send_join_request();
    }
  });
}

void PastryNode::handle_nn_reply(const NnReplyMsg& m) {
  if (!joining_ || nn_outstanding_ > 0) return;
  // Sample unvisited candidates and measure each with a single probe.
  std::vector<NodeDescriptor> candidates;
  candidates.reserve(m.candidates.size());
  for (const NodeDescriptor& d : m.candidates) {
    if (d.id == self_.id || nn_visited_.count(d.addr) > 0 ||
        in_failed(d.addr)) {
      continue;
    }
    candidates.push_back(d);
  }
  if (candidates.size() > static_cast<std::size_t>(kNnSample)) {
    // Uniform sample without replacement.
    for (std::size_t i = 0; i < static_cast<std::size_t>(kNnSample);
         ++i) {
      const std::size_t j =
          i + env_.rng().uniform_index(candidates.size() - i);
      std::swap(candidates[i], candidates[j]);
    }
    candidates.resize(static_cast<std::size_t>(kNnSample));
  }
  if (candidates.empty()) {
    send_join_request();
    return;
  }
  nn_best_ = NodeDescriptor{};
  nn_best_rtt_ = kTimeNever;
  nn_outstanding_ = 0;
  for (const NodeDescriptor& d : candidates) {
    nn_visited_.insert(d.addr);
    if (start_distance_session(d, ProbePurpose::kNearestNeighbour, 1) != 0) {
      nn_outstanding_ += 1;
    }
  }
  if (nn_outstanding_ == 0) send_join_request();
}

void PastryNode::nn_measurement_done() {
  if (!joining_) return;
  nn_outstanding_ = 0;
  if (nn_best_.valid() && nn_best_rtt_ < nn_current_rtt_) {
    nn_current_ = nn_best_;
    nn_current_rtt_ = nn_best_rtt_;
    nn_iteration_ += 1;
    if (nn_iteration_ >= kNnMaxIterations) {
      send_join_request();
      return;
    }
    nn_request(nn_current_);
    return;
  }
  send_join_request();
}

void PastryNode::send_join_request() {
  if (!joining_ || active_) return;
  if (!nn_current_.valid()) {
    // Nothing reachable: wait for the retry timer to restart the join.
    return;
  }
  auto m = make_msg<JoinRequestMsg>(env_.pool());
  m->key = self_.id;
  m->joiner = self_;
  m->join_epoch = join_epoch_;
  m->wants_ack = cfg_.per_hop_acks;
  m->trace_id = rec_ != nullptr ? rec_->sample_join(join_epoch_) : 0;
  trace_path(obs::EventKind::kJoinRequestSent, m->trace_id, nn_current_.addr,
             0, join_epoch_);
  // Send through forward() so the transmission is ack-protected: if the
  // seed died since we measured it, the ack timeout restarts the join
  // immediately instead of stalling until the retry timer.
  forward(m, nn_current_, {});
}

void PastryNode::handle_join_reply(const JoinReplyMsg& m) {
  if (!joining_ || active_ || m.join_epoch != join_epoch_) return;
  if (join_reply_seen_) return;  // duplicate (retransmitted join request)
  join_reply_seen_ = true;
  trace_node(obs::EventKind::kJoinReplyRecv, m.sender.addr, m.join_epoch);
  // Seed the routing table from the rows gathered along the join route.
  for (const auto& [row, entries] : m.rows) {
    (void)row;
    for (const NodeDescriptor& d : entries) {
      if (d.id == self_.id || in_failed(d.addr)) continue;
      rt_.add(d);
    }
  }
  // The root's leaf set members (and the root itself, heard directly) are
  // this node's leaf-set candidates: probe them all; activation happens
  // in done_probing once every reply is in and the leaf set is complete.
  ++counters_.ls_probes_join;
  probe(m.sender);
  for (const NodeDescriptor& d : m.leaf_set) {
    if (d.id == self_.id || in_failed(d.addr)) continue;
    ++counters_.ls_probes_join;
    probe(d);
  }
}

void PastryNode::on_join_retry() {
  join_retry_timer_ = kInvalidTimer;
  if (active_ || !joining_) return;
  // The join stalled (dead seed, lost reply, ...): restart from a fresh
  // bootstrap node.
  for (auto& [a, p] : ls_probing_) cancel_timer(p.timer);
  ls_probing_.clear();
  failed_.clear();
  join_retry_timer_ =
      env_.schedule(cfg_.join_retry, [this] { on_join_retry(); });
  const auto bootstrap = env_.bootstrap_candidate();
  if (!bootstrap || bootstrap->id == self_.id) return;  // try again later
  trace_node(obs::EventKind::kJoinRestart, bootstrap->addr, join_epoch_ + 1);
  start_join(*bootstrap);
}

}  // namespace mspastry::pastry
