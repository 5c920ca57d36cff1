#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "pastry/adversary.hpp"
#include "pastry/config.hpp"
#include "pastry/env.hpp"
#include "pastry/leaf_set.hpp"
#include "pastry/message.hpp"
#include "pastry/peer_table.hpp"
#include "pastry/routing_table.hpp"
#include "pastry/self_tuning.hpp"
#include "pastry/types.hpp"

namespace mspastry::pastry {

/// One MSPastry overlay node: Figure 2's consistent-routing state machine
/// plus the dependability and performance machinery of Sections 3.2–4.2
/// (per-hop acks with aggressive retransmission, structured heartbeats,
/// self-tuned routing-table probing, PNS with constrained gossiping,
/// suppression, symmetric distance probes).
///
/// A node is created per *session*. It talks to the world exclusively
/// through Env; the same class runs under the simulator and in the example
/// applications.
class PastryNode {
 public:
  PastryNode(const Config& cfg, NodeDescriptor self, Env& env,
             Counters& counters);
  ~PastryNode();

  PastryNode(const PastryNode&) = delete;
  PastryNode& operator=(const PastryNode&) = delete;

  /// Become the first node of a new overlay: active immediately.
  void bootstrap();

  /// Join an existing overlay via a bootstrap node (any active node). Runs
  /// nearest-neighbour seed discovery, then the Figure-2 join protocol.
  void join(NodeDescriptor bootstrap);

  /// Gracefully depart (extension; the paper injects only crashes):
  /// notify every routing-state member so they drop this node without
  /// waiting for failure detection. The caller still tears the node down
  /// afterwards; the notice is fire-and-forget.
  void leave();

  /// Network ingress: called for every packet addressed to this node.
  void handle(net::Address from, const MessagePtr& msg);

  /// Application-level lookup primitive: route a message to the root of
  /// `key`. `lookup_id`, `payload` and `app_data` are opaque to the
  /// overlay.
  void lookup(NodeId key, std::uint64_t lookup_id, std::uint64_t payload = 0,
              bool wants_ack = true, net::PacketPtr app_data = nullptr);

  // --- Introspection (tests, oracle, applications) ----------------------

  bool active() const { return active_; }
  const NodeDescriptor& descriptor() const { return self_; }
  const LeafSet& leaf_set() const { return leaf_; }
  const RoutingTable& routing_table() const { return rt_; }
  const Config& config() const { return cfg_; }

  /// The routing-table probe period currently in force (median of
  /// gossiped estimates), in seconds.
  double current_trt_seconds() const { return trt_current_s_; }

  /// This node's own local self-tuning estimate, in seconds.
  double local_trt_seconds() const { return trt_local_s_; }

  /// Number of unique nodes in the routing state (leaf set + table).
  std::size_t routing_state_size() const;

  /// Overlay-size estimate from leaf-set identifier density (Section 4.1).
  double estimate_overlay_size() const;

  /// True if this node believes it is the current root of `key` (i.e. a
  /// lookup for the key would be delivered locally). Applications use
  /// this for replica placement and repair decisions.
  bool believes_root_of(NodeId key) const;

  /// Failure-rate estimate mu (failures/node/second).
  double estimate_failure_rate() const;

  /// True if `a` is in this node's failed set (Figure 2's failedi). The
  /// chaos oracle uses this to distinguish rerouting around a slow node
  /// from condemning it.
  bool considers_failed(net::Address a) const { return in_failed(a); }

  /// True while `a` is excluded from routing after a missed per-hop ack
  /// (suspected but not yet condemned; cleared by any message heard).
  bool currently_excludes(net::Address a) const {
    if (excluded_peers_ == 0) return false;  // the common case: no probe
    const PeerState* p = peers_.find(a);
    return p != nullptr && p->excluded;
  }

  /// Install (or clear, with nullptr) a Byzantine behavior policy. Not
  /// owned; the caller keeps it alive for the node's lifetime. A node
  /// with no policy behaves exactly as before — every interception point
  /// is a single null test.
  void set_adversary(AdversaryPolicy* policy) { adversary_ = policy; }
  bool is_adversarial() const { return adversary_ != nullptr; }

  /// Snapshot of internal state for debugging and tests.
  struct DebugState {
    bool active = false;
    bool joining = false;
    std::uint64_t join_epoch = 0;
    int leaf_size = 0;
    std::size_t rt_entries = 0;
    std::size_t ls_probes_outstanding = 0;
    std::size_t rt_probes_outstanding = 0;
    std::size_t pending_acks = 0;
    std::size_t buffered_messages = 0;
    std::size_t failed_set_size = 0;
    std::size_t excluded_size = 0;    ///< the node's ack-exclusion count
    std::size_t excluded_scanned = 0; ///< the same, by a PeerTable scan
    std::size_t peer_entries = 0;     ///< peers with a PeerTable record
    std::size_t peer_table_bytes = 0; ///< heap bytes of the PeerTable
    int nn_outstanding = 0;
    bool small_ring_converged = false;
    int repair_stalls = 0;
  };
  DebugState debug_state() const;

 private:
  // --- Message sending ---------------------------------------------------
  /// Stamp the common header (sender, trt hint), track last-sent time, and
  /// hand to the environment.
  void send(net::Address to, const IntrusivePtr<Message>& m);

  // --- Routing core (Figure 2: routei) ------------------------------------
  struct ExclusionSet;  // see node_core.cpp

  /// Route a message: forward to the next hop or invoke receive_root.
  /// `excluded` holds per-message exclusions accumulated by ack timeouts.
  void route(const IntrusivePtr<RoutedMessage>& m,
             const std::vector<net::Address>& excluded);

  /// Figure 2's next-hop choice; returns invalid descriptor when the
  /// message has reached its destination locally.
  NodeDescriptor next_hop(NodeId key,
                          const std::vector<net::Address>& excluded,
                          bool* used_rt_fallback, int* empty_row,
                          int* empty_col) const;

  bool is_excluded(net::Address a,
                   const std::vector<net::Address>& excluded) const;

  /// Adversary interception for one routed message; returns true when the
  /// adversary consumed the message (drop or root claim) and route() must
  /// stop. `next` is the honest next hop (invalid == local root).
  bool adversary_route(const IntrusivePtr<RoutedMessage>& m,
                       const NodeDescriptor& next,
                       const std::vector<net::Address>& excluded);

  void receive_root(const IntrusivePtr<RoutedMessage>& m);
  void deliver_lookup(const LookupMsg& m);
  void buffer_message(const IntrusivePtr<RoutedMessage>& m);
  void flush_buffered();

  // --- Per-hop acks (Section 3.2) -----------------------------------------
  void forward(const IntrusivePtr<RoutedMessage>& m,
               const NodeDescriptor& next,
               std::vector<net::Address> excluded);
  void on_ack(net::Address from, std::uint64_t hop_seq);
  void on_ack_timeout(std::uint64_t hop_seq);
  SimDuration rto_for(net::Address a) const;

  // --- Consistency: leaf-set probing (Figure 2) ----------------------------
  /// Send a leaf-set probe. `announce_on_timeout` marks first-hand
  /// failure detection: if the probe sequence times out, the failure is
  /// announced to the whole leaf set. Probes that merely confirm someone
  /// else's announcement (or vet candidates) must not re-announce, or a
  /// single death echoes through O(l^2) probe waves.
  void probe(const NodeDescriptor& j, bool announce_on_timeout = false);
  void handle_ls_probe(const LsProbeMsg& m, bool is_reply);
  void on_ls_probe_timeout(net::Address j);
  void done_probing(net::Address j);
  /// True while any leaf-set probe is still within its first timeout.
  /// Activation waits for these (an alive candidate answers its first
  /// probe unless the network lost it) but not for retries: those target
  /// nodes that are almost certainly dead, and dead candidates cannot
  /// make the leaf set inconsistent.
  bool has_blocking_ls_probes() const;
  void try_complete();
  void repair_leaf_set();
  std::uint64_t leaf_membership_hash() const;
  /// True when the leaf set should be treated as complete: both sides full
  /// or the repair process has converged on a small ring.
  bool leaf_complete() const;
  void activate();

  /// Would d enter the leaf set if added? (Capacity or range check.)
  bool leaf_would_admit(const NodeDescriptor& d) const;

  /// Density/spacing plausibility check (Config::leaf_plausibility_checks):
  /// true when d's announced id is not implausibly close to us or to an
  /// existing member given the overlay-size estimate. Always true when
  /// the check is disabled or the leaf set is too small to estimate.
  bool plausible_leaf_candidate(const NodeDescriptor& d) const;

  /// Close nodes to `target` from this node's routing state, for leaf-set
  /// probe replies (generalized repair, Section 3.1).
  std::vector<NodeDescriptor> close_nodes_for(NodeId target) const;

  // --- Failure detection (Section 4.1) -------------------------------------
  void heartbeat_tick();
  void watch_tick();
  void rt_scan_tick();
  void send_rt_probe(const NodeDescriptor& j);
  void on_rt_probe_timeout(net::Address j);
  void retune();

  // --- PNS / distance probing (Section 4.2) ---------------------------------
  enum class ProbePurpose : std::uint8_t {
    kRtCandidate,  ///< measure then consider for the routing table
    kNearestNeighbour,
  };
  std::uint64_t start_distance_session(const NodeDescriptor& target,
                                       ProbePurpose purpose, int probes);
  void distance_session_step(std::uint64_t session_id);
  void finish_distance_session(std::uint64_t session_id);
  void on_distance_reply(net::Address from, std::uint64_t seq);
  void on_distance_measured(const NodeDescriptor& target, SimDuration rtt,
                            ProbePurpose purpose);
  void consider_for_rt(const NodeDescriptor& d, SimDuration rtt,
                       bool report_symmetric);
  void rt_maintenance_tick();
  void announce_rows();

  // --- Join / nearest neighbour (Sections 2, 4.2) ---------------------------
  void start_join(const NodeDescriptor& bootstrap);
  void nn_request(const NodeDescriptor& target);
  void handle_nn_reply(const NnReplyMsg& m);
  void nn_measurement_done();
  void send_join_request();
  void handle_join_reply(const JoinReplyMsg& m);
  void on_join_retry();

  // --- Bookkeeping -----------------------------------------------------------
  /// A message was heard directly from `d`: refresh liveness, clear
  /// false-positive state. Returns d's record (valid until the next
  /// PeerTable mutation), or nullptr when `d` is invalid or this node.
  PeerState* heard_from(const NodeDescriptor& d);
  /// Erase `a`'s PeerTable record (mark_faulty, LEAVE), keeping the
  /// ack-exclusion count in step.
  void forget_peer(net::Address a);

  /// Flight-recorder hooks (obs/events.hpp). Node-scoped events carry
  /// trace id 0 and are recorded whenever tracing is on; path-scoped
  /// events are recorded only for sampled messages (trace_id != 0) so
  /// rings stay signal-dense. Both are a single null test when off.
  void trace_node(obs::EventKind kind, net::Address peer = net::kNullAddress,
                  std::uint64_t aux = 0) {
    if (rec_ != nullptr) rec_->record(env_.now(), kind, 0, peer, 0, aux);
  }
  void trace_path(obs::EventKind kind, std::uint64_t trace_id,
                  net::Address peer = net::kNullAddress, std::int32_t hop = 0,
                  std::uint64_t aux = 0) {
    if (rec_ != nullptr && trace_id != 0) {
      rec_->record(env_.now(), kind, trace_id, peer, hop, aux);
    }
  }
  void mark_faulty(const NodeDescriptor& j, bool announce);
  /// Checks membership in the failed set, lazily expiring old entries.
  bool in_failed(net::Address a) const;
  void cancel_timer(TimerId& t);
  /// Fire Env::on_right_neighbour if the leaf set's clockwise neighbour
  /// changed since the last call. Invoked after every leaf-set mutation.
  void notify_right_changed();

  // --- State -------------------------------------------------------------
  Config cfg_;
  NodeDescriptor self_;
  Env& env_;
  Counters& counters_;
  /// Flight recorder for this node's session, owned by the environment's
  /// TraceDomain; nullptr when observability is disabled.
  obs::FlightRecorder* rec_;

  /// Byzantine behavior policy (nullptr == honest). Owned by the
  /// scenario layer; see adversary.hpp.
  AdversaryPolicy* adversary_ = nullptr;

  LeafSet leaf_;
  RoutingTable rt_;
  bool active_ = false;
  /// Right neighbour as last reported through Env::on_right_neighbour.
  std::optional<net::Address> last_right_;

  /// Nodes believed faulty (Figure 2's failedi), keyed by address, with
  /// the time the verdict was reached (entries expire after
  /// Config::failed_entry_ttl).
  struct FailedEntry {
    NodeDescriptor node;
    SimTime since = 0;
  };
  std::unordered_map<net::Address, FailedEntry> failed_;

  /// Outstanding leaf-set probes (Figure 2's probingi). sent_at feeds the
  /// RTT estimator on first-attempt replies (Karn's rule: retried probes
  /// give ambiguous samples and are not used).
  struct LsProbeState {
    NodeDescriptor target;
    int retries = 0;
    bool announce_on_timeout = false;
    SimTime sent_at = 0;
    TimerId timer = kInvalidTimer;
  };
  std::unordered_map<net::Address, LsProbeState> ls_probing_;

  /// Outstanding routing-table liveness probes.
  struct RtProbeState {
    NodeDescriptor target;
    int retries = 0;
    SimTime sent_at = 0;
    TimerId timer = kInvalidTimer;
  };
  std::unordered_map<net::Address, RtProbeState> rt_probing_;

  /// In-flight forwarded messages awaiting per-hop acks.
  struct PendingAck {
    IntrusivePtr<RoutedMessage> msg;
    net::Address dest = net::kNullAddress;
    std::vector<net::Address> excluded;
    SimTime sent_at = 0;
    int same_dest_retries = 0;
    TimerId timer = kInvalidTimer;
  };
  std::unordered_map<std::uint64_t, PendingAck> pending_acks_;
  std::uint64_t next_hop_seq_ = 1;

  /// Everything remembered per peer: liveness and suppression evidence,
  /// Trt hints, distance-measurement times, RTT estimators and ack
  /// exclusion. mark_faulty and LEAVE erase a peer's whole record.
  PeerTable peers_;
  /// Number of records in peers_ with `excluded` set. Zero almost always,
  /// which lets currently_excludes answer without probing the table.
  std::size_t excluded_peers_ = 0;

  /// Buffered routed messages (node inactive, or leaf set mid-repair).
  std::vector<IntrusivePtr<RoutedMessage>> buffered_;

  /// Self-tuning state.
  FailureRateEstimator fail_est_;
  double trt_local_s_;
  double trt_current_s_;

  /// Distance-probe sessions.
  struct DistanceSession {
    NodeDescriptor target;
    ProbePurpose purpose = ProbePurpose::kRtCandidate;
    int want = 0;
    int sent = 0;
    std::vector<SimDuration> samples;
    TimerId timer = kInvalidTimer;
  };
  std::unordered_map<std::uint64_t, DistanceSession> dist_sessions_;
  struct OutstandingProbe {
    std::uint64_t session = 0;
    SimTime sent_at = 0;
  };
  std::unordered_map<std::uint64_t, OutstandingProbe> dist_probes_;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_probe_seq_ = 1;

  /// Join / nearest-neighbour state.
  bool joining_ = false;
  std::uint64_t join_epoch_ = 0;
  bool join_reply_seen_ = false;  ///< dedup: one JOIN-REPLY per epoch
  SimTime join_started_ = 0;
  NodeDescriptor nn_current_;
  SimDuration nn_current_rtt_ = kTimeNever;
  int nn_iteration_ = 0;
  int nn_outstanding_ = 0;
  NodeDescriptor nn_best_;
  SimDuration nn_best_rtt_ = kTimeNever;
  std::unordered_set<net::Address> nn_visited_;
  TimerId join_retry_timer_ = kInvalidTimer;

  /// Leaf-set repair convergence detection (small rings).
  std::uint64_t last_membership_hash_ = 0;
  int repair_stalls_ = 0;
  bool small_ring_converged_ = false;
  /// Every leaf-set member a joiner's repair rounds have seen (cleared on
  /// activation): a round that shows no new one made no progress.
  std::vector<net::Address> join_leaf_seen_;

  /// Periodic timers.
  TimerId heartbeat_timer_ = kInvalidTimer;
  TimerId watch_timer_ = kInvalidTimer;
  TimerId rt_scan_timer_ = kInvalidTimer;
  TimerId maintenance_timer_ = kInvalidTimer;
};

}  // namespace mspastry::pastry
