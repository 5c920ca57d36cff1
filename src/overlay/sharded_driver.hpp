#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "net/fault_plan.hpp"
#include "net/packet_fate.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "overlay/adversary.hpp"
#include "overlay/metrics.hpp"
#include "overlay/oracle.hpp"
#include "pastry/node.hpp"
#include "sim/sharded_simulator.hpp"
#include "trace/churn_trace.hpp"

namespace mspastry::overlay {

struct DriverConfig {
  pastry::Config pastry;

  /// Lookup workload: each active node generates lookups at this rate
  /// (Poisson), destination keys uniform over the id space. The paper's
  /// base configuration uses 0.01 lookups/s/node.
  double lookup_rate_per_node = 0.01;

  /// Metrics windows (10 min for Gnutella/OverNet in the paper, 1 h for
  /// Microsoft) and warmup excluded from aggregates.
  SimDuration metrics_window = minutes(10);
  SimDuration warmup = minutes(20);

  /// Observability (causal path tracing, src/obs). Disabled by default:
  /// no TraceDomain is created and every node's recorder pointer is null.
  obs::ObsConfig obs;

  /// After partitioning a trace's sessions, widen the engine lookahead
  /// from the global min-link bound to the minimum of
  /// Topology::min_delay_between over the actual shard-pair router sets.
  /// Fewer, longer epochs — but epoch boundaries then depend on the
  /// partition, so runs are no longer byte-identical across *shard
  /// counts* (they remain deterministic for a fixed count). Off by
  /// default to preserve the cross-shard-count determinism gate.
  bool per_pair_lookahead = false;

  std::uint64_t seed = 7;
};

/// Configuration the driver cannot run. Thrown in every build mode —
/// these used to be assert(false) guards that compiled out under NDEBUG,
/// so a Release build silently *accepted* an adversary / app-data /
/// stall-rule configuration and produced wrong results. Raised by a call
/// the driver cannot honour (a setup call after finish(), an out-of-range
/// adversary), never mid-run.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declarative adversary scenario: who is corrupt, when policies arm, how
/// many sybils eclipse which key. Every adversarial decision is assigned
/// from the adversary seed in session-uid order — the same discipline as
/// session ids and routers, and the reason the corruption schedule is
/// byte-identical at any shard count.
struct ShardedAdversaryConfig {
  AdversaryBehavior behavior = AdversaryBehavior::kDrop;
  /// Fraction of the candidate sessions corrupted — a trace's sessions
  /// when set before run_trace, the live sessions when set between runs:
  /// the round(f*N) with the smallest selection hashes.
  double fraction = 0.0;
  double strike = 1.0;
  /// Policies install at max(arm_at, now()) (typically warmup end, so the
  /// overlay settles before it is corrupted); sybil joins happen then
  /// too. Corrupted sessions that join later arm on join.
  SimTime arm_at = 0;
  /// Sybil sessions joined around eclipse_victim at the arming instant,
  /// ids alternating ± k*2^104 — far denser than honest id spacing.
  int eclipse_sybils = 0;
  NodeId eclipse_victim;
  std::uint64_t seed = 0;
};

class ShardedApp;

/// The experiment harness: every overlay run — trace-driven experiments,
/// chaos scenarios, protocol tests and examples — runs here, on the
/// conservative sharded scheduler (sim/sharded_simulator.hpp). Node
/// *sessions* are partitioned across shards by router; each shard owns its
/// sessions' simulator, message pool, routing arena, counters and traffic
/// metrics, and cross-shard messages are cloned into the destination
/// shard's pool at epoch barriers.
///
/// Two ways to drive it, on one engine:
///  - run_trace replays a churn trace with the configured workload;
///  - the imperative surface (add_node, kill_node, leave_node,
///    issue_lookup, add_fault_rule, set_adversary, ... between
///    run_until calls). Between two runs every worker is parked, so each
///    call runs single-threaded at now() on its node's shard, in program
///    order; the ledger events it writes are applied before the next
///    call or read, so oracle() and metrics() see every earlier call.
///
/// The lookahead is derived from the topology: the minimum cross-shard
/// one-way delay is 2 * lan_delay + Topology::min_positive_delay()
/// (a session's shard is a function of its router — one list of router
/// cut points — so sessions sharing a router share a shard and
/// cross-shard pairs sit on distinct routers), scaled down by the
/// worst-case jitter factor. A topology with no positive bound (and no
/// LAN delay) yields zero lookahead and the engine falls back to
/// single-shard execution.
///
/// Determinism contract — the output is byte-identical for any shard
/// count, including 1:
///  - every session's id, router, address (== session uid) and RNG stream
///    are assigned from the trial seed in uid order (a trace's sessions
///    before the run; add_node's in call order, from rng());
///  - the lookup workload is a *per-node* Poisson process driven by the
///    node's own stream (equivalent in distribution to a single-driver
///    aggregate process, but free of cross-node draw interleaving);
///  - every packet's fate comes from net::packet_fate, whose loss, jitter
///    and fault-rule draws are stateless hashes keyed by (seed, sender,
///    per-sender packet seq), plus a small hash-derived delivery-time
///    dither that makes cross-shard/local (time, receiver) ties
///    vanishingly rare;
///  - all global bookkeeping (oracle, lookup scoring, join/population
///    metrics, false positives) is a *deferred ledger*: shards append
///    (time, session-ordered) log events during an epoch and the driver
///    applies them single-threaded at the barrier, sorted by the
///    shard-count-invariant key (time, session uid, per-session seq);
///  - epoch boundaries depend only on the global minimum pending time, the
///    (global) lookahead and the run_until bounds, so ledger visibility —
///    when a joiner can see a bootstrap candidate, which root the oracle
///    scores a delivery against — is itself shard-count-invariant.
///
/// Adversary policies, application data and fault rules have
/// shard-count-invariant formulations:
///  - adversary corruption (set_adversary) uses KeyedAdversary — every
///    decision a stateless hash of (adversary seed, node addr, intercept
///    seq) — with selection, sybil placement and arming assigned from the
///    seed; devoured lookups flow through a per-shard accounting path and
///    a kDevoured ledger event;
///  - application packets (attach_app / LookupMsg::app_data) ride the
///    same keyed send path as overlay messages, cross shards via
///    CloneableAppData::clone_into, and report latency samples through
///    kAppSample ledger events applied in (time, uid, seq) order;
///  - fault rules (add_fault_rule) live in one plan that every shard
///    reads (changed only between runs): loss, duplication and reordering
///    draw keyed hashes, flaps and delay spikes are pure functions of
///    time, and gray-stall deliveries are re-scheduled on the *receiving*
///    session's shard.
class ShardedDriver {
 public:
  ShardedDriver(std::shared_ptr<const net::Topology> topology,
                net::NetworkConfig net_config, DriverConfig config,
                std::size_t shards);
  ~ShardedDriver();

  ShardedDriver(const ShardedDriver&) = delete;
  ShardedDriver& operator=(const ShardedDriver&) = delete;

  /// Install one fault rule on the plan every shard reads. Every rule
  /// kind is shard-count-invariant. Returns the id remove_fault_rule
  /// takes.
  net::FaultPlan::RuleId add_fault_rule(const net::FaultRule& rule);
  /// Remove one rule (a partition heal); false if the id is unknown.
  bool remove_fault_rule(net::FaultPlan::RuleId id);
  const net::FaultPlan& fault_plan() const { return faults_; }

  /// Install an adversary scenario. Before run_trace it corrupts the
  /// trace's sessions; between runs it corrupts the live sessions and
  /// joins the sybils. Policies arm at max(adv.arm_at, now()).
  /// ConfigError on out-of-range fraction/strike/sybil count, while
  /// another scenario is installed, or after finish().
  void set_adversary(const ShardedAdversaryConfig& adv);

  /// Heal: detach every policy (corrupted nodes act honest again) and
  /// cancel pending arming. Sybils stay up; crash them with kill_node
  /// (sybil_addresses()).
  void clear_adversary();

  /// Attach an application; may be called more than once. Each upcall
  /// goes to every attached app in attach order (see ShardedApp). The
  /// app's on_run_start runs here.
  void attach_app(ShardedApp* app);

  /// Run a full churn trace with the configured lookup workload, then
  /// finish(). Needs a fresh driver: a trace owns the session space.
  void run_trace(const trace::ChurnTrace& trace,
                 SimDuration extra = seconds(30));

  // --- Imperative surface (between runs) ----------------------------------

  /// Create a session — router and id drawn from rng() — and start its
  /// join (the first session ever bootstraps the overlay; later ones
  /// retry until an active node is visible). Returns its address.
  net::Address add_node();
  /// Same, but with a caller-chosen identifier instead of a random one.
  net::Address add_node_with_id(NodeId id);
  /// Crash a node: silently drops all its state and traffic.
  void kill_node(net::Address a);
  /// Gracefully depart: the node notifies its routing-state members (so
  /// they drop it without failure-detection delay), then is torn down.
  void leave_node(net::Address a);
  /// Issue one lookup from live node `from`. Returns the lookup id.
  std::uint64_t issue_lookup(net::Address from, NodeId key,
                             std::uint64_t payload = 0,
                             net::PacketPtr app_data = nullptr);

  /// Record delivery verdicts for lookup `id` (lookup_verdict). Call
  /// right after issue_lookup: a delivery at the source itself is applied
  /// no earlier than the next call or read.
  void track_lookup(std::uint64_t id) { tracked_.insert(id); }
  /// Ground-truth verdict of a tracked lookup — or, with observability
  /// on, of a traced copy — first-correct-wins over its deliveries: true
  /// once any copy reached the oracle root, false if copies arrived only
  /// elsewhere, nullopt while none arrived.
  std::optional<bool> lookup_verdict(std::uint64_t id);

  void run_until(SimTime t);
  void run_for(SimDuration d) { run_until(now() + d); }
  SimTime now() const { return engine_.shard(0).now(); }

  /// Start the per-node lookup workload (the attached apps', or Poisson
  /// lookups at lookup_rate_per_node) on every active node; nodes that
  /// activate later start theirs on activation.
  void start_workload();

  /// Stop the workload, apply the ledger, fold the per-shard traffic into
  /// metrics() and finalize it, merge the flight recorders. The driver
  /// accepts no further setup call or run afterwards.
  void finish();

  /// Live node at `a`, or nullptr.
  pastry::PastryNode* node(net::Address a);
  /// Addresses of the live nodes, ascending.
  std::vector<net::Address> live_addresses() const;
  /// The harness stream: draws add_node's routers and ids, and is free
  /// for callers (probe sources, keys). No node ever draws from it.
  Rng& rng() { return rng_; }
  /// Ground-truth one-way delay between two sessions' endpoints (router
  /// path plus both LAN links); the protocol only learns it by probing.
  SimDuration delay(net::Address a, net::Address b) const;

 private:
  class ShardEnv;  // per-node Env implementation

 public:
  /// Value handle for one live node: issue lookups, send app packets,
  /// schedule liveness-guarded timers and record latency samples, all
  /// against the node's own shard and RNG stream. ShardedApp upcalls
  /// receive one; app_node() hands one out between runs. Copyable and
  /// cheap; valid only while the node lives (upcalls and schedule()
  /// callbacks are liveness-guarded).
  class AppNode {
   public:
    SimTime now() const;
    net::Address self() const;
    std::size_t shard() const;
    Rng& rng() const;
    pastry::MessagePool& pool() const;
    /// The node's protocol state (leaf set, activity, root beliefs).
    pastry::PastryNode& node() const;
    /// Issue a lookup from this node (logs the issue through the ledger
    /// like the Poisson workload). Returns the lookup id.
    std::uint64_t issue_lookup(NodeId key, std::uint64_t payload = 0,
                               net::PacketPtr app_data = nullptr) const;
    /// Send a non-overlay packet; counted as app traffic. Cross-shard
    /// packets must implement pastry::CloneableAppData.
    void send_packet(net::Address to, net::PacketPtr packet) const;
    /// Schedule a callback on this node's shard; it is dropped if the
    /// node dies first. The callback must fit the inline Env capacity.
    void schedule(SimDuration delay, InplaceCallback fn) const;
    /// Record one end-to-end latency sample (seconds) through the
    /// deferred ledger; merged in S-invariant order at the barrier
    /// (ShardedDriver::app_latency_samples).
    void record_latency(double seconds) const;

   private:
    friend class ShardedDriver;
    friend class ShardEnv;
    AppNode(ShardedDriver* d, ShardEnv* env) : d_(d), env_(env) {}
    ShardedDriver* d_;
    ShardEnv* env_;
  };

  /// Handle on live node `a` for imperative app calls (nullopt if dead).
  std::optional<AppNode> app_node(net::Address a);

  // --- Introspection -------------------------------------------------------

  /// Lookup, join and population metrics as of every earlier call; the
  /// per-shard traffic (message counts, fault injections) is folded in
  /// by finish().
  Metrics& metrics();
  Oracle& oracle();
  /// Protocol counters summed over shards (plus ledger false positives).
  pastry::Counters counters() const;

  std::uint64_t executed_events() const { return engine_.executed_events(); }
  std::uint64_t epochs() const { return engine_.epochs(); }
  /// Per-shard busy and barrier-wait time and the events-per-epoch
  /// histogram (empty on a single-shard run).
  const ShardedSimulator::EpochTelemetry& epoch_telemetry() const {
    return engine_.epoch_telemetry();
  }
  std::size_t effective_shards() const { return engine_.shards(); }
  std::size_t requested_shards() const { return engine_.requested_shards(); }
  SimDuration lookahead() const { return lookahead_; }

  /// Packet accounting summed over shards; the identity
  /// sent == lost + delivered + dropped_unbound + dropped_adversarial +
  /// in_flight holds on the aggregate (per-shard in-flight counts can be
  /// individually negative: a send increments on the source shard,
  /// delivery decrements on the destination shard).
  std::uint64_t packets_sent() const;
  std::uint64_t packets_lost() const;
  std::uint64_t packets_delivered() const;
  std::uint64_t packets_dropped_unbound() const;
  std::uint64_t packets_dropped_adversarial() const;
  std::int64_t packets_in_flight() const;

  /// True when `a` belongs to the adversarial population (corrupted
  /// session or sybil) of the installed scenario.
  bool session_is_adversarial(net::Address a) const;

  /// Sybil session addresses, in join order (empty without an eclipse).
  const std::vector<net::Address>& sybil_addresses() const {
    return sybils_;
  }

  /// App latency samples recorded via AppNode::record_latency, in the
  /// ledger's S-invariant (time, uid, seq) order.
  const std::vector<double>& app_latency_samples() const {
    return app_samples_;
  }

  /// The flight-recorder registry, every shard's recorders merged into
  /// one; nullptr when observability is off.
  obs::TraceDomain* trace_domain();

  std::size_t live_node_count() const;

  /// Per-peer state held by the live nodes (PastryNode's PeerTable):
  /// records and heap bytes summed over nodes. Call between runs.
  struct PeerCensus {
    std::size_t nodes = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  PeerCensus peer_census() const;

 private:
  friend class ShardEnv;

  /// One deferred-ledger event, written by a shard during an epoch and
  /// applied single-threaded at the barrier. `order` is
  /// (session uid << 24) | per-session seq — a shard-count-invariant
  /// same-time tiebreak.
  struct LogEvent {
    enum class Kind : std::uint8_t {
      kJoinStarted,
      kActivated,
      kFailed,
      kRight,
      kIssued,
      kDelivered,
      kMarkedFaulty,
      kNetDropObs,
      kDevoured,    ///< adversary devoured a lookup (u = lookup id)
      kAppSample,   ///< app latency sample (u = bit pattern of seconds)
    };
    SimTime t = 0;
    std::uint64_t order = 0;
    Kind kind = Kind::kJoinStarted;
    NodeId id;                            // node id / lookup key
    net::Address a = net::kNullAddress;   // self / victim / source
    net::Address b = net::kNullAddress;   // right / drop destination
    std::uint64_t u = 0;                  // lookup id / latency / trace id
    std::uint64_t v = 0;                  // aux (obs hop data)
    bool flag = false;                    // right present / traced copy
  };

  /// A packet queued for another shard: cloned into the destination pool
  /// (clone_message for overlay messages, CloneableAppData::clone_into
  /// for app packets) and scheduled there at the next barrier. The
  /// sender's packet seq rides along to give unbound-drop ledger events a
  /// shard-count-invariant order key.
  struct OutMsg {
    SimTime t = 0;
    net::Address from = net::kNullAddress;
    net::Address to = net::kNullAddress;
    std::uint64_t send_seq = 0;
    net::PacketPtr msg;
  };

  struct NodeState {
    std::unique_ptr<ShardEnv> env;  // must outlive node (dtor uses it)
    /// Installed when the session is adversarial and armed; owned here so
    /// it dies with the node (declared before node_: destroyed after it).
    std::unique_ptr<KeyedAdversary> policy;
    std::unique_ptr<pastry::PastryNode> node;
  };

  /// Everything one worker thread owns. Only the owning worker touches a
  /// shard during the parallel phase; the barrier phase (single-threaded,
  /// all workers quiescent) may touch all of them.
  struct Shard {
    /// Pool declared first: destroyed last, after everything in this
    /// struct that can hold message references.
    pastry::MessagePool pool;
    std::unique_ptr<pastry::NodeArena> arena;
    pastry::Counters counters;
    std::unique_ptr<Metrics> traffic;  ///< on_message + fault injections only
    std::unique_ptr<obs::TraceDomain> obs;  ///< per-shard rings (if enabled)
    std::vector<LogEvent> log;
    std::vector<std::vector<OutMsg>> outbox;  ///< one row per dest shard
    std::size_t live_nodes = 0;  ///< occupied nodes_ slots of this shard
    // Packet accounting (see packets_in_flight() on the aggregate).
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
    std::uint64_t delivered = 0;
    std::uint64_t unbound = 0;
    std::uint64_t dropped_adversarial = 0;
    std::int64_t in_flight = 0;
  };

  struct Session {
    NodeId id;
    int router = -1;
    std::size_t shard = 0;
    SimTime first_join = kTimeNever;
    bool adversarial = false;  ///< corrupted by selection, or a sybil
    bool sybil = false;
    /// The session's flight recorder (owned by a TraceDomain; its address
    /// is stable when shard domains merge), or nullptr.
    obs::FlightRecorder* rec = nullptr;
  };

  static constexpr SimDuration kJoinRetryDelay = seconds(1);

  void shard_send(std::size_t src_shard, net::Address from, net::Address to,
                  net::PacketPtr msg, std::uint64_t send_seq);
  void shard_devour(ShardEnv& env, net::Address to, pastry::MessagePtr msg);
  void note_send_drop(SimTime now, net::Address from, net::Address to,
                      const net::Packet& msg);
  void schedule_delivery(std::size_t src_shard, SimTime at, net::Address from,
                         net::Address to, net::PacketPtr msg,
                         std::uint64_t send_seq);
  void deliver(std::size_t dst_shard, net::Address from, net::Address to,
               std::uint64_t send_seq, net::PacketPtr msg);
  const std::vector<int>& attachable_routers();
  /// Cut the attachable routers into equal runs (a driver with no trace).
  void partition_evenly();
  /// The shard owning `router`: the number of cut points at or below it.
  std::size_t shard_of_router(int router) const;
  std::uint32_t new_session(int router, NodeId id, SimTime first_join);
  int random_router();
  net::Address add_session(int router, NodeId id);
  void create_session(std::uint32_t uid);
  void kill_session(std::uint32_t uid);
  void try_join(std::uint32_t uid);
  /// Mark the round(f*N) candidates with the smallest selection hashes
  /// adversarial and append the sybil sessions (not yet joined); returns
  /// the sybils' uids.
  std::vector<std::uint32_t> place_adversary(
      const std::vector<std::uint32_t>& candidates);
  /// Schedule the arming of every corrupted candidate and the sybil joins
  /// at the arming instant, each on its session's shard.
  void schedule_arming(const std::vector<std::uint32_t>& candidates,
                       const std::vector<std::uint32_t>& sybils);
  void arm_session(std::uint32_t uid);
  void install_policy(std::uint32_t uid, NodeState& ns);
  void start_workload_loop(ShardEnv& env);
  void schedule_workload_tick(ShardEnv& env);
  void issue_workload_lookup(ShardEnv& env);
  double workload_rate(SimTime now) const;
  std::uint64_t node_lookup(ShardEnv& env, NodeId key, std::uint64_t payload,
                            net::PacketPtr app_data);
  /// Throw ConfigError(`what`) once the driver is finished.
  void require_open(const char* what) const;
  /// Apply what the last imperative call left behind: hand its
  /// cross-shard messages over and apply its ledger events.
  void settle() { apply_barrier(kTimeNever); }
  void apply_barrier(SimTime epoch_end);
  void apply_log_event(const LogEvent& e);
  void merge_obs();

  std::shared_ptr<const net::Topology> topology_;
  net::NetworkConfig net_cfg_;
  DriverConfig cfg_;
  std::uint64_t net_seed_;
  /// The one fault plan, read by every shard (changed only between runs).
  net::FaultPlan faults_;
  SimDuration lookahead_ = 0;
  Rng rng_;

  /// Shards declared before the engine: the engine's simulators (whose
  /// queued callbacks hold the last message references) are destroyed
  /// first, recycling every slot into a live pool. Node teardown happens
  /// explicitly in the destructor, before either.
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardedSimulator engine_;

  /// Attachable routers and the partition's router cut points, computed
  /// on first use (run_trace balances the cut over its sessions; an
  /// imperative driver splits the attachable routers evenly).
  std::vector<int> attachable_;
  std::vector<int> cuts_;
  bool partitioned_ = false;

  std::vector<Session> sessions_;
  /// One slot per session uid (an address is its session's uid); empty
  /// while the session is not live. Slot uid belongs to shard
  /// sessions_[uid].shard: only that shard's worker touches it during the
  /// parallel phase.
  std::vector<NodeState> nodes_;
  std::uint32_t first_session_ = 0;  ///< designated bootstrap session

  // --- Global ledger (barrier-phase only) ---------------------------------
  Oracle oracle_;
  Metrics metrics_;
  /// Sessions currently bound (joined, not yet killed), as of the events
  /// applied so far; the ground truth for false-positive verdicts.
  std::unordered_map<net::Address, NodeId> alive_;
  std::uint64_t ledger_false_positives_ = 0;
  std::vector<LogEvent> log_scratch_;
  std::unordered_set<std::uint64_t> tracked_;
  std::unordered_map<std::uint64_t, bool> verdicts_;

  std::unique_ptr<obs::TraceDomain> obs_merged_;

  // --- Adversary scenario (changed only between runs) ---------------------
  std::optional<ShardedAdversaryConfig> adv_;
  std::vector<net::Address> sybils_;

  // --- Applications -------------------------------------------------------
  std::vector<ShardedApp*> apps_;
  std::vector<double> app_samples_;  ///< barrier-ordered (kAppSample)

  bool workload_on_ = false;
  bool finished_ = false;
};

/// Application adapter: the upcalls an overlay application (Squirrel,
/// PAST, Scribe, end-to-end acks) needs, plus a per-node workload. Hooks
/// run on worker threads, one shard at a time: an implementation must
/// keep its mutable state partitioned per shard (AppNode::shard() indexes
/// it) and never touch another shard's replica inside a hook. All
/// randomness must come from AppNode::rng() (the node's own stream) or
/// pure functions of time, so the app's behavior is shard-count-invariant
/// like the driver's. With several apps attached, every upcall goes to
/// each app in attach order (forward stops at the first that consumes);
/// the first app alone drives the workload.
class ShardedApp {
 public:
  virtual ~ShardedApp() = default;

  /// Called once, by attach_app: size per-shard state replicas.
  virtual void on_run_start(ShardedDriver& driver, std::size_t shards) = 0;

  /// Per-node workload rate (requests/s) at `t`. Must be a *pure*
  /// function of time (every shard evaluates it independently). An
  /// attached app's workload replaces the driver's Poisson lookups: the
  /// driver ticks each node at this rate (floored at 1e-6/s), so a rate
  /// <= 0 means no workload at all — no app requests and no driver
  /// lookups. With several apps attached, the first one's rate and ticks
  /// are the workload; the others only receive upcalls.
  virtual double workload_rate(SimTime t) const = 0;

  /// One workload event at `node` (issue a request, pick content, ...).
  virtual void workload_tick(const ShardedDriver::AppNode& node) = 0;

  /// A lookup carrying app_data reached its root at `node`.
  virtual void deliver(const ShardedDriver::AppNode& node,
                       const pastry::LookupMsg& m) = 0;

  /// A non-overlay packet arrived at `node`.
  virtual void packet(const ShardedDriver::AppNode& node, net::Address from,
                      const net::PacketPtr& packet) = 0;

  /// A lookup carrying app_data is about to leave `node` for `next`
  /// (the common-API forward upcall). Return true to consume it here.
  virtual bool forward(const ShardedDriver::AppNode& node,
                       const pastry::LookupMsg& m,
                       const pastry::NodeDescriptor& next) {
    (void)node;
    (void)m;
    (void)next;
    return false;
  }

  /// `node`'s session is about to end (crash or leave); the handle is
  /// valid during the call, its timers are dropped right after.
  virtual void node_down(const ShardedDriver::AppNode& node) { (void)node; }
};

}  // namespace mspastry::overlay
