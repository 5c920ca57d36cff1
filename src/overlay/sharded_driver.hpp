#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/fault_plan.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "overlay/adversary.hpp"
#include "overlay/driver.hpp"
#include "overlay/metrics.hpp"
#include "overlay/oracle.hpp"
#include "pastry/node.hpp"
#include "sim/sharded_simulator.hpp"
#include "trace/churn_trace.hpp"

namespace mspastry::overlay {

/// Configuration the driver cannot run. Thrown in every build mode —
/// these used to be assert(false) guards that compiled out under NDEBUG,
/// so a Release build silently *accepted* an adversary / app-data /
/// stall-rule configuration and produced wrong results. Raised at
/// set_adversary / add_fault_rule / run_trace setup, never mid-run.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declarative adversary setup for the sharded engine. The serial
/// driver's AdversaryController mutates a running overlay; the sharded
/// driver instead takes the whole scenario up front (who is corrupt, when
/// policies arm, how many sybils eclipse which key) so every adversarial
/// decision can be pre-assigned from the trial seed in uid order — the
/// same discipline as session ids and routers, and the reason the
/// corruption schedule is byte-identical at any shard count.
struct ShardedAdversaryConfig {
  AdversaryBehavior behavior = AdversaryBehavior::kDrop;
  /// Fraction of trace sessions corrupted: the round(f*N) sessions with
  /// the smallest selection hashes (exact count, like the serial
  /// controller's shuffle prefix).
  double fraction = 0.0;
  double strike = 1.0;
  /// Policies install at this instant (typically warmup end, so the
  /// overlay settles before it is corrupted); sybil joins are scheduled
  /// here too. Sessions created later arm on join.
  SimTime arm_at = 0;
  /// Sybil sessions joined around eclipse_victim at arm_at, ids
  /// alternating ± k*2^104 like AdversaryController::join_eclipse_cluster.
  int eclipse_sybils = 0;
  NodeId eclipse_victim;
  std::uint64_t seed = 0;
};

class ShardedApp;

/// Trace-driven experiment harness running on the conservative sharded
/// scheduler (sim/sharded_simulator.hpp): node *sessions* are partitioned
/// across shards, each shard owns its sessions' simulator, message pool,
/// routing arena, counters and traffic metrics, and cross-shard messages
/// are cloned into the destination shard's pool at epoch barriers.
///
/// The lookahead is derived from the topology: the minimum cross-shard
/// one-way delay is 2 * lan_delay + Topology::min_positive_delay()
/// (sessions sharing a router always share a shard — the partition cuts
/// the router-sorted session list at router boundaries — so cross-shard
/// pairs sit on distinct routers), scaled down by the worst-case jitter
/// factor. A topology with no positive bound (and no LAN delay) yields
/// zero lookahead and the engine falls back to single-shard execution.
///
/// Determinism contract — the output is byte-identical for any shard
/// count, including 1:
///  - every session's id, router, address (== session uid) and RNG stream
///    are pre-assigned from the trial seed in uid order, before sharding;
///  - the lookup workload is a *per-node* Poisson process driven by the
///    node's own stream (equivalent in distribution to the single-driver
///    aggregate process, but free of cross-node draw interleaving);
///  - every packet's fate comes from net::packet_fate — the function
///    net::Network uses — whose loss, jitter and fault-rule draws are
///    stateless hashes keyed by (seed, sender, per-sender packet seq),
///    plus a small hash-derived delivery-time dither that makes
///    cross-shard/local (time, receiver) ties vanishingly rare;
///  - all global bookkeeping (oracle, lookup scoring, join/population
///    metrics, false positives) is a *deferred ledger*: shards append
///    (time, session-ordered) log events during an epoch and the driver
///    applies them single-threaded at the barrier, sorted by the
///    shard-count-invariant key (time, session uid, per-session seq);
///  - epoch boundaries depend only on the global minimum pending time and
///    the (global) lookahead, so ledger visibility — when a joiner can see
///    a bootstrap candidate, which root the oracle scores a delivery
///    against — is itself shard-count-invariant.
///
/// Adversary policies, application data and fault rules run here with
/// S-invariant formulations of their serial semantics:
///  - adversary corruption (set_adversary) uses KeyedAdversary — every
///    decision a stateless hash of (adversary seed, node addr, intercept
///    seq) — with selection, sybil placement and arming pre-assigned from
///    the seed; devoured lookups flow through a per-shard accounting path
///    and a kDevoured ledger event;
///  - application packets (attach_app / LookupMsg::app_data) ride the
///    same keyed send path as overlay messages, cross shards via
///    CloneableAppData::clone_into, and report latency samples through
///    kAppSample ledger events applied in (time, uid, seq) order;
///  - fault rules (add_fault_rule) live in one immutable plan that every
///    shard reads: loss, duplication and reordering draw keyed hashes,
///    flaps and delay spikes are pure functions of time, and gray-stall
///    deliveries are re-scheduled on the *receiving* session's shard.
class ShardedDriver {
 public:
  ShardedDriver(std::shared_ptr<const net::Topology> topology,
                net::NetworkConfig net_config, DriverConfig config,
                std::size_t shards);
  ~ShardedDriver();

  ShardedDriver(const ShardedDriver&) = delete;
  ShardedDriver& operator=(const ShardedDriver&) = delete;

  /// Install one fault rule on the plan every shard reads (call before
  /// run_trace; ConfigError afterwards). Every rule kind is
  /// shard-count-invariant.
  void add_fault_rule(const net::FaultRule& rule);

  /// Install an adversary scenario (call before run_trace; ConfigError
  /// afterwards or on out-of-range fraction/strike/sybil count).
  void set_adversary(const ShardedAdversaryConfig& adv);

  /// Attach an application (Squirrel-style workloads). The app's hooks
  /// run on worker threads against per-shard state; see ShardedApp.
  /// Call before run_trace (ConfigError afterwards).
  void attach_app(ShardedApp* app);

  /// Run a full churn trace with the configured lookup workload, then
  /// finalize metrics. One-shot: a ShardedDriver runs one trace.
  void run_trace(const trace::ChurnTrace& trace,
                 SimDuration extra = seconds(30));

 private:
  class ShardEnv;  // per-node Env implementation

 public:
  /// Value handle a ShardedApp receives for the node an upcall concerns:
  /// issue lookups, send app packets, schedule liveness-guarded timers
  /// and record latency samples, all against the node's own shard and
  /// RNG stream. Copyable and cheap; valid only while the node lives
  /// (apps use it inside upcalls and schedule() callbacks, which are
  /// liveness-guarded).
  class AppNode {
   public:
    SimTime now() const;
    net::Address self() const;
    std::size_t shard() const;
    Rng& rng() const;
    pastry::MessagePool& pool() const;
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

  // --- Introspection (valid after run_trace) ------------------------------

  Metrics& metrics() { return metrics_; }
  Oracle& oracle() { return oracle_; }
  /// Protocol counters summed over shards (plus ledger false positives).
  const pastry::Counters& counters() const { return total_counters_; }

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
  /// session or sybil); meaningful once run_trace has assigned sessions.
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

  /// Merged flight-recorder registry (per-shard domains absorbed at
  /// finish); nullptr when observability is off.
  obs::TraceDomain* trace_domain() { return obs_merged_.get(); }

  std::size_t live_node_count() const;

  /// Per-peer state held by the live nodes (PastryNode's PeerTable):
  /// records and heap bytes summed over nodes. Call between runs, not
  /// while run_trace is executing.
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
    bool flag = false;                    // right-present
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
  };

  static constexpr SimDuration kJoinRetryDelay = seconds(1);

  SimDuration delay_between(net::Address a, net::Address b) const;
  void shard_send(std::size_t src_shard, net::Address from, net::Address to,
                  net::PacketPtr msg, std::uint64_t send_seq);
  void shard_devour(ShardEnv& env, net::Address to, pastry::MessagePtr msg);
  void note_send_drop(Shard& sh, SimTime now, net::Address from,
                      net::Address to, const net::Packet& msg);
  void schedule_delivery(std::size_t src_shard, SimTime at, net::Address from,
                         net::Address to, net::PacketPtr msg,
                         std::uint64_t send_seq);
  void deliver(std::size_t dst_shard, net::Address from, net::Address to,
               std::uint64_t send_seq, net::PacketPtr msg);
  void create_session(std::uint32_t uid);
  void kill_session(std::uint32_t uid);
  void try_join(std::uint32_t uid);
  void arm_session(std::uint32_t uid);
  void install_policy(std::uint32_t uid, NodeState& ns);
  void start_workload_loop(ShardEnv& env);
  void schedule_workload_tick(ShardEnv& env);
  void issue_workload_lookup(ShardEnv& env);
  double workload_rate(SimTime now) const;
  void apply_barrier(SimTime epoch_end);
  void apply_log_event(const LogEvent& e);
  void finish();

  std::shared_ptr<const net::Topology> topology_;
  net::NetworkConfig net_cfg_;
  DriverConfig cfg_;
  std::uint64_t net_seed_;
  /// The one fault plan, read by every shard (immutable once run_trace
  /// starts).
  net::FaultPlan faults_;
  SimDuration lookahead_ = 0;

  /// Shards declared before the engine: the engine's simulators (whose
  /// queued callbacks hold the last message references) are destroyed
  /// first, recycling every slot into a live pool. Node teardown happens
  /// explicitly in the destructor, before either.
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardedSimulator engine_;

  std::vector<Session> sessions_;
  /// One slot per session uid (an address is its session's uid), sized
  /// with sessions_ before the run; empty while the session is not live.
  /// Slot uid belongs to shard sessions_[uid].shard: only that shard's
  /// worker touches it during the parallel phase.
  std::vector<NodeState> nodes_;
  std::uint32_t first_session_ = 0;  ///< designated bootstrap session

  // --- Global ledger (barrier-phase only) ---------------------------------
  Oracle oracle_;
  Metrics metrics_;
  /// Sessions currently bound (joined, not yet killed), as of the events
  /// applied so far; the ground truth for false-positive verdicts.
  std::unordered_map<net::Address, NodeId> alive_;
  std::uint64_t ledger_false_positives_ = 0;
  pastry::Counters total_counters_;
  std::vector<LogEvent> log_scratch_;

  std::unique_ptr<obs::TraceDomain> obs_merged_;

  // --- Adversary scenario (immutable during the run) ----------------------
  std::optional<ShardedAdversaryConfig> adv_;
  std::vector<net::Address> sybils_;

  // --- Application --------------------------------------------------------
  ShardedApp* app_ = nullptr;
  std::vector<double> app_samples_;  ///< barrier-ordered (kAppSample)

  bool workload_on_ = false;
  bool ran_ = false;
  bool finished_ = false;
};

/// Application adapter for the sharded engine — the parallel counterpart
/// of OverlayDriver's on_app_deliver/on_app_packet hooks plus a per-node
/// workload. Hooks run on worker threads, one shard at a time: an
/// implementation must keep its mutable state partitioned per shard
/// (AppNode::shard() indexes it) and never touch another shard's replica
/// outside on_run_start/on_run_end. All randomness must come from
/// AppNode::rng() (the node's own stream) or pure functions of time, so
/// the app's behavior is shard-count-invariant like the driver's.
class ShardedApp {
 public:
  virtual ~ShardedApp() = default;

  /// Called once from run_trace before anything runs: size per-shard
  /// state replicas.
  virtual void on_run_start(ShardedDriver& driver, std::size_t shards) = 0;

  /// Per-node workload rate (requests/s) at `t`. Must be a *pure*
  /// function of time (every shard evaluates it independently). Return
  /// <= 0 for no app workload; the driver's Poisson lookup workload is
  /// then the only traffic source.
  virtual double workload_rate(SimTime t) const = 0;

  /// One workload event at `node` (issue a request, pick content, ...).
  virtual void workload_tick(const ShardedDriver::AppNode& node) = 0;

  /// A lookup carrying app_data reached its root at `node`.
  virtual void deliver(const ShardedDriver::AppNode& node,
                       const pastry::LookupMsg& m) = 0;

  /// A non-overlay packet arrived at `node`.
  virtual void packet(const ShardedDriver::AppNode& node, net::Address from,
                      const net::PacketPtr& packet) = 0;
};

}  // namespace mspastry::overlay
