#include "overlay/sharded_driver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/hash_mix.hpp"

namespace mspastry::overlay {

namespace {

constexpr std::uint64_t kDitherSalt = 0x64697468ull;    // "dith"
constexpr std::uint64_t kNodeSalt = 0x6e6f6465ull;      // "node"
constexpr std::uint64_t kAdvSelectSalt = 0x73656c65ull; // "sele"
constexpr std::uint64_t kAdvSybilSalt = 0x73796269ull;  // "sybi"

/// Honest-rooted key redraws (below) and the bench probe conventions cap
/// redraw attempts so a pathological population cannot loop forever.
constexpr int kHonestKeyRedraws = 64;

/// Lookups issued within this long of the end of the run are not counted
/// as lost (they may legitimately still be in flight).
constexpr SimDuration kLossGrace = seconds(60);

/// Delivery-time dither, hashed from the packet identity: 0..127 us added
/// to every delay. Same-instant arrivals at one receiver from *different*
/// senders would otherwise be ordered by simulator scheduling order,
/// which is shard-dependent for cross-shard traffic (barrier drain order)
/// — the dither makes such ties vanishingly rare instead of load-bearing.
constexpr std::uint64_t kDitherMask = 127;

SimDuration compute_lookahead(const net::Topology& topo,
                              const net::NetworkConfig& nc) {
  SimDuration topo_min = topo.min_positive_delay();
  if (topo_min < 0 || topo_min >= kTimeNever) topo_min = 0;
  // Cross-shard endpoints always sit on distinct routers (the partition
  // cuts at router boundaries), so every cross-shard delay is at least
  // topo_min + both LAN links, scaled by the worst-case jitter factor.
  // Fault extra delays, duplication offsets and the dither only add.
  const SimDuration base = 2 * nc.lan_delay + topo_min;
  const double scaled =
      static_cast<double>(base) * (1.0 - nc.jitter_fraction);
  if (scaled <= 0.0) return 0;
  return static_cast<SimDuration>(scaled);
}

}  // namespace

/// Per-node Env. Everything in service of shard-count-invariance:
///  - the node draws from its *own* RNG stream (seeded from the trial
///    seed and the session uid), never a shared driver stream;
///  - global bookkeeping upcalls append deferred-ledger events instead of
///    mutating the oracle/metrics directly;
///  - bootstrap candidates come from the ledger oracle's last-barrier
///    snapshot (safe to read concurrently: it only mutates at barriers);
///  - timers are liveness-guarded, so none fires into a destroyed node.
class ShardedDriver::ShardEnv final : public pastry::Env {
 public:
  ShardEnv(ShardedDriver& d, std::size_t shard, std::uint32_t uid,
           pastry::NodeDescriptor self, obs::FlightRecorder* rec)
      : d_(d),
        shard_(shard),
        uid_(uid),
        self_(self),
        rng_(mix3(d.cfg_.seed, kNodeSalt, uid)),
        rec_(rec),
        alive_(std::make_shared<bool>(true)) {}

  void shutdown() { *alive_ = false; }
  const pastry::NodeDescriptor& self() const { return self_; }
  std::uint32_t uid() const { return uid_; }
  std::size_t shard() const { return shard_; }

  /// The per-sender packet sequence keying the packet-fate draws (loss,
  /// jitter, fault rules) and the dither; app packets and overlay
  /// messages share one stream.
  std::uint64_t next_send_seq() { return send_seq_++; }

  SimTime now() const override { return d_.engine_.shard(shard_).now(); }

  TimerId schedule(SimDuration delay, InplaceCallback fn) override {
    struct Guarded {
      std::shared_ptr<bool> alive;
      InplaceCallback fn;
      void operator()() {
        if (*alive) fn();
      }
    };
    static_assert(Simulator::Callback::fits_inline<Guarded>(),
                  "liveness-guarded node timers must stay allocation-free");
    return d_.engine_.shard(shard_).schedule_after(
        delay, Guarded{alive_, std::move(fn)});
  }

  void cancel(TimerId id) override { d_.engine_.shard(shard_).cancel(id); }

  void send(net::Address to, pastry::MessagePtr msg) override {
    d_.shard_send(shard_, self_.addr, to, std::move(msg), next_send_seq());
  }

  void devour(net::Address to, pastry::MessagePtr msg) override {
    d_.shard_devour(*this, to, std::move(msg));
  }

  Rng& rng() override { return rng_; }

  pastry::MessagePool& pool() override { return d_.shards_[shard_]->pool; }

  pastry::NodeArena* routing_arena() override {
    return d_.shards_[shard_]->arena.get();
  }

  std::optional<pastry::NodeDescriptor> bootstrap_candidate() override {
    // Reads the ledger oracle's last-barrier snapshot; the draw itself
    // comes from this node's stream, so it is shard-count-invariant.
    const auto pick = d_.oracle_.random_active(rng_);
    if (!pick || pick->second == self_.addr) return std::nullopt;
    return pastry::NodeDescriptor{pick->first, pick->second};
  }

  obs::FlightRecorder* recorder() override { return rec_; }

  void on_deliver(const pastry::LookupMsg& m) override {
    LogEvent e;
    e.kind = LogEvent::Kind::kDelivered;
    e.id = m.key;
    e.a = m.source.addr;
    e.b = self_.addr;
    e.u = m.lookup_id;
    e.flag = m.trace_id != 0;
    log(std::move(e));
    // App upcalls on the worker thread, against per-shard app state; their
    // global effects (latency samples) go through the ledger.
    if (m.app_data == nullptr) return;
    for (ShardedApp* app : d_.apps_) app->deliver(AppNode(&d_, this), m);
  }

  bool on_forward(const pastry::LookupMsg& m,
                  const pastry::NodeDescriptor& next) override {
    if (m.app_data == nullptr) return false;
    for (ShardedApp* app : d_.apps_) {
      if (app->forward(AppNode(&d_, this), m, next)) return true;
    }
    return false;
  }

  void on_activated() override {
    LogEvent e;
    e.kind = LogEvent::Kind::kActivated;
    e.id = self_.id;
    e.a = self_.addr;
    e.u = static_cast<std::uint64_t>(now() - join_started_);
    log(std::move(e));
    d_.start_workload_loop(*this);
  }

  void on_marked_faulty(net::Address victim) override {
    // The live-victim check happens at barrier apply time against the
    // ledger's alive set — in (time, session) order, so the verdict is
    // the same for every shard count.
    LogEvent e;
    e.kind = LogEvent::Kind::kMarkedFaulty;
    e.a = victim;
    log(std::move(e));
  }

  void on_right_neighbour(
      const std::optional<pastry::NodeDescriptor>& right) override {
    LogEvent e;
    e.kind = LogEvent::Kind::kRight;
    e.id = self_.id;
    e.a = self_.addr;
    if (right) {
      e.b = right->addr;
      e.flag = true;
    }
    log(std::move(e));
  }

  /// Stamp (time, order) and append to the owning shard's log. Order is
  /// (uid << 26) | stream 0 | seq: unique across sessions and across the
  /// driver's drop-event stream (stream bit 1, keyed by send seq).
  void log(LogEvent e) {
    e.t = now();
    e.order = (static_cast<std::uint64_t>(uid_) << 26) |
              (log_seq_++ & 0xffffffull);
    d_.shards_[shard_]->log.push_back(std::move(e));
  }

  std::uint64_t next_lookup_id() {
    return (static_cast<std::uint64_t>(uid_ + 1) << 32) | lookup_seq_++;
  }

  SimTime join_started_ = 0;
  bool workload_started_ = false;

 private:
  ShardedDriver& d_;
  std::size_t shard_;
  std::uint32_t uid_;
  pastry::NodeDescriptor self_;
  Rng rng_;
  obs::FlightRecorder* rec_;
  std::shared_ptr<bool> alive_;
  std::uint64_t send_seq_ = 0;
  std::uint32_t log_seq_ = 0;
  std::uint64_t lookup_seq_ = 0;
};

ShardedDriver::ShardedDriver(std::shared_ptr<const net::Topology> topology,
                             net::NetworkConfig net_config,
                             DriverConfig config, std::size_t shards)
    : topology_(std::move(topology)),
      net_cfg_(net_config),
      cfg_(config),
      net_seed_(config.seed ^ 0x9e3779b9ull),
      faults_(net_seed_ ^ 0xfa017c0deull),
      lookahead_(compute_lookahead(*topology_, net_config)),
      rng_(config.seed),
      engine_(shards, lookahead_),
      metrics_(config.metrics_window, config.warmup) {
  const std::size_t s = engine_.shards();
  shards_.reserve(s);
  for (std::size_t i = 0; i < s; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->arena = std::make_unique<pastry::NodeArena>(1 << cfg_.pastry.b);
    sh->traffic =
        std::make_unique<Metrics>(cfg_.metrics_window, cfg_.warmup);
    if (cfg_.obs.enabled) {
      sh->obs = std::make_unique<obs::TraceDomain>(cfg_.obs);
    }
    sh->outbox.resize(s);
    shards_.push_back(std::move(sh));
  }
}

ShardedDriver::~ShardedDriver() {
  // Tear nodes down while the simulators are still alive: node
  // destructors cancel their timers and return arena rows. The default
  // member destruction then runs the engine down (releasing in-flight
  // message references) before the pools assert live() == 0.
  for (NodeState& ns : nodes_) {
    if (ns.node == nullptr) continue;
    ns.env->shutdown();
    NodeState dead = std::move(ns);  // destroyed node first, env last
  }
  for (auto& sh : shards_) {
    for (auto& row : sh->outbox) row.clear();
  }
}

void ShardedDriver::require_open(const char* what) const {
  if (finished_) {
    throw ConfigError(std::string(what) + ": the driver is finished");
  }
}

net::FaultPlan::RuleId ShardedDriver::add_fault_rule(
    const net::FaultRule& rule) {
  require_open("add_fault_rule");
  return faults_.add(rule);
}

bool ShardedDriver::remove_fault_rule(net::FaultPlan::RuleId id) {
  require_open("remove_fault_rule");
  return faults_.remove(id);
}

void ShardedDriver::set_adversary(const ShardedAdversaryConfig& adv) {
  require_open("set_adversary");
  if (adv_) {
    throw ConfigError("set_adversary: clear the installed scenario first");
  }
  if (!(adv.fraction >= 0.0 && adv.fraction <= 1.0)) {
    throw ConfigError("set_adversary: fraction must be in [0, 1]");
  }
  if (!(adv.strike >= 0.0 && adv.strike <= 1.0)) {
    throw ConfigError("set_adversary: strike must be in [0, 1]");
  }
  if (adv.eclipse_sybils < 0) {
    throw ConfigError("set_adversary: eclipse sybil count must be >= 0");
  }
  if (adv.arm_at < 0) {
    throw ConfigError("set_adversary: arm_at must be >= 0");
  }
  adv_ = adv;
  adv_->arm_at = std::max(adv.arm_at, now());
  if (sessions_.empty()) return;  // run_trace places it over its sessions
  // Between runs: the candidates are the live sessions.
  settle();
  std::vector<std::uint32_t> live;
  for (const net::Address a : live_addresses()) {
    live.push_back(static_cast<std::uint32_t>(a));
  }
  const std::vector<std::uint32_t> sybils = place_adversary(live);
  if (adv_->arm_at > now()) {
    schedule_arming(live, sybils);
    return;
  }
  // Arming now: install and join before the next read sees the driver.
  for (const std::uint32_t uid : live) arm_session(uid);
  for (const std::uint32_t uid : sybils) create_session(uid);
}

void ShardedDriver::clear_adversary() {
  require_open("clear_adversary");
  for (std::uint32_t uid = 0; uid < sessions_.size(); ++uid) {
    sessions_[uid].adversarial = false;
    NodeState& ns = nodes_[uid];
    if (ns.policy == nullptr) continue;
    if (ns.node != nullptr) ns.node->set_adversary(nullptr);
    ns.policy.reset();
  }
  adv_.reset();
}

void ShardedDriver::attach_app(ShardedApp* app) {
  require_open("attach_app");
  app->on_run_start(*this, shards_.size());
  apps_.push_back(app);
}

bool ShardedDriver::session_is_adversarial(net::Address a) const {
  const auto i = static_cast<std::size_t>(a);
  return a >= 0 && i < sessions_.size() && sessions_[i].adversarial;
}

SimDuration ShardedDriver::delay(net::Address a, net::Address b) const {
  if (a == b) return 0;
  return topology_->delay(sessions_[static_cast<std::size_t>(a)].router,
                          sessions_[static_cast<std::size_t>(b)].router) +
         2 * net_cfg_.lan_delay;
}

void ShardedDriver::shard_send(std::size_t src_shard, net::Address from,
                               net::Address to, net::PacketPtr msg,
                               std::uint64_t send_seq) {
  assert(msg != nullptr);
  Shard& sh = *shards_[src_shard];
  const SimTime now = engine_.shard(src_shard).now();
  if (const auto* m = dynamic_cast<const pastry::Message*>(msg.get())) {
    sh.traffic->on_message(now, m->type);
  } else {
    sh.traffic->on_app_message(now);
  }
  ++sh.sent;

  // The fate is judged by net::packet_fate from the one plan every shard
  // reads; its draws are keyed by the packet's identity, so the verdict is
  // the same at every shard count.
  const net::PacketFate fate =
      net::packet_fate(faults_, net_cfg_, net_seed_, now, from, to, send_seq,
                       delay(from, to));
  net::for_each_fault_kind(fate.injected, [&sh](net::FaultKind k) {
    sh.traffic->on_fault_injected(k);
  });
  if (fate.drop) {
    ++sh.lost;
    note_send_drop(now, from, to, *msg);
    return;
  }
  const SimTime at =
      fate.depart + fate.delay +
      static_cast<SimDuration>(
          mix3(net_seed_ ^ kDitherSalt,
               static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)),
               send_seq) &
          kDitherMask);
  for (int i = 1; i <= fate.copies; ++i) {
    ++sh.sent;
    schedule_delivery(src_shard, at + i * fate.dup_offset, from, to, msg,
                      send_seq);
  }
  schedule_delivery(src_shard, at, from, to, std::move(msg), send_seq);
}

void ShardedDriver::shard_devour(ShardEnv& env, net::Address to,
                                 pastry::MessagePtr msg) {
  assert(msg != nullptr);
  Shard& sh = *shards_[env.shard()];
  // The pretend transmission occupies the packet-accounting identity like
  // a real one; the lookup id, if any, goes through the ledger so the
  // eventual lost verdict is blamed on the adversary in S-invariant order.
  ++sh.sent;
  ++sh.dropped_adversarial;
  sh.traffic->on_fault_injected(net::FaultKind::kAdversarialDrop);
  if (obs::FlightRecorder* rec = env.recorder()) {
    const auto* rm = dynamic_cast<const pastry::RoutedMessage*>(msg.get());
    if (rm != nullptr && rm->trace_id != 0) {
      rec->record(env.now(), obs::EventKind::kAdversaryDrop, rm->trace_id,
                  to, rm->hops, rm->hop_seq);
    }
  }
  if (const auto* lm = dynamic_cast<const pastry::LookupMsg*>(msg.get())) {
    LogEvent e;
    e.kind = LogEvent::Kind::kDevoured;
    e.u = lm->lookup_id;
    env.log(std::move(e));
  }
}

void ShardedDriver::note_send_drop(SimTime now, net::Address from,
                                   net::Address to, const net::Packet& msg) {
  obs::FlightRecorder* rec = sessions_[static_cast<std::size_t>(from)].rec;
  if (rec == nullptr) return;
  const auto* rm = dynamic_cast<const pastry::RoutedMessage*>(&msg);
  if (rm == nullptr || rm->trace_id == 0) return;
  rec->record(now, obs::EventKind::kNetDrop, rm->trace_id, to, rm->hops,
              rm->hop_seq);
}

void ShardedDriver::schedule_delivery(std::size_t src_shard, SimTime at,
                                      net::Address from, net::Address to,
                                      net::PacketPtr msg,
                                      std::uint64_t send_seq) {
  ++shards_[src_shard]->in_flight;
  const std::size_t dst =
      sessions_[static_cast<std::size_t>(to)].shard;
  if (dst == src_shard) {
    engine_.shard(dst).schedule_at(
        at, [this, dst, from, to, send_seq, m = std::move(msg)]() mutable {
          deliver(dst, from, to, send_seq, std::move(m));
        });
    return;
  }
  // Lookahead contract: a cross-shard delivery can never land inside the
  // epoch that produced it.
  assert(at >= engine_.epoch_end());
  shards_[src_shard]->outbox[dst].push_back(
      OutMsg{at, from, to, send_seq, std::move(msg)});
}

void ShardedDriver::deliver(std::size_t dst_shard, net::Address from,
                            net::Address to, std::uint64_t send_seq,
                            net::PacketPtr msg) {
  Shard& sh = *shards_[dst_shard];
  // A stalled receiver's packets sit in its socket buffer until the
  // process resumes (gray failure: the endpoint never unbinds). The
  // expiry timer lives on the *receiving* session's shard, so cross-shard
  // timing never observes a partial stall; the verdict itself is pure.
  const SimTime dnow = engine_.shard(dst_shard).now();
  const SimTime release = faults_.stall_release(dnow, to);
  if (release > dnow) {
    sh.traffic->on_fault_injected(net::FaultKind::kStall);
    engine_.shard(dst_shard).schedule_at(
        release, [this, dst_shard, from, to, send_seq,
                  p = std::move(msg)]() mutable {
          deliver(dst_shard, from, to, send_seq, std::move(p));
        });
    return;
  }
  --sh.in_flight;
  NodeState& ns = nodes_[static_cast<std::size_t>(to)];
  if (ns.node == nullptr) {
    ++sh.unbound;
    // The sender's ring may live on another shard: defer the drop record
    // through the ledger (ordered by the sender's packet seq, stream 1 —
    // disjoint from the sessions' upcall stream 0).
    if (cfg_.obs.enabled) {
      const auto* rm =
          dynamic_cast<const pastry::RoutedMessage*>(msg.get());
      if (rm != nullptr && rm->trace_id != 0) {
        LogEvent e;
        e.t = engine_.shard(dst_shard).now();
        e.order =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
             << 26) |
            (1ull << 24) | (send_seq & 0xffffffull);
        e.kind = LogEvent::Kind::kNetDropObs;
        e.a = from;
        e.b = to;
        e.u = rm->trace_id;
        e.v = (static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(rm->hops))
               << 32) |
              static_cast<std::uint32_t>(rm->hop_seq & 0xffffffffull);
        sh.log.push_back(std::move(e));
      }
    }
    return;
  }
  ++sh.delivered;
  if (auto m = dynamic_pointer_cast<const pastry::Message>(msg)) {
    ns.node->handle(from, std::move(m));
    return;
  }
  for (ShardedApp* app : apps_) {
    app->packet(AppNode(this, ns.env.get()), from, msg);
  }
}

const std::vector<int>& ShardedDriver::attachable_routers() {
  if (attachable_.empty()) {
    for (int r = 0; r < topology_->router_count(); ++r) {
      if (topology_->attachable(r)) attachable_.push_back(r);
    }
    assert(!attachable_.empty());
  }
  return attachable_;
}

void ShardedDriver::partition_evenly() {
  const auto& att = attachable_routers();
  const std::size_t s = shards_.size();
  for (std::size_t k = 1; k < s; ++k) {
    const int cut = att[k * att.size() / s];
    if (cuts_.empty() || cuts_.back() < cut) cuts_.push_back(cut);
  }
  partitioned_ = true;
}

std::size_t ShardedDriver::shard_of_router(int router) const {
  return static_cast<std::size_t>(
      std::upper_bound(cuts_.begin(), cuts_.end(), router) - cuts_.begin());
}

std::uint32_t ShardedDriver::new_session(int router, NodeId id,
                                         SimTime first_join) {
  const auto uid = static_cast<std::uint32_t>(sessions_.size());
  Session s;
  s.id = id;
  s.router = router;
  s.shard = partitioned_ ? shard_of_router(router) : 0;
  s.first_join = first_join;
  sessions_.push_back(s);
  nodes_.emplace_back();
  return uid;
}

void ShardedDriver::create_session(std::uint32_t uid) {
  Session& s = sessions_[uid];
  Shard& sh = *shards_[s.shard];
  const net::Address addr = static_cast<net::Address>(uid);
  const pastry::NodeDescriptor self{s.id, addr};

  NodeState ns;
  if (s.rec == nullptr && sh.obs != nullptr) {
    s.rec = &sh.obs->recorder_for(addr);
  }
  ns.env = std::make_unique<ShardEnv>(*this, s.shard, uid, self, s.rec);
  ns.node = std::make_unique<pastry::PastryNode>(cfg_.pastry, self, *ns.env,
                                                 sh.counters);
  ShardEnv* env = ns.env.get();
  pastry::PastryNode* node = ns.node.get();
  env->join_started_ = engine_.shard(s.shard).now();
  // Adversarial sessions created at or after the arming instant (sybils,
  // churn rejoins) arm immediately; earlier ones wait for the arm sweep.
  if (s.adversarial && adv_ && env->join_started_ >= adv_->arm_at) {
    install_policy(uid, ns);
  }
  assert(nodes_[uid].node == nullptr);
  nodes_[uid] = std::move(ns);
  ++sh.live_nodes;

  LogEvent e;
  e.kind = LogEvent::Kind::kJoinStarted;
  e.id = s.id;
  e.a = addr;
  env->log(std::move(e));

  if (uid == first_session_) {
    // Exactly one designated session seeds the overlay; every other join
    // waits until a candidate is visible. (Letting any join with an empty
    // oracle snapshot bootstrap would split the ring: snapshot visibility
    // lags by up to an epoch.)
    node->bootstrap();
    return;
  }
  try_join(uid);
}

void ShardedDriver::try_join(std::uint32_t uid) {
  NodeState& ns = nodes_[uid];
  if (ns.node == nullptr) return;  // session died while waiting
  ShardEnv& env = *ns.env;
  if (const auto cand = env.bootstrap_candidate()) {
    ns.node->join(*cand);
  } else {
    env.schedule(kJoinRetryDelay, [this, uid] { try_join(uid); });
  }
}

void ShardedDriver::kill_session(std::uint32_t uid) {
  NodeState& ns = nodes_[uid];
  if (ns.node == nullptr) return;
  ShardEnv& env = *ns.env;
  for (ShardedApp* app : apps_) app->node_down(AppNode(this, &env));
  LogEvent e;
  e.kind = LogEvent::Kind::kFailed;
  e.id = sessions_[uid].id;
  e.a = static_cast<net::Address>(uid);
  env.log(std::move(e));
  env.shutdown();
  // Node destroyed on its own shard (timers cancelled), then its env.
  { NodeState dead = std::move(ns); }
  --shards_[sessions_[uid].shard]->live_nodes;
}

std::vector<std::uint32_t> ShardedDriver::place_adversary(
    const std::vector<std::uint32_t>& candidates) {
  if (adv_->fraction > 0.0) {
    // Rank the candidates by a stateless hash of (adversary seed, salt,
    // uid) and corrupt the round(f*N) smallest — reproducible from the
    // seeds alone, independent of shard layout and map iteration order.
    std::vector<std::uint32_t> rank = candidates;
    std::sort(rank.begin(), rank.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint64_t ha = mix3(adv_->seed, kAdvSelectSalt, a);
                const std::uint64_t hb = mix3(adv_->seed, kAdvSelectSalt, b);
                return ha != hb ? ha < hb : a < b;
              });
    const auto k = static_cast<std::size_t>(
        adv_->fraction * static_cast<double>(rank.size()) + 0.5);
    for (std::size_t i = 0; i < std::min(k, rank.size()); ++i) {
      sessions_[rank[i]].adversarial = true;
    }
  }
  // Eclipse sybils: extra sessions that join at the arming instant with
  // ids alternating ±k·2^104 around the victim — astronomically denser
  // than honest spacing (~2^128 / N), so an unchecked victim ends up with
  // sybils for leaf-set neighbours.
  std::vector<std::uint32_t> sybils;
  const auto& att = attachable_routers();
  Rng sybil_setup(mix3(adv_->seed, kAdvSybilSalt, 0));
  for (int i = 0; i < adv_->eclipse_sybils; ++i) {
    const U128 offset =
        U128{0, static_cast<std::uint64_t>(i / 2 + 1)} << 104;
    const U128 id = (i % 2 == 0) ? adv_->eclipse_victim.value() + offset
                                 : adv_->eclipse_victim.value() - offset;
    const int router = att[sybil_setup.uniform_index(att.size())];
    const std::uint32_t uid = new_session(router, NodeId{id}, adv_->arm_at);
    sessions_[uid].adversarial = true;
    sessions_[uid].sybil = true;
    sybils_.push_back(static_cast<net::Address>(uid));
    sybils.push_back(uid);
  }
  return sybils;
}

void ShardedDriver::schedule_arming(
    const std::vector<std::uint32_t>& candidates,
    const std::vector<std::uint32_t>& sybils) {
  // One event per corrupted session, on its own shard (the event *count*
  // must not depend on the shard count); sybils join through the normal
  // session path. clear_adversary() before the instant cancels both.
  for (const std::uint32_t i : candidates) {
    if (!sessions_[i].adversarial) continue;
    engine_.shard(sessions_[i].shard)
        .schedule_at(adv_->arm_at, [this, i] { arm_session(i); });
  }
  for (const std::uint32_t uid : sybils) {
    engine_.shard(sessions_[uid].shard).schedule_at(adv_->arm_at, [this, uid] {
      if (sessions_[uid].adversarial) create_session(uid);
    });
  }
}

void ShardedDriver::arm_session(std::uint32_t uid) {
  // Install the policy on one corrupted session if it is live; a session
  // dead at arm time arms on its next join (create_session).
  if (adv_ && sessions_[uid].adversarial && nodes_[uid].node != nullptr) {
    install_policy(uid, nodes_[uid]);
  }
}

void ShardedDriver::install_policy(std::uint32_t uid, NodeState& ns) {
  if (ns.policy != nullptr) return;
  ns.policy = std::make_unique<KeyedAdversary>(
      adv_->behavior, adv_->strike, adv_->seed,
      static_cast<net::Address>(uid));
  ns.node->set_adversary(ns.policy.get());
}

double ShardedDriver::workload_rate(SimTime now) const {
  return apps_.empty() ? cfg_.lookup_rate_per_node
                       : apps_.front()->workload_rate(now);
}

void ShardedDriver::start_workload_loop(ShardEnv& env) {
  if (!workload_on_ || env.workload_started_) return;
  env.workload_started_ = true;
  schedule_workload_tick(env);
}

void ShardedDriver::schedule_workload_tick(ShardEnv& env) {
  // Per-node Poisson process: the aggregate over N active nodes is
  // Poisson with rate N * rate, but each node draws only from its own
  // stream. With apps attached the rate is the first app's (a pure
  // function of time, re-sampled each tick: a piecewise approximation,
  // fine because the rate changes on the hour scale). The callback is
  // liveness-guarded by env.schedule, so a killed node's pending tick
  // fires into nothing.
  const double rate = std::max(workload_rate(env.now()), 1e-6);
  const SimDuration gap = from_seconds(env.rng().exponential(1.0 / rate));
  ShardEnv* e = &env;
  env.schedule(gap, [this, e] {
    if (!workload_on_) return;
    // Armed adversarial sessions issue no workload: sources stay honest
    // (the secure-routing probe convention), so failure rates measure
    // the adversary's effect on *victims*, not its self-drops.
    const bool armed_adversary =
        adv_ && e->now() >= adv_->arm_at &&
        sessions_[e->uid()].adversarial;
    if (!armed_adversary) {
      if (apps_.empty()) {
        issue_workload_lookup(*e);
      } else {
        apps_.front()->workload_tick(AppNode(this, e));
      }
    }
    schedule_workload_tick(*e);
  });
}

void ShardedDriver::issue_workload_lookup(ShardEnv& env) {
  if (nodes_[env.uid()].node == nullptr) return;
  NodeId key = env.rng().node_id();
  if (adv_ && env.now() >= adv_->arm_at) {
    // Honest-rooted keys (bounded redraws from the node's own stream,
    // against the barrier-snapshot oracle — concurrent reads are safe),
    // so correctness verdicts measure misrouting, not keys the adversary
    // legitimately owns.
    for (int i = 0; i < kHonestKeyRedraws; ++i) {
      const auto root = oracle_.root_of(key);
      if (!root || !session_is_adversarial(*root)) break;
      key = env.rng().node_id();
    }
  }
  node_lookup(env, key, 0, nullptr);
}

std::uint64_t ShardedDriver::node_lookup(ShardEnv& env, NodeId key,
                                         std::uint64_t payload,
                                         net::PacketPtr app_data) {
  const std::uint64_t id = env.next_lookup_id();
  LogEvent e;
  e.kind = LogEvent::Kind::kIssued;
  e.id = key;
  e.a = env.self().addr;
  e.u = id;
  env.log(std::move(e));
  nodes_[env.uid()].node->lookup(key, id, payload, std::move(app_data));
  return id;
}

void ShardedDriver::apply_barrier(SimTime epoch_end) {
  (void)epoch_end;
  const std::size_t s = shards_.size();
  // 1. Hand cross-shard messages over: clone into the destination pool,
  //    schedule there, release the source-pool reference. Single-threaded
  //    and in (src, dst, append) order — but delivery *times* carry the
  //    per-packet dither, so receiver-side interleaving doesn't depend on
  //    this order.
  for (std::size_t src = 0; src < s; ++src) {
    for (std::size_t dst = 0; dst < s; ++dst) {
      auto& row = shards_[src]->outbox[dst];
      for (OutMsg& m : row) {
        net::PacketPtr clone;
        if (const auto* pm =
                dynamic_cast<const pastry::Message*>(m.msg.get())) {
          clone = pastry::clone_message(*pm, shards_[dst]->pool);
        } else if (const auto* app = dynamic_cast<const pastry::CloneableAppData*>(
                       m.msg.get())) {
          clone = app->clone_into(shards_[dst]->pool);
        } else {
          // Single-threaded barrier context: throwing is sound, and the
          // config error (an app packet type that cannot cross shards)
          // must not be silently dropped in Release builds.
          throw pastry::CodecError(
              pastry::WireStatus::kAppData,
              "sharded barrier: cross-shard app packet does not implement "
              "CloneableAppData");
        }
        engine_.shard(dst).schedule_at(
            m.t, [this, dst, from = m.from, to = m.to, seq = m.send_seq,
                  c = std::move(clone)]() mutable {
              deliver(dst, from, to, seq, std::move(c));
            });
        m.msg = nullptr;
      }
      row.clear();
    }
  }
  // 2. Apply the deferred ledger in global (time, session-order) order.
  log_scratch_.clear();
  for (auto& sh : shards_) {
    log_scratch_.insert(log_scratch_.end(), sh->log.begin(), sh->log.end());
    sh->log.clear();
  }
  std::sort(log_scratch_.begin(), log_scratch_.end(),
            [](const LogEvent& a, const LogEvent& b) {
              return a.t != b.t ? a.t < b.t : a.order < b.order;
            });
  for (const LogEvent& e : log_scratch_) apply_log_event(e);
}

void ShardedDriver::apply_log_event(const LogEvent& e) {
  switch (e.kind) {
    case LogEvent::Kind::kJoinStarted:
      metrics_.on_join_started(e.t);
      metrics_.population_change(e.t, +1);
      alive_.emplace(e.a, e.id);
      break;
    case LogEvent::Kind::kActivated:
      oracle_.node_activated(e.id, e.a);
      metrics_.on_join_completed(e.t, static_cast<SimDuration>(e.u));
      break;
    case LogEvent::Kind::kFailed:
      oracle_.node_failed(e.id);
      metrics_.population_change(e.t, -1);
      alive_.erase(e.a);
      break;
    case LogEvent::Kind::kRight:
      oracle_.node_reports_right(
          e.id, e.flag ? std::optional<net::Address>(e.b) : std::nullopt);
      break;
    case LogEvent::Kind::kIssued:
      metrics_.on_lookup_issued(e.u, e.t, e.a, e.id);
      break;
    case LogEvent::Kind::kDelivered: {
      // Scored against the ledger oracle as of all events before this one
      // in global order — for every shard count, the same order.
      const auto root = oracle_.root_of(e.id);
      const bool correct = root && *root == e.b;
      SimDuration nd = 0;
      if (correct && e.a != e.b) nd = delay(e.a, e.b);
      // A wrong delivery by an armed adversarial node is a misroute,
      // anything else stale state.
      const auto cause =
          (!correct && adv_ && e.t >= adv_->arm_at &&
           session_is_adversarial(e.b))
              ? Metrics::IncorrectCause::kAdversarialMisroute
              : Metrics::IncorrectCause::kStaleLeafSet;
      metrics_.on_lookup_delivered(e.u, e.t, correct, nd, cause);
      if ((e.flag && cfg_.obs.enabled) ||
          (!tracked_.empty() && tracked_.count(e.u) > 0)) {
        // First-correct-wins, like Metrics: a misdelivered copy is
        // upgraded if a later one (diverse-path redundancy, duplication
        // faults) lands at the true root.
        const auto [it, fresh] = verdicts_.emplace(e.u, correct);
        if (!fresh && correct) it->second = true;
      }
      break;
    }
    case LogEvent::Kind::kDevoured:
      metrics_.on_lookup_devoured(e.u);
      break;
    case LogEvent::Kind::kAppSample:
      app_samples_.push_back(std::bit_cast<double>(e.u));
      break;
    case LogEvent::Kind::kMarkedFaulty:
      if (alive_.count(e.a) > 0) ++ledger_false_positives_;
      break;
    case LogEvent::Kind::kNetDropObs:
      if (obs::FlightRecorder* rec =
              sessions_[static_cast<std::size_t>(e.a)].rec) {
        rec->record(e.t, obs::EventKind::kNetDrop, e.u, e.b,
                    static_cast<std::int32_t>(e.v >> 32),
                    e.v & 0xffffffffull);
      }
      break;
  }
}

void ShardedDriver::run_trace(const trace::ChurnTrace& trace,
                              SimDuration extra) {
  require_open("run_trace");
  if (!sessions_.empty() || now() > 0) {
    throw ConfigError("run_trace: a trace needs a fresh driver");
  }

  // --- Pre-assignment: sessions get ids, routers, addresses and their
  // shard *before* anything runs, from the trial seed alone. ------------
  const auto& attachable = attachable_routers();
  std::unordered_map<std::int32_t, std::uint32_t> uid_of;
  for (const trace::ChurnEvent& ev : trace.events()) {
    if (ev.type != trace::ChurnEventType::kJoin) continue;
    if (uid_of.emplace(ev.node, sessions_.size()).second) {
      sessions_.push_back(Session{});
      sessions_.back().first_join = ev.time;
    }
  }
  for (Session& s : sessions_) {
    s.router = attachable[rng_.uniform_index(attachable.size())];
    s.id = rng_.node_id();
  }
  nodes_.resize(sessions_.size());

  // --- Adversarial population, decided before the partition so the
  // corrupted set and sybil sessions are identical at any shard count.
  const std::size_t n_trace = sessions_.size();
  std::vector<std::uint32_t> candidates, sybils;
  if (adv_) {
    candidates.resize(n_trace);
    for (std::uint32_t i = 0; i < n_trace; ++i) candidates[i] = i;
    sybils = place_adversary(candidates);
  }

  // Router-contiguous partition: sort sessions by (router, uid) and cut
  // into near-equal blocks only at router boundaries, so cross-shard
  // pairs always sit on distinct routers (the lookahead's premise). Each
  // cut is recorded as the first router of the next shard.
  const std::size_t n = sessions_.size();
  const std::size_t s = shards_.size();
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return sessions_[a].router != sessions_[b].router
                         ? sessions_[a].router < sessions_[b].router
                         : a < b;
            });
  const std::size_t target = n == 0 ? 1 : (n + s - 1) / s;
  std::size_t in_block = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int router = sessions_[order[i]].router;
    if (in_block >= target && cuts_.size() + 1 < s &&
        router != sessions_[order[i - 1]].router) {
      cuts_.push_back(router);
      in_block = 0;
    }
    ++in_block;
  }
  partitioned_ = true;
  for (Session& sess : sessions_) sess.shard = shard_of_router(sess.router);

  // Per-shard-pair lookahead (opt-in): the global bound assumes the two
  // closest routers in the whole topology could land on different shards,
  // but the router-contiguous partition usually keeps them together. The
  // real bound is the minimum Topology::min_delay_between over the actual
  // shard-pair router sets — often an inter-cluster backbone delay, one
  // to two orders of magnitude wider than the global min link.
  if (cfg_.per_pair_lookahead && shards_.size() > 1) {
    std::vector<std::vector<int>> shard_routers(s);
    for (std::size_t i = 0; i < n; ++i) {
      const Session& sess = sessions_[order[i]];
      auto& list = shard_routers[sess.shard];
      if (list.empty() || list.back() != sess.router) {
        list.push_back(sess.router);  // order[] is router-sorted: dedup
      }
    }
    SimDuration bound = kTimeNever;
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = i + 1; j < s; ++j) {
        const SimDuration d =
            topology_->min_delay_between(shard_routers[i], shard_routers[j]);
        if (d < bound) bound = d;
      }
    }
    if (bound > 0 && bound < kTimeNever) {
      const double scaled = static_cast<double>(2 * net_cfg_.lan_delay + bound) *
                            (1.0 - net_cfg_.jitter_fraction);
      if (scaled > 0.0) {
        engine_.raise_lookahead(static_cast<SimDuration>(scaled));
        lookahead_ = engine_.lookahead();
      }
    }
  }

  // Designated bootstrap: the earliest-joining *trace* session (uid
  // breaks ties) — sybils never bootstrap the overlay.
  first_session_ = 0;
  for (std::uint32_t i = 1; i < n_trace; ++i) {
    if (sessions_[i].first_join < sessions_[first_session_].first_join) {
      first_session_ = i;
    }
  }

  // --- Schedule the churn on each session's own shard. ------------------
  for (const trace::ChurnEvent& ev : trace.events()) {
    const auto it = uid_of.find(ev.node);
    if (it == uid_of.end()) continue;  // fail without a join: malformed
    const std::uint32_t uid = it->second;
    const bool join = ev.type == trace::ChurnEventType::kJoin;
    engine_.shard(sessions_[uid].shard)
        .schedule_at(ev.time, [this, uid, join] {
          if (join) {
            create_session(uid);
          } else {
            kill_session(uid);
          }
        });
  }
  if (adv_) schedule_arming(candidates, sybils);

  workload_on_ = cfg_.lookup_rate_per_node > 0.0 || !apps_.empty();
  engine_.run_until(trace.duration() + extra,
                    [this](SimTime e) { apply_barrier(e); });
  finish();
}

// --- Imperative surface ---------------------------------------------------

net::Address ShardedDriver::add_node() {
  const int router = random_router();
  return add_session(router, rng_.node_id());
}

net::Address ShardedDriver::add_node_with_id(NodeId id) {
  return add_session(random_router(), id);
}

int ShardedDriver::random_router() {
  require_open("add_node");
  const auto& att = attachable_routers();
  return att[rng_.uniform_index(att.size())];
}

net::Address ShardedDriver::add_session(int router, NodeId id) {
  settle();
  if (!partitioned_) partition_evenly();
  const std::uint32_t uid = new_session(router, id, now());
  create_session(uid);
  return static_cast<net::Address>(uid);
}

void ShardedDriver::kill_node(net::Address a) {
  require_open("kill_node");
  settle();
  if (node(a) != nullptr) kill_session(static_cast<std::uint32_t>(a));
}

void ShardedDriver::leave_node(net::Address a) {
  require_open("leave_node");
  settle();
  pastry::PastryNode* n = node(a);
  if (n == nullptr) return;
  n->leave();  // notices are in flight before teardown
  kill_session(static_cast<std::uint32_t>(a));
}

std::uint64_t ShardedDriver::issue_lookup(net::Address from, NodeId key,
                                          std::uint64_t payload,
                                          net::PacketPtr app_data) {
  require_open("issue_lookup");
  settle();
  assert(node(from) != nullptr);
  return node_lookup(*nodes_[static_cast<std::size_t>(from)].env, key,
                     payload, std::move(app_data));
}

std::optional<bool> ShardedDriver::lookup_verdict(std::uint64_t id) {
  settle();
  const auto it = verdicts_.find(id);
  if (it == verdicts_.end()) return std::nullopt;
  return it->second;
}

void ShardedDriver::run_until(SimTime t) {
  require_open("run_until");
  settle();
  engine_.run_until(t, [this](SimTime e) { apply_barrier(e); });
}

void ShardedDriver::start_workload() {
  require_open("start_workload");
  workload_on_ = cfg_.lookup_rate_per_node > 0.0 || !apps_.empty();
  // Nodes already active start now, in uid order (each draws only from
  // its own stream); later ones start on activation.
  for (NodeState& ns : nodes_) {
    if (ns.node != nullptr && ns.node->active()) start_workload_loop(*ns.env);
  }
}

void ShardedDriver::finish() {
  if (finished_) return;
  settle();  // flush any residual ledger entries
  finished_ = true;
  workload_on_ = false;
  for (auto& sh : shards_) metrics_.merge_traffic_from(*sh->traffic);
  metrics_.finalize(now(), kLossGrace);
  merge_obs();
}

void ShardedDriver::merge_obs() {
  if (!cfg_.obs.enabled) return;
  if (obs_merged_ == nullptr) {
    obs_merged_ = std::make_unique<obs::TraceDomain>(cfg_.obs);
  }
  // Recorders move, their addresses stay: the sessions' cached recorder
  // pointers remain valid, and new sessions record into their shard's
  // (now empty) domain until the next merge.
  for (auto& sh : shards_) obs_merged_->absorb(std::move(*sh->obs));
}

obs::TraceDomain* ShardedDriver::trace_domain() {
  if (!cfg_.obs.enabled) return nullptr;
  settle();
  merge_obs();
  return obs_merged_.get();
}

Metrics& ShardedDriver::metrics() {
  settle();
  return metrics_;
}

Oracle& ShardedDriver::oracle() {
  settle();
  return oracle_;
}

pastry::Counters ShardedDriver::counters() const {
  pastry::Counters total;
  for (const auto& sh : shards_) total += sh->counters;
  total.false_positives += ledger_false_positives_;
  return total;
}

pastry::PastryNode* ShardedDriver::node(net::Address a) {
  const auto i = static_cast<std::size_t>(a);
  if (a < 0 || i >= nodes_.size()) return nullptr;
  return nodes_[i].node.get();
}

std::vector<net::Address> ShardedDriver::live_addresses() const {
  std::vector<net::Address> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].node != nullptr) out.push_back(static_cast<net::Address>(i));
  }
  return out;
}

std::optional<ShardedDriver::AppNode> ShardedDriver::app_node(net::Address a) {
  if (node(a) == nullptr) return std::nullopt;
  return AppNode(this, nodes_[static_cast<std::size_t>(a)].env.get());
}

std::uint64_t ShardedDriver::packets_sent() const {
  std::uint64_t v = 0;
  for (const auto& sh : shards_) v += sh->sent;
  return v;
}

std::uint64_t ShardedDriver::packets_lost() const {
  std::uint64_t v = 0;
  for (const auto& sh : shards_) v += sh->lost;
  return v;
}

std::uint64_t ShardedDriver::packets_delivered() const {
  std::uint64_t v = 0;
  for (const auto& sh : shards_) v += sh->delivered;
  return v;
}

std::uint64_t ShardedDriver::packets_dropped_unbound() const {
  std::uint64_t v = 0;
  for (const auto& sh : shards_) v += sh->unbound;
  return v;
}

std::uint64_t ShardedDriver::packets_dropped_adversarial() const {
  std::uint64_t v = 0;
  for (const auto& sh : shards_) v += sh->dropped_adversarial;
  return v;
}

std::int64_t ShardedDriver::packets_in_flight() const {
  std::int64_t v = 0;
  for (const auto& sh : shards_) v += sh->in_flight;
  return v;
}

std::size_t ShardedDriver::live_node_count() const {
  std::size_t v = 0;
  for (const auto& sh : shards_) v += sh->live_nodes;
  return v;
}

ShardedDriver::PeerCensus ShardedDriver::peer_census() const {
  PeerCensus c;
  for (const NodeState& ns : nodes_) {
    if (ns.node == nullptr) continue;
    const auto d = ns.node->debug_state();
    ++c.nodes;
    c.entries += d.peer_entries;
    c.bytes += d.peer_table_bytes;
  }
  return c;
}

// --- AppNode: the per-upcall façade handed to ShardedApp hooks. ---------

SimTime ShardedDriver::AppNode::now() const { return env_->now(); }

net::Address ShardedDriver::AppNode::self() const {
  return env_->self().addr;
}

std::size_t ShardedDriver::AppNode::shard() const { return env_->shard(); }

Rng& ShardedDriver::AppNode::rng() const { return env_->rng(); }

pastry::MessagePool& ShardedDriver::AppNode::pool() const {
  return d_->shards_[env_->shard()]->pool;
}

pastry::PastryNode& ShardedDriver::AppNode::node() const {
  return *d_->nodes_[env_->uid()].node;
}

std::uint64_t ShardedDriver::AppNode::issue_lookup(
    NodeId key, std::uint64_t payload, net::PacketPtr app_data) const {
  if (d_->nodes_[env_->uid()].node == nullptr) {
    return 0;  // node died under the app's feet
  }
  return d_->node_lookup(*env_, key, payload, std::move(app_data));
}

void ShardedDriver::AppNode::send_packet(net::Address to,
                                         net::PacketPtr packet) const {
  // Shares the sender's send-seq stream with overlay messages, so the
  // packet's loss/jitter/dither fate is keyed exactly like every other
  // send from this node.
  d_->shard_send(env_->shard(), env_->self().addr, to, std::move(packet),
                 env_->next_send_seq());
}

void ShardedDriver::AppNode::schedule(SimDuration delay,
                                      InplaceCallback fn) const {
  env_->schedule(delay, std::move(fn));
}

void ShardedDriver::AppNode::record_latency(double seconds) const {
  LogEvent e;
  e.kind = LogEvent::Kind::kAppSample;
  e.u = std::bit_cast<std::uint64_t>(seconds);
  env_->log(std::move(e));
}

}  // namespace mspastry::overlay
