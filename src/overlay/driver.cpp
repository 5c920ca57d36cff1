#include "overlay/driver.hpp"

#include <cassert>

#include "common/log.hpp"

namespace mspastry::overlay {

/// Per-node Env implementation. A shared "alive" flag guards every
/// scheduled callback so that timers can never fire into a destroyed
/// node (nodes die abruptly under fault injection).
class OverlayDriver::NodeEnv final : public pastry::Env {
 public:
  NodeEnv(OverlayDriver& driver, pastry::NodeDescriptor self)
      : driver_(driver),
        self_(self),
        alive_(std::make_shared<bool>(true)) {}

  void shutdown() { *alive_ = false; }
  const pastry::NodeDescriptor& self() const { return self_; }

  SimTime now() const override { return driver_.sim_.now(); }

  TimerId schedule(SimDuration delay, InplaceCallback fn) override {
    // A named struct rather than a lambda so we can assert the guard
    // wrapper never pushes the simulator callback onto the heap.
    struct Guarded {
      std::shared_ptr<bool> alive;
      InplaceCallback fn;
      void operator()() {
        if (*alive) fn();
      }
    };
    static_assert(
        Simulator::Callback::fits_inline<Guarded>(),
        "liveness-guarded node timers must stay allocation-free; grow "
        "Simulator::kCallbackCapacity");
    return driver_.sim_.schedule_after(delay,
                                       Guarded{alive_, std::move(fn)});
  }

  void cancel(TimerId id) override { driver_.sim_.cancel(id); }

  void send(net::Address to, pastry::MessagePtr msg) override {
    driver_.metrics_.on_message(driver_.sim_.now(), msg->type);
    driver_.net_.send(self_.addr, to, msg);
  }

  void devour(net::Address to, pastry::MessagePtr msg) override {
    driver_.devour_packet(self_.addr, to, std::move(msg));
  }

  Rng& rng() override { return driver_.rng_; }

  pastry::MessagePool& pool() override { return driver_.pool_; }

  pastry::NodeArena* routing_arena() override {
    return &driver_.node_arena_;
  }

  std::optional<pastry::NodeDescriptor> bootstrap_candidate() override {
    const auto pick = driver_.oracle_.random_active(driver_.rng_);
    if (!pick || pick->second == self_.addr) return std::nullopt;
    return pastry::NodeDescriptor{pick->first, pick->second};
  }

  obs::FlightRecorder* recorder() override {
    return driver_.obs_ != nullptr
               ? &driver_.obs_->recorder_for(self_.addr)
               : nullptr;
  }

  void on_deliver(const pastry::LookupMsg& m) override {
    driver_.handle_delivery(self_.addr, m);
  }

  bool on_forward(const pastry::LookupMsg& m,
                  const pastry::NodeDescriptor& next) override {
    if (!driver_.on_app_forward) return false;
    return driver_.on_app_forward(self_.addr, m, next);
  }

  void on_activated() override { driver_.handle_activated(self_.addr); }

  void on_marked_faulty(net::Address victim) override {
    // Ground-truth check: marking a live node faulty is a false positive.
    if (driver_.net_.bound(victim)) ++driver_.counters_.false_positives;
  }

  void on_right_neighbour(
      const std::optional<pastry::NodeDescriptor>& right) override {
    driver_.oracle_.node_reports_right(
        self_.id, right ? std::optional<net::Address>(right->addr)
                        : std::nullopt);
  }

 private:
  OverlayDriver& driver_;
  pastry::NodeDescriptor self_;
  std::shared_ptr<bool> alive_;
};

OverlayDriver::OverlayDriver(std::shared_ptr<const net::Topology> topology,
                             net::NetworkConfig net_config,
                             DriverConfig config)
    : topology_(std::move(topology)),
      net_(sim_, topology_, net_config, config.seed ^ 0x9e3779b9ull),
      cfg_(config),
      rng_(config.seed),
      metrics_(config.metrics_window, config.warmup),
      node_arena_(1 << config.pastry.b) {
  net_.set_injection_observer(
      [this](net::FaultKind k) { metrics_.on_fault_injected(k); });
  if (cfg_.obs.enabled) {
    obs_ = std::make_unique<obs::TraceDomain>(cfg_.obs);
    // Wire-level ground truth: when the network loses a traced routed
    // message, note it on the *sender's* ring — the assembler uses it to
    // explain why a hop's kRecv never happened.
    net_.set_drop_observer([this](net::Address from, net::Address to,
                                  const net::PacketPtr& p,
                                  net::DropKind kind) {
      const auto rm = dynamic_pointer_cast<const pastry::RoutedMessage>(p);
      if (rm != nullptr && rm->trace_id != 0) {
        const auto ev = kind == net::DropKind::kAdversary
                            ? obs::EventKind::kAdversaryDrop
                            : obs::EventKind::kNetDrop;
        obs_->recorder_for(from).record(sim_.now(), ev, rm->trace_id, to,
                                        rm->hops, rm->hop_seq);
      }
    });
  }
}

OverlayDriver::~OverlayDriver() {
  // Stop callbacks into nodes before members are torn down.
  for (auto& [a, ln] : nodes_) ln.env->shutdown();
}

pastry::PastryNode* OverlayDriver::node(net::Address a) {
  const auto it = nodes_.find(a);
  return it == nodes_.end() ? nullptr : it->second.node.get();
}

std::vector<net::Address> OverlayDriver::live_addresses() const {
  std::vector<net::Address> out;
  out.reserve(nodes_.size());
  for (const auto& [a, ln] : nodes_) out.push_back(a);
  return out;
}

net::Address OverlayDriver::add_node() {
  const net::Address addr = net_.attach_random(rng_);
  return add_node_at(addr, rng_.node_id());
}

net::Address OverlayDriver::add_node_with_id(NodeId id) {
  return add_node_at(net_.attach_random(rng_), id);
}

net::Address OverlayDriver::add_node_at(net::Address addr, NodeId id) {
  const pastry::NodeDescriptor self{id, addr};

  LiveNode ln;
  ln.env = std::make_unique<NodeEnv>(*this, self);
  ln.node = std::make_unique<pastry::PastryNode>(cfg_.pastry, self, *ln.env,
                                                 counters_);
  ln.join_started = sim_.now();
  pastry::PastryNode* raw = ln.node.get();

  net_.bind(addr, [this, addr](net::Address from,
                               const net::PacketPtr& packet) {
    deliver_packet(addr, from, packet);
  });

  const auto bootstrap = oracle_.random_active(rng_);
  metrics_.on_join_started(sim_.now());
  metrics_.population_change(sim_.now(), +1);
  nodes_.emplace(addr, std::move(ln));
  LOG_INFO(sim_.now(), "driver", "node %d (%s) %s", addr,
           self.id.to_string().c_str(),
           bootstrap ? "joining" : "bootstrapping");
  if (!bootstrap) {
    raw->bootstrap();
  } else {
    raw->join(pastry::NodeDescriptor{bootstrap->first, bootstrap->second});
  }
  return addr;
}

void OverlayDriver::kill_node(net::Address a) {
  const auto it = nodes_.find(a);
  if (it == nodes_.end()) return;
  LOG_INFO(sim_.now(), "driver", "node %d crashed", a);
  it->second.env->shutdown();
  net_.unbind(a);
  oracle_.node_failed(it->second.env->self().id);
  metrics_.population_change(sim_.now(), -1);
  nodes_.erase(it);  // node destroyed; env (declared first) survives it
}

void OverlayDriver::leave_node(net::Address a) {
  const auto it = nodes_.find(a);
  if (it == nodes_.end()) return;
  it->second.node->leave();  // notices are in flight before teardown
  kill_node(a);
}

void OverlayDriver::deliver_packet(net::Address to, net::Address from,
                                   const net::PacketPtr& packet) {
  const auto it = nodes_.find(to);
  if (it == nodes_.end()) return;
  if (auto msg = dynamic_pointer_cast<const pastry::Message>(packet)) {
    it->second.node->handle(from, msg);
    return;
  }
  if (on_app_packet) on_app_packet(to, from, packet);
}

void OverlayDriver::devour_packet(net::Address from, net::Address to,
                                  pastry::MessagePtr msg) {
  // Adversarial traffic loss is attributed, not mistaken for network
  // loss: the lookup id is remembered so an eventual lost verdict can be
  // blamed on the adversary, and the network counts the phantom send
  // toward the packet-accounting identity.
  if (const auto* lm = dynamic_cast<const pastry::LookupMsg*>(msg.get())) {
    metrics_.on_lookup_devoured(lm->lookup_id);
  }
  net_.devour(from, to, std::move(msg));
}

void OverlayDriver::handle_delivery(net::Address self,
                                    const pastry::LookupMsg& m) {
  const auto root = oracle_.root_of(m.key);
  const bool correct = root && *root == self;
  if (!correct) {
    LOG_WARN(sim_.now(), "oracle",
             "incorrect delivery: lookup %llu for %s delivered at node %d, "
             "root is %d",
             (unsigned long long)m.lookup_id, m.key.to_string().c_str(),
             self, root ? *root : -1);
  }
  // Verdict for the obs delivered-at-oracle-root rule: only the traced
  // copy (redundant diverse-path copies carry trace_id 0), so the verdict
  // matches the delivery the assembled causal path will show.
  if (obs_ != nullptr && m.trace_id != 0) {
    lookup_verdicts_.emplace(m.lookup_id, correct);
  }
  SimDuration net_delay = 0;
  if (correct && m.source.addr != self) {
    net_delay = net_.delay(m.source.addr, self);
  }
  const pastry::PastryNode* n = node(self);
  const auto cause = (!correct && n != nullptr && n->is_adversarial())
                         ? Metrics::IncorrectCause::kAdversarialMisroute
                         : Metrics::IncorrectCause::kStaleLeafSet;
  metrics_.on_lookup_delivered(m.lookup_id, sim_.now(), correct, net_delay,
                               cause);
  if (on_app_deliver) on_app_deliver(self, m);
}

void OverlayDriver::handle_activated(net::Address self) {
  const auto it = nodes_.find(self);
  assert(it != nodes_.end());
  oracle_.node_activated(it->second.env->self().id, self);
  LOG_DEBUG(sim_.now(), "driver", "node %d active after %.2fs", self,
            to_seconds(sim_.now() - it->second.join_started));
  metrics_.on_join_completed(sim_.now(),
                             sim_.now() - it->second.join_started);
}

std::uint64_t OverlayDriver::issue_lookup(net::Address from, NodeId key,
                                          std::uint64_t payload,
                                          net::PacketPtr app_data) {
  pastry::PastryNode* n = node(from);
  assert(n != nullptr);
  const std::uint64_t id = next_lookup_id_++;
  metrics_.on_lookup_issued(id, sim_.now(), from, key);
  n->lookup(key, id, payload, cfg_.lookups_want_ack, std::move(app_data));
  return id;
}

void OverlayDriver::send_app_packet(net::Address from, net::Address to,
                                    net::PacketPtr packet) {
  metrics_.on_app_message(sim_.now());
  net_.send(from, to, std::move(packet));
}

void OverlayDriver::start_workload() {
  if (workload_running_ || cfg_.lookup_rate_per_node <= 0.0) return;
  workload_running_ = true;
  schedule_next_workload_lookup();
}

void OverlayDriver::schedule_next_workload_lookup() {
  // The aggregate process over N active nodes is Poisson with rate
  // N * lookup_rate; re-evaluating N at each event tracks churn closely
  // (N changes slowly relative to the event rate).
  const double n = std::max<std::size_t>(1, oracle_.active_count());
  const double rate = n * cfg_.lookup_rate_per_node;
  const SimDuration gap = from_seconds(rng_.exponential(1.0 / rate));
  sim_.schedule_after(gap, [this] {
    if (!workload_running_) return;
    const auto src = oracle_.random_active(rng_);
    if (src && nodes_.count(src->second) > 0) {
      issue_lookup(src->second, rng_.node_id());
    }
    schedule_next_workload_lookup();
  });
}

void OverlayDriver::finish() {
  if (finished_) return;
  finished_ = true;
  workload_running_ = false;
  metrics_.finalize(sim_.now(), cfg_.loss_grace);
}

}  // namespace mspastry::overlay
