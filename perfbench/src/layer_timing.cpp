#include "layer_timing.hpp"

#include <array>
#include <atomic>
#include <thread>

namespace perfbench {

namespace {
std::atomic<std::uint64_t> g_next_registry_serial{1};
}  // namespace

struct ThreadSlot {
  std::thread::id owner;
  std::array<SpanTotals, static_cast<int>(Span::kCount)> spans{};
  SpanRegistry::Scope* innermost = nullptr;
};

namespace {
// Per-thread cache of the slot for the most recently used registry,
// keyed by a never-reused serial (a registry's address can be reused).
thread_local std::uint64_t t_cached_serial = 0;
thread_local ThreadSlot* t_cached_slot = nullptr;
}  // namespace

SpanRegistry::SpanRegistry() : serial_(g_next_registry_serial++) {}

SpanRegistry::~SpanRegistry() = default;

ThreadSlot* SpanRegistry::slot_for_this_thread() {
  if (t_cached_serial == serial_) return t_cached_slot;
  std::lock_guard<std::mutex> lock(mu_);
  const auto me = std::this_thread::get_id();
  ThreadSlot* slot = nullptr;
  for (const auto& s : slots_) {
    if (s->owner == me) slot = s.get();
  }
  if (slot == nullptr) {
    slots_.push_back(std::make_unique<ThreadSlot>());
    slot = slots_.back().get();
    slot->owner = me;
  }
  t_cached_serial = serial_;
  t_cached_slot = slot;
  return slot;
}

std::vector<SpanTotals> SpanRegistry::totals() const {
  std::vector<SpanTotals> out(static_cast<int>(Span::kCount));
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : slots_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].calls += s->spans[i].calls;
      out[i].total_s += s->spans[i].total_s;
      out[i].self_s += s->spans[i].self_s;
    }
  }
  return out;
}

SpanRegistry::Scope::Scope(SpanRegistry& reg, Span s)
    : slot_(reg.slot_for_this_thread()),
      span_(s),
      child_s_(0.0),
      parent_(slot_->innermost),
      start_(std::chrono::steady_clock::now()) {
  slot_->innermost = this;
}

SpanRegistry::Scope::~Scope() {
  const double dur = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  SpanTotals& t = slot_->spans[static_cast<int>(span_)];
  ++t.calls;
  t.total_s += dur;
  t.self_s += dur - child_s_;
  if (parent_ != nullptr) parent_->child_s_ += dur;
  slot_->innermost = parent_;
}

// --- TimedTopology ---------------------------------------------------------

mspastry::SimDuration TimedTopology::delay(int a, int b) const {
  SpanRegistry::Scope s(reg_, Span::kDelay);
  return inner_->delay(a, b);
}

mspastry::SimDuration TimedTopology::min_positive_delay() const {
  SpanRegistry::Scope s(reg_, Span::kMinPositiveDelay);
  return inner_->min_positive_delay();
}

mspastry::SimDuration TimedTopology::min_delay_between(
    std::span<const int> a, std::span<const int> b) const {
  SpanRegistry::Scope s(reg_, Span::kMinDelayBetween);
  return inner_->min_delay_between(a, b);
}

mspastry::net::DelayCacheStats TimedTopology::delay_cache_stats() const {
  SpanRegistry::Scope s(reg_, Span::kDelayCacheStats);
  return inner_->delay_cache_stats();
}

// --- TimedApp --------------------------------------------------------------

void TimedApp::on_run_start(mspastry::overlay::ShardedDriver& driver,
                            std::size_t shards) {
  SpanRegistry::Scope s(reg_, Span::kAppRunStart);
  inner_.on_run_start(driver, shards);
}

double TimedApp::workload_rate(mspastry::SimTime t) const {
  SpanRegistry::Scope s(reg_, Span::kAppWorkloadRate);
  return inner_.workload_rate(t);
}

void TimedApp::workload_tick(
    const mspastry::overlay::ShardedDriver::AppNode& node) {
  SpanRegistry::Scope s(reg_, Span::kAppWorkloadTick);
  inner_.workload_tick(node);
}

void TimedApp::deliver(const mspastry::overlay::ShardedDriver::AppNode& node,
                       const mspastry::pastry::LookupMsg& m) {
  SpanRegistry::Scope s(reg_, Span::kAppDeliver);
  inner_.deliver(node, m);
}

void TimedApp::packet(const mspastry::overlay::ShardedDriver::AppNode& node,
                      mspastry::net::Address from,
                      const mspastry::net::PacketPtr& packet) {
  SpanRegistry::Scope s(reg_, Span::kAppPacket);
  inner_.packet(node, from, packet);
}

}  // namespace perfbench
