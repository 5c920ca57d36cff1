#pragma once

// Outside-in layer timing for the traced benchmark run. Two decorators
// wrap the public interfaces a run crosses — net::Topology (the delay
// oracle every hop consults) and overlay::ShardedApp (the application
// upcalls) — forward every virtual call unchanged, and time each call
// into per-thread span accumulators. Spans nest per thread: when an
// upcall reaches Topology::delay() synchronously (AppNode::issue_lookup
// routes the first hop), the delay span is a child of the upcall span,
// so the upcall's self time excludes it.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "overlay/sharded_driver.hpp"

namespace perfbench {

/// The interface calls the decorators time.
enum class Span : int {
  kDelay,
  kMinDelayBetween,
  kMinPositiveDelay,
  kDelayCacheStats,
  kAppRunStart,
  kAppWorkloadRate,
  kAppWorkloadTick,
  kAppDeliver,
  kAppPacket,
  kCount,
};

struct ThreadSlot;

struct SpanTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus time covered by nested spans
};

/// Per-thread span accumulators, summed on demand. A thread registers its
/// slot on its first span; slots live as long as the registry, so reading
/// them after the run's worker threads have been joined is safe.
class SpanRegistry {
 public:
  SpanRegistry();
  ~SpanRegistry();
  SpanRegistry(const SpanRegistry&) = delete;
  SpanRegistry& operator=(const SpanRegistry&) = delete;

  /// Sum over threads. Call only while no thread is inside a span (after
  /// the driver that owns the worker threads is destroyed).
  std::vector<SpanTotals> totals() const;

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(SpanRegistry& reg, Span s);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadSlot* slot_;
    Span span_;
    double child_s_;  ///< nested span time, accumulated by children
    Scope* parent_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  ThreadSlot* slot_for_this_thread();

  const std::uint64_t serial_;  ///< never reused; keys the per-thread cache
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;  // guarded by mu_
};

/// Forwards every net::Topology call to `inner`, timing each one.
class TimedTopology final : public mspastry::net::Topology {
 public:
  TimedTopology(std::shared_ptr<const mspastry::net::Topology> inner,
                SpanRegistry& reg)
      : inner_(std::move(inner)), reg_(reg) {}

  int router_count() const override { return inner_->router_count(); }
  mspastry::SimDuration delay(int a, int b) const override;
  std::string name() const override { return inner_->name(); }
  bool attachable(int router) const override {
    return inner_->attachable(router);
  }
  mspastry::SimDuration min_positive_delay() const override;
  mspastry::SimDuration min_delay_between(
      std::span<const int> a, std::span<const int> b) const override;
  mspastry::net::DelayCacheStats delay_cache_stats() const override;

 private:
  std::shared_ptr<const mspastry::net::Topology> inner_;
  SpanRegistry& reg_;
};

/// Forwards the five ShardedApp hooks to `inner`, timing each one.
class TimedApp final : public mspastry::overlay::ShardedApp {
 public:
  TimedApp(mspastry::overlay::ShardedApp& inner, SpanRegistry& reg)
      : inner_(inner), reg_(reg) {}

  void on_run_start(mspastry::overlay::ShardedDriver& driver,
                    std::size_t shards) override;
  double workload_rate(mspastry::SimTime t) const override;
  void workload_tick(
      const mspastry::overlay::ShardedDriver::AppNode& node) override;
  void deliver(const mspastry::overlay::ShardedDriver::AppNode& node,
               const mspastry::pastry::LookupMsg& m) override;
  void packet(const mspastry::overlay::ShardedDriver::AppNode& node,
              mspastry::net::Address from,
              const mspastry::net::PacketPtr& packet) override;

 private:
  mspastry::overlay::ShardedApp& inner_;
  SpanRegistry& reg_;
};

}  // namespace perfbench
