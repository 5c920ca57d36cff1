#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "sim/simulator.hpp"

namespace mspastry {

/// Conservative parallel discrete-event scheduler (PDES): S independent
/// `Simulator` instances ("shards"), each owning a disjoint set of actors,
/// executed in lock-step *epochs* whose length is bounded by the minimum
/// cross-shard event latency (the lookahead L).
///
/// The classic conservative argument: if every event one shard can cause
/// on another shard lands at least L after the causing event, then all
/// events with t < min_pending + L are causally independent across shards
/// and can run concurrently. Each epoch therefore:
///
///   1. (single-threaded) computes `next_min`, the earliest pending event
///      across all shards, and the epoch end E = min(next_min + L,
///      until + 1);
///   2. (parallel) every shard runs `run_until(E - 1)` on its own thread —
///      all events with t < E, in exact local (t, seq) order;
///   3. (single-threaded, all shards quiescent) calls the caller's
///      barrier hook with E. The caller hands its cross-shard work over
///      here: during phase 2 each shard buffers what it sends elsewhere,
///      and the hook schedules it onto the destination shards (each
///      event has t >= E by the lookahead contract), as
///      ShardedDriver::apply_barrier does with its per-(src, dst) rows.
///
/// Because workers only touch their own shard during phase 2 and all
/// cross-shard hand-off happens in the quiescent phase 3, the only
/// synchronisation is two crossings of one spin-then-park barrier per
/// epoch (an arrival counter and a generation word; see Pool in the .cpp)
/// — no locks, and the event loop itself touches no atomics. A caller
/// whose buffers are written only by the sending shard's worker needs no
/// locks either.
///
/// Phase 2 goes to the worker pool only when it is dense enough to pay
/// for the two crossings: at least two shards have an event before the
/// bound, and the last completed window of kDispatchWindow epochs
/// averaged at least kDenseEventsPerEpoch events. Otherwise the main
/// thread runs every shard's run_until(E - 1) itself, in index order.
/// Either way each shard executes the same events in the same order, so
/// the choice cannot change a result; it reads event counts, never a
/// clock, so it is also deterministic.
///
/// Determinism contract: epoch boundaries depend only on the global
/// minimum pending time and L, both of which are independent of the shard
/// count, so a caller whose per-shard behaviour is shard-assignment-
/// invariant (per-actor RNG streams, shard-count-independent tie-breaks)
/// produces byte-identical results for any S — including S = 1, which
/// runs the same epoch loop inline with no threads.
class ShardedSimulator {
 public:
  /// Called at the end of every epoch (all shards quiescent) with the
  /// epoch end E: every event with t < E has executed on every shard;
  /// nothing at t >= E has. Cross-shard work is scheduled from here.
  using BarrierFn = std::function<void(SimTime epoch_end)>;

  /// `lookahead` is the minimum cross-shard latency in simulated time: an
  /// event executing at time t may cause work on another shard no
  /// earlier than t + lookahead. A lookahead < 1 cannot order anything
  /// (same-time cross-shard events would be unordered), so the engine
  /// falls back to a single shard and uses kFallbackEpoch to chunk time.
  ShardedSimulator(std::size_t shards, SimDuration lookahead);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Epoch length used when the requested lookahead was < 1 and the
  /// engine fell back to one shard (any positive value is correct with a
  /// single shard; this just sets the barrier-hook cadence).
  static constexpr SimDuration kFallbackEpoch = SimDuration{16384};

  /// The dispatch rule's window, in epochs, and the mean events per epoch
  /// over the last completed window from which epochs go to the pool.
  /// An epoch of a few events runs for a few microseconds, about as long
  /// as the two barrier crossings it would cost (~1–1.5 µs each on a
  /// 4-vCPU x86 host) plus the CPU the waiting workers spin; DESIGN.md
  /// "Sparse epochs run on the main thread" has the measurements behind 16.
  static constexpr std::uint64_t kDispatchWindow = 64;
  static constexpr std::uint64_t kDenseEventsPerEpoch = 16;

  /// Number of shards actually running (1 when the lookahead forced the
  /// single-shard fallback).
  std::size_t shards() const { return sims_.size(); }
  /// Number of shards originally asked for.
  std::size_t requested_shards() const { return requested_shards_; }
  SimDuration lookahead() const { return lookahead_; }

  /// Widen the lookahead before the run starts (increase-only; shrinking
  /// would re-ask the caller for a safety proof it already gave). The
  /// caller asserts that every cross-shard event latency is at least
  /// `lookahead` — e.g. a per-shard-pair bound from
  /// Topology::min_delay_between over the actual partition, instead of
  /// the global min-link bound the engine was constructed with. Must be
  /// called before run_until; epoch boundaries derived from the wider
  /// window are NOT shard-count-invariant (the partition isn't).
  void raise_lookahead(SimDuration lookahead);

  Simulator& shard(std::size_t i) { return *sims_[i]; }
  const Simulator& shard(std::size_t i) const { return *sims_[i]; }

  /// Total events executed across all shards.
  std::uint64_t executed_events() const;
  /// Epochs completed so far (each = one parallel phase + one barrier).
  std::uint64_t epochs() const { return epochs_; }

  /// Where a multi-shard run's wall time went, derived from two
  /// steady_clock reads per shard per pool epoch (around its run_until).
  /// Epochs run inline on the main thread take no clock reads, so the
  /// three timings cover pool epochs only; the histogram and pool_epochs
  /// cover every epoch. A single-shard run has no pool and leaves
  /// everything empty.
  struct EpochTelemetry {
    /// Epochs whose parallel phase ran on the worker pool.
    std::uint64_t pool_epochs = 0;
    /// Per shard: nanoseconds spent inside the epoch's run_until.
    std::vector<std::uint64_t> busy_ns;
    /// Per shard: nanoseconds held at the two barrier crossings while
    /// another shard was already running — the idle tail of an epoch
    /// until the slowest shard finished, plus the lag behind the first
    /// shard released into the next epoch (wake-up latency).
    std::vector<std::uint64_t> wait_ns;
    /// Nanoseconds from the last shard finishing one pool epoch to the
    /// first shard starting the next, when that one also runs on the
    /// pool: the single-threaded phase (barrier hook, next minimum) plus
    /// the barrier hand-off.
    std::uint64_t serial_ns = 0;
    /// events_per_epoch_log2[b] counts epochs whose executed-event count
    /// n has std::bit_width(n) == b: b = 0 is an empty epoch, b = 1 one
    /// event, b = 2 two or three, b = 3 four to seven, ...
    std::array<std::uint64_t, 65> events_per_epoch_log2{};
  };
  const EpochTelemetry& epoch_telemetry() const { return telemetry_; }

  /// End of the epoch currently executing (valid during the parallel
  /// phase and the barrier hook): every event handed to another shard
  /// must satisfy t >= epoch_end().
  SimTime epoch_end() const { return epoch_end_; }

  /// Run all shards up to and including `until` (same contract as
  /// Simulator::run_until: events at exactly `until` execute; every
  /// shard's clock ends at >= until). `at_barrier` may be empty.
  void run_until(SimTime until, const BarrierFn& at_barrier = {});

 private:
  /// Earliest pending event across all shards (single-threaded); keeps
  /// each shard's next event time in next_.
  SimTime global_min();
  /// One epoch's parallel phase: every shard runs run_until(bound), on
  /// the worker pool or inline (see the class comment).
  void parallel_run_until(SimTime bound);

  std::size_t requested_shards_;
  SimDuration lookahead_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<SimTime> next_;  // per shard, as of the last global_min()

  SimTime epoch_end_ = kTimeZero;
  std::uint64_t epochs_ = 0;

  // The dispatch rule's state: events so far in the current window of
  // kDispatchWindow epochs, and whether the last completed one was dense.
  std::uint64_t window_events_ = 0;
  bool dense_ = false;

  EpochTelemetry telemetry_;

  struct Pool;  // worker threads + barrier (multi-shard runs only)
  std::unique_ptr<Pool> pool_;
};

}  // namespace mspastry
