#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <thread>

namespace mspastry {
namespace {

/// One turn of a spin-wait loop: tells the core this is a busy-wait, so a
/// sibling hyperthread gets the pipeline and the exit does not pay a
/// memory-order mis-speculation flush.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reusable barrier for a fixed set of threads that spins, then parks.
///
/// An arrival counter and a generation word. The last thread to arrive
/// resets the counter and bumps the generation; the others watch the
/// generation, first by spinning on acquire loads for kSpinNs, then
/// parked in std::atomic::wait. An epoch's parallel phase on a sparse
/// run lasts a few microseconds, less than a futex sleep plus the
/// scheduler's wake-up, so a waiter that spins usually sees the bump
/// without entering the kernel.
///
/// kSpinNs follows from the cost it avoids: a parked crossing costs
/// 4–8 µs of wall time (measured on a 4-vCPU x86 host at 2 and 4
/// threads), so ~10 of them cover a sparse epoch's parallel phase plus
/// the single-threaded step that follows, while a waiter that parks
/// anyway (a long barrier hook, the end of a run) has burned only that
/// much CPU first. The budget is checked against the clock, not counted
/// in pause instructions, whose latency differs ~10x across cores.
///
/// Spinning only pays when every thread has a core. With more threads
/// than hardware threads a spinner can hold the core the last arriver
/// needs, so the barrier parks at once (`spin` false).
class EpochBarrier {
 public:
  EpochBarrier(std::uint32_t threads, bool spin)
      : threads_(threads), spin_(spin) {}

  EpochBarrier(const EpochBarrier&) = delete;
  EpochBarrier& operator=(const EpochBarrier&) = delete;

  void arrive_and_wait() {
    // The generation cannot move before this thread arrives, and this
    // thread last saw its current value, so a relaxed load suffices.
    const std::uint32_t gen = gen_.load(std::memory_order_relaxed);
    // acq_rel: every arrival's release joins the counter's release
    // sequence, so the last arriver acquires all earlier arrivers'
    // writes before it publishes the new generation.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == threads_) {
      arrived_.store(0, std::memory_order_relaxed);
      // Release suffices for the data; seq_cst also keeps the bump ahead
      // of notify_all's own check for parked waiters (a store→load
      // pair), so a waiter that parks just now is never missed.
      gen_.store(gen + 1, std::memory_order_seq_cst);
      gen_.notify_all();
      return;
    }
    if (spin_) {
      const std::int64_t deadline = now_ns() + kSpinNs;
      do {
        for (int i = 0; i < kSpinsPerClockRead; ++i) {
          if (gen_.load(std::memory_order_acquire) != gen) return;
          cpu_relax();
        }
      } while (now_ns() < deadline);
    }
    while (gen_.load(std::memory_order_acquire) == gen) {
      gen_.wait(gen, std::memory_order_acquire);
    }
  }

 private:
  static constexpr std::int64_t kSpinNs = 50'000;
  static constexpr int kSpinsPerClockRead = 64;

  const std::uint32_t threads_;
  const bool spin_;
  // Separate cache lines: arrivals write the counter while spinners read
  // the generation.
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> gen_{0};
};

}  // namespace

/// Persistent worker threads for the parallel phase of dense epochs,
/// started by the first one. The main thread executes shard 0 itself;
/// shards 1..S-1 each get a thread. Every pool epoch crosses the barrier
/// twice: the first crossing releases the workers onto their shard with
/// the bound already published, the second hands control back once every
/// shard is quiescent.
///
/// Between pool epochs the main thread runs every shard inline while the
/// workers wait at the next start crossing. The same crossings order
/// those runs: a worker's run of shard i precedes its arrival at the end
/// crossing, which the main thread leaves before any inline run, and the
/// inline runs precede the main thread's arrival at the next start
/// crossing, which the worker leaves before it runs shard i again.
///
/// `bound`, `stop` and the stamps are plain fields. The main thread
/// writes `bound` and `stop` before it arrives at the first crossing and
/// the workers read them after it; a worker writes its stamp before it
/// arrives at the second crossing and the main thread reads it after.
/// Each crossing orders every arrival before every departure (arrivals
/// release into the counter, the last arriver acquires them and releases
/// the generation, waiters acquire it), so these accesses never race.
struct ShardedSimulator::Pool {
  /// One shard's run_until span in the current epoch; a cache line each,
  /// since every shard writes its own.
  struct alignas(64) Stamp {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  ShardedSimulator& owner;
  EpochBarrier barrier;
  SimTime bound = kTimeZero;
  bool stop = false;
  std::vector<Stamp> stamps;
  // End of the previous epoch when it ran on the pool, else 0 (no serial
  // time to count before this pool epoch).
  std::int64_t prev_last_end_ns = 0;
  std::vector<std::thread> threads;

  explicit Pool(ShardedSimulator& o)
      : owner(o),
        barrier(static_cast<std::uint32_t>(o.sims_.size()),
                o.sims_.size() <= std::thread::hardware_concurrency()),
        stamps(o.sims_.size()) {
    threads.reserve(o.sims_.size() - 1);
    for (std::size_t i = 1; i < o.sims_.size(); ++i) {
      threads.emplace_back([this, i] { worker(i); });
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    stop = true;
    barrier.arrive_and_wait();  // releases workers into the stop branch
    for (auto& t : threads) t.join();
  }

  void run_shard(std::size_t i) {
    Stamp& s = stamps[i];
    s.start_ns = now_ns();
    owner.sims_[i]->run_until(bound);
    s.end_ns = now_ns();
  }

  void worker(std::size_t i) {
    for (;;) {
      barrier.arrive_and_wait();  // epoch start
      if (stop) return;
      run_shard(i);
      barrier.arrive_and_wait();  // epoch end
    }
  }

  void run(SimTime b) {
    bound = b;
    barrier.arrive_and_wait();
    run_shard(0);
    barrier.arrive_and_wait();
    record();
  }

  /// Fold this epoch's stamps into the owner's telemetry (main thread,
  /// every shard quiescent).
  void record() {
    EpochTelemetry& t = owner.telemetry_;
    std::int64_t first_start = stamps[0].start_ns;
    std::int64_t last_end = stamps[0].end_ns;
    for (const Stamp& s : stamps) {
      if (s.start_ns < first_start) first_start = s.start_ns;
      if (s.end_ns > last_end) last_end = s.end_ns;
    }
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      const Stamp& s = stamps[i];
      t.busy_ns[i] += static_cast<std::uint64_t>(s.end_ns - s.start_ns);
      t.wait_ns[i] += static_cast<std::uint64_t>(
          (s.start_ns - first_start) + (last_end - s.end_ns));
    }
    if (prev_last_end_ns != 0) {
      t.serial_ns += static_cast<std::uint64_t>(first_start - prev_last_end_ns);
    }
    prev_last_end_ns = last_end;
  }
};

ShardedSimulator::ShardedSimulator(std::size_t shards, SimDuration lookahead)
    : requested_shards_(shards == 0 ? 1 : shards) {
  std::size_t effective = requested_shards_;
  if (lookahead < 1) {
    // Nothing bounds cross-shard latency: conservative epochs would have
    // zero width. Run everything on one shard; the epoch loop still needs
    // a positive window to chunk time for the barrier hook.
    effective = 1;
    lookahead = kFallbackEpoch;
  }
  lookahead_ = lookahead;
  sims_.reserve(effective);
  for (std::size_t i = 0; i < effective; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  next_.assign(effective, kTimeNever);
  if (effective > 1) {
    telemetry_.busy_ns.assign(effective, 0);
    telemetry_.wait_ns.assign(effective, 0);
  }
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::raise_lookahead(SimDuration lookahead) {
  assert(epochs_ == 0 && "raise_lookahead must precede run_until");
  if (lookahead > lookahead_) lookahead_ = lookahead;
}

std::uint64_t ShardedSimulator::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->executed_events();
  return total;
}

SimTime ShardedSimulator::global_min() {
  SimTime m = kTimeNever;
  for (std::size_t i = 0; i < sims_.size(); ++i) {
    next_[i] = sims_[i]->next_event_time();
    if (next_[i] < m) m = next_[i];
  }
  return m;
}

void ShardedSimulator::parallel_run_until(SimTime bound) {
  if (sims_.size() == 1) {
    sims_[0]->run_until(bound);
    return;
  }
  // A shard with no event by the bound cannot get one during the epoch
  // (cross-shard work arrives only at the barrier), so next_ says which
  // shards have work.
  const auto busy = std::count_if(next_.begin(), next_.end(),
                                  [bound](SimTime t) { return t <= bound; });
  const std::uint64_t events_before = executed_events();
  if (dense_ && busy >= 2) {
    if (!pool_) pool_ = std::make_unique<Pool>(*this);
    pool_->run(bound);
    ++telemetry_.pool_epochs;
  } else {
    for (auto& s : sims_) s->run_until(bound);
    if (pool_) pool_->prev_last_end_ns = 0;
  }
  const std::uint64_t events = executed_events() - events_before;
  ++telemetry_.events_per_epoch_log2[std::bit_width(events)];
  window_events_ += events;
  if ((epochs_ + 1) % kDispatchWindow == 0) {  // epochs_ is this epoch's index
    dense_ = window_events_ >= kDispatchWindow * kDenseEventsPerEpoch;
    window_events_ = 0;
  }
}

void ShardedSimulator::run_until(SimTime until, const BarrierFn& at_barrier) {
  assert(until < kTimeNever);
  for (;;) {
    const SimTime next_min = global_min();
    if (next_min > until) break;  // also covers kTimeNever (empty queues)
    // Epoch end: far enough to cover the lookahead window, but clipped to
    // until + 1 so events at exactly `until` still execute in this call
    // (matching Simulator::run_until semantics).
    SimTime e = until + 1;
    if (lookahead_ < e - next_min) e = next_min + lookahead_;
    epoch_end_ = e;
    parallel_run_until(e - 1);
    if (at_barrier) at_barrier(e);
    ++epochs_;
  }
  // No events remain at or before `until`: advance every clock to it.
  for (auto& s : sims_) s->run_until(until);
}

}  // namespace mspastry
