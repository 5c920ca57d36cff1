#pragma once

// Parallel trial fan-out for the figure sweeps. Each sweep point is an
// independent simulation — its own driver, MessagePool, Rng and seed —
// so trials can run on worker threads with no shared mutable
// state beyond a couple of relaxed diagnostic counters
// (callback_heap_fallbacks, small_vec_spills).
//
// Output determinism is the contract: trials never touch stdout or the
// JsonEmitter directly. Each trial writes into its own TrialSink (buffered
// text plus deferred JSON-row closures), and run_sweep flushes the sinks
// strictly in trial-index order after all trials finish. `--jobs N`
// therefore produces byte-identical stdout and BENCH_*.json to `--jobs 1`
// by construction; tests/bench assert this for fig3/fig5/fig6.

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

namespace mspastry::bench {

/// Parse `--jobs N` / `--jobs=N` from argv (default 1 = serial). Other
/// arguments are left for the caller.
inline int parse_jobs(int argc, char** argv) {
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[i + 1]);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::atoi(argv[i] + 7);
    }
  }
  return jobs < 1 ? 1 : jobs;
}

/// Per-trial output buffer. Text goes through printf(); JSON rows are
/// deferred as closures so the shared JsonEmitter is only touched on the
/// main thread, in trial order.
class TrialSink {
 public:
  __attribute__((format(printf, 2, 3))) void printf(const char* fmt, ...) {
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n > 0) {
      const std::size_t old = text_.size();
      text_.resize(old + static_cast<std::size_t>(n) + 1);
      std::vsnprintf(&text_[old], static_cast<std::size_t>(n) + 1, fmt, ap2);
      text_.resize(old + static_cast<std::size_t>(n));
    }
    va_end(ap2);
  }

  /// Defer JSON emission; `fn` runs on the main thread during the ordered
  /// flush. Capture results by value — the trial's locals are gone by then.
  void emit(std::function<void(JsonEmitter&)> fn) {
    rows_.push_back(std::move(fn));
  }

 private:
  friend inline void run_sweep(
      int, std::size_t, JsonEmitter&,
      const std::function<void(std::size_t, TrialSink&)>&);
  std::string text_;
  std::vector<std::function<void(JsonEmitter&)>> rows_;
};

/// Run `trials` sweep points across `jobs` worker threads (an atomic
/// index dispenser; trials are claimed in order but may finish in any),
/// then flush every sink in trial-index order.
inline void run_sweep(
    int jobs, std::size_t trials, JsonEmitter& out,
    const std::function<void(std::size_t, TrialSink&)>& trial) {
  std::vector<TrialSink> sinks(trials);
  if (jobs > static_cast<int>(trials)) jobs = static_cast<int>(trials);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < trials; ++i) trial(i, sinks[i]);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      workers.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < trials;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          trial(i, sinks[i]);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  for (auto& s : sinks) {
    if (!s.text_.empty()) {
      std::fwrite(s.text_.data(), 1, s.text_.size(), stdout);
    }
    for (auto& fn : s.rows_) fn(out);
  }
}

}  // namespace mspastry::bench
