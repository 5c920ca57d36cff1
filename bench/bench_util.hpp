#pragma once

// Shared harness for the paper-reproduction benches. Each bench binary
// regenerates one table or figure from the paper's evaluation (Section 5):
// it builds the environment (topology + churn trace + workload), runs the
// overlay simulation, and prints the series/rows the paper reports,
// together with the paper's own numbers where it states them.
//
// Scale: by default runs are scaled down so the full bench suite finishes
// in minutes. Set REPRO_FULL=1 for paper-scale runs (hours).

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "net/corpnet.hpp"
#include "net/hier_as.hpp"
#include "net/transit_stub.hpp"
#include "overlay/sharded_driver.hpp"
#include "trace/churn_generators.hpp"

namespace mspastry::bench {

inline bool full_scale() {
  const char* v = std::getenv("REPRO_FULL");
  return v != nullptr && v[0] == '1';
}

/// Node-count scale factor relative to the paper (1.0 = paper scale).
inline double node_scale() { return full_scale() ? 1.0 : 0.1; }

/// Trace-length scale factor relative to the paper.
inline double time_scale() { return full_scale() ? 1.0 : 0.033; }

// --- Timing, memory, and checksum helpers ----------------------------------

/// Wall-clock stopwatch (starts on construction).
class WallTimer {
 public:
  double seconds() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Peak resident set size of this process, in bytes (0 if unavailable).
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// FNV-1a accumulation over fixed-width values; used for the determinism
/// checksums recorded in BENCH_*.json (same seed + same code must give
/// the same digest, across event-core rewrites).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

inline std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t hash_f64(std::uint64_t h, double v) {
  // Hash the bit pattern; normalise -0.0 so it digests like 0.0.
  if (v == 0.0) v = 0.0;
  return hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

// --- Shared JSON emitter ----------------------------------------------------
//
// Every bench binary can append machine-readable rows next to its table
// output: JsonEmitter writes BENCH_<bench>.json in the working directory
// (an array of row objects under a tiny header). CI uploads these as the
// per-PR perf trajectory; EXPERIMENTS.md explains how to compare runs.

class JsonEmitter {
 public:
  class Row {
   public:
    Row& field(const char* key, const std::string& v) {
      append_key(key);
      body_ += '"';
      for (const char c : v) {
        if (c == '"' || c == '\\') {
          body_ += '\\';
          body_ += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          body_ += buf;
        } else {
          body_ += c;
        }
      }
      body_ += '"';
      return *this;
    }
    Row& field(const char* key, const char* v) {
      return field(key, std::string(v));
    }
    Row& field(const char* key, double v) {
      append_key(key);
      if (std::isfinite(v)) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        body_ += buf;
      } else {
        body_ += "null";
      }
      return *this;
    }
    Row& field(const char* key, std::uint64_t v) {
      append_key(key);
      body_ += std::to_string(v);
      return *this;
    }
    Row& field(const char* key, std::int64_t v) {
      append_key(key);
      body_ += std::to_string(v);
      return *this;
    }
    Row& field(const char* key, int v) {
      return field(key, static_cast<std::int64_t>(v));
    }
    Row& field(const char* key, bool v) {
      append_key(key);
      body_ += v ? "true" : "false";
      return *this;
    }
    Row& field(const char* key, const std::vector<std::uint64_t>& v) {
      append_key(key);
      body_ += '[';
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) body_ += ", ";
        body_ += std::to_string(v[i]);
      }
      body_ += ']';
      return *this;
    }
    /// Checksums are emitted as fixed-width hex strings so diffs of two
    /// BENCH files line up visually.
    Row& hex(const char* key, std::uint64_t v) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(v));
      return field(key, buf);
    }

   private:
    friend class JsonEmitter;
    void append_key(const char* key) {
      if (!body_.empty()) body_ += ", ";
      body_ += '"';
      body_ += key;
      body_ += "\": ";
    }
    std::string body_;
  };

  explicit JsonEmitter(std::string bench) : bench_(std::move(bench)) {}

  /// Write to an explicit path instead of BENCH_<bench>.json (tools such
  /// as trace_explorer reuse the emitter outside the bench harness).
  JsonEmitter(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

  ~JsonEmitter() { write(); }

  JsonEmitter(const JsonEmitter&) = delete;
  JsonEmitter& operator=(const JsonEmitter&) = delete;

  /// Start a new row; fields can be chained onto the returned reference
  /// (stable until write()).
  Row& row(const std::string& name) {
    rows_.emplace_back();
    rows_.back().field("name", name);
    return rows_.back();
  }

  /// Write BENCH_<bench>.json; called automatically on destruction.
  void write() {
    if (written_) return;
    written_ = true;
    const std::string path =
        path_.empty() ? "BENCH_" + bench_ + ".json" : path_;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"schema\": 1,\n  \"bench\": \"%s\",\n",
                 bench_.c_str());
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {%s}%s\n", rows_[i].body_.c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  std::string bench_;
  std::string path_;  // empty: derive BENCH_<bench>.json
  std::deque<Row> rows_;
  bool written_ = false;
};

// --- Host block --------------------------------------------------------------
//
// Where a BENCH file was recorded: timings from different hosts or build
// types do not compare. MSPASTRY_BUILD_TYPE and MSPASTRY_GIT_SHA are set
// per target by bench/CMakeLists.txt; elsewhere they read "unknown".

struct HostInfo {
  unsigned cores = 0;  ///< std::thread::hardware_concurrency()
  std::string build_type;
  std::string compiler;
  std::string git_sha;  ///< source revision when the build was configured
};

inline HostInfo host_info() {
  HostInfo h;
  h.cores = std::thread::hardware_concurrency();
#ifdef MSPASTRY_BUILD_TYPE
  h.build_type = MSPASTRY_BUILD_TYPE;
#endif
  if (h.build_type.empty()) h.build_type = "unknown";
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
#ifdef MSPASTRY_GIT_SHA
  h.git_sha = MSPASTRY_GIT_SHA;
#else
  h.git_sha = "unknown";
#endif
  return h;
}

/// Print the host block and record it as a "host" row.
inline void emit_host(JsonEmitter& out, const HostInfo& h) {
  std::printf("host: cores=%u build=%s compiler=%s git=%s\n", h.cores,
              h.build_type.c_str(), h.compiler.c_str(), h.git_sha.c_str());
  out.row("host")
      .field("cores", static_cast<std::uint64_t>(h.cores))
      .field("build_type", h.build_type)
      .field("compiler", h.compiler)
      .field("git_sha", h.git_sha);
}

enum class TopologyKind { kGATech, kMercator, kCorpNet };

inline std::shared_ptr<net::Topology> make_topology(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kGATech:
      return std::make_shared<net::TransitStubTopology>(
          full_scale() ? net::TransitStubParams{}
                       : net::TransitStubParams::scaled(6, 4, 5));
    case TopologyKind::kMercator: {
      net::HierASParams p;
      if (!full_scale()) {
        p.autonomous_systems = 80;
        p.routers_per_as = 15;
      }
      return std::make_shared<net::HierASTopology>(p);
    }
    case TopologyKind::kCorpNet:
      return std::make_shared<net::CorpNetTopology>(net::CorpNetParams{});
  }
  return nullptr;
}

inline net::NetworkConfig make_net_config(TopologyKind kind,
                                          double loss_rate = 0.0) {
  net::NetworkConfig cfg;
  cfg.loss_rate = loss_rate;
  // The paper attaches GATech/CorpNet end nodes via 1 ms LAN links and
  // Mercator end nodes directly.
  cfg.lan_delay = kind == TopologyKind::kMercator ? 0 : milliseconds(1);
  return cfg;
}

/// The paper's base configuration (Section 5.1).
inline overlay::DriverConfig base_driver_config(std::uint64_t seed = 7) {
  overlay::DriverConfig cfg;
  cfg.lookup_rate_per_node = 0.01;
  cfg.metrics_window = minutes(10);
  cfg.warmup = full_scale() ? hours(1) : minutes(10);
  cfg.seed = seed;
  return cfg;
}

struct RunSummary {
  double rdp = 0.0;
  double rdp_p50 = 0.0;
  double control_traffic = 0.0;
  double loss_rate = 0.0;
  double incorrect_rate = 0.0;
  std::uint64_t lookups = 0;
  double join_latency_p50 = 0.0;
  double join_latency_p95 = 0.0;
  pastry::Counters counters;

  // Performance accounting (filled by run_experiment).
  double wall_seconds = 0.0;
  std::uint64_t executed_events = 0;  ///< simulator events in the run
  double events_per_sec = 0.0;        ///< executed_events / wall_seconds
  std::uint64_t digest = 0;           ///< determinism checksum, see below
};

/// Determinism checksum over everything the run *computed* (not how fast
/// it computed it): executed-event count plus a digest of the headline
/// metrics and protocol counters. Two builds of the same (seed, config)
/// must produce identical digests — this is how event-core rewrites prove
/// they preserved behaviour.
inline std::uint64_t summary_digest(const RunSummary& s) {
  std::uint64_t h = kFnvOffset;
  h = hash_u64(h, s.executed_events);
  h = hash_f64(h, s.rdp);
  h = hash_f64(h, s.rdp_p50);
  h = hash_f64(h, s.control_traffic);
  h = hash_f64(h, s.loss_rate);
  h = hash_f64(h, s.incorrect_rate);
  h = hash_u64(h, s.lookups);
  h = hash_f64(h, s.join_latency_p50);
  h = hash_f64(h, s.join_latency_p95);
  h = hash_u64(h, s.counters.heartbeats_sent);
  h = hash_u64(h, s.counters.rt_probes_sent);
  h = hash_u64(h, s.counters.ls_probes_sent);
  h = hash_u64(h, s.counters.distance_probes_sent);
  h = hash_u64(h, s.counters.acks_sent);
  h = hash_u64(h, s.counters.ack_timeouts);
  h = hash_u64(h, s.counters.lookups_forwarded);
  h = hash_u64(h, s.counters.joins_completed);
  h = hash_u64(h, s.counters.nodes_marked_faulty);
  return h;
}

/// Summarise a driver that has already run (for benches that construct
/// their own ShardedDriver, e.g. to attach apps or read series). The
/// digest does not depend on the shard count, so 1-shard and N-shard
/// rows can be compared one to one.
inline RunSummary summarize(overlay::ShardedDriver& driver,
                            double wall_seconds) {
  RunSummary s;
  s.wall_seconds = wall_seconds;
  s.executed_events = driver.executed_events();
  s.events_per_sec =
      s.wall_seconds > 0 ? s.executed_events / s.wall_seconds : 0.0;
  auto& m = driver.metrics();
  s.rdp = m.mean_rdp();
  s.rdp_p50 = m.rdp_samples().quantile(0.5);
  s.control_traffic = m.control_traffic_rate();
  s.loss_rate = m.loss_rate();
  s.incorrect_rate = m.incorrect_delivery_rate();
  s.lookups = m.lookups_issued();
  s.join_latency_p50 = m.join_latency_samples().quantile(0.5);
  s.join_latency_p95 = m.join_latency_samples().quantile(0.95);
  s.counters = driver.counters();
  s.digest = summary_digest(s);
  return s;
}

/// Run one trace-driven experiment on the keyed engine at one shard and
/// summarise.
inline RunSummary run_experiment(TopologyKind kind,
                                 const overlay::DriverConfig& dcfg,
                                 const trace::ChurnTrace& trace,
                                 double loss_rate = 0.0) {
  WallTimer timer;
  overlay::ShardedDriver driver(make_topology(kind),
                                make_net_config(kind, loss_rate), dcfg, 1);
  driver.run_trace(trace);
  return summarize(driver, timer.seconds());
}

/// Append the standard row shape shared by all trace-driven benches:
/// identification, wall-clock, throughput, checksum, headline metrics.
inline JsonEmitter::Row& emit_summary_row(JsonEmitter& out,
                                          const std::string& name,
                                          const std::string& params,
                                          const RunSummary& s) {
  return out.row(name)
      .field("params", params)
      .field("wall_seconds", s.wall_seconds)
      .field("executed_events", s.executed_events)
      .field("events_per_sec", s.events_per_sec)
      .hex("digest", s.digest)
      .field("rdp", s.rdp)
      .field("control_traffic", s.control_traffic)
      .field("loss_rate", s.loss_rate)
      .field("incorrect_rate", s.incorrect_rate)
      .field("lookups", s.lookups);
}

/// A multi-shard run's epoch telemetry as row fields: per-shard busy and
/// barrier-wait time and the single-threaded time between pool epochs
/// (µs, pool epochs only), the events-per-epoch histogram up to its last
/// non-empty bucket, and how many epochs ran on the worker pool.
inline JsonEmitter::Row& emit_epoch_telemetry(
    JsonEmitter::Row& row, const ShardedSimulator::EpochTelemetry& t) {
  const auto to_us = [](const std::vector<std::uint64_t>& ns) {
    std::vector<std::uint64_t> us;
    for (const std::uint64_t v : ns) us.push_back(v / 1000);
    return us;
  };
  std::size_t n = t.events_per_epoch_log2.size();
  while (n > 0 && t.events_per_epoch_log2[n - 1] == 0) --n;
  return row.field("busy_us", to_us(t.busy_ns))
      .field("barrier_wait_us", to_us(t.wait_ns))
      .field("serial_us", t.serial_ns / 1000)
      .field("events_per_epoch_log2",
             std::vector<std::uint64_t>(
                 t.events_per_epoch_log2.begin(),
                 t.events_per_epoch_log2.begin() +
                     static_cast<std::ptrdiff_t>(n)))
      .field("pool_epochs", t.pool_epochs);
}

/// The same telemetry as two indented lines of text.
inline void print_epoch_telemetry(const ShardedSimulator::EpochTelemetry& t) {
  std::printf("    pool epochs: %llu  busy ms:",
              static_cast<unsigned long long>(t.pool_epochs));
  for (const std::uint64_t v : t.busy_ns) std::printf(" %.1f", v / 1e6);
  std::printf("  barrier-wait ms:");
  for (const std::uint64_t v : t.wait_ns) std::printf(" %.1f", v / 1e6);
  std::printf("  serial ms: %.1f\n", t.serial_ns / 1e6);
  std::printf("    events/epoch log2 histogram:");
  for (std::size_t b = 0; b < t.events_per_epoch_log2.size(); ++b) {
    if (t.events_per_epoch_log2[b] == 0) continue;
    const std::uint64_t lo = b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    std::printf(" [%llu+]=%llu", static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(t.events_per_epoch_log2[b]));
  }
  std::printf("\n");
}

/// Gnutella-like churn scaled for bench runs.
inline trace::ChurnTrace bench_gnutella(std::uint64_t seed = 11) {
  return trace::generate_synthetic(
      trace::gnutella_params(node_scale(), std::max(0.02, time_scale()),
                             seed));
}

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
  std::printf("mode: %s scale (set REPRO_FULL=1 for paper scale)\n",
              full_scale() ? "PAPER" : "reduced");
}

/// One "paper says X, we measured Y" comparison row.
inline void print_compare(const char* what, double paper, double measured,
                          const char* unit = "") {
  std::printf("  %-44s paper=%-10.4g measured=%-10.4g %s\n", what, paper,
              measured, unit);
}

inline void print_series(const char* name,
                         const std::vector<overlay::Metrics::SeriesPoint>& s,
                         double x_scale = 1.0) {
  std::printf("# series: %s (x\ty)\n", name);
  for (const auto& p : s) {
    std::printf("%.6g\t%.6g\n", p.t_seconds * x_scale, p.value);
  }
}

}  // namespace mspastry::bench
