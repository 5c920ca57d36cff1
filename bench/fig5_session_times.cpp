// Figure 5: RDP and control traffic for artificial Poisson traces with
// exponential session times of {5, 15, 30, 60, 120, 600} minutes (the
// paper's overlay has 10,000 nodes), plus the join-latency CDFs for the
// 5-minute and 30-minute traces.
//
// Supports `--jobs N`: each session-time point is an independent
// simulation (own driver, network, pool, seed), fanned out across worker
// threads by sweep_runner.hpp; output is byte-identical to the serial
// run (timing fields in the JSON aside, which vary run to run anyway).

#include "bench_util.hpp"
#include "sweep_runner.hpp"

using namespace mspastry;
using namespace mspastry::bench;

int main(int argc, char** argv) {
  print_header("Figure 5: Poisson traces with varying session times");
  JsonEmitter out("fig5");
  const int population =
      full_scale() ? 10000 : 300;
  const SimDuration duration = full_scale() ? hours(10) : minutes(80);

  // Paper values read off Figure 5 (left/center).
  const double session_minutes[] = {5, 15, 30, 60, 120, 600};
  const double paper_rdp[] = {4.2, 2.4, 2.2, 2.0, 1.9, 1.7};
  const double paper_ctrl[] = {2.5, 3.5, 2.0, 1.1, 0.65, 0.16};

  std::printf(
      "\nsession_min\tRDP\tpaper_RDP\tctrl(msgs/s/node)\tpaper_ctrl\t"
      "join_p50_s\tjoin_p95_s\tloss\tincorrect\n");
  run_sweep(
      parse_jobs(argc, argv), std::size(session_minutes), out,
      [&](std::size_t i, TrialSink& sink) {
        const double s_min = session_minutes[i];
        auto dcfg = base_driver_config(300 + static_cast<std::uint64_t>(i));
        dcfg.warmup = std::min<SimDuration>(duration / 4, minutes(20));
        const auto trace = trace::generate_poisson(
            duration, s_min * 60.0, population, 500 + i, "poisson");
        WallTimer timer;
        overlay::ShardedDriver driver(make_topology(TopologyKind::kGATech),
                                      make_net_config(TopologyKind::kGATech),
                                      dcfg, 1);
        driver.run_trace(trace);
        const auto summary = summarize(driver, timer.seconds());
        sink.emit([summary, s_min](JsonEmitter& o) {
          emit_summary_row(o, "session_sweep",
                           "session_min=" + std::to_string(s_min), summary)
              .field("session_min", s_min)
              .field("join_latency_p50", summary.join_latency_p50)
              .field("join_latency_p95", summary.join_latency_p95);
        });
        auto& m = driver.metrics();
        sink.printf("%.0f\t%.2f\t%.2f\t%.3f\t%.3f\t%.1f\t%.1f\t%.2g\t%.2g\n",
                    s_min, m.mean_rdp(), paper_rdp[i],
                    m.control_traffic_rate(), paper_ctrl[i],
                    m.join_latency_samples().quantile(0.5),
                    m.join_latency_samples().quantile(0.95), m.loss_rate(),
                    m.incorrect_delivery_rate());
        // Join-latency CDF for the two session times the paper plots.
        if (s_min == 5 || s_min == 30) {
          sink.printf("# series: join latency CDF, %.0f-minute sessions "
                      "(seconds\tfraction)\n",
                      s_min);
          for (const auto& [x, f] : m.join_latency_samples().cdf_points(20)) {
            sink.printf("%.3g\t%.3g\n", x, f);
          }
        }
      });
  std::printf(
      "\npaper shape: control traffic rises steeply as sessions shorten "
      "(22x from 600 to 15 min); RDP is flat for sessions >= 60 min and "
      "rises sharply at 5 min; joins complete within tens of seconds.\n");
  return 0;
}
