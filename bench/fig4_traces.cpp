// Figure 4: RDP and control traffic over (normalised) time for the three
// real-world traces, plus the control-traffic breakdown by message type
// for the Gnutella trace. Also checks the headline aggregate: maintenance
// overhead below half a control message per second per node on Gnutella.

#include "bench_util.hpp"

using namespace mspastry;
using namespace mspastry::bench;

namespace {

struct TraceRun {
  std::string name;
  trace::ChurnTrace trace;
  double paper_rdp;
  double paper_ctrl;
};

void run_one(const TraceRun& tr, bool breakdown, JsonEmitter& out) {
  overlay::DriverConfig dcfg = base_driver_config(200);
  WallTimer timer;
  overlay::ShardedDriver driver(make_topology(TopologyKind::kGATech),
                                make_net_config(TopologyKind::kGATech), dcfg,
                                1);
  driver.run_trace(tr.trace);
  emit_summary_row(out, tr.name, "topology=GATech",
                   summarize(driver, timer.seconds()));
  auto& m = driver.metrics();
  std::printf("\n-- %s\n", tr.name.c_str());
  print_compare("mean RDP", tr.paper_rdp, m.mean_rdp());
  print_compare("control traffic (msgs/s/node)", tr.paper_ctrl,
                m.control_traffic_rate());
  print_compare("lookup loss rate", 1.6e-5, m.loss_rate());
  print_compare("incorrect delivery rate", 0.0,
                m.incorrect_delivery_rate());

  const SimTime end = tr.trace.duration();
  const double norm = end > 0 ? 1.0 / to_seconds(end) : 1.0;
  print_series((tr.name + " RDP vs normalised time").c_str(),
               m.rdp_series(), norm);
  print_series((tr.name + " control traffic vs normalised time").c_str(),
               m.control_traffic_series(end), norm);
  if (breakdown) {
    using pastry::TrafficClass;
    const TrafficClass classes[] = {
        TrafficClass::kDistanceProbes, TrafficClass::kLeafSetTraffic,
        TrafficClass::kRtProbes, TrafficClass::kAcksRetransmits,
        TrafficClass::kJoin};
    for (const auto c : classes) {
      print_series((tr.name + " " +
                    std::string(pastry::traffic_class_name(c)) +
                    " (msgs/s/node) vs hours")
                       .c_str(),
                   m.control_traffic_series(c, end), 1.0 / 3600.0);
    }
  }
}

}  // namespace

int main() {
  print_header(
      "Figure 4: RDP and control traffic for the real-world traces");
  const double ns = node_scale();
  const double ts = full_scale() ? 1.0 : 0.05;
  // Paper values read off Figure 4 / Section 5.3: RDP ~1.8 (GATech),
  // control traffic ~0.25 for Gnutella/OverNet and ~3x lower (Microsoft).
  std::vector<TraceRun> runs;
  runs.push_back({"Gnutella",
                  trace::generate_synthetic(trace::gnutella_params(ns, ts)),
                  1.8, 0.245});
  runs.push_back(
      {"OverNet",
       trace::generate_synthetic(
           trace::overnet_params(std::max(0.2, ns * 4), ts)),
       1.8, 0.25});
  runs.push_back(
      {"Microsoft",
       trace::generate_synthetic(trace::microsoft_params(ns / 5, ts / 4)),
       1.6, 0.082});
  JsonEmitter out("fig4");
  bool first = true;
  for (const auto& tr : runs) {
    run_one(tr, first, out);
    first = false;
  }
  return 0;
}
