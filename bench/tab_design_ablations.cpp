// Ablations of design choices this implementation makes (indexed in
// DESIGN.md), beyond the paper's own ablation table:
//   - PNS on/off: what proximity neighbour selection buys in RDP.
//   - exclude-root-on-ack-timeout vs the consistency-over-latency variant
//     (Section 3.2 sketches both; the paper ships the former).
//   - symmetric distance probes on/off: the "almost halves distance-probe
//     messages" claim of Section 4.2.

#include "bench_util.hpp"

using namespace mspastry;
using namespace mspastry::bench;

namespace {

struct Result {
  RunSummary s;
  double distance_rate;
};

Result run_with(const overlay::DriverConfig& dcfg, double loss,
                std::uint64_t trace_seed, JsonEmitter& out,
                const char* name, const char* params) {
  WallTimer timer;
  overlay::ShardedDriver driver(make_topology(TopologyKind::kGATech),
                                make_net_config(TopologyKind::kGATech, loss),
                                dcfg, 1);
  driver.run_trace(bench_gnutella(trace_seed));
  Result r;
  r.s = summarize(driver, timer.seconds());
  r.distance_rate = driver.metrics().control_traffic_rate(
      pastry::TrafficClass::kDistanceProbes);
  emit_summary_row(out, name, params, r.s)
      .field("distance_rate", r.distance_rate);
  return r;
}

}  // namespace

int main() {
  print_header("Design ablations (DESIGN.md index)");
  JsonEmitter out("tab_design_ablations");

  // --- PNS ------------------------------------------------------------------
  {
    auto on = base_driver_config(1300);
    auto off = base_driver_config(1300);
    off.pastry.pns = false;
    const auto with_pns = run_with(on, 0.0, 61, out, "pns", "pns=on");
    const auto without = run_with(off, 0.0, 61, out, "pns", "pns=off");
    std::printf("\n-- proximity neighbour selection\n");
    std::printf("pns\tRDP\tRDP_p50\tctrl\n");
    std::printf("on\t%.2f\t%.2f\t%.3f\n", with_pns.s.rdp, with_pns.s.rdp_p50,
                with_pns.s.control_traffic);
    std::printf("off\t%.2f\t%.2f\t%.3f\n", without.s.rdp, without.s.rdp_p50,
                without.s.control_traffic);
    print_compare("mean RDP ratio off/on (expect >> 1)", 1.8,
                  with_pns.s.rdp > 0 ? without.s.rdp / with_pns.s.rdp : 0.0,
                  "(ratio)");
  }

  // --- Last-hop ack-timeout policy at 5% loss ---------------------------------
  {
    auto fast = base_driver_config(1301);  // default: exclude root
    auto safe = base_driver_config(1301);
    safe.pastry.exclude_root_on_ack_timeout = false;
    const auto r_fast = run_with(fast, 0.05, 62, out, "ack_timeout_policy",
                                 "policy=exclude-root loss=0.05");
    const auto r_safe = run_with(safe, 0.05, 62, out, "ack_timeout_policy",
                                 "policy=retransmit loss=0.05");
    std::printf("\n-- last-hop ack timeout policy at 5%% network loss\n");
    std::printf("policy\t\tincorrect\tRDP\tloss\n");
    std::printf("exclude-root\t%.3g\t\t%.2f\t%.3g\n", r_fast.s.incorrect_rate,
                r_fast.s.rdp, r_fast.s.loss_rate);
    std::printf("retransmit\t%.3g\t\t%.2f\t%.3g\n", r_safe.s.incorrect_rate,
                r_safe.s.rdp, r_safe.s.loss_rate);
    std::printf("expected: the retransmit (consistency-over-latency) policy "
                "trades fewer misdeliveries for higher delay.\n");
  }

  // --- Symmetric distance probes ------------------------------------------------
  {
    auto on = base_driver_config(1302);
    auto off = base_driver_config(1302);
    off.pastry.symmetric_probes = false;
    const auto sym = run_with(on, 0.0, 63, out, "symmetric_probes",
                              "symmetric=on");
    const auto nosym = run_with(off, 0.0, 63, out, "symmetric_probes",
                                "symmetric=off");
    std::printf("\n-- symmetric distance probing (Section 4.2)\n");
    std::printf("symmetric\tdistance msgs/s/node\ttotal ctrl\n");
    std::printf("on\t\t%.4f\t\t\t%.3f\n", sym.distance_rate,
                sym.s.control_traffic);
    std::printf("off\t\t%.4f\t\t\t%.3f\n", nosym.distance_rate,
                nosym.s.control_traffic);
    print_compare(
        "distance traffic ratio off/on", 1.0,
        sym.distance_rate > 0 ? nosym.distance_rate / sym.distance_rate : 0.0,
        "(ratio)");
    std::printf(
        "note: the paper counts the peer's independent re-measurement as "
        "saved (~2x); in this implementation the report's main benefit is "
        "table quality (the peer adopts the reporter without probing), so "
        "traffic is near parity while adoption improves.\n");
  }
  return 0;
}
