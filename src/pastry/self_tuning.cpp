#include "pastry/self_tuning.hpp"

#include <algorithm>
#include <cmath>

namespace mspastry::pastry {

double FailureRateEstimator::estimate(SimTime now,
                                      std::size_t routing_state_size) const {
  if (routing_state_size == 0 || times_.empty()) return 0.0;
  const double m = static_cast<double>(routing_state_size);
  // With k < K observations, compute as if a failure happened right now
  // (Section 4.1), which biases the estimate upward — the safe direction.
  double k = static_cast<double>(times_.size()) - 1.0;
  SimTime last = times_.back();
  if (times_.size() < static_cast<std::size_t>(capacity_) || last < now) {
    k += 1.0;
    last = now;
  }
  if (k <= 0.0) return 0.0;
  // A correlated failure burst can land every recorded time in the same
  // event-loop tick, collapsing the span to zero exactly when probing
  // should be fastest. Clamp to the clock resolution so a burst drives
  // the estimate up (the safe direction) instead of to zero.
  const double span = std::max(to_seconds(last - times_.front()),
                               to_seconds(microseconds(1)));
  return k / (m * span);
}

namespace selftune {

double p_fault(double T_seconds, double mu) {
  const double x = T_seconds * mu;
  if (x <= 0.0) return 0.0;
  if (x < 1e-8) return x / 2.0;  // series expansion, avoids cancellation
  return 1.0 - (1.0 - std::exp(-x)) / x;
}

double expected_hops(double n, int b) {
  if (n < 2.0) return 1.0;
  const double base = static_cast<double>(1 << b);
  const double h = (base - 1.0) / base * (std::log(n) / std::log(base));
  return std::max(1.0, h);
}

double tune_trt(const Config& cfg, double mu, double n) {
  const double t_min = to_seconds(cfg.t_rt_min);
  const double t_max = to_seconds(kTrtMax);
  if (mu <= 0.0) return t_max;  // nothing ever fails: probe rarely

  const double detect = to_seconds(cfg.probe_detect_time());
  const double h = expected_hops(n, cfg.b);
  const double p_ls = p_fault(to_seconds(cfg.t_ls) + detect, mu);
  const double survive_target = 1.0 - cfg.target_raw_loss;
  const double survive_ls = 1.0 - p_ls;
  if (h <= 1.0) {
    // Routes are a single (leaf-set) hop: routing-table probing cannot
    // affect the raw loss rate, so probe as rarely as allowed.
    return t_max;
  }
  if (survive_ls <= survive_target) {
    // The leaf-set hop alone exceeds the loss budget: no Trt can reach
    // the target; probe as fast as allowed (the conservative choice).
    return t_min;
  }
  // Per-routing-hop fault budget.
  const double per_hop =
      1.0 - std::pow(survive_target / survive_ls, 1.0 / (h - 1.0));

  // Pf(Trt + detect, mu) is increasing in Trt: bisect.
  double lo = t_min;
  double hi = t_max;
  if (p_fault(hi + detect, mu) <= per_hop) return t_max;
  if (p_fault(lo + detect, mu) >= per_hop) return t_min;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (p_fault(mid + detect, mu) < per_hop) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace selftune

}  // namespace mspastry::pastry
