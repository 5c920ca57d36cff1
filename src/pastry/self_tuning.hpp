#pragma once

#include <cstddef>
#include <deque>

#include "common/sim_time.hpp"
#include "pastry/config.hpp"

namespace mspastry::pastry {

/// Estimator of the node failure rate mu (failures per node per second),
/// Section 4.1: a node with M unique nodes in its routing state that
/// observes failures at rate mu should see K failures in time K/(M*mu).
/// Each node remembers the times of the last K failures it observed; a
/// node inserts its own join time into the history when it joins, and if
/// only k < K failures have been seen the estimate is computed as if one
/// more failure happened right now.
class FailureRateEstimator {
 public:
  explicit FailureRateEstimator(int history) : capacity_(history) {}

  /// Record that the node joined (seeds the history with the join time).
  void record_join(SimTime now) { push(now); }

  /// Record an observed failure of a routing-state member.
  void record_failure(SimTime now) { push(now); }

  /// Estimate mu given the current routing-state size M and current time.
  double estimate(SimTime now, std::size_t routing_state_size) const;

  std::size_t observed_failures() const { return times_.size(); }

 private:
  void push(SimTime t) {
    times_.push_back(t);
    while (times_.size() > static_cast<std::size_t>(capacity_)) {
      times_.pop_front();
    }
  }

  int capacity_;
  std::deque<SimTime> times_;
};

/// The self-tuning math of Section 4.1.
///
/// The probability of forwarding to a faulty node at a hop whose failure
/// detector needs at most T seconds to notice a fault is
///   Pf(T, mu) = 1 - (1 - e^{-T mu}) / (T mu)
/// and with h = (2^b - 1)/2^b * log_{2^b} N expected hops (last hop via
/// the leaf set, the rest via the routing table) the raw loss rate is
///   Lr = 1 - (1 - Pf(Tls + (r+1)To, mu)) * (1 - Pf(Trt + (r+1)To, mu))^(h-1).
/// tune_trt inverts this: it returns the largest Trt that keeps the raw
/// loss rate at or below the target.
namespace selftune {

/// Pf(T, mu): probability a node that failed at a uniform time within the
/// detection window is still undetected when a message is forwarded to it.
double p_fault(double T_seconds, double mu);

/// Expected overlay route hops for an overlay of size N with parameter b.
double expected_hops(double n, int b);

/// Solve for Trt (seconds). Returns a value clamped to [cfg.t_rt_min,
/// kTrtMax]. `mu` is failures/node/second, `n` the estimated overlay
/// size.
double tune_trt(const Config& cfg, double mu, double n);

}  // namespace selftune

}  // namespace mspastry::pastry
