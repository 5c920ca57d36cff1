#pragma once

#include <algorithm>

#include "common/sim_time.hpp"
#include "pastry/config.hpp"

namespace mspastry::pastry {

/// Per-destination round-trip estimator in the style of TCP [Karn &
/// Partridge / Jacobson]: smoothed RTT plus mean deviation. MSPastry sets
/// retransmission timeouts more aggressively than TCP (no 1-second floor)
/// because a missed per-hop ack is recovered by rerouting to an
/// alternative neighbour, not by a congestion-safe resend to the same one.
/// State is kept in TCP-style scaled fixed point (srtt x8, rttvar x4) so
/// the gain divisions keep their fractional part: updating the unscaled
/// values with `(rtt - srtt) / 8` truncates toward zero, which silently
/// drops sub-granularity decreases and pins srtt up to 7 ticks above a
/// stable true RTT forever.
class RttEstimator {
 public:
  /// Feed one RTT sample.
  void sample(SimDuration rtt) {
    if (!seeded_) {
      srtt8_ = rtt * 8;
      rttvar4_ = rtt * 2;  // rttvar seeds at rtt / 2
      seeded_ = true;
      return;
    }
    SimDuration delta = rtt - (srtt8_ >> 3);
    srtt8_ += delta;  // srtt += (rtt - srtt) / 8, error kept in srtt8_
    if (delta < 0) delta = -delta;
    rttvar4_ += delta - (rttvar4_ >> 2);  // rttvar += (|err| - rttvar) / 4
  }

  bool seeded() const { return seeded_; }
  SimDuration srtt() const { return srtt8_ >> 3; }

  /// Retransmission timeout under the given configuration.
  SimDuration rto(const Config& cfg) const {
    if (!seeded_) return cfg.rto_initial;
    const auto raw =
        (srtt8_ >> 3) + static_cast<SimDuration>(
                            kRtoVarFactor *
                            (static_cast<double>(rttvar4_) / 4.0));
    return std::clamp(raw, kRtoMin, kRtoMax);
  }

 private:
  bool seeded_ = false;
  SimDuration srtt8_ = 0;   // smoothed RTT, scaled by 8
  SimDuration rttvar4_ = 0; // mean deviation, scaled by 4
};

}  // namespace mspastry::pastry
