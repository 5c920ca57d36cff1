#include "overlay/metrics.hpp"

#include <cassert>
#include <optional>

namespace mspastry::overlay {

Metrics::TrafficWindow& Metrics::window_at(SimTime t) {
  const auto wi = static_cast<std::size_t>(t / window_);
  if (wi >= windows_.size()) windows_.resize(wi + 1);
  return windows_[wi];
}

void Metrics::on_message(SimTime t, pastry::MsgType type) {
  const auto cls = pastry::traffic_class(type);
  TrafficWindow& w = window_at(t);
  w.total += 1.0;
  w.by_class[static_cast<std::size_t>(cls)] += 1.0;
  if (post_warmup(t)) {
    ++all_total_;
    ++class_totals_[static_cast<std::size_t>(cls)];
    if (pastry::is_control(type)) ++control_total_;
  }
}

void Metrics::on_app_message(SimTime t) {
  window_at(t).total += 1.0;
  if (post_warmup(t)) ++all_total_;
}

void Metrics::on_unclassified_control(SimTime t) {
  window_at(t).total += 1.0;
  if (post_warmup(t)) {
    ++all_total_;
    ++control_total_;
  }
}

void Metrics::merge_traffic_from(const Metrics& other) {
  if (other.windows_.size() > windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (std::size_t wi = 0; wi < other.windows_.size(); ++wi) {
    const TrafficWindow& theirs = other.windows_[wi];
    TrafficWindow& mine = windows_[wi];
    for (std::size_t c = 0; c < mine.by_class.size(); ++c) {
      mine.by_class[c] += theirs.by_class[c];
    }
    mine.total += theirs.total;
  }
  for (std::size_t c = 0; c < class_totals_.size(); ++c) {
    class_totals_[c] += other.class_totals_[c];
  }
  control_total_ += other.control_total_;
  all_total_ += other.all_total_;
  for (std::size_t k = 0; k < fault_injections_.size(); ++k) {
    fault_injections_[k] += other.fault_injections_[k];
  }
}

void Metrics::on_lookup_issued(std::uint64_t id, SimTime t, net::Address src,
                               NodeId key) {
  outstanding_.emplace(id, LookupRecord{t, src, key});
  if (post_warmup(t)) ++issued_;
}

void Metrics::on_lookup_delivered(std::uint64_t id, SimTime t, bool correct,
                                  SimDuration net_delay,
                                  IncorrectCause cause) {
  // First-correct-wins: an incorrect delivery parks the lookup in
  // pending_incorrect_; a later correct delivery (a redundant
  // diverse-path copy) upgrades it. Only finalize() turns a pending
  // incorrect into a counted one.
  const auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    if (!correct) return;  // duplicate incorrect: the first verdict holds
    const auto pit = pending_incorrect_.find(id);
    if (pit == pending_incorrect_.end()) return;  // duplicate correct
    const LookupRecord rec = pit->second.rec;
    pending_incorrect_.erase(pit);
    record_correct(rec, t, net_delay);
    return;
  }
  const LookupRecord rec = it->second;
  outstanding_.erase(it);
  if (!correct) {
    pending_incorrect_.emplace(id, PendingIncorrect{rec, cause});
    return;
  }
  record_correct(rec, t, net_delay);
}

void Metrics::record_correct(const LookupRecord& rec, SimTime t,
                             SimDuration net_delay) {
  const bool counted = post_warmup(rec.issued_at);
  if (counted) ++correct_;
  if (net_delay > 0) {
    const double rdp = static_cast<double>(t - rec.issued_at) /
                       static_cast<double>(net_delay);
    if (counted) {
      rdp_.add(rdp);
      rdp_samples_.add(rdp);
      delay_.add(to_seconds(t - rec.issued_at));
    }
    rdp_series_.add(t, rdp);
  }
}

void Metrics::on_lookup_devoured(std::uint64_t id) {
  if (outstanding_.count(id) > 0 || pending_incorrect_.count(id) > 0) {
    devoured_.insert(id);
  }
}

void Metrics::on_join_started(SimTime t) {
  if (post_warmup(t)) ++joins_started_;
}

void Metrics::on_join_completed(SimTime t, SimDuration latency) {
  if (post_warmup(t)) {
    ++joins_completed_;
    join_latency_.add(to_seconds(latency));
  }
}

void Metrics::finalize(SimTime end, SimDuration grace) {
  finalized_at_ = end;
  const SimTime cutoff = end - grace;
  for (const auto& [id, rec] : outstanding_) {
    if (rec.issued_at <= cutoff && post_warmup(rec.issued_at)) {
      ++lost_;
      if (devoured_.count(id) > 0) ++lost_adversarial_;
    }
  }
  // Pending incorrect deliveries never upgraded by a correct copy: they
  // were delivered (wrongly), not lost — no grace applies.
  for (const auto& [id, p] : pending_incorrect_) {
    (void)id;
    if (!post_warmup(p.rec.issued_at)) continue;
    ++incorrect_;
    if (p.cause == IncorrectCause::kAdversarialMisroute) {
      ++incorrect_adversarial_;
    }
  }
}

double Metrics::post_warmup_node_seconds(SimTime end) const {
  double total = 0.0;
  for (const auto& [wi, ns] : node_seconds_.windows(end)) {
    if (wi * window_ >= warmup_) total += ns;
  }
  return total;
}

double Metrics::control_traffic_rate() const {
  const double ns = post_warmup_node_seconds(
      finalized_at_ == kTimeNever ? 0 : finalized_at_);
  return ns > 0 ? static_cast<double>(control_total_) / ns : 0.0;
}

double Metrics::total_traffic_rate() const {
  const double ns = post_warmup_node_seconds(
      finalized_at_ == kTimeNever ? 0 : finalized_at_);
  return ns > 0 ? static_cast<double>(all_total_) / ns : 0.0;
}

double Metrics::control_traffic_rate(pastry::TrafficClass c) const {
  const double ns = post_warmup_node_seconds(
      finalized_at_ == kTimeNever ? 0 : finalized_at_);
  return ns > 0 ? static_cast<double>(
                      class_totals_[static_cast<std::size_t>(c)]) /
                      ns
                : 0.0;
}

template <typename Value>
std::vector<Metrics::SeriesPoint> Metrics::traffic_series(SimTime end,
                                                          Value value) {
  std::vector<SeriesPoint> out;
  const auto& ns = node_seconds_.windows(end);
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const auto wi = static_cast<SimTime>(i);
    const auto nit = ns.find(wi);
    if (nit == ns.end() || nit->second <= 0) continue;
    const std::optional<double> count = value(windows_[i]);
    if (!count) continue;  // no message of this kind in the window
    out.push_back({to_seconds(wi * window_), *count / nit->second});
  }
  return out;
}

std::vector<Metrics::SeriesPoint> Metrics::control_traffic_series(
    SimTime end) {
  return traffic_series(
      end, [](const TrafficWindow& w) -> std::optional<double> {
        if (!w.has_classified()) return std::nullopt;
        double control = 0.0;
        for (std::size_t c = 0; c < w.by_class.size(); ++c) {
          if (static_cast<pastry::TrafficClass>(c) !=
              pastry::TrafficClass::kLookups) {
            control += w.by_class[c];
          }
        }
        return control;
      });
}

std::vector<Metrics::SeriesPoint> Metrics::control_traffic_series(
    pastry::TrafficClass c, SimTime end) {
  return traffic_series(
      end, [c](const TrafficWindow& w) -> std::optional<double> {
        if (!w.has_classified()) return std::nullopt;
        return w.by_class[static_cast<std::size_t>(c)];
      });
}

std::vector<Metrics::SeriesPoint> Metrics::total_traffic_series(SimTime end) {
  return traffic_series(
      end, [](const TrafficWindow& w) -> std::optional<double> {
        if (w.total <= 0.0) return std::nullopt;
        return w.total;
      });
}

std::vector<Metrics::SeriesPoint> Metrics::rdp_series() const {
  std::vector<SeriesPoint> out;
  for (const auto& p : rdp_series_.points()) {
    out.push_back({to_seconds(p.start), p.mean()});
  }
  return out;
}

}  // namespace mspastry::overlay
