#include "net/fault_plan.hpp"

#include <algorithm>
#include <cstdio>

#include "common/hash_mix.hpp"

namespace mspastry::net {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kLoss: return "loss";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kDelaySpike: return "delay-spike";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kStall: return "stall";
    case FaultKind::kAdversarialDrop: return "adversarial-drop";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// LinkMatcher
// ---------------------------------------------------------------------------

LinkMatcher LinkMatcher::all() { return LinkMatcher{}; }

LinkMatcher LinkMatcher::one_way(std::vector<Address> src,
                                 std::vector<Address> dst) {
  LinkMatcher m;
  m.kind_ = Kind::kOneWay;
  m.a_.insert(src.begin(), src.end());
  m.b_.insert(dst.begin(), dst.end());
  return m;
}

LinkMatcher LinkMatcher::cross(std::vector<Address> group) {
  LinkMatcher m;
  m.kind_ = Kind::kCross;
  m.a_.insert(group.begin(), group.end());
  return m;
}

LinkMatcher LinkMatcher::endpoint(std::vector<Address> eps) {
  LinkMatcher m;
  m.kind_ = Kind::kEndpoint;
  m.a_.insert(eps.begin(), eps.end());
  return m;
}

bool LinkMatcher::matches(Address from, Address to) const {
  switch (kind_) {
    case Kind::kAll:
      return true;
    case Kind::kOneWay:
      return (a_.empty() || a_.count(from) > 0) &&
             (b_.empty() || b_.count(to) > 0);
    case Kind::kCross:
      return a_.count(from) != a_.count(to);
    case Kind::kEndpoint:
      return a_.count(from) > 0 || a_.count(to) > 0;
  }
  return false;
}

namespace {

std::string set_to_string(const std::unordered_set<Address>& s) {
  std::vector<Address> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  std::string out = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  out += "}";
  return out;
}

}  // namespace

std::string LinkMatcher::describe() const {
  switch (kind_) {
    case Kind::kAll:
      return "all";
    case Kind::kOneWay:
      return "one-way " + set_to_string(a_) + "->" + set_to_string(b_);
    case Kind::kCross:
      return "cross " + set_to_string(a_);
    case Kind::kEndpoint:
      return "endpoint " + set_to_string(a_);
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FaultRule factories
// ---------------------------------------------------------------------------

FaultRule FaultRule::loss(LinkMatcher where, double p, SimTime start,
                          SimTime end) {
  FaultRule r;
  r.kind = FaultKind::kLoss;
  r.where = std::move(where);
  r.probability = p;
  r.start = start;
  r.end = end;
  return r;
}

FaultRule FaultRule::partition(LinkMatcher where, SimTime start, SimTime end) {
  FaultRule r;
  r.kind = FaultKind::kPartition;
  r.where = std::move(where);
  r.start = start;
  r.end = end;
  return r;
}

FaultRule FaultRule::flap(LinkMatcher where, SimDuration period,
                          double duty_up, SimTime start, SimTime end) {
  FaultRule r;
  r.kind = FaultKind::kFlap;
  r.where = std::move(where);
  r.period = period;
  r.duty_up = duty_up;
  r.start = start;
  r.end = end;
  return r;
}

FaultRule FaultRule::delay_spike(LinkMatcher where, SimDuration extra,
                                 SimTime start, SimTime end) {
  FaultRule r;
  r.kind = FaultKind::kDelaySpike;
  r.where = std::move(where);
  r.extra_delay = extra;
  r.start = start;
  r.end = end;
  return r;
}

FaultRule FaultRule::duplicate(LinkMatcher where, double p, SimDuration offset,
                               SimTime start, SimTime end) {
  FaultRule r;
  r.kind = FaultKind::kDuplicate;
  r.where = std::move(where);
  r.probability = p;
  r.dup_offset = offset;
  r.start = start;
  r.end = end;
  return r;
}

FaultRule FaultRule::reorder(LinkMatcher where, double p, SimDuration max_extra,
                             SimTime start, SimTime end) {
  FaultRule r;
  r.kind = FaultKind::kReorder;
  r.where = std::move(where);
  r.probability = p;
  r.extra_delay = max_extra;
  r.start = start;
  r.end = end;
  return r;
}

FaultRule FaultRule::stall(std::vector<Address> endpoints, SimTime start,
                           SimTime end) {
  FaultRule r;
  r.kind = FaultKind::kStall;
  r.where = LinkMatcher::endpoint(std::move(endpoints));
  r.start = start;
  r.end = end;
  return r;
}

std::string FaultRule::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s where=%s window=[%lld,%s) p=%.3g delay=%lldus "
                "dup_off=%lldus period=%lldus duty=%.2f seed=%llu%s%s",
                fault_kind_name(kind), where.describe().c_str(),
                static_cast<long long>(start),
                end == kTimeNever ? "inf" : std::to_string(end).c_str(),
                probability, static_cast<long long>(extra_delay),
                static_cast<long long>(dup_offset),
                static_cast<long long>(period), duty_up,
                static_cast<unsigned long long>(seed),
                label.empty() ? "" : " # ", label.c_str());
  return buf;
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

FaultPlan::RuleId FaultPlan::add(FaultRule rule) {
  const RuleId id = next_id_++;
  const std::uint64_t seed =
      rule.seed != 0 ? rule.seed : seed_ ^ (id * 0x9e3779b97f4a7c15ull);
  rules_.push_back(Slot{id, std::move(rule), seed});
  return id;
}

bool FaultPlan::remove(RuleId id) {
  const auto it = std::find_if(rules_.begin(), rules_.end(),
                               [id](const Slot& s) { return s.id == id; });
  if (it == rules_.end()) return false;
  rules_.erase(it);
  return true;
}

FaultAction FaultPlan::apply(SimTime now, Address from, Address to,
                             std::uint64_t seq) const {
  const auto sender =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(from));
  FaultAction act;
  for (const Slot& s : rules_) {
    const FaultRule& r = s.rule;
    if (now < r.start || now >= r.end) continue;
    if (r.kind == FaultKind::kStall) continue;  // handled via stall_release
    if (!r.where.matches(from, to)) continue;
    // The rule's draw for this packet: a hash of the packet's identity,
    // so no rule's decision depends on any other packet or rule.
    const std::uint64_t h = mix3(s.seed, sender, seq);
    switch (r.kind) {
      case FaultKind::kPartition:
        act.drop = true;
        break;
      case FaultKind::kLoss:
        act.drop = hash_to_unit(h) < r.probability;
        break;
      case FaultKind::kFlap: {
        // Phase-based: up for duty_up * period at the start of each
        // period, down for the rest.
        const SimDuration period = std::max<SimDuration>(1, r.period);
        const SimDuration phase = (now - r.start) % period;
        const auto up_span = static_cast<SimDuration>(
            r.duty_up * static_cast<double>(period));
        act.drop = phase >= up_span;
        break;
      }
      case FaultKind::kDelaySpike:
        act.extra_delay += r.extra_delay;
        act.injected |= fault_bit(FaultKind::kDelaySpike);
        break;
      case FaultKind::kDuplicate:
        if (hash_to_unit(h) < r.probability) {
          act.extra_copies += 1;
          act.dup_offset = std::max<SimDuration>(
              act.dup_offset, std::max<SimDuration>(1, r.dup_offset));
          act.injected |= fault_bit(FaultKind::kDuplicate);
        }
        break;
      case FaultKind::kReorder:
        if (hash_to_unit(h) < r.probability && r.extra_delay > 0) {
          act.extra_delay += static_cast<SimDuration>(
              mix64(h) % static_cast<std::uint64_t>(r.extra_delay) + 1);
          act.injected |= fault_bit(FaultKind::kReorder);
        }
        break;
      case FaultKind::kStall:
        break;
      case FaultKind::kAdversarialDrop:
        break;  // never a plan rule; injected by an adversarial devour
    }
    if (act.drop) {
      // First dropping rule wins. Duplicates, spikes and reorders that
      // earlier rules drew never leave with a dropped packet, so only the
      // dropping kind is reported.
      act.injected = fault_bit(r.kind);
      return act;
    }
  }
  return act;
}

SimTime FaultPlan::stall_release(SimTime now, Address a) const {
  SimTime release = now;
  // Fixed-point over overlapping/chained stall windows covering `release`.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Slot& s : rules_) {
      if (s.rule.kind != FaultKind::kStall) continue;
      if (release < s.rule.start || release >= s.rule.end) continue;
      if (!s.rule.where.matches(a, a)) continue;
      release = s.rule.end;
      changed = true;
    }
  }
  return release;
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const Slot& s : rules_) {
    out += "#" + std::to_string(s.id) + " " + s.rule.describe() + "\n";
  }
  return out;
}

}  // namespace mspastry::net
