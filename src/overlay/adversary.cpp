#include "overlay/adversary.hpp"

#include <algorithm>
#include <cstdio>

#include "common/hash_mix.hpp"

namespace mspastry::overlay {

const char* to_string(AdversaryBehavior b) {
  switch (b) {
    case AdversaryBehavior::kDrop:
      return "drop";
    case AdversaryBehavior::kMisroute:
      return "misroute";
    case AdversaryBehavior::kLie:
      return "lie";
  }
  return "?";
}

std::optional<AdversaryBehavior> behavior_from_name(std::string_view name) {
  if (name == "drop") return AdversaryBehavior::kDrop;
  if (name == "misroute") return AdversaryBehavior::kMisroute;
  if (name == "lie") return AdversaryBehavior::kLie;
  return std::nullopt;
}

bool KeyedAdversary::chance(double p) {
  // Mirrors Rng::chance, including the no-draw fast paths, so strike=1.0
  // adversaries consume no sequence numbers on the always-strike gate.
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return hash_to_unit(mix3(seed_, self_, seq_++)) < p;
}

KeyedAdversary::RouteAction KeyedAdversary::on_route(
    const pastry::RoutedMessage&, bool) {
  if (behavior_ == AdversaryBehavior::kLie || !chance(strike_)) {
    return RouteAction::kHonest;
  }
  return behavior_ == AdversaryBehavior::kDrop ? RouteAction::kDrop
                                               : RouteAction::kMisroute;
}

bool KeyedAdversary::corrupt_ls_reply(pastry::LeafVec& leaf,
                                      pastry::FailedVec& failed) {
  if (behavior_ != AdversaryBehavior::kLie || !chance(strike_)) {
    return false;
  }
  // Falsely report live leaf-set members as failed (per-entry coin
  // flips): receivers that trust peer failure claims evict them and end
  // up with stale leaf sets.
  bool changed = false;
  for (std::size_t i = 0; i < leaf.size();) {
    if (chance(0.5)) {
      failed.push_back(leaf[i]);
      leaf.erase(leaf.begin() + static_cast<std::ptrdiff_t>(i));
      changed = true;
    } else {
      ++i;
    }
  }
  return changed;
}

bool KeyedAdversary::corrupt_nn_reply(pastry::CandidateVec& candidates) {
  if (behavior_ != AdversaryBehavior::kLie || !chance(strike_)) {
    return false;
  }
  // Conceal most of the neighbourhood: the probing node discovers fewer
  // honest close nodes, slowing leaf-set repair and biasing its view.
  if (candidates.size() <= 1) return false;
  candidates.resize(1);
  return true;
}

std::vector<net::Address> AdversaryController::corrupt_fraction(
    double fraction) {
  auto addrs = driver_.live_addresses();
  std::sort(addrs.begin(), addrs.end());
  // Deterministic Fisher-Yates from the controller seed, then take the
  // prefix: the corrupted set is reproducible and independent of the
  // unordered-map iteration order behind live_addresses().
  Rng pick(seed_ ^ 0x5bd1e995u);
  for (std::size_t i = addrs.size(); i > 1; --i) {
    std::swap(addrs[i - 1], addrs[pick.uniform_index(i)]);
  }
  const auto n = static_cast<std::size_t>(
      fraction * static_cast<double>(addrs.size()) + 0.5);
  std::vector<net::Address> chosen(addrs.begin(),
                                   addrs.begin() + std::min(n, addrs.size()));
  std::sort(chosen.begin(), chosen.end());
  for (const net::Address a : chosen) corrupt(a);
  return chosen;
}

void AdversaryController::corrupt(net::Address a) {
  pastry::PastryNode* n = driver_.node(a);
  if (n == nullptr || policies_.count(a) > 0) return;
  auto policy =
      std::make_unique<KeyedAdversary>(behavior_, strike_, seed_, a);
  n->set_adversary(policy.get());
  policies_.emplace(a, std::move(policy));
}

std::vector<net::Address> AdversaryController::join_eclipse_cluster(
    NodeId victim, int count, SimDuration join_gap) {
  // Sybil ids alternate clockwise/counter-clockwise at a spacing of
  // 2^104 — astronomically denser than honest spacing (~2^128 / N), so
  // an unchecked victim ends up with sybils for leaf-set neighbours and
  // prefix-matching routes funnel through the cluster.
  std::vector<net::Address> joined;
  joined.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const U128 offset =
        U128{0, static_cast<std::uint64_t>(i / 2 + 1)} << 104;  // k * 2^104
    const U128 id = (i % 2 == 0) ? victim.value() + offset
                                 : victim.value() - offset;
    const net::Address a = driver_.add_node_with_id(NodeId{id});
    // join_gap 0 supports arming from inside a scheduled callback, where
    // re-entering the simulator loop would be unsound.
    if (join_gap > 0) driver_.run_for(join_gap);
    corrupt(a);
    sybils_.push_back(a);
    joined.push_back(a);
  }
  return joined;
}

void AdversaryController::disarm() {
  for (auto& [a, policy] : policies_) {
    (void)policy;
    if (pastry::PastryNode* n = driver_.node(a)) n->set_adversary(nullptr);
  }
  policies_.clear();
}

void AdversaryController::kill_sybils() {
  for (const net::Address a : sybils_) {
    policies_.erase(a);  // node dies with its policy pointer
    driver_.kill_node(a);
  }
  sybils_.clear();
}

std::string AdversaryController::describe() const {
  std::vector<net::Address> addrs;
  addrs.reserve(policies_.size());
  for (const auto& [a, p] : policies_) {
    (void)p;
    addrs.push_back(a);
  }
  std::sort(addrs.begin(), addrs.end());
  char buf[96];
  std::snprintf(buf, sizeof buf, "adversary behavior=%s strike=%.2f nodes=[",
                to_string(behavior_), strike_);
  std::string out = buf;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(addrs[i]);
  }
  out += "] sybils=";
  out += std::to_string(sybils_.size());
  return out;
}

}  // namespace mspastry::overlay
