#include "overlay/adversary.hpp"

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

}  // namespace mspastry::overlay
