#include "pastry/leaf_set.hpp"

#include <algorithm>
#include <cassert>

namespace mspastry::pastry {

LeafSet::LeafSet(NodeId self, int l) : self_(self), l_(l) {
  assert(l >= 2 && l % 2 == 0);
}

bool LeafSet::add(const NodeDescriptor& d) {
  assert(d.valid());
  if (d.id == self_) return false;
  // Find insertion point in clockwise order.
  const int p = rank(cw_from_self(d.id));
  const auto pos = members_.begin() + p;
  if (pos != members_.end() && pos->id == d.id) {
    if (pos->addr == d.addr) return false;  // already known
    pos->addr = d.addr;  // same id re-announced from a new endpoint
    return true;
  }
  if (size() < l_) {
    members_.insert(pos, d);
    return true;
  }
  // Full: one member must go. With the vector sorted by clockwise
  // distance, the right window is the first l/2 entries and the left
  // window the last l/2, so the evictee is whatever would land just past
  // the right window after insertion. Evicting *before* inserting keeps
  // the vector at l members, so the inline storage never spills.
  const int evict = capacity_per_side();
  if (p == evict) return false;  // d itself falls outside both windows
  if (p < evict) {
    members_.erase(members_.begin() + (evict - 1));
    members_.insert(members_.begin() + p, d);
  } else {
    members_.erase(members_.begin() + evict);
    members_.insert(members_.begin() + (p - 1), d);
  }
  return true;
}

bool LeafSet::remove(net::Address a) {
  const auto it = std::find_if(
      members_.begin(), members_.end(),
      [a](const NodeDescriptor& m) { return m.addr == a; });
  if (it == members_.end()) return false;
  members_.erase(it);
  return true;
}

bool LeafSet::contains(net::Address a) const {
  return find(a).has_value();
}

std::optional<NodeDescriptor> LeafSet::find(net::Address a) const {
  const auto it = std::find_if(
      members_.begin(), members_.end(),
      [a](const NodeDescriptor& m) { return m.addr == a; });
  if (it == members_.end()) return std::nullopt;
  return *it;
}

int LeafSet::left_count() const {
  return std::min(capacity_per_side(), size());
}

int LeafSet::right_count() const {
  return std::min(capacity_per_side(), size());
}

std::optional<NodeDescriptor> LeafSet::right_neighbour() const {
  if (members_.empty()) return std::nullopt;
  return members_.front();
}

std::optional<NodeDescriptor> LeafSet::left_neighbour() const {
  if (members_.empty()) return std::nullopt;
  return members_.back();
}

std::optional<NodeDescriptor> LeafSet::rightmost() const {
  if (members_.empty()) return std::nullopt;
  return members_[static_cast<std::size_t>(right_count() - 1)];
}

std::optional<NodeDescriptor> LeafSet::leftmost() const {
  if (members_.empty()) return std::nullopt;
  return members_[static_cast<std::size_t>(size() - left_count())];
}

bool LeafSet::covers(NodeId k) const {
  if (size() < l_) return true;  // wrapped or still converging; see header
  const NodeId lm = leftmost()->id;
  const NodeId rm = rightmost()->id;
  return lm.clockwise_distance_to(k) <= lm.clockwise_distance_to(rm);
}

int LeafSet::rank(U128 cw) const {
  return static_cast<int>(
      std::lower_bound(members_.begin(), members_.end(), cw,
                       [this](const NodeDescriptor& m, const U128& x) {
                         return cw_from_self(m.id) < x;
                       }) -
      members_.begin());
}

std::optional<NodeDescriptor> LeafSet::closest(NodeId k) const {
  // The ring-closest of self and the members is one of k's two cyclic
  // neighbours among them: the first point clockwise of k (at distance
  // >= 0) or the first counter-clockwise. The tie-break of closer_to
  // picks between those two as well, so nothing farther can win.
  const int s = rank(cw_from_self(k));
  const auto at = [this](int i) -> const NodeDescriptor& {
    return members_[static_cast<std::size_t>(i)];
  };
  const NodeId succ = s == size() ? self_ : at(s).id;
  const NodeId pred = s == 0 ? self_ : at(s - 1).id;
  const int winner = succ.closer_to(k, pred) ? s : s - 1;
  if (winner < 0 || winner == size()) return std::nullopt;  // self
  return at(winner);
}

}  // namespace mspastry::pastry
