#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "net/packet.hpp"
#include "pastry/adversary.hpp"

namespace mspastry::overlay {

/// What a corrupted node does. One behavior per node keeps scenarios
/// interpretable: the f-sweep attributes every degradation to a single
/// mechanism (see bench/tab_adversary).
enum class AdversaryBehavior : std::uint8_t {
  kDrop,      ///< ack lookups upstream, then silently devour them
  kMisroute,  ///< claim roots for keys it plausibly covers, else off-path
  kLie,       ///< corrupt leaf-set and nearest-neighbour replies
};

const char* to_string(AdversaryBehavior b);
std::optional<AdversaryBehavior> behavior_from_name(std::string_view name);

/// Per-node Byzantine policy: at each interception point the node strikes
/// with probability `strike` (1.0 = always-on adversary). Every decision
/// is a *stateless* draw keyed (adversary seed, this node's address,
/// intercept seq) via common/hash_mix.hpp, so adversarial decisions are
/// reproducible from the scenario seed and independent of honest-path
/// RNG draws. The per-node intercept sequence is itself
/// shard-count-invariant (a node's local event order never depends on
/// the partition), so the corruption schedule is byte-identical at any
/// shard count.
class KeyedAdversary final : public pastry::AdversaryPolicy {
 public:
  KeyedAdversary(AdversaryBehavior behavior, double strike,
                 std::uint64_t seed, net::Address self)
      : behavior_(behavior),
        strike_(strike),
        seed_(seed),
        self_(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(self))) {}

  RouteAction on_route(const pastry::RoutedMessage& m,
                       bool leaf_covers) override;
  bool corrupt_ls_reply(pastry::LeafVec& leaf,
                        pastry::FailedVec& failed) override;
  bool corrupt_nn_reply(pastry::CandidateVec& candidates) override;

 private:
  bool chance(double p);

  AdversaryBehavior behavior_;
  double strike_;
  std::uint64_t seed_;
  std::uint64_t self_;
  std::uint64_t seq_ = 0;
};

}  // namespace mspastry::overlay
