#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "overlay/driver.hpp"
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
/// the partition), so under the ShardedDriver the corruption schedule is
/// byte-identical at any shard count.
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

/// Owns the adversarial population of one driver run: installs policies
/// on existing nodes (a corrupted fraction f) or joins sybil nodes whose
/// ids cluster around a victim key (an eclipse attack). The controller
/// must outlive its use of the driver's nodes within a run; disarm() or
/// destruction detaches every surviving policy.
class AdversaryController {
 public:
  AdversaryController(OverlayDriver& driver, AdversaryBehavior behavior,
                      double strike, std::uint64_t seed)
      : driver_(driver), behavior_(behavior), strike_(strike), seed_(seed) {}
  ~AdversaryController() { disarm(); }

  AdversaryController(const AdversaryController&) = delete;
  AdversaryController& operator=(const AdversaryController&) = delete;

  /// Corrupt a deterministic pseudo-random `fraction` of the currently
  /// live nodes. Returns the addresses corrupted (sorted).
  std::vector<net::Address> corrupt_fraction(double fraction);

  /// Install a policy on one specific node (no-op if dead or already
  /// corrupted).
  void corrupt(net::Address a);

  /// Join `count` sybil nodes whose ids alternate tightly around the
  /// victim key (far denser than honest id spacing), running the driver
  /// `join_gap` per join so each completes the normal join protocol.
  /// Returns the sybil addresses in join order.
  std::vector<net::Address> join_eclipse_cluster(NodeId victim, int count,
                                                 SimDuration join_gap);

  /// Heal: detach every policy; corrupted nodes act honest again.
  void disarm();

  /// Heal an eclipse: crash every sybil this controller joined (and drop
  /// their policies).
  void kill_sybils();

  bool is_adversarial(net::Address a) const {
    return policies_.count(a) > 0;
  }
  std::size_t count() const { return policies_.size(); }
  const std::vector<net::Address>& sybils() const { return sybils_; }

  /// Deterministic one-line dump for run headers and schedule logs.
  std::string describe() const;

 private:
  OverlayDriver& driver_;
  AdversaryBehavior behavior_;
  double strike_;
  std::uint64_t seed_;
  std::unordered_map<net::Address, std::unique_ptr<KeyedAdversary>>
      policies_;
  std::vector<net::Address> sybils_;
};

}  // namespace mspastry::overlay
