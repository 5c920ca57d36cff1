#pragma once

#include <cstdint>

#include "common/sim_time.hpp"
#include "net/fault_plan.hpp"

namespace mspastry::net {

struct NetworkConfig {
  /// Uniform probability that any packet is silently dropped in transit
  /// (the paper's "network message loss rate", varied 0–5% in Figure 6).
  double loss_rate = 0.0;

  /// Access-link delay added at each end (the paper attaches end nodes to
  /// GATech/CorpNet routers through a 1 ms LAN link; Mercator attaches
  /// directly, i.e. 0).
  SimDuration lan_delay = milliseconds(1);

  /// Multiplicative uniform jitter applied per packet: the delivery delay
  /// is scaled by a factor drawn from [1-j, 1+j]. Zero by default (the
  /// paper's simulator does not model congestion); used by the Fig-8
  /// "deployment-like" perturbed runs.
  double jitter_fraction = 0.0;
};

/// Why a packet was lost.
enum class DropKind : std::uint8_t {
  kFault,      ///< a fault-plan rule (partition, flap, ...) dropped it
  kLoss,       ///< uniform random loss
  kUnbound,    ///< arrived at a dead endpoint
  kAdversary,  ///< devoured by an adversarial sender
};

/// What happens to one packet on the wire.
struct PacketFate {
  bool drop = false;
  DropKind drop_kind = DropKind::kLoss;  ///< kFault or kLoss, when dropped
  SimTime depart = 0;       ///< leaves the sender (> now: sender stalled)
  SimDuration delay = 0;    ///< wire time after departure, at least 1 us
  int copies = 0;           ///< injected duplicates after the original
  SimDuration dup_offset = 0;  ///< spacing of the copies (>= 1)
  FaultKindSet injected = 0;   ///< every fault kind that acted on it
                               ///< (dropped: the dropping kind + stall)
};

/// The network model's whole per-packet decision, made for every packet
/// the keyed engine (overlay::ShardedDriver) sends: sender stall, fault
/// rules, uniform loss, jitter on the path delay, fault extra delay, and
/// duplication, in that order. Every draw is a stateless hash keyed by
/// (seed, sender, per-sender send seq), so the fate of a packet depends
/// only on its identity and the clock — never on how other packets'
/// judgements interleave with it. An empty plan skips the rule stack.
PacketFate packet_fate(const FaultPlan& plan, const NetworkConfig& config,
                       std::uint64_t net_seed, SimTime now, Address from,
                       Address to, std::uint64_t send_seq,
                       SimDuration path_delay);

}  // namespace mspastry::net
