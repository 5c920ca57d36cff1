#pragma once

#include <cstdint>

#include "common/sim_time.hpp"

namespace mspastry::pastry {

// --- Fixed protocol constants ------------------------------------------
//
// The paper holds these at one value in every experiment, so they are
// constants rather than Config fields.

/// Probes are retried this many times before a node is marked faulty.
inline constexpr int kMaxProbeRetries = 2;

/// Same-destination retransmits before an unresponsive next hop is
/// excluded and the message rerouted. One retransmit absorbs a single
/// lost ack cheaply; after that the node is treated as suspect.
inline constexpr int kAckRetransmits = 1;

/// Give up on a message after this many same-destination retransmits
/// (the probe resolves the node's fate long before this; only relevant
/// with Config::exclude_root_on_ack_timeout = false).
inline constexpr int kMaxSameDestRetransmits = 20;

/// Aggressive retransmission: RTO = srtt + kRtoVarFactor * rttvar,
/// clamped to [kRtoMin, kRtoMax]. No TCP-style 1 s floor because Pastry
/// can fail over to an alternative next hop.
inline constexpr SimDuration kRtoMin = milliseconds(30);
inline constexpr SimDuration kRtoMax = seconds(3);
inline constexpr double kRtoVarFactor = 4.0;

/// Safety bound on overlay route length (loops cannot normally occur;
/// this caps pathological routing under heavy churn).
inline constexpr int kMaxRouteHops = 64;

/// Upper bound on the routing-table probe period Trt: keeps probing alive
/// in near-static systems (the lower bound is Config::t_rt_min).
inline constexpr SimDuration kTrtMax = hours(2);

/// How many past failures the failure-rate estimator remembers (K).
inline constexpr int kFailureHistory = 16;

/// Entries in the failed set expire after this long: a session address
/// never returns in the crash model, so the set is only consulted to
/// avoid re-probing recent corpses; expiring entries bounds memory and
/// lets nodes wrongly condemned during a network partition be
/// re-learned once connectivity returns.
inline constexpr SimDuration kFailedEntryTtl = minutes(10);

/// Distance probes per measurement; the median is used (3 spaced 1 s
/// apart, per Section 4.2).
inline constexpr int kDistanceProbeCount = 3;
inline constexpr SimDuration kDistanceProbeSpacing = seconds(1);

/// Do not re-measure the distance to a candidate more often than this:
/// gossip keeps re-offering nearby nodes that never win a slot, and
/// re-probing them every maintenance round is wasted traffic.
inline constexpr SimDuration kDistanceMeasurementTtl = minutes(40);

/// Nearest-neighbour seed discovery: max hill-climbing iterations and
/// candidates probed per iteration (single probe each, per Section 4.2).
inline constexpr int kNnMaxIterations = 8;
inline constexpr int kNnSample = 12;

/// Density threshold for the leaf-set plausibility check (a) (see
/// Config::leaf_plausibility_checks): a candidate is rejected when its
/// ring distance to this node (or to the nearest current member) is below
/// (2^128 / N̂) / kLeafDensityFactor, where N̂ is the leaf-set density
/// estimate of the overlay size. Sybil clusters packed around a victim
/// id sit orders of magnitude below this; honest neighbors almost
/// never do (spacings are exponentially distributed around the mean, so
/// P(reject an honest neighbor) ~ 1/factor per admission — the factor
/// must be large enough that a whole run admits every true ring
/// neighbor, or the ring never reconverges).
inline constexpr double kLeafDensityFactor = 4096.0;

/// All MSPastry protocol knobs. Defaults, with the constants above, are
/// the paper's base configuration (Section 5.1): b=4, l=32, Tls=30 s,
/// To=3 s, two probe retries, per-hop acks, routing-table probing
/// self-tuned to a 5% raw loss rate, probe suppression, and symmetric
/// distance probes.
///
/// The boolean switches exist so the ablation experiments in Section 5.3
/// (active probing vs per-hop acks, self-tuning targets, suppression) can
/// turn individual techniques off.
struct Config {
  /// Identifier digits have b bits; the routing table has 2^b columns.
  int b = 4;

  /// Leaf set size: l/2 nodes on each side of the local id.
  int l = 32;

  /// Leaf-set heartbeat period (one heartbeat to the left neighbour).
  SimDuration t_ls = seconds(30);

  /// Probe timeout To; the paper picks the TCP SYN timeout, 3 s.
  SimDuration t_o = seconds(3);

  // --- Reliable routing -----------------------------------------------

  /// Per-hop acknowledgements with rerouting on timeout.
  bool per_hop_acks = true;

  /// When true (the paper's default, Section 3.2), an ack timeout
  /// excludes the destination from routing even at the final hop — in a
  /// loss-free network a missed ack implies the root is dead, so this is
  /// both fast and consistent; with link losses it admits a small
  /// probability of misdelivery. When false, a node never delivers
  /// locally past a closer leaf-set member that is merely excluded: it
  /// keeps retransmitting with exponential backoff until the concurrent
  /// probe either revives the node or marks it faulty (consistency over
  /// latency).
  bool exclude_root_on_ack_timeout = true;

  /// RTO used for a destination with no RTT sample yet.
  SimDuration rto_initial = seconds(1);

  // --- Active failure detection ---------------------------------------

  /// Liveness-probe the routing table at all. Off reproduces the
  /// "per-hop acks only" ablation.
  bool active_rt_probing = true;

  /// Self-tune the routing-table probe period Trt from the target raw
  /// loss rate; when false, t_rt_fixed is used.
  bool self_tuning = true;

  /// Target raw loss rate Lr for the self-tuner (paper default 5%).
  double target_raw_loss = 0.05;

  SimDuration t_rt_fixed = seconds(30);

  /// Lower bound (retries+1)*To = 9 s, per the paper; the upper bound is
  /// kTrtMax.
  SimDuration t_rt_min = seconds(9);

  /// Suppress probes/heartbeats when any message was exchanged recently.
  bool suppression = true;

  // --- Proximity neighbour selection ------------------------------------

  /// PNS on/off. Off fills routing-table slots first-come-first-served.
  bool pns = true;

  /// Symmetric distance probing: report measured RTTs back so the peer
  /// need not probe again.
  bool symmetric_probes = true;

  /// Periodic routing-table maintenance period (20 min in the paper).
  SimDuration rt_maintenance_period = minutes(20);

  // --- Join -------------------------------------------------------------

  /// Timeout for the single-sample nearest-neighbour probes. Shorter than
  /// To: a dead candidate only delays the join, never triggers a faulty
  /// verdict, and Section 4.2 trades probe accuracy for join latency here.
  SimDuration nn_probe_timeout = seconds(1);

  /// If a join has not completed in this long, restart it with a fresh
  /// bootstrap (covers lost JOIN-REPLY and dead seeds).
  SimDuration join_retry = seconds(60);

  // --- Adversary countermeasures ----------------------------------------

  /// Redundant diverse-path lookups: each lookup() call routes this many
  /// copies, forcing distinct first hops by excluding the hops already
  /// used (interior disjointness is best-effort — Pastry's prefix routing
  /// converges paths near the root). 1 = single path (the paper's
  /// behavior). The application layer deduplicates deliveries
  /// (first-correct-wins in overlay::Metrics).
  int lookup_redundancy = 1;

  /// Leaf-set plausibility checks against adversarial lies: (a) reject
  /// announced candidates implausibly close to this node relative to the
  /// id density the leaf set implies, and (b) treat peer-announced
  /// failures skeptically — probe the accused member but keep it until
  /// the probe itself times out, instead of dropping it on hearsay.
  bool leaf_plausibility_checks = false;

  // --- Test-only fault injection ----------------------------------------

  /// Mutation knob for the expectation checker's self-test: when set, an
  /// exhausted per-hop ack ladder abandons the message instead of
  /// rerouting (the timeout still fires and the suspect is still probed).
  /// This reproduces a classic "silently lost lookup" bug; the
  /// timeout-followed-by-reaction expectation must flag it. Never set
  /// outside tests.
  bool mutation_suppress_reroute = false;

  int routing_table_rows() const { return (128 + b - 1) / b; }
  int routing_table_cols() const { return 1 << b; }
  SimDuration probe_detect_time() const {
    // Worst-case time from failure to detection via probing: one period
    // plus (retries+1) timeouts. Used by the self-tuner.
    return (kMaxProbeRetries + 1) * t_o;
  }
};

}  // namespace mspastry::pastry
