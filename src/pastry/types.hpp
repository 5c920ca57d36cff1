#pragma once

#include <cstdint>
#include <utility>

#include "common/node_id.hpp"
#include "common/small_vec.hpp"
#include "net/packet.hpp"

namespace mspastry::pastry {

/// Identity plus location of an overlay node: everything another node
/// needs to talk to it. Fresh per session (a rejoining machine gets a new
/// id and a new address).
struct NodeDescriptor {
  NodeId id;
  net::Address addr = net::kNullAddress;

  bool valid() const { return addr != net::kNullAddress; }
  friend bool operator==(const NodeDescriptor& a, const NodeDescriptor& b) {
    return a.addr == b.addr && a.id == b.id;
  }
};

/// Payload vectors with inline capacity matched to the protocol's
/// cardinalities (DESIGN.md "Message memory"): a full leaf set is l = 32
/// members, a routing-table row has at most 2^b - 1 = 15 entries, an
/// NN-reply carries the l + 1 closest nodes, and a join gathers one row
/// per shared prefix digit (~log_2b N; 8 covers overlays past 10^9
/// nodes). Overflow spills to the heap and is counted
/// (small_vec_spills()).
using LeafVec = SmallVec<NodeDescriptor, 32>;
using FailedVec = SmallVec<NodeDescriptor, 8>;
using RowVec = SmallVec<NodeDescriptor, 16>;
using CandidateVec = SmallVec<NodeDescriptor, 33>;
using JoinRows = SmallVec<std::pair<int, RowVec>, 8>;

/// Aggregated event counters, shared by all nodes of a simulation and read
/// by benches (probe-suppression rates, reroute counts, etc.).
struct Counters {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_suppressed = 0;
  std::uint64_t rt_probes_sent = 0;
  std::uint64_t rt_probes_suppressed = 0;
  /// Periodic-scan probes only (excludes SUSPECT probes triggered by ack
  /// timeouts); the denominator for the paper's suppression claim.
  std::uint64_t rt_probes_periodic = 0;
  std::uint64_t ls_probes_sent = 0;
  // Breakdown of leaf-set probe *initiations* by trigger (diagnostics).
  std::uint64_t ls_probes_join = 0;       ///< probing join-reply candidates
  std::uint64_t ls_probes_candidate = 0;  ///< new candidate from a probe
  std::uint64_t ls_probes_candidate_active = 0;  ///< ...sent by active nodes
  std::uint64_t ls_probes_confirm = 0;    ///< confirming an announced death
  std::uint64_t ls_probes_announce = 0;   ///< announcing a detected death
  std::uint64_t ls_probes_repair = 0;     ///< extending a short leaf set
  std::uint64_t ls_probes_suspect = 0;    ///< heartbeat watch / ack timeout
  std::uint64_t distance_probes_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t ack_timeouts = 0;      ///< per-hop ack timeouts (reroutes)
  std::uint64_t nodes_marked_faulty = 0;
  std::uint64_t false_positives = 0;   ///< filled in by the driver/oracle
  std::uint64_t lookups_forwarded = 0; ///< lookup transmissions (hops)
  std::uint64_t lookups_dropped_no_route = 0;
  std::uint64_t joins_started = 0;
  std::uint64_t joins_completed = 0;
  // Adversarial actions taken by nodes with an AdversaryPolicy installed.
  std::uint64_t lookups_dropped_adversarial = 0;
  std::uint64_t lookups_misrouted_adversarial = 0;
  std::uint64_t ls_replies_corrupted = 0;
  std::uint64_t nn_replies_corrupted = 0;
  // Countermeasure activity.
  std::uint64_t redundant_lookup_copies = 0;   ///< extra copies routed
  std::uint64_t leaf_candidates_rejected = 0;  ///< density check vetoes
  std::uint64_t failure_claims_distrusted = 0; ///< skeptical-mode deferrals

  /// Field-wise sum (merging per-shard totals). Every field needs a line
  /// here; the static_assert below fails when a field is added without.
  Counters& operator+=(const Counters& o) {
    heartbeats_sent += o.heartbeats_sent;
    heartbeats_suppressed += o.heartbeats_suppressed;
    rt_probes_sent += o.rt_probes_sent;
    rt_probes_suppressed += o.rt_probes_suppressed;
    rt_probes_periodic += o.rt_probes_periodic;
    ls_probes_sent += o.ls_probes_sent;
    ls_probes_join += o.ls_probes_join;
    ls_probes_candidate += o.ls_probes_candidate;
    ls_probes_candidate_active += o.ls_probes_candidate_active;
    ls_probes_confirm += o.ls_probes_confirm;
    ls_probes_announce += o.ls_probes_announce;
    ls_probes_repair += o.ls_probes_repair;
    ls_probes_suspect += o.ls_probes_suspect;
    distance_probes_sent += o.distance_probes_sent;
    acks_sent += o.acks_sent;
    ack_timeouts += o.ack_timeouts;
    nodes_marked_faulty += o.nodes_marked_faulty;
    false_positives += o.false_positives;
    lookups_forwarded += o.lookups_forwarded;
    lookups_dropped_no_route += o.lookups_dropped_no_route;
    joins_started += o.joins_started;
    joins_completed += o.joins_completed;
    lookups_dropped_adversarial += o.lookups_dropped_adversarial;
    lookups_misrouted_adversarial += o.lookups_misrouted_adversarial;
    ls_replies_corrupted += o.ls_replies_corrupted;
    nn_replies_corrupted += o.nn_replies_corrupted;
    redundant_lookup_copies += o.redundant_lookup_copies;
    leaf_candidates_rejected += o.leaf_candidates_rejected;
    failure_claims_distrusted += o.failure_claims_distrusted;
    return *this;
  }
};
static_assert(sizeof(Counters) == 29 * sizeof(std::uint64_t),
              "a Counters field was added or removed: update operator+=");

}  // namespace mspastry::pastry
