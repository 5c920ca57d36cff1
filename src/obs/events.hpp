#pragma once

#include <cstdint>

#include "common/sim_time.hpp"
#include "net/packet.hpp"

namespace mspastry::obs {

/// Everything a node's flight recorder can witness. The taxonomy follows
/// the protocol machinery the paper's evaluation reasons about per
/// lookup: routing hops (Figure 2), the per-hop ack/retransmit/reroute
/// ladder (Section 3.2), failure-detection verdicts (Section 4.1), and
/// the join phases (Figure 2's state machine).
enum class EventKind : std::uint8_t {
  kNone = 0,

  // --- Routed-message path (trace-scoped) -------------------------------
  kLookupIssued,   ///< lookup originated here; aux = lookup_id
  kRecv,           ///< routed message arrived; hop = its hop count
  kForward,        ///< forwarded to peer; hop = outgoing hops, aux = hop_seq
  kBuffered,       ///< held while inactive / mid-repair; re-routed later
  kDeliver,        ///< reached the root and was delivered locally
  kAppConsumed,    ///< application forward() upcall consumed it mid-route
  kDrop,           ///< gave up (max hops or retransmit budget exhausted)

  // --- Per-hop ack ladder (Section 3.2, trace-scoped) -------------------
  kAckRecv,        ///< ack for our transmission; aux = hop_seq
  kAckTimeout,     ///< RTO expired waiting on peer; aux = hop_seq
  kRetransmit,     ///< same-destination retransmission; aux = new hop_seq
  kReroute,        ///< excluded peer and re-routed around it

  // --- Failure detection (node-scoped, trace_id = 0) --------------------
  kSuspect,        ///< peer excluded from routing after missed acks
  kAbsolve,        ///< a condemned peer was heard from again
  kCondemn,        ///< peer entered the failed set (marked faulty)
  kLsProbeSent,    ///< leaf-set probe to peer
  kRtProbeSent,    ///< routing-table liveness probe to peer
  kHeartbeatTick,  ///< periodic heartbeat timer fired (sent or suppressed)

  // --- Join phases (node-scoped except the routed join request) ---------
  kJoinStart,      ///< join() called; aux = join epoch
  kJoinRestart,    ///< join restarted from a fresh bootstrap; aux = epoch
  kJoinRequestSent,///< ack-protected join request left the joiner
  kJoinReplyRecv,  ///< accepted JOIN-REPLY; aux = epoch
  kJoinProbe,      ///< pre-activation leaf-set probe (probes-before-activate)
  kActivated,      ///< node became active

  // --- Wire-level (recorded by the driver on the sender's ring) ----------
  kNetDrop,        ///< the network dropped a traced packet in flight
  kAdversaryDrop,  ///< an adversarial sender devoured a traced packet
};

inline constexpr int kEventKindCount =
    static_cast<int>(EventKind::kAdversaryDrop) + 1;

/// Short stable name, used in dumps and reports.
const char* event_kind_name(EventKind k);

/// Inverse of event_kind_name; kNone for unknown names (forward compat:
/// an old explorer reading a newer dump skips what it cannot name).
EventKind event_kind_from_name(const char* name);

/// One flight-recorder entry. Fixed-size POD: rings are flat arrays and
/// recording is a handful of stores. `trace_id == 0` means node-scoped
/// (failure detection, join phases, heartbeats); nonzero ids tie the
/// event to one end-to-end lookup/join path.
struct TraceEvent {
  SimTime t = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t aux = 0;                  ///< kind-specific (hop_seq, epoch, id)
  net::Address peer = net::kNullAddress;  ///< the other endpoint, if any
  std::int32_t hop = 0;                   ///< hop count of the routed message
  EventKind kind = EventKind::kNone;
};

}  // namespace mspastry::obs
