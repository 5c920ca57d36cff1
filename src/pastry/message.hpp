#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/node_id.hpp"
#include "common/sim_time.hpp"
#include "common/small_vec.hpp"
#include "net/packet.hpp"
#include "pastry/types.hpp"

namespace mspastry::pastry {

/// Every MSPastry wire message. The taxonomy mirrors the breakdown in the
/// paper's Figure 4 (right): distance probes, leaf-set heartbeats/probes,
/// routing-table probes, acks + retransmits, and join traffic, plus the
/// lookups themselves.
enum class MsgType : std::uint8_t {
  kJoinRequest,
  kJoinReply,
  kLsProbe,
  kLsProbeReply,
  kHeartbeat,
  kRtProbe,
  kRtProbeReply,
  kDistanceProbe,
  kDistanceProbeReply,
  kDistanceReport,   // symmetric-probing result share
  kRtRowRequest,     // periodic routing-table maintenance
  kRtRowReply,
  kRtRowAnnounce,    // join-time row broadcast
  kRtEntryRequest,   // passive routing-table repair
  kRtEntryReply,
  kNnRequest,        // nearest-neighbour seed discovery
  kNnReply,
  kLookup,
  kAck,
  kLeave,            // graceful departure notice (extension)
};

/// Number of message types; the rt wire codec (rt/wire.hpp) validates
/// decoded type bytes against this and its round-trip test iterates it.
inline constexpr int kMsgTypeCount = static_cast<int>(MsgType::kLeave) + 1;

/// Human-readable name, for reports and logs.
const char* msg_type_name(MsgType t);

/// True for message types counted as control traffic (everything except
/// the lookups themselves, matching the paper's metric).
constexpr bool is_control(MsgType t) { return t != MsgType::kLookup; }

/// Coarse categories used for the Figure-4 traffic breakdown.
enum class TrafficClass : std::uint8_t {
  kDistanceProbes,
  kLeafSetTraffic,   // heartbeats + LS probes/replies
  kRtProbes,
  kAcksRetransmits,
  kJoin,             // join requests/replies, row announce, NN discovery
  kLookups,
};
TrafficClass traffic_class(MsgType t);
const char* traffic_class_name(TrafficClass c);
inline constexpr int kTrafficClassCount = 6;

/// Common header. `sender` lets receivers learn descriptors from any
/// message they hear directly (the consistency rule: never insert a node
/// you have not heard from). `trt_hint_s` piggybacks the sender's local
/// self-tuning estimate of the routing-table probe period, per Section
/// 4.1 (0 means "no estimate").
struct Message : net::Packet {
  explicit Message(MsgType t) : type(t) {}
  MsgType type;
  NodeDescriptor sender;
  double trt_hint_s = 0.0;
};

/// Messages are slab-pooled (pastry/message_pool.hpp) and intrusively
/// refcounted; a copy of this pointer is one non-atomic increment.
using MessagePtr = IntrusivePtr<const Message>;

class MessagePool;

/// Why a codec operation (wire encode/decode, cross-shard clone) rejected
/// a message. Shared by the rt wire codec (rt/wire.hpp aliases this) and
/// clone_message below, so a forged type byte and a forged in-memory type
/// report through one vocabulary.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kTruncated,       ///< frame shorter than its fields claim
  kBadMagic,
  kBadVersion,
  kBadType,         ///< type byte outside pastry::kMsgTypeCount
  kBadLength,       ///< length field disagrees with the datagram size
  kOversizeVec,     ///< vector count above rt::kMaxVecLen
  kTrailingBytes,   ///< well-formed fields followed by extra bytes
  kUnknownAddress,  ///< encode: descriptor address not in the book
  kAppData,         ///< encode/clone: LookupMsg::app_data not supported
  kOversizeFrame,   ///< encode: frame would exceed rt::kMaxFrameBytes
};

const char* wire_status_name(WireStatus s);

/// Thrown (in every build mode, NDEBUG included) when a codec operation
/// meets a message it cannot represent: clone_message on a forged /
/// out-of-range MsgType, or app_data whose concrete type cannot cross
/// pools. Callers that must not unwind (worker threads) validate before
/// sending; the sharded driver's barrier runs single-threaded, so an
/// escape there fails the run loudly instead of silently corrupting it.
class CodecError : public std::runtime_error {
 public:
  CodecError(WireStatus status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  WireStatus status() const noexcept { return status_; }

 private:
  WireStatus status_;
};

/// Application payloads that can follow a lookup across shard boundaries.
/// A plain net::Packet cannot: refcounts are non-atomic and slabs are
/// single-threaded, so the clone must be a fresh object in the
/// *destination* shard's pool. App packet types opt in by implementing
/// clone_into; clone_message throws CodecError{kAppData} for any other
/// app_data payload.
struct CloneableAppData : net::Packet {
  virtual net::PacketPtr clone_into(MessagePool& pool) const = 0;
};

/// Deep-copy `m` into `pool`, preserving the dynamic type. The sharded
/// driver uses this to hand a message across shards: refcounts are
/// non-atomic and slabs are single-threaded, so a cross-shard delivery
/// must be a fresh object in the *destination* shard's pool (the
/// RefCounted copy constructor starts the clone's count at zero).
/// Lookups carrying app_data clone the payload through CloneableAppData;
/// any other app_data type throws CodecError{kAppData}, and a message
/// whose type byte is outside the enum (memory corruption, a forged
/// frame that slipped past decode) throws CodecError{kBadType} — in all
/// build modes, never an assert that compiles out under NDEBUG.
MessagePtr clone_message(const Message& m, MessagePool& pool);

// Payload vector aliases (LeafVec, RowVec, ...) live in pastry/types.hpp
// so the routing table can return them without depending on this header.

/// A routed message: carried hop by hop toward a destination key.
/// Subtypes: lookups and join requests.
struct RoutedMessage : Message {
  using Message::Message;
  NodeId key;
  int hops = 0;
  /// Per-hop transmission id; the receiver acks it. Unique per sender.
  std::uint64_t hop_seq = 0;
  bool wants_ack = true;
  /// End-to-end causal-trace id (obs/flight_recorder.hpp); 0 = untraced.
  /// Piggybacked hop to hop so every node on the path records against the
  /// same id.
  std::uint64_t trace_id = 0;
};

struct LookupMsg final : RoutedMessage {
  LookupMsg() : RoutedMessage(MsgType::kLookup) {}
  std::uint64_t lookup_id = 0;   ///< driver-assigned, for the oracle
  NodeDescriptor source;
  SimTime sent_at = 0;           ///< origination time (for RDP)
  std::uint64_t payload = 0;     ///< small opaque application value
  net::PacketPtr app_data;       ///< optional structured application data
};

struct JoinRequestMsg final : RoutedMessage {
  JoinRequestMsg() : RoutedMessage(MsgType::kJoinRequest) {}
  NodeDescriptor joiner;
  std::uint64_t join_epoch = 0;  ///< joiner's attempt counter
  /// Routing-table rows gathered along the route: (row index, entries).
  JoinRows rows;
};

struct JoinReplyMsg final : Message {
  JoinReplyMsg() : Message(MsgType::kJoinReply) {}
  std::uint64_t join_epoch = 0;
  JoinRows rows;
  LeafVec leaf_set;
};

/// Leaf-set probe / reply (Figure 2): carries the sender's leaf set and
/// failed set. Replies additionally serve generalized leaf-set repair by
/// including nodes from the routing table close to the requester.
struct LsProbeMsg final : Message {
  explicit LsProbeMsg(bool reply)
      : Message(reply ? MsgType::kLsProbeReply : MsgType::kLsProbe) {}
  LeafVec leaf;
  FailedVec failed;
};

struct HeartbeatMsg final : Message {
  HeartbeatMsg() : Message(MsgType::kHeartbeat) {}
};

/// Routing-table liveness probe (lighter than a leaf-set probe).
struct RtProbeMsg final : Message {
  explicit RtProbeMsg(bool reply)
      : Message(reply ? MsgType::kRtProbeReply : MsgType::kRtProbe) {}
};

struct DistanceProbeMsg final : Message {
  explicit DistanceProbeMsg(bool reply)
      : Message(reply ? MsgType::kDistanceProbeReply
                      : MsgType::kDistanceProbe) {}
  std::uint64_t seq = 0;
};

/// Symmetric probing (Section 4.2): i measured its RTT to j and tells j,
/// so j can consider i for its routing table without probing back.
struct DistanceReportMsg final : Message {
  DistanceReportMsg() : Message(MsgType::kDistanceReport) {}
  SimDuration rtt = 0;
};

struct RtRowRequestMsg final : Message {
  RtRowRequestMsg() : Message(MsgType::kRtRowRequest) {}
  int row = 0;
};

struct RtRowReplyMsg final : Message {
  RtRowReplyMsg() : Message(MsgType::kRtRowReply) {}
  int row = 0;
  RowVec entries;
};

struct RtRowAnnounceMsg final : Message {
  RtRowAnnounceMsg() : Message(MsgType::kRtRowAnnounce) {}
  int row = 0;
  RowVec entries;
};

/// Passive repair: "I found your slot (row, col) empty while routing; do
/// you know anyone for it?"
struct RtEntryRequestMsg final : Message {
  RtEntryRequestMsg() : Message(MsgType::kRtEntryRequest) {}
  int row = 0;
  int col = 0;
};

struct RtEntryReplyMsg final : Message {
  RtEntryReplyMsg() : Message(MsgType::kRtEntryReply) {}
  int row = 0;
  int col = 0;
  NodeDescriptor entry;  // invalid() if unknown
};

/// Nearest-neighbour discovery: ask a node for close-node candidates (its
/// leaf set plus a routing-table sample).
struct NnRequestMsg final : Message {
  NnRequestMsg() : Message(MsgType::kNnRequest) {}
};

struct NnReplyMsg final : Message {
  NnReplyMsg() : Message(MsgType::kNnReply) {}
  CandidateVec candidates;
};

struct AckMsg final : Message {
  AckMsg() : Message(MsgType::kAck) {}
  std::uint64_t hop_seq = 0;
};

/// Graceful departure (an extension beyond the paper, which injects only
/// crashes): the leaver tells its routing-state members directly, so they
/// drop it without the probe-timeout detection delay. Receivers trust it
/// — it comes straight from the departing node.
struct LeaveMsg final : Message {
  LeaveMsg() : Message(MsgType::kLeave) {}
};

}  // namespace mspastry::pastry
