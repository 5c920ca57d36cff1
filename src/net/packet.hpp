#pragma once

#include <cstdint>

#include "common/intrusive_ptr.hpp"
#include "common/ref_counted.hpp"

namespace mspastry::net {

/// Base class for anything carried by the network. Overlay message types
/// derive from this; the network itself never inspects payloads.
/// Intrusively refcounted: copying a PacketPtr is a non-atomic increment
/// and in-flight delivery callbacks *move* their reference (see
/// DESIGN.md "Message memory").
struct Packet : RefCounted {};

using PacketPtr = IntrusivePtr<const Packet>;

/// A network endpoint. Each overlay-node *session* gets a fresh address
/// when it is created, which models the fact that a machine that fails and
/// later rejoins is, to the protocol, a brand-new endpoint.
using Address = std::int32_t;
inline constexpr Address kNullAddress = -1;

}  // namespace mspastry::net
