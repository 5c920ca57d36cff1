#pragma once

// UDP endpoint identity for the real-time backend (src/rt).
//
// The simulator hands out net::Address values directly; a real deployment
// only knows IPv4 host:port pairs. The rt backend maps each endpoint it
// hears about to a deterministic Address so the protocol core — which keys
// every table by Address — runs unchanged. The mapping must be a pure
// function of the endpoint: 50 daemon processes never exchange address
// tables, yet their flight-recorder dumps must merge into one TraceDomain
// with consistent peer references (obs/trace_dump.hpp).

#include <cstdint>
#include <optional>
#include <string>

#include "net/packet.hpp"

namespace mspastry::net {

/// An IPv4 UDP endpoint, host byte order. ip 0 / port 0 is "no endpoint"
/// (used to encode invalid NodeDescriptors on the wire).
struct Endpoint {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;

  bool valid() const { return port != 0; }
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

inline constexpr std::uint32_t kLoopbackIp = 0x7F000001;  // 127.0.0.1

/// Deterministic endpoint -> overlay address.
///
/// Loopback endpoints map to their port number (1..65535): every process
/// of a localnet run computes the same Address for the same daemon, so
/// merged traces need no remapping and a port number doubles as a
/// human-readable node name in dumps. Non-loopback endpoints fold the ip
/// into bits 16..30 (always > 65535, so the two ranges never collide);
/// that fold can alias distinct ips — AddressBook::intern detects and
/// counts such collisions. Returns kNullAddress for invalid endpoints.
inline Address address_of(Endpoint e) {
  if (!e.valid()) return kNullAddress;
  if (e.ip == kLoopbackIp || e.ip == 0) {
    return static_cast<Address>(e.port);
  }
  std::uint32_t h = e.ip * 0x9E3779B1u;  // Fibonacci hash of the ip
  h = (h >> 17) & 0x3FFFu;               // 14 bits
  return static_cast<Address>(((h + 1u) << 16) | e.port);
}

/// "a.b.c.d:port" for logs and manifests.
std::string endpoint_to_string(Endpoint e);

/// Parse "host:port" where host is a dotted quad or "localhost".
/// Returns nullopt on malformed input.
std::optional<Endpoint> parse_endpoint(const std::string& s);

}  // namespace mspastry::net
