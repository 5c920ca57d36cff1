#include "net/network.hpp"

#include <cassert>

namespace mspastry::net {

Network::Network(Simulator& sim, std::shared_ptr<const Topology> topology,
                 NetworkConfig config, std::uint64_t seed)
    : sim_(sim),
      topology_(std::move(topology)),
      config_(config),
      seed_(seed),
      faults_(seed ^ 0xfa017c0deull) {
  assert(topology_ != nullptr);
  for (int r = 0; r < topology_->router_count(); ++r) {
    if (topology_->attachable(r)) attachable_routers_.push_back(r);
  }
  assert(!attachable_routers_.empty());
}

Address Network::attach(int router) {
  assert(router >= 0 && router < topology_->router_count());
  endpoints_.push_back(Endpoint{router, nullptr});
  return static_cast<Address>(endpoints_.size() - 1);
}

Address Network::attach_random(Rng& rng) {
  const auto idx = rng.uniform_index(attachable_routers_.size());
  return attach(attachable_routers_[idx]);
}

void Network::bind(Address a, Handler handler) {
  assert(a >= 0 && a < static_cast<Address>(endpoints_.size()));
  endpoints_[a].handler = std::move(handler);
}

void Network::unbind(Address a) {
  assert(a >= 0 && a < static_cast<Address>(endpoints_.size()));
  endpoints_[a].handler = nullptr;
}

bool Network::bound(Address a) const {
  return a >= 0 && a < static_cast<Address>(endpoints_.size()) &&
         static_cast<bool>(endpoints_[a].handler);
}

SimDuration Network::delay(Address a, Address b) const {
  assert(a >= 0 && a < static_cast<Address>(endpoints_.size()));
  assert(b >= 0 && b < static_cast<Address>(endpoints_.size()));
  if (a == b) return 0;
  return topology_->delay(endpoints_[a].router, endpoints_[b].router) +
         2 * config_.lan_delay;
}

void Network::send(Address from, Address to, PacketPtr packet) {
  assert(packet != nullptr);
  ++sent_;
  const SimTime now = sim_.now();
  const PacketFate fate =
      packet_fate(faults_, config_, seed_, now, from, to,
                  endpoints_[from].send_seq++, delay(from, to));
  if (fate.drop) {
    ++lost_;
    return;
  }
  const SimDuration after = (fate.depart - now) + fate.delay;
  if (fate.copies == 0) {
    // Common case: the caller's reference rides the wire; no refcount
    // traffic at all between send() and the delivery callback.
    schedule_delivery(after, from, to, std::move(packet));
    return;
  }
  schedule_delivery(after, from, to, packet);
  for (int i = 0; i < fate.copies; ++i) {
    // An injected copy occupies the wire like a real transmission, which
    // keeps the packet-accounting identity exact. All copies alias one
    // packet object; the refcount keeps it alive until the last delivery.
    ++sent_;
    schedule_delivery(after + (i + 1) * fate.dup_offset, from, to, packet);
  }
}

void Network::schedule_delivery(SimDuration after, Address from, Address to,
                                PacketPtr packet) {
  ++in_flight_;
  sim_.schedule_after(after,
                      [this, from, to, p = std::move(packet)]() mutable {
                        deliver(from, to, std::move(p));
                      });
}

void Network::deliver(Address from, Address to, PacketPtr packet) {
  // A stalled receiver's packets sit in its socket buffer until the
  // process resumes (gray failure: the endpoint never unbinds). The
  // deferred retry moves this delivery's reference instead of copying it
  // — under a long stall the old copy-per-retry churned a refcount
  // increment/decrement pair for every buffered packet.
  const SimTime release = faults_.stall_release(sim_.now(), to);
  if (release > sim_.now()) {
    sim_.schedule_at(release,
                     [this, from, to, p = std::move(packet)]() mutable {
                       deliver(from, to, std::move(p));
                     });
    return;
  }
  --in_flight_;
  Endpoint& ep = endpoints_[to];
  if (!ep.handler) {
    ++dropped_unbound_;  // endpoint is gone: packet is lost on arrival
    return;
  }
  ++delivered_;
  ep.handler(from, packet);
}

}  // namespace mspastry::net
