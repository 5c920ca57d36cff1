#include "net/packet_fate.hpp"

#include <algorithm>

#include "common/hash_mix.hpp"

namespace mspastry::net {

namespace {

constexpr std::uint64_t kLossSalt = 0x6c6f7373ull;    // "loss"
constexpr std::uint64_t kJitterSalt = 0x6a697474ull;  // "jitt"

}  // namespace

PacketFate packet_fate(const FaultPlan& plan, const NetworkConfig& config,
                       std::uint64_t net_seed, SimTime now, Address from,
                       Address to, std::uint64_t send_seq,
                       SimDuration path_delay) {
  PacketFate fate;
  fate.depart = now;
  FaultAction act;
  if (!plan.empty()) {
    // A stalled sender's packets leave the machine only when it resumes
    // (the process is frozen; the timers that produced them fire late).
    fate.depart = plan.stall_release(now, from);
    if (fate.depart > now) fate.injected |= fault_bit(FaultKind::kStall);
    act = plan.apply(now, from, to, send_seq);
    fate.injected |= act.injected;
    if (act.drop) {
      fate.drop = true;
      fate.drop_kind = DropKind::kFault;
      return fate;
    }
  }
  const auto sender =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(from));
  if (config.loss_rate > 0.0 &&
      hash_to_unit(mix3(net_seed ^ kLossSalt, sender, send_seq)) <
          config.loss_rate) {
    fate.drop = true;
    fate.drop_kind = DropKind::kLoss;
    // The rules' duplicates, spikes and reorders never happen to a packet
    // the network loses; only the sender's stall did.
    fate.injected &= fault_bit(FaultKind::kStall);
    return fate;
  }
  SimDuration d = path_delay;
  if (config.jitter_fraction > 0.0) {
    const double u =
        hash_to_unit(mix3(net_seed ^ kJitterSalt, sender, send_seq));
    const double f = 1.0 - config.jitter_fraction +
                     2.0 * config.jitter_fraction * u;
    d = static_cast<SimDuration>(static_cast<double>(d) * f);
  }
  d += act.extra_delay;
  fate.delay = std::max<SimDuration>(d, 1);  // even loopback takes 1 us
  fate.copies = act.extra_copies;
  fate.dup_offset = std::max<SimDuration>(1, act.dup_offset);
  return fate;
}

}  // namespace mspastry::net
