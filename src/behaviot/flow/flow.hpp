// Flow records — the unit of all BehavIoT modeling.
//
// Per §4.1: packets are grouped by 5-tuple into flows, long flows are split
// into *flow bursts* at 1-second inactivity gaps, and (as in the paper) we
// call the bursts simply "flows" from there on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "behaviot/net/packet.hpp"

namespace behaviot {

/// Header/timing summary of one packet inside a flow. Payload is dropped —
/// after annotation the pipeline is content-blind.
struct PacketSummary {
  Timestamp ts;
  std::uint32_t size = 0;  ///< IP total length
  Direction dir = Direction::kOutbound;
  bool local = false;  ///< both endpoints in private address space
};

/// Ground-truth tag attached by the testbed simulator (or by controlled
/// experiments on a real capture). kUnknown on unlabeled traffic.
enum class EventKind : std::uint8_t { kUnknown, kPeriodic, kUser, kAperiodic };

[[nodiscard]] const char* to_string(EventKind k);

struct FlowRecord {
  DeviceId device = kUnknownDevice;
  FiveTuple tuple;
  AppProtocol app = AppProtocol::kOtherTcp;
  std::string domain;  ///< annotated destination domain, may be empty
  Timestamp start;
  Timestamp end;
  std::vector<PacketSummary> packets;

  // --- ground truth (simulation / controlled experiments only) ---
  EventKind truth = EventKind::kUnknown;
  std::string truth_label;  ///< e.g. "ring_camera:motion" for user events

  [[nodiscard]] double duration_seconds() const {
    return static_cast<double>(end - start) / 1e6;
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t b = 0;
    for (const auto& p : packets) b += p.size;
    return b;
  }
  /// Traffic-group key used by the periodic modeling: (domain, protocol).
  [[nodiscard]] std::string group_key() const;
  /// group_key() written into `out`, replacing its contents. A caller that
  /// reuses one buffer across flows allocates only when a key outgrows it.
  void group_key_into(std::string& out) const;
};

}  // namespace behaviot
