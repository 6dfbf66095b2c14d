// Dataset factories reproducing the paper's data collection (§3):
//   idle            — 5 days, 49 devices, zero user interaction
//   activity        — scripted labeled interactions, ≥30 reps per activity
//   routine_week    — 18 devices, 7 days of automations + ad-hoc commands
//   uncontrolled    — 87 days, 47 devices, stochastic participants + the
//                     injected incidents of incidents.hpp
// All captures regenerate bit-identically from their seeds.
#pragma once

#include <span>

#include "behaviot/net/domain_resolver.hpp"
#include "behaviot/testbed/incidents.hpp"
#include "behaviot/testbed/traffic_gen.hpp"

namespace behaviot::testbed {

struct Datasets {
  static constexpr std::size_t kUncontrolledDays = 87;
  static constexpr double kIdleDays = 5.0;

  /// Idle dataset (§3.2): all 49 devices, background only.
  static GeneratedCapture idle(std::uint64_t seed = 101,
                               double days = kIdleDays);

  /// Activity dataset (§3.2): every activity-set device runs each of its
  /// commands `repetitions` times, background running, ground truth labeled.
  static GeneratedCapture activity(std::uint64_t seed = 202,
                                   std::size_t repetitions = 30);

  /// Routine dataset (§3.2): one week of trigger-action automations plus
  /// ad-hoc voice/app commands on the 18-device subset.
  static GeneratedCapture routine_week(std::uint64_t seed = 303,
                                       double days = 7.0);

  /// One day of the uncontrolled dataset (§3.3), 0-indexed. Generated
  /// per-day so longitudinal benches can stream 87 days without holding the
  /// whole capture in memory. Incidents from standard_incidents() apply.
  static GeneratedCapture uncontrolled_day(std::size_t day,
                                           std::uint64_t seed = 404);
};

/// Installs the capture's reverse-DNS entries into a resolver (the gateway
/// operator's static configuration).
void configure_resolver(DomainResolver& resolver,
                        const GeneratedCapture& capture);

/// A resolver holding the testbed's static reverse-DNS table — what every
/// command starts from before the capture teaches it DNS/SNI bindings.
[[nodiscard]] DomainResolver gateway_resolver();

/// Restores device identity on packets read back from a pcap (which does
/// not carry it) from the catalog's lease table, keyed by source address.
void annotate_devices(std::span<Packet> packets);

}  // namespace behaviot::testbed
