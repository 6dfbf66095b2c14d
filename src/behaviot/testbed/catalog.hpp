// The simulated testbed's device catalog: the 49 devices of Table 1, their
// categories, vendors, dataset memberships, and user activities.
//
// `periodic_behaviors` encodes how many periodic traffic groups each device
// exhibits (DNS and NTP included), sized per category to match the Table-4
// distribution (home automation ≈ 4, cameras ≈ 6, smart speakers ≈ 23,
// hubs ≈ 6, appliances ≈ 6; Echo Show 5 tops the list at 31).
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "behaviot/net/ip.hpp"
#include "behaviot/net/packet.hpp"

namespace behaviot::testbed {

enum class DeviceCategory : std::uint8_t {
  kCamera,
  kSmartSpeaker,
  kHomeAutomation,
  kAppliance,
  kHub,
};

[[nodiscard]] const char* to_string(DeviceCategory c);
inline constexpr std::size_t kNumCategories = 5;

struct DeviceInfo {
  DeviceId id = kUnknownDevice;
  std::string name;     ///< snake_case key, e.g. "tplink_plug"
  std::string display;  ///< Table-1 spelling, e.g. "TPLink Plug"
  DeviceCategory category = DeviceCategory::kHomeAutomation;
  std::string vendor;  ///< PartyRegistry vendor key
  Ipv4Addr ip;         ///< static lease on the testbed LAN
  std::size_t periodic_behaviors = 4;  ///< periodic traffic groups (incl. DNS/NTP)
  bool in_activity_set = false;   ///< 30-device labeled interaction dataset
  bool in_routine_set = false;    ///< 18-device automation dataset (Table 6)
  bool in_uncontrolled = false;   ///< 47-device user-study dataset
  /// Physical user commands (e.g. "on", "off", "motion"). The *network
  /// label* of a command may aggregate indistinguishable pairs — see
  /// `label_for`.
  std::vector<std::string> commands;
  /// True when this device's on/off (or equivalent binary) commands produce
  /// identical traffic and are aggregated into one label (§6.1: 13 of 18
  /// devices).
  bool binary_commands_aggregated = false;

  /// Network-level ground-truth label for a physical command.
  [[nodiscard]] std::string label_for(const std::string& command) const;
};

class Catalog {
 public:
  /// The 49-device testbed of Table 1.
  static const Catalog& standard();

  [[nodiscard]] std::span<const DeviceInfo> devices() const {
    return devices_;
  }
  [[nodiscard]] const DeviceInfo* by_name(const std::string& name) const;
  [[nodiscard]] const DeviceInfo& by_id(DeviceId id) const;
  [[nodiscard]] const DeviceInfo* by_ip(Ipv4Addr ip) const;
  [[nodiscard]] std::size_t size() const { return devices_.size(); }

  [[nodiscard]] std::vector<const DeviceInfo*> in_category(
      DeviceCategory c) const;
  [[nodiscard]] std::vector<const DeviceInfo*> activity_set() const;
  [[nodiscard]] std::vector<const DeviceInfo*> routine_set() const;
  [[nodiscard]] std::vector<const DeviceInfo*> uncontrolled_set() const;

 private:
  Catalog();
  std::vector<DeviceInfo> devices_;
  /// (address, index into devices_) sorted by address, equal addresses in
  /// catalog order, so by_ip() is a binary search that keeps first-match
  /// semantics. Device annotation calls it once per packet.
  std::vector<std::pair<Ipv4Addr, std::size_t>> by_ip_;
};

}  // namespace behaviot::testbed
