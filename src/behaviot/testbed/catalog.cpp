#include "behaviot/testbed/catalog.hpp"

#include <algorithm>
#include <stdexcept>

namespace behaviot::testbed {

const char* to_string(DeviceCategory c) {
  switch (c) {
    case DeviceCategory::kCamera: return "Camera";
    case DeviceCategory::kSmartSpeaker: return "Smart Speaker";
    case DeviceCategory::kHomeAutomation: return "Home Auto";
    case DeviceCategory::kAppliance: return "Appliance";
    case DeviceCategory::kHub: return "Hub";
  }
  return "?";
}

std::string DeviceInfo::label_for(const std::string& command) const {
  if (binary_commands_aggregated &&
      (command == "on" || command == "off" || command == "open" ||
       command == "close")) {
    return "on_off";
  }
  return command;
}

namespace {

struct Row {
  const char* name;
  const char* display;
  DeviceCategory cat;
  const char* vendor;
  std::size_t periodic;
  bool activity;
  bool routine;
  bool uncontrolled;
  std::vector<std::string> commands;
  bool aggregated;
};

std::vector<Row> table1() {
  using C = DeviceCategory;
  std::vector<Row> rows;
  // --- Cameras (11): motion / watch / record / photo / intercom / ring ---
  rows.push_back({"dlink_camera", "D-Link Camera", C::kCamera, "dlink", 5,
                  true, true, true, {"motion", "watch", "record", "photo"},
                  false});
  rows.push_back({"icsee_doorbell", "iCSee Doorbell", C::kCamera, "icsee", 10,
                  false, false, true, {"motion", "ring"}, false});
  rows.push_back({"lefun_camera", "LeFun Cam", C::kCamera, "lefun", 5, true,
                  false, true, {"motion", "watch", "record"}, false});
  rows.push_back({"microseven_camera", "Microseven Camera", C::kCamera,
                  "microseven", 4, false, false, true, {"motion", "watch"},
                  false});
  rows.push_back({"ring_camera", "Ring Camera", C::kCamera, "ring", 6, true,
                  true, true, {"motion", "video"}, false});
  rows.push_back({"ring_doorbell", "Ring Doorbell", C::kCamera, "ring", 7,
                  true, true, true, {"motion", "ring", "video"}, false});
  rows.push_back({"tuya_camera", "Tuya Camera", C::kCamera, "tuya", 5, true,
                  false, true, {"motion", "watch", "record"}, false});
  rows.push_back({"ubell_doorbell", "Ubell Doorbell", C::kCamera, "ubell", 4,
                  false, false, true, {"motion", "ring"}, false});
  rows.push_back({"wansview_camera", "Wansview Cam", C::kCamera, "wansview",
                  5, true, false, true, {"motion", "watch"}, false});
  rows.push_back({"yi_camera", "Yi Camera", C::kCamera, "yi", 5, false, false,
                  true, {"motion", "record"}, false});
  rows.push_back({"wyze_camera", "Wyze Camera", C::kCamera, "wyze", 8, true,
                  true, true, {"motion", "video", "clip"}, false});

  // --- Smart speakers (11): voice / volume / on-off ---
  rows.push_back({"echo_dot", "Echo Dot", C::kSmartSpeaker, "amazon", 20,
                  true, false, true, {"voice", "volume"}, false});
  rows.push_back({"echo_dot3", "Echo Dot3", C::kSmartSpeaker, "amazon", 21,
                  true, false, true, {"voice", "volume"}, false});
  rows.push_back({"echo_dot4", "Echo Dot4", C::kSmartSpeaker, "amazon", 22,
                  true, false, true, {"voice", "volume"}, false});
  rows.push_back({"echo_flex", "Echo Flex", C::kSmartSpeaker, "amazon", 19,
                  false, false, true, {"voice"}, false});
  rows.push_back({"echo_plus", "Echo Plus", C::kSmartSpeaker, "amazon", 24,
                  false, false, true, {"voice", "volume"}, false});
  rows.push_back({"echo_show5", "Echo Show5", C::kSmartSpeaker, "amazon", 31,
                  true, false, true, {"voice", "volume", "on_off_screen"},
                  false});
  rows.push_back({"echo_spot", "Echo Spot", C::kSmartSpeaker, "amazon", 27,
                  true, true, true, {"voice", "volume"}, false});
  rows.push_back({"google_home_mini", "Google Home Mini", C::kSmartSpeaker,
                  "google", 22, true, false, true, {"voice", "volume"},
                  false});
  rows.push_back({"google_nest_mini", "Google Nest Mini", C::kSmartSpeaker,
                  "google", 21, false, false, true, {"voice", "volume"},
                  false});
  rows.push_back({"homepod_mini", "Homepod Mini", C::kSmartSpeaker, "apple",
                  27, true, false, true, {"voice", "volume"}, false});
  rows.push_back({"homepod", "Homepod", C::kSmartSpeaker, "apple", 23, false,
                  false, true, {"voice"}, false});

  // --- Home automation & sensors (16) ---
  rows.push_back({"amazon_plug", "Amazon Plug", C::kHomeAutomation, "amazon",
                  4, true, false, true, {"on", "off"}, true});
  rows.push_back({"dlink_sensor", "D-Link Sensor", C::kHomeAutomation,
                  "dlink", 3, false, false, true, {"motion"}, false});
  rows.push_back({"govee_bulb", "Govee Bulb", C::kHomeAutomation, "govee", 4,
                  true, true, true, {"on", "off"}, false});
  rows.push_back({"meross_dooropener", "Meross Dooropener",
                  C::kHomeAutomation, "meross", 4, true, true, true,
                  {"open", "close"}, false});
  rows.push_back({"nest_thermostat", "Nest Thermostat", C::kHomeAutomation,
                  "nest", 8, true, true, true, {"on", "off", "set"}, false});
  rows.push_back({"smartlife_bulb", "Smartlife Bulb", C::kHomeAutomation,
                  "smartlife", 4, true, true, true, {"on", "off"}, true});
  rows.push_back({"tplink_bulb", "TPLink Bulb", C::kHomeAutomation, "tplink",
                  4, true, true, true, {"on", "off", "color", "dim"}, false});
  rows.push_back({"keyco_air_sensor", "Keyco Air Sensor", C::kHomeAutomation,
                  "keyco", 3, false, false, true, {}, false});
  rows.push_back({"jinvoo_bulb", "Jinvoo Bulb", C::kHomeAutomation, "jinvoo",
                  4, true, true, true, {"on", "off", "color"}, true});
  rows.push_back({"gosund_bulb", "Gosund Bulb", C::kHomeAutomation, "gosund",
                  4, true, true, true, {"on", "off"}, true});
  rows.push_back({"magichome_strip", "Magichome Strip", C::kHomeAutomation,
                  "magichome", 4, true, true, true, {"on", "off"}, false});
  rows.push_back({"philips_bulb", "Philips Bulb", C::kHomeAutomation,
                  "philips", 4, true, true, true, {"on", "off"}, true});
  rows.push_back({"ring_chime", "Ring Chime", C::kHomeAutomation, "ring", 4,
                  false, false, true, {"ring"}, false});
  rows.push_back({"wemo_plug", "Wemo Plug", C::kHomeAutomation, "wemo", 4,
                  true, true, true, {"on", "off"}, true});
  rows.push_back({"tplink_plug", "TPLink Plug", C::kHomeAutomation, "tplink",
                  3, true, true, true, {"on", "off"}, true});
  rows.push_back({"thermopro_sensor", "Thermopro Sensor", C::kHomeAutomation,
                  "thermopro", 4, false, false, true, {}, false});

  // --- Appliances (5) ---
  rows.push_back({"behmor_brewer", "Behmor Brewer", C::kAppliance, "behmor",
                  4, false, false, false, {"on", "off"}, true});
  rows.push_back({"samsung_fridge", "Samsung Fridge", C::kAppliance,
                  "samsung", 22, true, false, true, {"on", "off"}, true});
  rows.push_back({"smarter_ikettle", "Smarter iKettle", C::kAppliance,
                  "smarter", 3, true, true, true, {"on", "off"}, false});
  rows.push_back({"ge_microwave", "GE Microwave", C::kAppliance, "ge", 3,
                  false, false, true, {"on", "off"}, true});
  rows.push_back({"anova_sousvide", "Anova Sousvide", C::kAppliance, "anova",
                  3, false, false, true, {"on", "off"}, true});

  // --- Hubs (6) ---
  rows.push_back({"aqara_hub", "Aqara Hub", C::kHub, "aqara", 4, false, false,
                  true, {"on", "off"}, true});
  rows.push_back({"ikea_hub", "IKEA Hub", C::kHub, "ikea", 4, false, false,
                  true, {"on", "off"}, true});
  rows.push_back({"smartthings_hub", "SmartThings Hub", C::kHub, "samsung", 5,
                  true, false, true, {"on_off_all"}, false});
  rows.push_back({"switchbot_hub", "SwitchBot Hub", C::kHub, "switchbot", 3,
                  true, true, true, {"on", "off"}, true});
  rows.push_back({"philips_hub", "Philips Hub", C::kHub, "philips", 15, true,
                  false, true, {"on", "off"}, true});
  rows.push_back({"wink_hub2", "Wink Hub2", C::kHub, "wink", 5, false, false,
                  false, {"on", "off"}, true});
  return rows;
}

}  // namespace

Catalog::Catalog() {
  const auto rows = table1();
  devices_.reserve(rows.size());
  DeviceId next_id = 0;
  for (const Row& row : rows) {
    DeviceInfo d;
    d.id = next_id++;
    d.name = row.name;
    d.display = row.display;
    d.category = row.cat;
    d.vendor = row.vendor;
    d.ip = Ipv4Addr(192, 168, 1, static_cast<std::uint8_t>(10 + d.id));
    d.periodic_behaviors = row.periodic;
    d.in_activity_set = row.activity;
    d.in_routine_set = row.routine;
    d.in_uncontrolled = row.uncontrolled;
    d.commands = row.commands;
    d.binary_commands_aggregated = row.aggregated;
    devices_.push_back(std::move(d));
  }
  by_ip_.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    by_ip_.emplace_back(devices_[i].ip, i);
  }
  std::stable_sort(by_ip_.begin(), by_ip_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
}

const Catalog& Catalog::standard() {
  static const Catalog instance;
  return instance;
}

const DeviceInfo* Catalog::by_name(const std::string& name) const {
  for (const DeviceInfo& d : devices_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

const DeviceInfo& Catalog::by_id(DeviceId id) const {
  if (id >= devices_.size()) throw std::out_of_range("Catalog::by_id");
  return devices_[id];
}

const DeviceInfo* Catalog::by_ip(Ipv4Addr ip) const {
  const auto it = std::lower_bound(
      by_ip_.begin(), by_ip_.end(), ip,
      [](const std::pair<Ipv4Addr, std::size_t>& e, Ipv4Addr key) {
        return e.first < key;
      });
  if (it == by_ip_.end() || it->first != ip) return nullptr;
  return &devices_[it->second];
}

std::vector<const DeviceInfo*> Catalog::in_category(DeviceCategory c) const {
  std::vector<const DeviceInfo*> out;
  for (const DeviceInfo& d : devices_) {
    if (d.category == c) out.push_back(&d);
  }
  return out;
}

std::vector<const DeviceInfo*> Catalog::activity_set() const {
  std::vector<const DeviceInfo*> out;
  for (const DeviceInfo& d : devices_) {
    if (d.in_activity_set) out.push_back(&d);
  }
  return out;
}

std::vector<const DeviceInfo*> Catalog::routine_set() const {
  std::vector<const DeviceInfo*> out;
  for (const DeviceInfo& d : devices_) {
    if (d.in_routine_set) out.push_back(&d);
  }
  return out;
}

std::vector<const DeviceInfo*> Catalog::uncontrolled_set() const {
  std::vector<const DeviceInfo*> out;
  for (const DeviceInfo& d : devices_) {
    if (d.in_uncontrolled) out.push_back(&d);
  }
  return out;
}

}  // namespace behaviot::testbed
