#include "behaviot/testbed/datasets.hpp"

#include <algorithm>
#include <cmath>

#include "behaviot/net/rng.hpp"
#include "behaviot/testbed/automation.hpp"

namespace behaviot::testbed {
namespace {

/// Executes one voice routine: the Echo Spot's trigger event plus the
/// routine's action commands (cascading through device-sensed automations).
void run_voice_routine(TrafficGenerator& gen, const Automation& routine,
                       Timestamp t, GeneratedCapture& out,
                       const Catalog& catalog) {
  const DeviceInfo* spot = catalog.by_name("echo_spot");
  if (spot != nullptr) gen.gen_user_event(spot->id, "voice", t, out);
  Timestamp at = t;
  for (const AutomationAction& action : routine.actions) {
    at += seconds(action.delay_s);
    const DeviceInfo* dev = catalog.by_name(action.device);
    if (dev == nullptr) continue;
    gen.gen_user_event(dev->id, action.command, at, out);
    for (const ScheduledCommand& chained :
         fire_automations(action.device, action.command, at)) {
      const DeviceInfo* cd = catalog.by_name(chained.device);
      if (cd != nullptr) gen.gen_user_event(cd->id, chained.command,
                                            chained.at, out);
    }
  }
}

/// Executes a device-sensed trigger (motion/ring/...) and its automations.
void run_trigger(TrafficGenerator& gen, const std::string& device,
                 const std::string& command, Timestamp t,
                 GeneratedCapture& out, const Catalog& catalog) {
  const DeviceInfo* dev = catalog.by_name(device);
  if (dev == nullptr) return;
  gen.gen_user_event(dev->id, command, t, out);
  for (const ScheduledCommand& chained : fire_automations(device, command, t)) {
    const DeviceInfo* cd = catalog.by_name(chained.device);
    if (cd != nullptr) gen.gen_user_event(cd->id, chained.command, chained.at,
                                          out);
  }
}

const Automation* routine_by_id(const std::string& id) {
  for (const Automation& a : standard_automations()) {
    if (a.id == id) return &a;
  }
  return nullptr;
}

/// Daytime timestamp within a day: base day + uniform in [from_h, to_h).
Timestamp day_time(std::size_t day, double from_h, double to_h, Rng& rng) {
  const double h = rng.uniform(from_h, to_h);
  return Timestamp::from_seconds(static_cast<double>(day) * 86400.0 +
                                 h * 3600.0);
}

/// One day of "someone lives here" user activity on the routine subset.
/// `intensity` scales event volume; `motion_boost` multiplies Wyze motion
/// (camera-relocation incident).
void stochastic_user_day(TrafficGenerator& gen, const Catalog& catalog,
                         std::size_t day, double intensity,
                         double wyze_motion_boost, Rng& rng,
                         GeneratedCapture& out) {
  // R10: thermostat schedule fires every day.
  const DeviceInfo* nest = catalog.by_name("nest_thermostat");
  if (nest != nullptr) {
    gen.gen_user_event(nest->id, "on",
                       Timestamp::from_seconds(
                           static_cast<double>(day) * 86400.0 + 6.0 * 3600.0 +
                           rng.uniform(0, 90)),
                       out);
    gen.gen_user_event(nest->id, "off",
                       Timestamp::from_seconds(
                           static_cast<double>(day) * 86400.0 + 22.0 * 3600.0 +
                           rng.uniform(0, 90)),
                       out);
  }

  // Camera motions (people moving around) with their automations.
  struct MotionSource {
    const char* device;
    const char* command;
    double rate;
  };
  const MotionSource sources[] = {
      {"wyze_camera", "motion", 3.0 * wyze_motion_boost},
      {"ring_camera", "motion", 3.0},
      {"dlink_camera", "motion", 2.5},
      {"ring_doorbell", "motion", 2.0},
      {"ring_doorbell", "ring", 1.2},
  };
  for (const MotionSource& src : sources) {
    const std::uint64_t n = rng.poisson(src.rate * intensity);
    for (std::uint64_t i = 0; i < n; ++i) {
      run_trigger(gen, src.device, src.command, day_time(day, 7.5, 22.5, rng),
                  out, catalog);
    }
  }

  // Voice routines at plausible hours.
  struct VoiceSlot {
    const char* id;
    double from_h, to_h;
    double rate;
  };
  const VoiceSlot slots[] = {
      {"R13", 6.5, 9.0, 0.9},   // good morning
      {"R14", 21.5, 23.5, 0.9},  // good night
      {"R2", 17.0, 21.0, 0.8},  {"R3", 21.0, 23.5, 0.8},
      {"R4", 18.0, 22.0, 0.6},  {"R5", 20.0, 23.0, 0.6},
      {"R1", 7.0, 20.0, 0.7},   {"R11", 8.0, 10.0, 0.5},
  };
  for (const VoiceSlot& slot : slots) {
    const std::uint64_t n = rng.poisson(slot.rate * intensity);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Automation* routine = routine_by_id(slot.id);
      if (routine == nullptr) continue;
      run_voice_routine(gen, *routine, day_time(day, slot.from_h, slot.to_h, rng),
                        out, catalog);
    }
  }

  // Ad-hoc direct app/voice commands on random routine devices.
  const auto routine_devices = catalog.routine_set();
  const std::uint64_t adhoc = rng.poisson(5.0 * intensity);
  for (std::uint64_t i = 0; i < adhoc; ++i) {
    const DeviceInfo* dev =
        routine_devices[rng.uniform_index(routine_devices.size())];
    if (dev->commands.empty()) continue;
    const std::string& command =
        dev->commands[rng.uniform_index(dev->commands.size())];
    run_trigger(gen, dev->name, command, day_time(day, 7.0, 23.5, rng), out,
                catalog);
  }
}

}  // namespace

void configure_resolver(DomainResolver& resolver,
                        const GeneratedCapture& capture) {
  for (const auto& [ip, name] : capture.rdns) {
    resolver.add_reverse_dns(ip, name);
  }
}

DomainResolver gateway_resolver() {
  DomainResolver resolver;
  GeneratedCapture rdns_only;
  TrafficGenerator::add_static_rdns(rdns_only);
  configure_resolver(resolver, rdns_only);
  return resolver;
}

void annotate_devices(std::span<Packet> packets) {
  const Catalog& catalog = Catalog::standard();
  for (Packet& p : packets) {
    if (const DeviceInfo* device = catalog.by_ip(p.tuple.src.ip)) {
      p.device = device->id;
    }
  }
}

GeneratedCapture Datasets::idle(std::uint64_t seed, double days) {
  const Catalog& catalog = Catalog::standard();
  TrafficGenerator gen(catalog, seed);
  GeneratedCapture out;
  TrafficGenerator::add_static_rdns(out);
  const Timestamp t0 = Timestamp(0);
  const Timestamp t1 = Timestamp::from_seconds(days * 86400.0);
  for (const DeviceInfo& dev : catalog.devices()) {
    gen.gen_dns_bootstrap(dev.id, t0, out);
    gen.gen_background(dev.id, t0, t1, {}, out);
  }
  out.sort_packets();
  return out;
}

GeneratedCapture Datasets::activity(std::uint64_t seed,
                                    std::size_t repetitions) {
  const Catalog& catalog = Catalog::standard();
  TrafficGenerator gen(catalog, seed);
  Rng rng(seed ^ 0xac71ULL);
  GeneratedCapture out;
  TrafficGenerator::add_static_rdns(out);
  const Timestamp t0 = Timestamp(0);

  // Devices run their interaction scripts in parallel: each device steps
  // through its commands round-robin, one interaction every ~2-4 minutes,
  // offset so devices do not synchronize.
  Timestamp latest = t0;
  for (const DeviceInfo* dev : catalog.activity_set()) {
    if (dev->commands.empty()) continue;
    Rng drng = rng.fork(dev->id);
    Timestamp t = t0 + seconds(drng.uniform(10.0, 120.0));
    for (std::size_t rep = 0; rep < repetitions; ++rep) {
      for (const std::string& command : dev->commands) {
        gen.gen_user_event(dev->id, command, t, out);
        t += seconds(drng.uniform(120.0, 240.0));
      }
    }
    latest = std::max(latest, t);
  }
  const Timestamp t1 = latest + minutes(5.0);
  for (const DeviceInfo& dev : catalog.devices()) {
    gen.gen_dns_bootstrap(dev.id, t0, out);
    gen.gen_background(dev.id, t0, t1, {}, out);
  }
  out.sort_packets();
  return out;
}

GeneratedCapture Datasets::routine_week(std::uint64_t seed, double days) {
  const Catalog& catalog = Catalog::standard();
  TrafficGenerator gen(catalog, seed);
  Rng rng(seed ^ 0x60711e);
  GeneratedCapture out;
  TrafficGenerator::add_static_rdns(out);
  const Timestamp t0 = Timestamp(0);
  const Timestamp t1 = Timestamp::from_seconds(days * 86400.0);

  const auto n_days = static_cast<std::size_t>(std::ceil(days));
  for (std::size_t day = 0; day < n_days; ++day) {
    Rng day_rng = rng.fork(day);
    stochastic_user_day(gen, catalog, day, /*intensity=*/1.0,
                        /*wyze_motion_boost=*/1.0, day_rng, out);
  }
  // Background for the routine subset only (the paper's routine experiments
  // captured the 18 devices involved).
  for (const DeviceInfo* dev : catalog.routine_set()) {
    gen.gen_dns_bootstrap(dev->id, t0, out);
    gen.gen_background(dev->id, t0, t1, {}, out);
  }
  out.sort_packets();
  return out;
}

GeneratedCapture Datasets::uncontrolled_day(std::size_t day,
                                            std::uint64_t seed) {
  const Catalog& catalog = Catalog::standard();
  TrafficGenerator gen(catalog, seed);
  Rng rng = Rng(seed ^ 0x87dULL).fork(day);
  GeneratedCapture out;
  TrafficGenerator::add_static_rdns(out);
  const Timestamp t0 = Timestamp::from_seconds(static_cast<double>(day) *
                                               86400.0);
  const Timestamp t1 = t0 + days(1.0);

  // Incident modifiers for this day.
  double wyze_boost = 1.0;
  bool lab_experiment = false;
  bool misconfig = false;
  for (const Incident& inc : standard_incidents()) {
    if (!inc.covers_day(day)) continue;
    switch (inc.kind) {
      case IncidentKind::kCameraRelocation: wyze_boost = 6.0; break;
      case IncidentKind::kLabExperiment: lab_experiment = true; break;
      case IncidentKind::kDeviceMisconfig: misconfig = true; break;
      default: break;  // offline incidents handled via outage spans
    }
  }

  // Participants wander in and out; weekends are busier.
  const double intensity = (day % 7 >= 5 ? 1.3 : 0.9) * rng.uniform(0.7, 1.2);
  stochastic_user_day(gen, catalog, day, intensity, wyze_boost, rng, out);

  if (lab_experiment) {
    // Case 2: 50 consecutive voice activations within 30 minutes.
    const DeviceInfo* spot = catalog.by_name("echo_spot");
    Timestamp t = t0 + hours(14.0);
    for (int i = 0; i < 50; ++i) {
      if (spot != nullptr) gen.gen_user_event(spot->id, "voice", t, out);
      t += seconds(rng.uniform(20.0, 40.0));
    }
  }
  if (misconfig) {
    // Case 3: reset devices repeat on/off for ~3 hours.
    Timestamp t = t0 + hours(10.0);
    const Timestamp stop = t + hours(3.0);
    while (t < stop) {
      run_trigger(gen, "smartlife_bulb", rng.chance(0.5) ? "on" : "off", t,
                  out, catalog);
      run_trigger(gen, "switchbot_hub", rng.chance(0.5) ? "on" : "off",
                  t + seconds(rng.uniform(5.0, 20.0)), out, catalog);
      t += seconds(rng.uniform(100.0, 200.0));
    }
  }

  // Background with incident-driven outages. Day 0 bootstraps DNS.
  for (const DeviceInfo* dev : catalog.uncontrolled_set()) {
    if (day == 0) gen.gen_dns_bootstrap(dev->id, t0, out);
    gen.gen_background(dev->id, t0, t1,
                       outage_spans_for(dev->name, t0, t1), out);
  }

  // Drop user events landing inside outages (no connectivity, no events).
  const OutageSpans network_outages = outage_spans_for("", t0, t1);
  if (!network_outages.empty()) {
    auto in_any = [&network_outages](Timestamp t) {
      for (const auto& [from, to] : network_outages) {
        if (t >= from && t < to) return true;
      }
      return false;
    };
    std::erase_if(out.packets,
                  [&in_any](const Packet& p) { return in_any(p.ts); });
    std::erase_if(out.events,
                  [&in_any](const UserEvent& e) { return in_any(e.ts); });
    std::erase_if(out.truths, [&in_any](const FlowTruth& t) {
      return in_any(t.start);
    });
  }

  out.start = t0;
  out.end = t1;
  out.sort_packets();
  return out;
}

}  // namespace behaviot::testbed
