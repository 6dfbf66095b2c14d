#include "behaviot/deviation/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "behaviot/core/checkpoint.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/pfsm/synoptic.hpp"

namespace behaviot {
namespace {

using Traces = std::vector<std::vector<std::string>>;

/// Minimal fixture: one periodic model (600 s heartbeat) and a tiny PFSM.
struct MonitorFixture {
  PeriodicModelSet periodic;
  Pfsm pfsm;
  ShortTermThreshold short_term;

  MonitorFixture() {
    // Synthesize idle flows: one group, 600 s period, 1 day.
    std::vector<FlowRecord> flows;
    for (double t = 0; t < 86400.0; t += 600.0) {
      FlowRecord f;
      f.device = 1;
      f.tuple = {{Ipv4Addr(192, 168, 1, 11), 40000},
                 {Ipv4Addr(54, 2, 2, 2), 443},
                 Transport::kTcp};
      f.domain = "hb.vendor.com";
      f.app = AppProtocol::kTls;
      f.start = f.end = Timestamp::from_seconds(t);
      f.packets = {{f.start, 120, Direction::kOutbound, false},
                   {f.start + milliseconds(40), 90, Direction::kInbound,
                    false}};
      f.truth = EventKind::kPeriodic;
      flows.push_back(std::move(f));
    }
    periodic = PeriodicModelSet::infer(flows, 86400.0);

    const Traces traces{{"cam:motion", "bulb:on"},
                        {"cam:motion", "bulb:on"},
                        {"plug:on", "plug:off"}};
    pfsm = infer_pfsm(traces).pfsm;
    short_term = ShortTermThreshold::calibrate(pfsm, traces);
  }

  [[nodiscard]] FlowRecord heartbeat_at(double t_s) const {
    FlowRecord f;
    f.device = 1;
    f.tuple = {{Ipv4Addr(192, 168, 1, 11), 41000},
               {Ipv4Addr(54, 2, 2, 2), 443},
               Transport::kTcp};
    f.domain = "hb.vendor.com";
    f.app = AppProtocol::kTls;
    f.start = f.end = Timestamp::from_seconds(t_s);
    f.packets = {{f.start, 120, Direction::kOutbound, false}};
    return f;
  }

  [[nodiscard]] static EventTrace trace_of(
      const std::vector<std::string>& labels, double t0_s) {
    EventTrace trace;
    double t = t0_s;
    for (const auto& l : labels) {
      UserEvent e;
      const auto colon = l.find(':');
      e.device_name = l.substr(0, colon);
      e.activity = l.substr(colon + 1);
      e.ts = Timestamp::from_seconds(t);
      t += 5.0;
      trace.push_back(e);
    }
    return trace;
  }
};

TEST(DeviationMonitor, QuietWindowRaisesNothing) {
  MonitorFixture fx;
  ASSERT_EQ(fx.periodic.size(), 1u);
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);

  std::vector<FlowRecord> flows;
  for (double t = 0; t < 86400.0; t += 600.0) {
    flows.push_back(fx.heartbeat_at(t));
  }
  const std::vector<EventTrace> traces{
      MonitorFixture::trace_of({"cam:motion", "bulb:on"}, 1000.0)};
  const auto alerts = monitor.evaluate_window(
      Timestamp(0), Timestamp::from_seconds(86400.0), flows, traces);
  EXPECT_TRUE(alerts.empty());
}

TEST(DeviationMonitor, SilencedHeartbeatTriggersPeriodicAlert) {
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);

  // First window: normal. Second window: device goes silent (outage).
  std::vector<FlowRecord> day1;
  for (double t = 0; t < 86400.0; t += 600.0) day1.push_back(fx.heartbeat_at(t));
  auto alerts = monitor.evaluate_window(
      Timestamp(0), Timestamp::from_seconds(86400.0), day1, {});
  EXPECT_TRUE(alerts.empty());

  const std::vector<FlowRecord> empty_day;
  alerts = monitor.evaluate_window(Timestamp::from_seconds(86400.0),
                                   Timestamp::from_seconds(2 * 86400.0),
                                   empty_day, {});
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].source, DeviationSource::kPeriodic);
  EXPECT_EQ(alerts[0].device, 1);
  EXPECT_GT(alerts[0].score, kPeriodicDeviationThreshold);
  EXPECT_NE(alerts[0].context.find("silent"), std::string::npos);
}

TEST(DeviationMonitor, OneAlertPerDeviceNamesTheWorstGroup) {
  // Two groups of one device go silent in the same window. The device
  // raises one alert: the 300 s group misses more cycles, so it scores
  // worst and names the alert; the 600 s group is only counted.
  MonitorFixture fx;
  const auto flow_at = [&fx](const std::string& domain, double t_s) {
    FlowRecord f = fx.heartbeat_at(t_s);
    f.domain = domain;
    return f;
  };
  const auto model_of = [&](const std::string& domain, double period_s) {
    PeriodicModel m;
    m.device = 1;
    m.group = flow_at(domain, 0.0).group_key();
    m.domain = domain;
    m.app = AppProtocol::kTls;
    m.period_seconds = period_s;
    m.tolerance_seconds = 0.02 * period_s;
    m.support = 100;
    return m;
  };
  // The 600 s group comes first, so the 300 s group must displace it.
  const PeriodicModelSet periodic = PeriodicModelSet::from_models(
      {model_of("slow.vendor.com", 600.0), model_of("fast.vendor.com", 300.0)});
  DeviationMonitor monitor(periodic, fx.pfsm, fx.short_term);
  const double day = 86400.0;

  std::vector<FlowRecord> day1;
  for (double t = 0; t < day; t += 600.0) {
    day1.push_back(flow_at("slow.vendor.com", t));
  }
  for (double t = 0; t < day; t += 300.0) {
    day1.push_back(flow_at("fast.vendor.com", t));
  }
  std::sort(day1.begin(), day1.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.start < b.start;
            });
  EXPECT_TRUE(monitor
                  .evaluate_window(Timestamp(0), Timestamp::from_seconds(day),
                                   day1, {})
                  .empty());

  const auto alerts = monitor.evaluate_window(
      Timestamp::from_seconds(day), Timestamp::from_seconds(2 * day), {}, {});
  ASSERT_EQ(alerts.size(), 1u);
  const DeviationAlert& a = alerts[0];
  EXPECT_EQ(a.source, DeviationSource::kPeriodic);
  EXPECT_EQ(a.device, 1);
  const std::string fast_group = periodic.all()[1].group;
  EXPECT_EQ(a.context.rfind(fast_group + ": silent for ", 0), 0u) << a.context;
  const std::string suffix = " (+1 co-deviating groups)";
  ASSERT_GE(a.context.size(), suffix.size());
  EXPECT_EQ(a.context.substr(a.context.size() - suffix.size()), suffix)
      << a.context;
  EXPECT_EQ(a.explanation.model_group, fast_group);
  EXPECT_EQ(a.explanation.expected, 300.0);
  EXPECT_NEAR(a.score, periodic_deviation(day + 300.0, 300.0), 1e-9);
}

TEST(DeviationMonitor, LateArrivalWithinToleranceIsQuiet) {
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  std::vector<FlowRecord> flows;
  for (double t = 0; t < 86400.0; t += 600.0) {
    flows.push_back(fx.heartbeat_at(t + 3.0));  // tiny jitter
  }
  const auto alerts = monitor.evaluate_window(
      Timestamp(0), Timestamp::from_seconds(86400.0), flows, {});
  EXPECT_TRUE(alerts.empty());
}

TEST(DeviationMonitor, NovelTraceTriggersShortTermAlert) {
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  const std::vector<EventTrace> traces{MonitorFixture::trace_of(
      {"kettle:on", "door:open", "plug:off", "cam:motion"}, 100.0)};
  std::vector<FlowRecord> flows;
  for (double t = 0; t < 86400.0; t += 600.0) flows.push_back(fx.heartbeat_at(t));
  const auto alerts = monitor.evaluate_window(
      Timestamp(0), Timestamp::from_seconds(86400.0), flows, traces);
  bool short_term = false;
  for (const auto& a : alerts) {
    short_term |= a.source == DeviationSource::kShortTerm;
  }
  EXPECT_TRUE(short_term);
}

TEST(DeviationMonitor, RepeatedNovelTraceIsDedupedWithinWindow) {
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  std::vector<EventTrace> traces;
  for (int i = 0; i < 5; ++i) {
    traces.push_back(
        MonitorFixture::trace_of({"ghost:event", "plug:on"}, 100.0 + i * 200));
  }
  std::vector<FlowRecord> flows;
  for (double t = 0; t < 86400.0; t += 600.0) flows.push_back(fx.heartbeat_at(t));
  const auto alerts = monitor.evaluate_window(
      Timestamp(0), Timestamp::from_seconds(86400.0), flows, traces);
  std::size_t short_term = 0;
  for (const auto& a : alerts) {
    short_term += a.source == DeviationSource::kShortTerm ? 1 : 0;
  }
  EXPECT_EQ(short_term, 1u);
}

TEST(DeviationMonitor, FrequencyShiftTriggersLongTermAlert) {
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  // The model has cam:motion → bulb:on at p=1.0. A window where motion is
  // followed by plug:off instead shifts transition frequencies.
  std::vector<EventTrace> traces;
  for (int i = 0; i < 15; ++i) {
    traces.push_back(
        MonitorFixture::trace_of({"cam:motion", "plug:off"}, 100.0 + i * 300));
  }
  std::vector<FlowRecord> flows;
  for (double t = 0; t < 86400.0; t += 600.0) flows.push_back(fx.heartbeat_at(t));
  const auto alerts = monitor.evaluate_window(
      Timestamp(0), Timestamp::from_seconds(86400.0), flows, traces);
  bool long_term = false;
  for (const auto& a : alerts) {
    long_term |= a.source == DeviationSource::kLongTerm;
  }
  EXPECT_TRUE(long_term);
}

TEST(DeviationMonitor, SilenceEpisodeAlertsOnceUntilTrafficResumes) {
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  const double day = 86400.0;
  auto window = [&](int day_idx, bool with_traffic) {
    std::vector<FlowRecord> flows;
    if (with_traffic) {
      for (double t = 0; t < day; t += 600.0) {
        flows.push_back(fx.heartbeat_at(day_idx * day + t));
      }
    }
    return monitor.evaluate_window(Timestamp::from_seconds(day_idx * day),
                                   Timestamp::from_seconds((day_idx + 1) * day),
                                   flows, {});
  };
  auto silence_alerts = [](const std::vector<DeviationAlert>& alerts) {
    std::size_t n = 0;
    for (const auto& a : alerts) {
      n += a.context.find("silent") != std::string::npos ? 1 : 0;
    }
    return n;
  };

  EXPECT_TRUE(window(0, true).empty());
  // Three consecutive silent windows: the episode alerts exactly once.
  EXPECT_EQ(silence_alerts(window(1, false)), 1u);
  EXPECT_EQ(silence_alerts(window(2, false)), 0u);
  EXPECT_EQ(silence_alerts(window(3, false)), 0u);
  // Traffic resumes (the resume window itself may alert on the giant
  // inter-arrival gap, but not on silence)...
  EXPECT_EQ(silence_alerts(window(4, true)), 0u);
  // ...and a fresh outage is a new episode: it alerts again, once.
  EXPECT_EQ(silence_alerts(window(5, false)), 1u);
  EXPECT_EQ(silence_alerts(window(6, false)), 0u);
}

TEST(DeviationMonitor, RetrainingPurgesStaleStreamingState) {
  MonitorFixture fx;
  const std::vector<PeriodicModel> trained = fx.periodic.all();
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  const double day = 86400.0;

  // Day 1: traffic arms the timer. Day 2: silence alerts once.
  std::vector<FlowRecord> day1;
  for (double t = 0; t < day; t += 600.0) day1.push_back(fx.heartbeat_at(t));
  EXPECT_TRUE(monitor
                  .evaluate_window(Timestamp(0), Timestamp::from_seconds(day),
                                   day1, {})
                  .empty());
  auto alerts = monitor.evaluate_window(Timestamp::from_seconds(day),
                                        Timestamp::from_seconds(2 * day), {},
                                        {});
  ASSERT_EQ(alerts.size(), 1u);

  // Retraining drops the model: the silent window raises nothing and the
  // monitor purges the group's timer and silence-episode marker.
  fx.periodic = PeriodicModelSet::from_models({});
  EXPECT_TRUE(monitor
                  .evaluate_window(Timestamp::from_seconds(2 * day),
                                   Timestamp::from_seconds(3 * day), {}, {})
                  .empty());

  // The model returns after retraining. Without the purge the group would
  // inherit the old era's silence_reported_ marker and stay suppressed;
  // with it, the new era's silence alerts afresh — scored from the window
  // start, not from the day-1 timer.
  fx.periodic = PeriodicModelSet::from_models(trained);
  alerts = monitor.evaluate_window(Timestamp::from_seconds(3 * day),
                                   Timestamp::from_seconds(4 * day), {}, {});
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].source, DeviationSource::kPeriodic);
  EXPECT_NE(alerts[0].context.find("silent"), std::string::npos);
  const double one_window =
      periodic_deviation(day, trained[0].period_seconds);
  EXPECT_NEAR(alerts[0].score, one_window, 1e-9);
}

TEST(DeviationMonitor, TiedFirstSightingScoresTiedOccurrences) {
  // Regression fix: the first-sighting arm used timestamp equality, so when
  // several occurrences of a never-seen group shared one timestamp, ALL of
  // them were skipped — burying the zero inter-arrival deviation the tied
  // duplicates represent. Only the first occurrence (by index) may arm.
  MonitorFixture fx;
  MonitorOptions options;
  // Zero elapsed scores Mp = ln(|0 - T|/T + 1) = ln 2 ~= 0.69; set the
  // threshold below that but above the ~0 end-of-window silence score.
  options.thresholds.periodic = 0.5;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term, options);

  // Three tied occurrences, placed one period before window end so the
  // count-up timer contributes nothing.
  const std::vector<FlowRecord> flows{fx.heartbeat_at(85800.0),
                                      fx.heartbeat_at(85800.0),
                                      fx.heartbeat_at(85800.0)};
  const auto alerts = monitor.evaluate_window(
      Timestamp(0), Timestamp::from_seconds(86400.0), flows, {});
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].source, DeviationSource::kPeriodic);
  EXPECT_NE(alerts[0].context.find("inter-arrival"), std::string::npos);
  EXPECT_NEAR(alerts[0].explanation.observed, 0.0, 1e-9);
}

TEST(DeviationMonitor, RebindSwapsModelsAndKeepsStreamingState) {
  // Hot model swap (`behaviot watch`): rebinding to a new generation keeps
  // armed timers, so a silence spanning the swap still alerts exactly once.
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  const double day = 86400.0;
  std::vector<FlowRecord> day1;
  for (double t = 0; t < day; t += 600.0) day1.push_back(fx.heartbeat_at(t));
  EXPECT_TRUE(monitor
                  .evaluate_window(Timestamp(0), Timestamp::from_seconds(day),
                                   day1, {})
                  .empty());

  // Swap in an identical-parameter generation (a retrain that kept the
  // model), then go silent: the day-1 timer must still be armed.
  const PeriodicModelSet next_gen =
      PeriodicModelSet::from_models(fx.periodic.all());
  monitor.rebind(next_gen, fx.pfsm, fx.short_term);
  auto alerts = monitor.evaluate_window(Timestamp::from_seconds(day),
                                        Timestamp::from_seconds(2 * day), {},
                                        {});
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].source, DeviationSource::kPeriodic);
  EXPECT_NE(alerts[0].context.find("silent"), std::string::npos);
  // Same episode, next window: still suppressed across the swap boundary.
  monitor.rebind(fx.periodic, fx.pfsm, fx.short_term);
  EXPECT_TRUE(monitor
                  .evaluate_window(Timestamp::from_seconds(2 * day),
                                   Timestamp::from_seconds(3 * day), {}, {})
                  .empty());
}

/// A hand-built 600 s heartbeat model of `device` toward `domain`.
PeriodicModel heartbeat_model(DeviceId device, const std::string& domain) {
  PeriodicModel m;
  m.device = device;
  m.group = domain + "|TLS";
  m.domain = domain;
  m.app = AppProtocol::kTls;
  m.period_seconds = 600.0;
  m.tolerance_seconds = 12.0;
  m.support = 100;
  return m;
}

FlowRecord heartbeat_flow(DeviceId device, const std::string& domain,
                          double t_s) {
  FlowRecord f;
  f.device = device;
  f.tuple = {{Ipv4Addr(192, 168, 1, 11), 41000},
             {Ipv4Addr(54, 2, 2, 2), 443},
             Transport::kTcp};
  f.domain = domain;
  f.app = AppProtocol::kTls;
  f.start = f.end = Timestamp::from_seconds(t_s);
  f.packets = {{f.start, 120, Direction::kOutbound, false}};
  return f;
}

TEST(DeviationMonitor, SwapKeepsSurvivingTimersAndArmsNewGroupsQuietly) {
  // A retrain keeps device 1's group, drops device 2's and adds device 3's,
  // in a new slot order. The kept group's silence is scored from its last
  // occurrence before the swap, not from the window start; the new group's
  // on-period traffic raises nothing.
  MonitorFixture fx;
  const PeriodicModelSet before = PeriodicModelSet::from_models(
      {heartbeat_model(2, "gone.vendor.com"),
       heartbeat_model(1, "kept.vendor.com")});
  const PeriodicModelSet after = PeriodicModelSet::from_models(
      {heartbeat_model(1, "kept.vendor.com"),
       heartbeat_model(3, "new.vendor.com")});
  DeviationMonitor monitor(before, fx.pfsm, fx.short_term);

  std::vector<FlowRecord> first;
  for (double t = 0; t < 6000.0; t += 600.0) {
    first.push_back(heartbeat_flow(1, "kept.vendor.com", t));
    first.push_back(heartbeat_flow(2, "gone.vendor.com", t));
  }
  EXPECT_TRUE(monitor
                  .evaluate_window(Timestamp(0),
                                   Timestamp::from_seconds(6000.0), first, {})
                  .empty());

  monitor.rebind(after, fx.pfsm, fx.short_term);
  std::vector<FlowRecord> second;
  for (double t = 6000.0; t < 12000.0; t += 600.0) {
    second.push_back(heartbeat_flow(3, "new.vendor.com", t));
  }
  const auto alerts =
      monitor.evaluate_window(Timestamp::from_seconds(6000.0),
                              Timestamp::from_seconds(12000.0), second, {});
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].device, 1);
  EXPECT_EQ(alerts[0].explanation.model_group, "kept.vendor.com|TLS");
  // Last occurrence at 5,400 s, window end at 12,000 s.
  EXPECT_DOUBLE_EQ(alerts[0].explanation.observed, 6600.0);

  const DeviationMonitorState state = monitor.export_state();
  ASSERT_EQ(state.last_seen.size(), 2u);
  EXPECT_EQ(std::get<1>(state.last_seen[0]), "kept.vendor.com|TLS");
  EXPECT_EQ(std::get<2>(state.last_seen[0]), Timestamp::from_seconds(5400.0));
  EXPECT_EQ(std::get<1>(state.last_seen[1]), "new.vendor.com|TLS");
  EXPECT_EQ(state.silence_reported.size(), 1u);
}

TEST(DeviationMonitor, SlotOrderDoesNotReachTheExportedState) {
  // The same models listed in two orders give the same alerts, the same
  // exported state and the same checkpoint bytes.
  MonitorFixture fx;
  std::vector<PeriodicModel> models;
  for (const char* domain : {"b.vendor.com", "a.vendor.com", "c.vendor.com"}) {
    models.push_back(heartbeat_model(1, domain));
    models.push_back(heartbeat_model(2, domain));
  }
  std::vector<PeriodicModel> reversed(models.rbegin(), models.rend());
  const PeriodicModelSet forward = PeriodicModelSet::from_models(models);
  const PeriodicModelSet backward = PeriodicModelSet::from_models(reversed);

  const auto run = [&fx](const PeriodicModelSet& set) {
    DeviationMonitor monitor(set, fx.pfsm, fx.short_term);
    std::vector<FlowRecord> flows;
    for (double t = 0; t < 6000.0; t += 600.0) {
      for (const char* domain : {"a.vendor.com", "b.vendor.com"}) {
        flows.push_back(heartbeat_flow(1, domain, t));
        flows.push_back(heartbeat_flow(2, domain, t + 1.0));
      }
      flows.push_back(heartbeat_flow(2, "c.vendor.com", t + 2.0));
    }
    (void)monitor.evaluate_window(Timestamp(0),
                                  Timestamp::from_seconds(6000.0), flows, {});
    const auto alerts = monitor.evaluate_window(
        Timestamp::from_seconds(6000.0), Timestamp::from_seconds(12000.0), {},
        {});
    WatchCheckpoint cp;
    cp.engine.monitor = monitor.export_state();
    return std::make_tuple(alerts.size(), cp.engine.monitor,
                           save_checkpoint(cp));
  };
  const auto [alerts_f, state_f, bytes_f] = run(forward);
  const auto [alerts_b, state_b, bytes_b] = run(backward);
  EXPECT_EQ(alerts_f, 2u);
  EXPECT_EQ(alerts_b, alerts_f);
  EXPECT_EQ(state_f.last_seen, state_b.last_seen);
  EXPECT_EQ(state_f.silence_reported, state_b.silence_reported);
  ASSERT_EQ(state_f.last_seen.size(), 5u);
  EXPECT_TRUE(std::is_sorted(state_f.last_seen.begin(),
                             state_f.last_seen.end()));
  EXPECT_EQ(bytes_f, bytes_b);
}

TEST(DeviationMonitor, ImportedKeysTheBoundSetLacksArePurgedAtTheNextWindow) {
  // A checkpoint may name a group the bound set no longer has (its final
  // image is taken after the end-of-stream swap). The entry stands until
  // the next window, as an export in between must reproduce the image,
  // and is then dropped and counted.
  MonitorFixture fx;
  const std::string group = fx.periodic.all().front().group;
  DeviationMonitorState state;
  const std::string retired = "retired.vendor.com|TLS";
  state.last_seen = {{1, group, Timestamp::from_seconds(100.0)},
                     {1, group, Timestamp::from_seconds(200.0)},
                     {7, retired, Timestamp::from_seconds(50.0)}};
  state.silence_reported = {{7, retired}};
  state.primed = true;

  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  monitor.import_state(state);
  const DeviationMonitorState imported = monitor.export_state();
  ASSERT_EQ(imported.last_seen.size(), 2u);  // the first duplicate wins
  EXPECT_EQ(std::get<1>(imported.last_seen[0]), group);
  EXPECT_EQ(std::get<2>(imported.last_seen[0]),
            Timestamp::from_seconds(100.0));
  EXPECT_EQ(imported.silence_reported, state.silence_reported);

  obs::MetricsRegistry::set_enabled(true);
  auto& purged = obs::counter("deviation.stale_keys_purged");
  const std::uint64_t purged_before = purged.value();
  (void)monitor.evaluate_window(Timestamp::from_seconds(600.0),
                                Timestamp::from_seconds(1200.0),
                                std::vector<FlowRecord>{fx.heartbeat_at(700.0)},
                                {});
  obs::MetricsRegistry::set_enabled(false);
  EXPECT_EQ(purged.value() - purged_before, 2u);  // the timer and the episode
  const DeviationMonitorState after = monitor.export_state();
  ASSERT_EQ(after.last_seen.size(), 1u);
  EXPECT_EQ(std::get<0>(after.last_seen[0]), 1);
  EXPECT_EQ(std::get<2>(after.last_seen[0]), Timestamp::from_seconds(700.0));
  EXPECT_TRUE(after.silence_reported.empty());
}

TEST(DeviationMonitor, RegressedClockIsClampedDisclosedAndCountedPerWindow) {
  // An occurrence earlier than the armed timer, or a window ending before
  // the last occurrence, would read as a negative elapsed time. Each such
  // interval scores as zero elapsed; the window degrades the monitor with
  // the number of clamped intervals, and the counter counts windows.
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  obs::health().reset();
  obs::MetricsRegistry::set_enabled(true);
  auto& windows = obs::counter("deviation.nonmonotonic_windows");
  const std::uint64_t windows_before = windows.value();

  EXPECT_TRUE(monitor
                  .evaluate_window(Timestamp(0),
                                   Timestamp::from_seconds(1200.0),
                                   std::vector<FlowRecord>{
                                       fx.heartbeat_at(1000.0)},
                                   {})
                  .empty());
  // 500 s regresses behind the 1,000 s timer, and 2,500 s lies past the
  // window's end: two clamped intervals in one window.
  EXPECT_TRUE(monitor
                  .evaluate_window(Timestamp::from_seconds(1200.0),
                                   Timestamp::from_seconds(2400.0),
                                   std::vector<FlowRecord>{
                                       fx.heartbeat_at(2500.0),
                                       fx.heartbeat_at(500.0)},
                                   {})
                  .empty());
  const obs::HealthSnapshot snap = obs::health().snapshot();
  const obs::ComponentHealth* c = snap.find("deviation.monitor");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state, obs::ComponentState::kDegraded);
  EXPECT_EQ(c->reasons, std::vector<std::string>{"nonmonotonic-window:2"});
  EXPECT_EQ(windows.value() - windows_before, 1u);

  // 2,450 s regresses behind the 2,500 s timer: one more window.
  EXPECT_TRUE(monitor
                  .evaluate_window(Timestamp::from_seconds(2400.0),
                                   Timestamp::from_seconds(3600.0),
                                   std::vector<FlowRecord>{
                                       fx.heartbeat_at(2450.0),
                                       fx.heartbeat_at(3000.0)},
                                   {})
                  .empty());
  obs::MetricsRegistry::set_enabled(false);
  EXPECT_EQ(windows.value() - windows_before, 2u);
  obs::health().reset();
}

TEST(DeviationMonitor, ResetForgetsTimers) {
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  std::vector<FlowRecord> day1;
  for (double t = 0; t < 86400.0; t += 600.0) day1.push_back(fx.heartbeat_at(t));
  (void)monitor.evaluate_window(Timestamp(0),
                                Timestamp::from_seconds(86400.0), day1, {});
  monitor.reset();
  // After reset, an empty window raises nothing (no armed timers).
  const auto alerts = monitor.evaluate_window(
      Timestamp::from_seconds(86400.0), Timestamp::from_seconds(2 * 86400.0),
      {}, {});
  EXPECT_TRUE(alerts.empty());
}

TEST(DeviationMonitor, AlertsSortedByTime) {
  MonitorFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);
  std::vector<EventTrace> traces{
      MonitorFixture::trace_of({"zz:x", "plug:on"}, 50000.0),
      MonitorFixture::trace_of({"aa:y", "plug:on"}, 100.0)};
  const auto alerts = monitor.evaluate_window(
      Timestamp(0), Timestamp::from_seconds(86400.0), {}, traces);
  for (std::size_t i = 1; i < alerts.size(); ++i) {
    EXPECT_LE(alerts[i - 1].when, alerts[i].when);
  }
}

TEST(DeviationSource, Names) {
  EXPECT_STREQ(to_string(DeviationSource::kPeriodic), "periodic");
  EXPECT_STREQ(to_string(DeviationSource::kShortTerm), "short-term");
  EXPECT_STREQ(to_string(DeviationSource::kLongTerm), "long-term");
}

}  // namespace
}  // namespace behaviot
