#include "behaviot/deviation/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "behaviot/flow/features.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/trace.hpp"

namespace behaviot {

const char* to_string(DeviationSource s) {
  switch (s) {
    case DeviationSource::kPeriodic: return "periodic";
    case DeviationSource::kShortTerm: return "short-term";
    case DeviationSource::kLongTerm: return "long-term";
  }
  return "?";
}

DeviationMonitor::DeviationMonitor(const PeriodicModelSet& periodic,
                                   const Pfsm& pfsm,
                                   ShortTermThreshold short_term,
                                   MonitorOptions options)
    : periodic_(&periodic),
      pfsm_(&pfsm),
      short_term_(short_term),
      options_(options) {}

void DeviationMonitor::reset() {
  last_seen_.clear();
  silence_reported_.clear();
  reported_sequences_.clear();
  primed_ = false;
}

void DeviationMonitor::rebind(const PeriodicModelSet& periodic,
                              const Pfsm& pfsm,
                              ShortTermThreshold short_term) {
  periodic_ = &periodic;
  pfsm_ = &pfsm;
  short_term_ = short_term;
  // Streaming state survives the swap on purpose: models that persist across
  // a retrain keep their armed timers and silence episodes. State keyed by
  // groups the new set no longer carries is purged at the next window start.
}

std::vector<DeviationAlert> DeviationMonitor::evaluate_window(
    Timestamp window_start, Timestamp window_end,
    std::span<const FlowRecord> flows, std::span<const EventTrace> traces) {
  static auto& windows_counter = obs::counter("deviation.windows");
  static auto& purged_counter = obs::counter("deviation.stale_keys_purged");
  windows_counter.inc();
  obs::health().heartbeat("deviation.monitor");
  obs::trace_instant("deviation.window");

  // Count-up timers assume time moves forward. Regressed capture clocks can
  // hand us an occurrence earlier than the armed timer (or a window ending
  // before the last occurrence); a negative elapsed would read as an early
  // arrival and mis-score. Clamp each to zero, count, disclose once.
  std::size_t nonmonotonic = 0;
  const auto elapsed_or_zero = [&nonmonotonic](Timestamp later,
                                               Timestamp earlier) {
    if (later < earlier) {
      ++nonmonotonic;
      return 0.0;
    }
    return static_cast<double>(later - earlier) / 1e6;
  };

  // Purge streaming state keyed by (device, group) pairs that no longer
  // exist in the model set: retraining may drop or replace models, and a
  // timer inherited from a previous model era would otherwise score a
  // phantom multi-day silence the moment a same-named model reappears.
  if (!last_seen_.empty() || !silence_reported_.empty()) {
    std::set<std::pair<DeviceId, std::string>> live;
    for (const PeriodicModel& m : periodic_->all()) {
      live.emplace(m.device, m.group);
    }
    const auto stale = [&live](const auto& key) {
      return live.count(key) == 0;
    };
    std::size_t purged = 0;
    purged += std::erase_if(last_seen_, [&](const auto& kv) {
      return stale(kv.first);
    });
    purged += std::erase_if(silence_reported_, stale);
    if (purged > 0) purged_counter.add(purged);
  }

  std::vector<DeviationAlert> alerts;

  // ---- Periodic-event deviation (per-device metric) ----
  // Collect window occurrences per modeled group. The flow pointer rides
  // along so the worst deviation's flow can be located against the trained
  // density clusters for the alert's provenance record.
  struct Occurrence {
    Timestamp at;
    const FlowRecord* flow = nullptr;
  };
  std::map<std::pair<DeviceId, std::string>, std::vector<Occurrence>> occur;
  for (const FlowRecord& f : flows) {
    const std::string group = f.group_key();
    if (periodic_->find(f.device, group) != nullptr) {
      occur[{f.device, group}].push_back({f.start, &f});
    }
  }
  for (auto& [key, times] : occur) {
    std::stable_sort(times.begin(), times.end(),
                     [](const Occurrence& a, const Occurrence& b) {
                       return a.at < b.at;
                     });
  }

  // Each device's worst-scoring deviating group and how many of its groups
  // deviated. The model loop only records the winner; the one periodic alert
  // per device is built after it.
  struct DeviceWorst {
    const PeriodicModel* model = nullptr;
    double score = 0.0;
    Timestamp when;
    double elapsed = 0.0;
    const FlowRecord* flow = nullptr;  ///< null for a silence
    std::size_t groups = 0;
  };
  std::map<DeviceId, DeviceWorst> device_worst;

  for (const PeriodicModel& model : periodic_->all()) {
    const std::pair<DeviceId, std::string> key{model.device, model.group};
    const double T = model.period_seconds;
    double worst = 0.0;
    double worst_elapsed = 0.0;
    Timestamp worst_at = window_end;
    const FlowRecord* worst_flow = nullptr;

    auto it = occur.find(key);
    auto last_it = last_seen_.find(key);
    Timestamp last = last_it != last_seen_.end() ? last_it->second
                                                 : window_start;
    const bool had_history = last_it != last_seen_.end() || primed_;

    if (it != occur.end()) {
      silence_reported_.erase(key);  // traffic resumed: new episode may alert
      for (std::size_t oi = 0; oi < it->second.size(); ++oi) {
        const Occurrence& o = it->second[oi];
        if (!had_history && oi == 0) {
          last = o.at;
          continue;  // first sighting ever: arm the timer silently
        }
        const double elapsed = elapsed_or_zero(o.at, last);
        const double m = periodic_deviation(elapsed, T);
        if (m > worst) {
          worst = m;
          worst_elapsed = elapsed;
          worst_at = o.at;
          worst_flow = o.flow;
        }
        last = o.at;
      }
      last_seen_[key] = it->second.back().at;
    }
    // Count-up timer at window end: silence since the last occurrence. A
    // continuing silence is one deviation, not one per window.
    if (had_history || it != occur.end()) {
      const double elapsed = elapsed_or_zero(window_end, last);
      const double m = periodic_deviation(elapsed, T);
      if (silence_reported_.count(key) == 0) {
        if (m > worst && m > options_.thresholds.periodic) {
          worst = m;
          worst_elapsed = elapsed;
          worst_at = window_end;
          worst_flow = nullptr;  // a silence has no flow to locate
          silence_reported_.insert(key);
        }
      } else if (m > options_.thresholds.periodic) {
        static auto& suppressed =
            obs::counter("deviation.silences_suppressed");
        suppressed.inc();
      }
    }
    if (worst > options_.thresholds.periodic) {
      DeviceWorst& dw = device_worst[model.device];
      ++dw.groups;
      if (dw.model == nullptr || worst > dw.score) {
        dw.model = &model;
        dw.score = worst;
        dw.when = worst_at;
        dw.elapsed = worst_elapsed;
        dw.flow = worst_flow;
      }
    }
  }
  for (const auto& [device, dw] : device_worst) {
    const PeriodicModel& model = *dw.model;
    DeviationAlert a;
    a.source = DeviationSource::kPeriodic;
    a.when = dw.when;
    a.device = device;
    a.score = dw.score;
    a.threshold = options_.thresholds.periodic;
    a.context = model.group +
                (dw.flow != nullptr ? ": inter-arrival " : ": silent for ") +
                std::to_string(dw.elapsed) + "s vs period " +
                std::to_string(model.period_seconds) + "s";
    if (dw.groups > 1) {
      a.context += " (+" + std::to_string(dw.groups - 1) +
                   " co-deviating groups)";
    }
    AlertExplanation& ex = a.explanation;
    ex.metric = "Mp";
    ex.observed = dw.elapsed;
    ex.expected = model.period_seconds;
    ex.threshold = options_.thresholds.periodic;
    ex.model_group = model.group;
    ex.support = model.support;
    if (dw.flow != nullptr) {
      // Provenance is best-effort: losing the cluster evidence must not
      // lose the alert itself.
      try {
        const auto evidence =
            periodic_->cluster_evidence(device, extract_features(*dw.flow));
        if (evidence && evidence->cluster != kDbscanNoise) {
          ex.cluster_id = evidence->cluster;
          ex.cluster_distance = evidence->distance;
        }
      } catch (const std::exception&) {
        ex.model_group += " (cluster evidence unavailable)";
      }
    }
    alerts.push_back(std::move(a));
  }
  primed_ = true;

  // ---- Short-term deviation (per trace) ----
  // A deviating label sequence alerts once: a repeat within this window or
  // in any later one is the same behavior change.
  for (const EventTrace& trace : traces) {
    const auto labels = trace_labels(trace);
    const double score = short_term_deviation(*pfsm_, labels);
    if (short_term_.exceeded(score)) {
      std::string signature;
      for (const auto& l : labels) signature += l + "|";
      if (!reported_sequences_.insert(signature).second) continue;
      DeviationAlert a;
      a.source = DeviationSource::kShortTerm;
      a.when = trace.front().ts;
      a.device = trace.front().device;
      a.score = score;
      a.threshold = short_term_.value();
      std::string seq;
      for (const auto& l : labels) {
        if (!seq.empty()) seq += " -> ";
        seq += l;
      }
      a.context = "trace [" + seq + "]";
      a.explanation.metric = "A_T";
      a.explanation.observed = score;
      a.explanation.expected = short_term_.mean;
      a.explanation.threshold = short_term_.value();
      a.explanation.model_group = seq;
      a.explanation.support = labels.size();
      // The weakest forest vote among the trace's events: how tentatively
      // the classifier inferred the sequence the PFSM now rejects.
      double min_margin = std::numeric_limits<double>::infinity();
      for (const UserEvent& e : trace) {
        min_margin = std::min(min_margin, e.vote_margin);
      }
      if (std::isfinite(min_margin)) a.explanation.vote_margin = min_margin;
      alerts.push_back(std::move(a));
    }
  }

  // ---- Long-term deviation (per window) ----
  std::vector<std::vector<std::string>> window_labels;
  window_labels.reserve(traces.size());
  for (const EventTrace& t : traces) window_labels.push_back(trace_labels(t));
  const auto long_term = long_term_deviations(*pfsm_, window_labels);
  double z_threshold = options_.thresholds.long_term_z;
  if (!long_term.empty()) {
    // The window tests every observed transition; correct the per-test
    // threshold so the family-wise false-alarm rate stays at 5%.
    z_threshold = std::max(
        z_threshold, z_for_confidence(
                         1.0 - 0.05 / static_cast<double>(long_term.size())));
  }
  for (const LongTermDeviation& d : long_term) {
    if (d.z_abs <= z_threshold) continue;
    DeviationAlert a;
    a.source = DeviationSource::kLongTerm;
    a.when = window_end;
    a.device = kUnknownDevice;
    a.score = d.z_abs;
    a.threshold = z_threshold;
    a.context = "transition " + d.from + " -> " + d.to + " observed p=" +
                std::to_string(d.observed_p) + " vs model p0=" +
                std::to_string(d.model_p) + " over n=" +
                std::to_string(d.occurrences);
    a.explanation.metric = "|z|";
    a.explanation.observed = d.observed_p;
    a.explanation.expected = d.model_p;
    a.explanation.threshold = z_threshold;
    a.explanation.model_group = d.from + " -> " + d.to;
    a.explanation.support = d.occurrences;
    alerts.push_back(std::move(a));
  }

  if (nonmonotonic > 0) {
    obs::counter("deviation.nonmonotonic_windows").add(nonmonotonic);
    obs::health().degrade(
        "deviation.monitor",
        "nonmonotonic-window:" + std::to_string(nonmonotonic));
  }

  std::sort(alerts.begin(), alerts.end(),
            [](const DeviationAlert& a, const DeviationAlert& b) {
              return a.when < b.when;
            });

  if (obs::MetricsRegistry::enabled()) {
    static auto& periodic_alerts = obs::counter("deviation.alerts.periodic");
    static auto& short_alerts = obs::counter("deviation.alerts.short_term");
    static auto& long_alerts = obs::counter("deviation.alerts.long_term");
    for (const DeviationAlert& a : alerts) {
      switch (a.source) {
        case DeviationSource::kPeriodic: periodic_alerts.inc(); break;
        case DeviationSource::kShortTerm: short_alerts.inc(); break;
        case DeviationSource::kLongTerm: long_alerts.inc(); break;
      }
    }
  }
  if (obs::Tracer::enabled()) {
    auto& tracer = obs::Tracer::global();
    for (const DeviationAlert& a : alerts) {
      tracer.instant(std::string("alert.") + to_string(a.source));
    }
    tracer.counter("deviation.alerts", static_cast<double>(alerts.size()));
  }
  return alerts;
}

DeviationMonitorState DeviationMonitor::export_state() const {
  DeviationMonitorState s;
  s.last_seen.reserve(last_seen_.size());
  for (const auto& [key, ts] : last_seen_) {
    s.last_seen.emplace_back(key.first, key.second, ts);
  }
  s.silence_reported.assign(silence_reported_.begin(),
                            silence_reported_.end());
  s.reported_sequences.assign(reported_sequences_.begin(),
                              reported_sequences_.end());
  s.primed = primed_;
  return s;
}

void DeviationMonitor::import_state(const DeviationMonitorState& state) {
  last_seen_.clear();
  for (const auto& [device, group, ts] : state.last_seen) {
    last_seen_.emplace(std::make_pair(device, group), ts);
  }
  silence_reported_.clear();
  silence_reported_.insert(state.silence_reported.begin(),
                           state.silence_reported.end());
  reported_sequences_.clear();
  reported_sequences_.insert(state.reported_sequences.begin(),
                             state.reported_sequences.end());
  primed_ = state.primed;
}

}  // namespace behaviot
