#include "behaviot/deviation/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

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
  keyed_for_ = kUnkeyed;
  groups_.clear();
  key_order_.clear();
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
  // a retrain keep their armed timers and silence episodes. The next window
  // sees the new generation and re-keys.
}

void DeviationMonitor::rekey() {
  static auto& purged_counter = obs::counter("deviation.stale_keys_purged");
  // A timer inherited from a previous model era whose group the new set
  // lacks would otherwise score a phantom multi-day silence the moment a
  // same-named model reappears, so those entries are dropped.
  const std::vector<PeriodicModel>& models = periodic_->all();
  std::vector<GroupState> next(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    next[i].key = {models[i].device, models[i].group};
  }
  std::size_t purged = 0;
  for (GroupState& old : groups_) {
    if (!old.armed && !old.silenced) continue;
    const PeriodicModel* m = periodic_->find(old.key.first, old.key.second);
    if (m == nullptr) {
      purged += static_cast<std::size_t>(old.armed) +
                static_cast<std::size_t>(old.silenced);
      continue;
    }
    GroupState& g = next[static_cast<std::size_t>(m - models.data())];
    g.last_seen = old.last_seen;
    g.armed = old.armed;
    g.silenced = old.silenced;
  }
  if (purged > 0) purged_counter.add(purged);
  groups_ = std::move(next);
  key_order_.resize(groups_.size());
  for (std::size_t i = 0; i < key_order_.size(); ++i) {
    key_order_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(key_order_.begin(), key_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return groups_[a].key < groups_[b].key;
            });
  keyed_for_ = periodic_->generation();
}

std::vector<DeviationAlert> DeviationMonitor::evaluate_window(
    Timestamp window_start, Timestamp window_end,
    std::span<const FlowRecord> flows, std::span<const EventTrace> traces) {
  static auto& windows_counter = obs::counter("deviation.windows");
  windows_counter.inc();
  obs::health().heartbeat("deviation.monitor");
  obs::trace_instant("deviation.window");
  if (periodic_->generation() != keyed_for_) rekey();

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

  std::vector<DeviationAlert> alerts;

  // ---- Periodic-event deviation (per-device metric) ----
  // The window's occurrences of modeled groups, ordered by (slot, time,
  // input index): per group, time order with ties in input order. The flow
  // index rides along so the worst deviation's flow can be located against
  // the trained density clusters for the alert's provenance record.
  const std::vector<PeriodicModel>& models = periodic_->all();
  occurrences_.clear();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowRecord& f = flows[i];
    f.group_key_into(group_buf_);
    if (const PeriodicModel* m = periodic_->find(f.device, group_buf_)) {
      occurrences_.push_back({static_cast<std::uint32_t>(m - models.data()),
                              f.start, static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(occurrences_.begin(), occurrences_.end(),
            [](const Occurrence& a, const Occurrence& b) {
              if (a.slot != b.slot) return a.slot < b.slot;
              if (a.at != b.at) return a.at < b.at;
              return a.flow < b.flow;
            });

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

  std::size_t next_occurrence = 0;
  for (std::size_t slot = 0; slot < models.size(); ++slot) {
    const PeriodicModel& model = models[slot];
    GroupState& group = groups_[slot];
    const double T = model.period_seconds;
    double worst = 0.0;
    double worst_elapsed = 0.0;
    Timestamp worst_at = window_end;
    const FlowRecord* worst_flow = nullptr;

    const std::size_t first = next_occurrence;
    while (next_occurrence < occurrences_.size() &&
           occurrences_[next_occurrence].slot == slot) {
      ++next_occurrence;
    }
    const bool seen = next_occurrence > first;
    Timestamp last = group.armed ? group.last_seen : window_start;
    const bool had_history = group.armed || primed_;

    if (seen) {
      group.silenced = false;  // traffic resumed: new episode may alert
      for (std::size_t oi = first; oi < next_occurrence; ++oi) {
        const Occurrence& o = occurrences_[oi];
        if (!had_history && oi == first) {
          last = o.at;
          continue;  // first sighting ever: arm the timer silently
        }
        const double elapsed = elapsed_or_zero(o.at, last);
        const double m = periodic_deviation(elapsed, T);
        if (m > worst) {
          worst = m;
          worst_elapsed = elapsed;
          worst_at = o.at;
          worst_flow = &flows[o.flow];
        }
        last = o.at;
      }
      group.last_seen = occurrences_[next_occurrence - 1].at;
      group.armed = true;
    }
    // Count-up timer at window end: silence since the last occurrence. A
    // continuing silence is one deviation, not one per window.
    if (had_history || seen) {
      const double elapsed = elapsed_or_zero(window_end, last);
      const double m = periodic_deviation(elapsed, T);
      if (!group.silenced) {
        if (m > worst && m > options_.thresholds.periodic) {
          worst = m;
          worst_elapsed = elapsed;
          worst_at = window_end;
          worst_flow = nullptr;  // a silence has no flow to locate
          group.silenced = true;
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
    obs::counter("deviation.nonmonotonic_windows").inc();
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
  for (const std::uint32_t i : key_order_) {
    const GroupState& g = groups_[i];
    if (g.armed) {
      s.last_seen.emplace_back(g.key.first, g.key.second, g.last_seen);
    }
    if (g.silenced) s.silence_reported.push_back(g.key);
  }
  s.reported_sequences.assign(reported_sequences_.begin(),
                              reported_sequences_.end());
  s.primed = primed_;
  return s;
}

void DeviationMonitor::import_state(const DeviationMonitorState& state) {
  // Keyed by the imported keys themselves until the next window re-keys
  // them onto the bound set, as the parent of a checkpoint would have.
  std::map<std::pair<DeviceId, std::string>, GroupState> by_key;
  for (const auto& [device, group, ts] : state.last_seen) {
    GroupState& g = by_key[{device, group}];
    if (g.armed) continue;  // the first of duplicate keys wins
    g.last_seen = ts;
    g.armed = true;
  }
  for (const auto& key : state.silence_reported) by_key[key].silenced = true;
  groups_.clear();
  key_order_.clear();
  for (auto& [key, g] : by_key) {
    g.key = key;
    key_order_.push_back(static_cast<std::uint32_t>(groups_.size()));
    groups_.push_back(std::move(g));
  }
  keyed_for_ = kUnkeyed;
  reported_sequences_.clear();
  reported_sequences_.insert(state.reported_sequences.begin(),
                             state.reported_sequences.end());
  primed_ = state.primed;
}

}  // namespace behaviot
