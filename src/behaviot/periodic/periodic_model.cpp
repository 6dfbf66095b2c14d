#include "behaviot/periodic/periodic_model.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "behaviot/net/stats.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/span.hpp"
#include "behaviot/periodic/fft.hpp"
#include "behaviot/periodic/period_detector.hpp"
#include "behaviot/runtime/runtime.hpp"

namespace behaviot {

FeatureScaler::FeatureScaler(std::span<const FeatureVector> rows) {
  if (rows.empty()) {
    scale_.fill(1.0);
    return;
  }
  for (std::size_t d = 0; d < kNumFlowFeatures; ++d) {
    std::vector<double> col;
    col.reserve(rows.size());
    for (const auto& r : rows) col.push_back(r[d]);
    mean_[d] = stats::mean(col);
    scale_[d] = std::max(stats::stddev(col), 1e-9);
  }
}

std::vector<double> FeatureScaler::transform(const FeatureVector& row) const {
  std::vector<double> out;
  transform_into(row, out);
  return out;
}

void FeatureScaler::transform_into(const FeatureVector& row,
                                   std::vector<double>& out) const {
  out.resize(kNumFlowFeatures);
  for (std::size_t d = 0; d < kNumFlowFeatures; ++d) {
    out[d] = (row[d] - mean_[d]) / scale_[d];
  }
}

namespace {

/// Same mix as DeviceGroupHash, taken on a string_view so probing never
/// materializes a pair<DeviceId, std::string> key (std::hash<string_view>
/// and std::hash<string> agree on equal character sequences).
std::size_t device_group_hash(DeviceId device, std::string_view group) {
  const std::size_t h = std::hash<std::string_view>{}(group);
  return h ^ (static_cast<std::size_t>(device) + 0x9e3779b97f4a7c15ULL +
              (h << 6) + (h >> 2));
}

/// Timer slack learned from the grid residuals of the training flows:
/// deviations of consecutive-occurrence gaps from the nearest period
/// multiple. The median residual is used — robust against bootstrap bursts
/// and one-off congestion spikes that would blow up a percentile estimate.
/// Bounded to stay useful ([1 s, 0.15 T]).
double learn_tolerance(const std::vector<double>& times_s, double period_s) {
  std::vector<double> residuals;
  for (std::size_t i = 1; i < times_s.size(); ++i) {
    const double gap = times_s[i] - times_s[i - 1];
    const double k = std::max(1.0, std::round(gap / period_s));
    residuals.push_back(std::abs(gap - k * period_s));
  }
  const double med = stats::median(residuals);
  const double tol = std::max({1.0, 5.0 * med, 0.02 * period_s});
  return std::min(tol, 0.15 * period_s);
}

}  // namespace

PeriodicModelSet PeriodicModelSet::infer(
    std::span<const FlowRecord> idle_flows, double window_seconds,
    const PeriodicInferenceOptions& options) {
  obs::StageSpan span("periodic.infer");
  obs::health().heartbeat("periodic.infer");
  PeriodicModelSet set;
  set.stats_.total_flows = idle_flows.size();

  // Group flows by (device, group_key).
  std::map<std::pair<DeviceId, std::string>, std::vector<const FlowRecord*>>
      groups;
  for (const FlowRecord& f : idle_flows) {
    groups[{f.device, f.group_key()}].push_back(&f);
  }
  set.stats_.groups_total = groups.size();

  const PeriodDetector detector;

  // Period detection (FFT + autocorrelation per group) dominates inference;
  // groups are independent, so they run data-parallel. Each group writes its
  // own result slot and the ordered `groups` map fixes the assembly order,
  // so the inferred set is identical at every thread count.
  using Group = std::pair<const std::pair<DeviceId, std::string>,
                          std::vector<const FlowRecord*>>;
  std::vector<const Group*> group_list;
  group_list.reserve(groups.size());
  for (const Group& g : groups) group_list.push_back(&g);

  struct GroupResult {
    std::optional<PeriodicModel> model;
    std::vector<FeatureVector> rows;  ///< features of the group's flows
    std::size_t sanitized = 0;        ///< non-finite feature cells repaired
  };
  // Error-isolating map: a group whose detection or feature extraction
  // throws is quarantined (reported, excluded from the model set) instead of
  // aborting inference for every other group. Each worker reuses one
  // PeriodWorkspace across all the groups it processes — the FFT buffer
  // alone is ~0.5 MB, so per-group allocation was a measurable share of
  // detection time.
  runtime::WorkerLocal<PeriodWorkspace> workspaces;
  auto results = [&] {
    obs::StageSpan detect_span("period.detect");
    return runtime::parallel_try_map(
      group_list, [&](const Group* g) -> GroupResult {
        GroupResult result;
        const auto& [key, flows] = *g;
        if (flows.size() < options.min_group_flows) return result;
        std::vector<double> times;
        times.reserve(flows.size());
        for (const FlowRecord* f : flows) times.push_back(f->start.seconds());
        std::sort(times.begin(), times.end());

        const auto periods =
            detector.detect(times, window_seconds, workspaces.local());
        if (periods.empty()) return result;

        PeriodicModel model;
        model.device = key.first;
        model.group = key.second;
        model.domain = flows.front()->domain;
        model.app = flows.front()->app;
        model.period_seconds = periods.front().period_seconds;
        model.autocorr_score = periods.front().autocorr_score;
        model.support = flows.size();
        model.tolerance_seconds = learn_tolerance(times, model.period_seconds);
        for (std::size_t i = 1; i < periods.size(); ++i) {
          model.secondary_periods.push_back(periods[i].period_seconds);
        }
        result.model = std::move(model);
        result.rows.reserve(flows.size());
        for (const FlowRecord* f : flows) {
          result.rows.push_back(extract_features(*f));
          result.sanitized += sanitize_features(result.rows.back());
        }
        return result;
      });
  }();

  // Sequential assembly in group order.
  std::map<DeviceId, std::vector<FeatureVector>> periodic_features;
  std::size_t sanitized_cells = 0;
  std::size_t groups_quarantined = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      const auto& key = group_list[i]->first;
      obs::health().quarantine(
          "periodic.infer",
          std::to_string(key.first) + ":" + key.second, results[i].error);
      ++groups_quarantined;
      continue;
    }
    GroupResult& result = *results[i];
    sanitized_cells += result.sanitized;
    if (!result.model) continue;
    const DeviceId device = result.model->device;
    set.stats_.flows_in_periodic_groups += result.model->support;
    ++set.stats_.groups_periodic;
    set.models_.push_back(std::move(*result.model));
    auto& rows = periodic_features[device];
    rows.reserve(rows.size() + result.rows.size());
    rows.insert(rows.end(), result.rows.begin(), result.rows.end());
  }
  set.rebuild_index();

  // Fit the per-device standardizer and density clusters on periodic flows.
  // DBSCAN is quadratic in the device's row count; devices are independent.
  using DeviceRows = std::pair<const DeviceId, std::vector<FeatureVector>>;
  std::vector<const DeviceRows*> device_list;
  device_list.reserve(periodic_features.size());
  for (const DeviceRows& d : periodic_features) device_list.push_back(&d);

  struct DeviceFit {
    FeatureScaler scaler;
    DbscanMembership clusters;
  };
  // A device whose cluster fit throws loses only its stage-2 fallback: the
  // timer stage still classifies its groups, which is the documented
  // degraded mode (reason code "no-cluster-stage").
  auto fits = [&] {
    obs::StageSpan dbscan_span("dbscan.fit");
    const auto fit_start = std::chrono::steady_clock::now();
    auto out = runtime::parallel_try_map(
        device_list, [&](const DeviceRows* d) -> DeviceFit {
          const auto& rows = d->second;
          FeatureScaler scaler(rows);
          std::vector<std::vector<double>> scaled;
          scaled.reserve(rows.size());
          for (const auto& r : rows) scaled.push_back(scaler.transform(r));
          return {scaler, DbscanMembership(scaled, options.dbscan)};
        });
    if (obs::MetricsRegistry::enabled()) {
      obs::counter("periodic.dbscan_us")
          .add(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - fit_start)
                  .count()));
    }
    return out;
  }();
  for (std::size_t i = 0; i < device_list.size(); ++i) {
    if (!fits[i].ok()) {
      obs::health().quarantine(
          "periodic.infer",
          "device:" + std::to_string(device_list[i]->first),
          "cluster stage lost (timer-only): " + fits[i].error);
      continue;
    }
    set.clusters_.emplace(device_list[i]->first, std::move(fits[i]->clusters));
    set.scalers_.emplace(device_list[i]->first, std::move(fits[i]->scaler));
  }

  if (sanitized_cells > 0) {
    obs::health().degrade(
        "periodic.infer",
        "features-sanitized:" + std::to_string(sanitized_cells));
    obs::counter("periodic.features_sanitized").add(sanitized_cells);
  }
  if (groups_quarantined > 0) {
    obs::counter("periodic.groups_quarantined").add(groups_quarantined);
  }

  if (obs::MetricsRegistry::enabled()) {
    obs::counter("periodic.groups_total").add(set.stats_.groups_total);
    obs::counter("periodic.groups_periodic").add(set.stats_.groups_periodic);
    obs::counter("periodic.models_inferred").add(set.models_.size());
    obs::gauge("periodic.coverage").set(set.stats_.coverage());
  }
  return set;
}

PeriodicModelSet PeriodicModelSet::from_models(
    std::vector<PeriodicModel> models) {
  PeriodicModelSet set;
  set.models_ = std::move(models);
  set.rebuild_index();
  set.stats_.groups_periodic = set.models_.size();
  set.stats_.groups_total = set.models_.size();
  return set;
}

void PeriodicModelSet::rebuild_index() {
  static std::atomic<std::uint64_t> last_generation{0};
  std::size_t cap = 8;
  while (cap < models_.size() * 2) cap <<= 1;
  slots_.assign(cap, 0);
  const std::size_t mask = cap - 1;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const PeriodicModel& m = models_[i];
    std::size_t slot = device_group_hash(m.device, m.group) & mask;
    while (slots_[slot] != 0) {
      const PeriodicModel& other = models_[slots_[slot] - 1];
      if (other.device == m.device && other.group == m.group) {
        throw std::invalid_argument(
            "periodic model set names (device " + std::to_string(m.device) +
            ", group " + m.group + ") twice");
      }
      slot = (slot + 1) & mask;
    }
    slots_[slot] = static_cast<std::uint32_t>(i + 1);
  }
  generation_ = ++last_generation;
}

const PeriodicModel* PeriodicModelSet::find(DeviceId device,
                                            std::string_view group) const {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = device_group_hash(device, group) & mask;
  while (slots_[slot] != 0) {
    const PeriodicModel& m = models_[slots_[slot] - 1];
    if (m.device == device && m.group == group) return &m;
    slot = (slot + 1) & mask;
  }
  return nullptr;
}

std::vector<const PeriodicModel*> PeriodicModelSet::models_for(
    DeviceId device) const {
  std::vector<const PeriodicModel*> out;
  for (const auto& m : models_) {
    if (m.device == device) out.push_back(&m);
  }
  return out;
}

bool PeriodicModelSet::in_periodic_cluster(
    DeviceId device, const FeatureVector& features) const {
  std::vector<double> scratch;
  return in_periodic_cluster(device, features, scratch);
}

bool PeriodicModelSet::in_periodic_cluster(
    DeviceId device, const FeatureVector& features,
    std::vector<double>& scratch) const {
  auto sc = scalers_.find(device);
  auto cl = clusters_.find(device);
  if (sc == scalers_.end() || cl == clusters_.end()) return false;
  sc->second.transform_into(features, scratch);
  return cl->second.contains(scratch);
}

std::optional<DbscanMembership::Nearest> PeriodicModelSet::cluster_evidence(
    DeviceId device, const FeatureVector& features) const {
  auto sc = scalers_.find(device);
  auto cl = clusters_.find(device);
  if (sc == scalers_.end() || cl == clusters_.end()) return std::nullopt;
  return cl->second.nearest(sc->second.transform(features));
}

}  // namespace behaviot
