// Periodic models (§4.1): per-(device, destination-domain, protocol) traffic
// groups with validated periods, inferred without supervision from idle
// traffic, plus the density clusters used by the second classification stage.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "behaviot/flow/features.hpp"
#include "behaviot/flow/flow.hpp"
#include "behaviot/periodic/dbscan.hpp"

namespace behaviot {

struct PeriodicModel {
  DeviceId device = kUnknownDevice;
  std::string group;   ///< FlowRecord::group_key()
  std::string domain;  ///< destination domain ("" if unnamed)
  AppProtocol app = AppProtocol::kOtherTcp;
  double period_seconds = 0.0;
  double tolerance_seconds = 0.0;  ///< timer slack learned from jitter
  double autocorr_score = 0.0;
  std::size_t support = 0;  ///< training flows in the group
  /// Consecutive retrain merges this group has been absent from the fresh
  /// window (reset to 0 whenever the group reappears). Kept separate from
  /// `support` so retention bookkeeping never corrupts training provenance.
  std::size_t absent_generations = 0;
  /// Additional validated periods (a group may carry several overlapping
  /// periodic signals, e.g. 30 s keepalive + 1 h sync).
  std::vector<double> secondary_periods;
};

/// Feature standardizer fitted on training flows (z-scoring before DBSCAN so
/// byte counts do not drown timing features).
class FeatureScaler {
 public:
  FeatureScaler() = default;
  explicit FeatureScaler(std::span<const FeatureVector> rows);

  [[nodiscard]] std::vector<double> transform(const FeatureVector& row) const;

  /// Allocation-free variant: writes into `out` (resized to the feature
  /// count), so per-flow classification can reuse one buffer.
  void transform_into(const FeatureVector& row, std::vector<double>& out) const;

 private:
  FeatureVector mean_{};
  FeatureVector scale_{};  // stddev, floored at a small epsilon
};

/// Hash for the (device, group_key) pair keying the hot lookup maps of the
/// classification path.
struct DeviceGroupHash {
  [[nodiscard]] std::size_t operator()(
      const std::pair<DeviceId, std::string>& key) const noexcept {
    const std::size_t h = std::hash<std::string>{}(key.second);
    // splitmix-style mix of the device id into the string hash.
    return h ^ (static_cast<std::size_t>(key.first) + 0x9e3779b97f4a7c15ULL +
                (h << 6) + (h >> 2));
  }
};

struct PeriodicInferenceOptions {
  /// Groups smaller than this cannot establish a period.
  std::size_t min_group_flows = 4;
  DbscanOptions dbscan{.eps = 1.5, .min_points = 3};
};

struct PeriodicInferenceStats {
  std::size_t total_flows = 0;
  std::size_t flows_in_periodic_groups = 0;  ///< "periodic coverage" numerator
  std::size_t groups_total = 0;
  std::size_t groups_periodic = 0;

  [[nodiscard]] double coverage() const {
    return total_flows == 0
               ? 0.0
               : static_cast<double>(flows_in_periodic_groups) /
                     static_cast<double>(total_flows);
  }
};

/// The collection of periodic models for a deployment, plus per-device
/// cluster membership for the fallback classification stage.
class PeriodicModelSet {
 public:
  /// Infers models from idle-period flows (the observation phase).
  static PeriodicModelSet infer(std::span<const FlowRecord> idle_flows,
                                double window_seconds,
                                const PeriodicInferenceOptions& options = {});

  /// Rebuilds a set from pre-computed models (deserialization, merging).
  /// The density-cluster stage is not populated — timer classification
  /// only, until re-fitted on traffic. Throws std::invalid_argument when
  /// two models share one (device, group) key: find() could return only
  /// the first of them.
  static PeriodicModelSet from_models(std::vector<PeriodicModel> models);

  /// The model for (device, group), or null. `group` is a view so a caller
  /// can probe with a reused key buffer (FlowRecord::group_key_into)
  /// without building a std::string per lookup.
  [[nodiscard]] const PeriodicModel* find(DeviceId device,
                                          std::string_view group) const;
  [[nodiscard]] std::vector<const PeriodicModel*> models_for(
      DeviceId device) const;
  [[nodiscard]] const std::vector<PeriodicModel>& all() const {
    return models_;
  }
  [[nodiscard]] std::size_t size() const { return models_.size(); }
  [[nodiscard]] const PeriodicInferenceStats& stats() const { return stats_; }

  /// Identity of this model list. Every infer() and from_models() draws a
  /// fresh value from a process-wide counter; copies and moves keep it, and
  /// it is never serialized. Two sets with the same generation therefore
  /// hold the same models in the same slots (all() order), so a consumer
  /// that keys state by slot re-keys only when the generation changes. A
  /// default-constructed (empty) set has generation 0.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// True when `features` (already extracted from a flow of `device`) falls
  /// inside a periodic-traffic density cluster learned during inference.
  [[nodiscard]] bool in_periodic_cluster(DeviceId device,
                                         const FeatureVector& features) const;

  /// Allocation-free variant for the per-flow hot path: `scratch` holds the
  /// scaled row between calls so no vector is allocated per flow.
  [[nodiscard]] bool in_periodic_cluster(DeviceId device,
                                         const FeatureVector& features,
                                         std::vector<double>& scratch) const;

  /// Provenance query (not a hot path): the nearest trained density cluster
  /// for a flow's features and the distance to its closest core point.
  /// `std::nullopt` when the device has no fitted cluster stage (e.g. a
  /// deserialized model set).
  [[nodiscard]] std::optional<DbscanMembership::Nearest> cluster_evidence(
      DeviceId device, const FeatureVector& features) const;

 private:
  /// Rebuilds `slots_` from `models_` and draws a new generation. Called
  /// once after the model list is final (inference assembly, from_models);
  /// O(n) with a single allocation. Throws std::invalid_argument on a
  /// duplicate (device, group) key.
  void rebuild_index();

  std::vector<PeriodicModel> models_;
  /// Open-addressed (device, group) → model index probe table: a slot holds
  /// model index + 1 (0 = empty), capacity is a power of two ≥ 2n, and the
  /// key bytes live in `models_` itself. Replaces a node-based hash map so
  /// deserializing a model set costs one allocation for the whole index
  /// instead of a node + key-string copy per model — model load is on the
  /// watch daemon's retrain-swap path and the fleet's store-read path.
  std::vector<std::uint32_t> slots_;
  std::map<DeviceId, FeatureScaler> scalers_;
  std::map<DeviceId, DbscanMembership> clusters_;
  PeriodicInferenceStats stats_;
  std::uint64_t generation_ = 0;
};

}  // namespace behaviot
