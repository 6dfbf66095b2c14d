// Streaming deviation monitor: evaluates successive time windows of traffic
// against the trained behavior models and emits significant deviations,
// reproducing the §6.2 longitudinal analysis.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "behaviot/deviation/long_term_metric.hpp"
#include "behaviot/deviation/periodic_metric.hpp"
#include "behaviot/deviation/short_term_metric.hpp"
#include "behaviot/deviation/thresholds.hpp"
#include "behaviot/periodic/periodic_model.hpp"
#include "behaviot/pfsm/trace.hpp"

namespace behaviot {

enum class DeviationSource : std::uint8_t {
  kPeriodic,
  kShortTerm,
  kLongTerm,
};

[[nodiscard]] const char* to_string(DeviationSource s);

/// Decision provenance: the machine-readable evidence behind one alert,
/// sufficient to reconstruct *why* the monitor fired without re-running it.
/// `metric`/`observed`/`expected`/`threshold` are populated for every
/// source; the remaining fields depend on it:
///  - periodic: `model_group` is the deviating (device, group) key's group,
///    `support` the model's training support, and — when the worst deviation
///    was an observed flow rather than a silence and the model set carries a
///    fitted cluster stage — `cluster_id`/`cluster_distance` locate that
///    flow against the trained density clusters.
///  - short-term: `model_group` is the deviating trace's label sequence,
///    `support` its length, `vote_margin` the weakest forest vote margin
///    among the trace's inferred events.
///  - long-term: `model_group` is the "from -> to" transition, `support`
///    the occurrence count n behind the binomial test.
struct AlertExplanation {
  std::string metric;       ///< "Mp" | "A_T" | "|z|"
  double observed = 0.0;    ///< measured quantity (elapsed s / A_T / p̂)
  double expected = 0.0;    ///< model expectation (period T / µ / p0)
  double threshold = 0.0;   ///< the crossed threshold, in score units
  std::string model_group;  ///< group key / trace signature / transition
  int cluster_id = -1;             ///< nearest DBSCAN cluster; -1 when n/a
  double cluster_distance = -1.0;  ///< distance to nearest core; <0 when n/a
  double vote_margin = -1.0;       ///< weakest event vote margin; <0 when n/a
  std::size_t support = 0;  ///< model support / trace length / n
};

struct DeviationAlert {
  DeviationSource source = DeviationSource::kPeriodic;
  Timestamp when;
  DeviceId device = kUnknownDevice;
  double score = 0.0;
  double threshold = 0.0;
  /// Human-readable explanation: which model/trace/transition deviated.
  std::string context;
  /// Machine-readable provenance (always populated by evaluate_window).
  AlertExplanation explanation;
};

/// Significance thresholds of the three metrics: the monitor's one setting.
struct MonitorOptions {
  DeviationThresholds thresholds;
};

/// Serializable streaming state of a DeviationMonitor (checkpointing):
/// armed count-up timers, ongoing silence episodes, cross-window trace
/// dedup, and the first-sighting priming flag. Timers and silence episodes
/// are keyed by (device, group) strings, not by model slot, and export
/// lists them in (device, group) order and the sequences in string order,
/// so the state is deterministic and independent of the model set's slot
/// order.
struct DeviationMonitorState {
  std::vector<std::tuple<DeviceId, std::string, Timestamp>> last_seen;
  std::vector<std::pair<DeviceId, std::string>> silence_reported;
  std::vector<std::string> reported_sequences;
  bool primed = false;
};

class DeviationMonitor {
 public:
  /// Both models must outlive the monitor. `short_term` must have been
  /// calibrated on the training traces.
  DeviationMonitor(const PeriodicModelSet& periodic, const Pfsm& pfsm,
                   ShortTermThreshold short_term, MonitorOptions options = {});

  /// Evaluates one window. `flows` are the window's flows (periodic-group
  /// timing is derived from them); `traces` its user-event traces. Stateful:
  /// last-seen times persist across windows so outages spanning windows
  /// keep scoring. Alert volume follows the paper's counts:
  ///  - one periodic alert per device per window, carrying the worst-scoring
  ///    group and the number of co-deviating groups (a whole-device outage
  ///    is one deviation, not one per heartbeat destination), and one per
  ///    continuing silence episode;
  ///  - one short-term alert per deviating label sequence, ever (a repeat,
  ///    in this window or a later one, is the same behavior change);
  ///  - a Bonferroni-corrected long-term threshold: a window tests every
  ///    observed transition, so the per-transition z threshold is set for a
  ///    family-wise 5% at z(1 - 0.05 / #transitions) instead of the raw 95%
  ///    CI, which keeps daily windows from flagging noise transitions.
  std::vector<DeviationAlert> evaluate_window(
      Timestamp window_start, Timestamp window_end,
      std::span<const FlowRecord> flows, std::span<const EventTrace> traces);

  /// Forgets all streaming state.
  void reset();

  /// Points the monitor at a new model generation (hot model swap in
  /// `behaviot watch`). Streaming state — armed timers, silence episodes,
  /// reported sequences — is retained. The per-group state is re-keyed by
  /// generation: the first window evaluated against a set whose
  /// generation() differs from the one the state is keyed for moves each
  /// (device, group) entry to that group's slot in the new set and drops
  /// (and counts in `deviation.stale_keys_purged`) the entries of groups
  /// the new set lacks. A set replaced in place without rebind() is
  /// re-keyed the same way. The referents must outlive the monitor (the
  /// watch engine keeps the owning generation alive until the next swap
  /// completes).
  void rebind(const PeriodicModelSet& periodic, const Pfsm& pfsm,
              ShortTermThreshold short_term);

  /// Snapshot / restore of the streaming state (checkpointing). The model
  /// references are not part of the snapshot — rebind() or construction
  /// against the restored generation precedes import_state(). Imported
  /// entries stand as given (the first of duplicate keys wins) until the
  /// next window re-keys them onto the bound set, which drops and counts
  /// the groups it lacks; an export in between returns them unchanged.
  [[nodiscard]] DeviationMonitorState export_state() const;
  void import_state(const DeviationMonitorState& state);

 private:
  /// Per-group streaming state, one entry per model slot of the generation
  /// the monitor is keyed for.
  struct GroupState {
    std::pair<DeviceId, std::string> key;
    Timestamp last_seen;   ///< count-up timer: the last occurrence
    bool armed = false;    ///< `last_seen` holds an occurrence
    /// This group's ongoing silence was already alerted; one alert per
    /// silence episode (the paper counts deviation events, not silent days).
    bool silenced = false;
  };
  /// One modeled flow of the window being evaluated.
  struct Occurrence {
    std::uint32_t slot;
    Timestamp at;
    std::uint32_t flow;  ///< index into the window's flows
  };
  static constexpr std::uint64_t kUnkeyed = ~std::uint64_t{0};

  /// Moves `groups_` onto the bound set's slots (see rebind()).
  void rekey();

  const PeriodicModelSet* periodic_;
  const Pfsm* pfsm_;
  ShortTermThreshold short_term_;
  MonitorOptions options_;
  /// Generation `groups_` is indexed by; kUnkeyed after construction,
  /// reset() and import_state().
  std::uint64_t keyed_for_ = kUnkeyed;
  std::vector<GroupState> groups_;
  /// Indices into `groups_` in (device, group) order, for export.
  std::vector<std::uint32_t> key_order_;
  /// Novel trace signatures already alerted (cross-window dedup).
  std::set<std::string> reported_sequences_;
  bool primed_ = false;
  /// Per-window scratch, kept so a warm window allocates nothing.
  std::vector<Occurrence> occurrences_;
  std::string group_buf_;
};

}  // namespace behaviot
