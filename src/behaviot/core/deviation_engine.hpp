// Longitudinal deviation analysis: drives the full pipeline over successive
// windows (days) of new traffic and reports significant behavior deviations,
// as in the §6.2 uncontrolled-experiment study.
#pragma once

#include "behaviot/core/pipeline.hpp"
#include "behaviot/deviation/monitor.hpp"

namespace behaviot {

class DeviationEngine {
 public:
  /// `models` must outlive the engine.
  explicit DeviationEngine(const BehaviorModelSet& models);

  /// Processes one window of raw capture. Classification state (timers, DNS
  /// knowledge) persists across windows.
  std::vector<DeviationAlert> process_window(
      const testbed::GeneratedCapture& capture);

  /// Forgets all streaming state — monitor timers and silence episodes,
  /// accumulated DNS knowledge, and the window count — so the engine can
  /// replay a second capture from scratch. Without this, a re-run inherits
  /// stale last-seen timers and reports phantom silences.
  void reset();

  /// Windows processed so far.
  [[nodiscard]] std::size_t windows_processed() const { return windows_; }

 private:
  const BehaviorModelSet* models_;
  Pipeline pipeline_;
  DeviationMonitor monitor_;
  DomainResolver resolver_;
  std::size_t windows_ = 0;
};

}  // namespace behaviot
