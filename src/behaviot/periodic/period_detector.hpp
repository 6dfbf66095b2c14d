// Unsupervised period detection: DFT candidate extraction + autocorrelation
// validation (§4.1, following [36, 46, 71]).
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace behaviot {

struct PeriodWorkspace;  // fft.hpp

struct DetectedPeriod {
  double period_seconds = 0.0;
  double spectral_power = 0.0;  ///< periodogram power of the candidate
  double autocorr_score = 0.0;  ///< validated ACF value
};

/// A period is only trustworthy if the window holds at least this many
/// cycles (the paper notes ~24 h periods are not detectable in 5 days).
inline constexpr double kMinPeriodCycles = 3.0;

class PeriodDetector {
 public:
  /// Detects all validated periods in a set of event occurrence times
  /// (seconds, arbitrary origin) over an observation window of
  /// `window_seconds`. Returns periods sorted by descending ACF score with
  /// harmonics of a stronger period removed. Empty result = aperiodic.
  [[nodiscard]] std::vector<DetectedPeriod> detect(
      std::span<const double> event_times_seconds,
      double window_seconds) const;

  /// Workspace variant: the raster, spectrum, order-statistics and
  /// validation scratch all live in `ws`, so a worker detecting periods for
  /// many groups allocates only on its first call. Results are
  /// bit-identical to the allocating overload (which simply wraps this one
  /// with a fresh workspace).
  [[nodiscard]] std::vector<DetectedPeriod> detect(
      std::span<const double> event_times_seconds, double window_seconds,
      PeriodWorkspace& ws) const;

  /// Convenience: the single most significant period, if any.
  [[nodiscard]] std::optional<DetectedPeriod> dominant_period(
      std::span<const double> event_times_seconds,
      double window_seconds) const;
};

}  // namespace behaviot
