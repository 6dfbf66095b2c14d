#include "behaviot/periodic/period_detector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "behaviot/net/stats.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/periodic/autocorrelation.hpp"
#include "behaviot/periodic/fft.hpp"

namespace behaviot {
namespace {

/// Bin width used to rasterize event times into a series. 1 s matches the
/// burst-gap resolution of the assembler.
constexpr double kBinSeconds = 1.0;
/// A periodogram peak is a candidate when its power exceeds
/// median + kPowerSigmaThreshold * 1.4826*MAD of the (non-DC) spectrum.
constexpr double kPowerSigmaThreshold = 6.0;
/// Validation stops once this many candidates have validated.
constexpr std::size_t kMaxValidatedPeriods = 10;
/// Minimum normalized ACF at the candidate lag to validate.
constexpr double kMinAutocorr = 0.3;
/// Cap on the coarse periodogram length; longer windows are binned more
/// coarsely (the per-candidate ACF re-bins independently, so coarsening
/// only limits the smallest detectable period to ~2 coarse bins).
constexpr std::size_t kMaxBins = std::size_t{1} << 14;

struct Candidate {
  double lag_bins;
  double power;
};

/// Rasterizes event times (relative to t0) into a binary presence series at
/// `bin` seconds, written into `out` (capacity reused across calls).
/// Presence (not counts) keeps bursts — e.g. a device's power-up DNS storm —
/// from dominating the spectrum and the ACF normalization of an otherwise
/// clean periodic signal.
void rasterize(std::span<const double> times, double t0, double window_seconds,
               double bin, std::vector<double>& out) {
  const std::size_t nbins = presence_bin_count(window_seconds, bin);
  out.assign(nbins, 0.0);
  for (double t : times) {
    const auto idx = static_cast<std::size_t>((t - t0) / bin);
    if (idx < nbins) out[idx] = 1.0;
  }
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

std::vector<DetectedPeriod> PeriodDetector::detect(
    std::span<const double> event_times_seconds, double window_seconds) const {
  PeriodWorkspace ws;
  return detect(event_times_seconds, window_seconds, ws);
}

std::vector<DetectedPeriod> PeriodDetector::detect(
    std::span<const double> event_times_seconds, double window_seconds,
    PeriodWorkspace& ws) const {
  std::vector<DetectedPeriod> result;
  if (event_times_seconds.size() < 4 || window_seconds <= 0.0) return result;
  const double t0 =
      *std::min_element(event_times_seconds.begin(), event_times_seconds.end());

  const bool metrics = obs::MetricsRegistry::enabled();
  std::chrono::steady_clock::time_point tick;
  if (metrics) tick = std::chrono::steady_clock::now();
  std::uint64_t spectrum_us = 0;
  std::size_t examined = 0;
  std::size_t pruned = 0;

  // ---- Stage 1: coarse periodogram for candidate frequencies. ----
  // Bins widen when the window exceeds kMaxBins at 1-s resolution; the
  // fundamental of any period >= 2 bins survives coarsening.
  double bin = kBinSeconds;
  if (window_seconds / bin > static_cast<double>(kMaxBins)) {
    bin = window_seconds / static_cast<double>(kMaxBins);
  }
  rasterize(event_times_seconds, t0, window_seconds, bin, ws.series);
  const std::vector<double>& power = power_spectrum(ws.series, ws);
  if (power.size() < 3) return result;

  // Robust significance threshold: median + k * 1.4826 * MAD. A sparse
  // impulse train carries many strong harmonics, which would inflate a
  // mean/stddev threshold and mask weaker fundamentals.
  const std::span<const double> nondc(power.data() + 1, power.size() - 1);
  const double med = stats::median(nondc, ws.scratch);
  const double mad = stats::median_abs_deviation(nondc, ws.scratch);
  const double threshold =
      med + kPowerSigmaThreshold * 1.4826 * std::max(mad, 1e-12);

  const std::size_t n_fft = next_pow2(ws.series.size());
  std::vector<Candidate> candidates;
  for (std::size_t k = 1; k < power.size(); ++k) {
    if (power[k] <= threshold) continue;
    const double left = k > 1 ? power[k - 1] : 0.0;
    const double right = k + 1 < power.size() ? power[k + 1] : 0.0;
    if (power[k] < left || power[k] < right) continue;  // shoulder bin
    const double lag_bins = static_cast<double>(n_fft) / static_cast<double>(k);
    const double period_s = lag_bins * bin;
    if (window_seconds / period_s < kMinPeriodCycles) continue;
    if (lag_bins < 2.0) continue;  // beyond Nyquist usefulness
    candidates.push_back({lag_bins, power[k]});
  }
  // The scan runs in ascending frequency = descending period, so candidates
  // arrive sorted: fundamentals come before their harmonics.

  // Validation examines at most kExaminedHorizon candidates (and stops early
  // once kMaxValidatedPeriods have validated), so everything past the
  // horizon is unreachable — drop it before the expensive stage and count it
  // as pruned. This is exact: the kept prefix is what the uncapped loop would
  // examine.
  constexpr std::size_t kExaminedHorizon = 24;
  if (candidates.size() > kExaminedHorizon) {
    pruned += candidates.size() - kExaminedHorizon;
    candidates.resize(kExaminedHorizon);
  }

  if (metrics) {
    spectrum_us = elapsed_us(tick);
    tick = std::chrono::steady_clock::now();
  }

  // ---- Stage 2: per-candidate ACF validation on a re-binned series. ----
  // Re-binning at ~period/50 makes the ACF robust to arrival jitter (jitter
  // spans a fraction of a bin instead of many 1-second bins). The validated
  // series is a width-3 boxcar of the presence raster: arrival jitter and
  // candidate-period quantization split an event's ACF mass across
  // adjacent lags, and smoothing re-concentrates it so the single-lag score
  // reflects the true alignment. That series is sparse and integer-valued,
  // so its ACF is computed exactly from the occupied bins
  // (presence_boxcar_acf).
  // Spectral candidates are fundamentals plus their frequency harmonics
  // (periods T/m). A harmonic candidate has no ACF peak at its own lag, so
  // validation rejects it; subharmonics (m*T) never appear as spectral
  // peaks. Validation alone therefore separates true periods from
  // harmonics, including genuinely overlapping periods in one group.
  constexpr double kBinsPerPeriod = 50.0;
  for (const Candidate& c : candidates) {
    if (result.size() >= kMaxValidatedPeriods) break;
    ++examined;
    const double period_s = c.lag_bins * bin;
    const double bin2 = period_s / kBinsPerPeriod;
    const double validation_window = std::min(
        window_seconds, bin2 * static_cast<double>(kMaxValidationBins));
    const std::size_t n = presence_bin_count(validation_window, bin2);
    presence_bins(event_times_seconds, t0, bin2, n, ws.bins);
    auto v = validate_presence_period(ws.bins, n, kBinsPerPeriod,
                                      /*search_frac=*/0.16, kMinAutocorr, ws);
    if (!v) continue;
    result.push_back({v->refined_lag * bin2, c.power, v->score});
  }

  if (metrics) {
    obs::counter("periodic.detect_calls").inc();
    obs::counter("periodic.spectrum_us").add(spectrum_us);
    obs::counter("periodic.validate_us").add(elapsed_us(tick));
    obs::counter("periodic.candidates_examined")
        .add(static_cast<std::uint64_t>(examined));
    obs::counter("periodic.candidates_pruned")
        .add(static_cast<std::uint64_t>(pruned));
  }

  // ---- Dedup: spectral leakage yields near-duplicate candidates around a
  // fundamental; keep the strongest of each ~10% neighborhood. ----
  std::sort(result.begin(), result.end(),
            [](const DetectedPeriod& a, const DetectedPeriod& b) {
              return a.autocorr_score > b.autocorr_score;
            });
  std::vector<DetectedPeriod> dedup;
  for (const DetectedPeriod& p : result) {
    bool redundant = false;
    for (const DetectedPeriod& kept : dedup) {
      const double ratio = p.period_seconds > kept.period_seconds
                               ? p.period_seconds / kept.period_seconds
                               : kept.period_seconds / p.period_seconds;
      if (ratio < 1.1) {
        redundant = true;
        break;
      }
    }
    if (!redundant) dedup.push_back(p);
  }
  return dedup;
}

std::optional<DetectedPeriod> PeriodDetector::dominant_period(
    std::span<const double> event_times_seconds, double window_seconds) const {
  auto periods = detect(event_times_seconds, window_seconds);
  if (periods.empty()) return std::nullopt;
  return periods.front();
}

}  // namespace behaviot
