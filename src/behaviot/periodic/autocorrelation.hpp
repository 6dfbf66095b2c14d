// Autocorrelation-based validation of candidate periods (§4.1).
//
// A candidate is validated on the ACF of a width-3 boxcar of its 0/1
// presence raster. That series holds small integers (0..3) and is almost
// all zeros, so the ACF is computed exactly from the occupied bins alone:
// integer sums over the non-zero positions, one rounding per lag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace behaviot {

struct PeriodWorkspace;  // fft.hpp

struct AutocorrValidation {
  double refined_lag = 0.0;  ///< lag (in samples) of the local ACF maximum
  double score = 0.0;        ///< normalized ACF value at that maximum
};

/// PeriodDetector validates each candidate over at most this many bins:
/// a few hundred cycles are as informative as the full window.
inline constexpr std::size_t kMaxValidationBins = 8192;
/// Longest presence series the exact ACF accepts: kMaxValidationBins plus
/// the end bin and one for rounding. The integer arithmetic is exact up to
/// here (a static_assert in autocorrelation.cpp ties the two).
inline constexpr std::size_t kMaxAcfBins = kMaxValidationBins + 2;

/// Number of bins in a presence raster of `window_seconds` at `bin` seconds:
/// ceil(window / bin) + 1, the last bin holding an event at the window end.
[[nodiscard]] std::size_t presence_bin_count(double window_seconds,
                                             double bin);

/// Occupied bins of the presence raster of `times` over `n` bins of `bin`
/// seconds from `t0`: each time maps to bin (size_t)((t - t0) / bin), and
/// the unique bins below `n` are written to `out` in ascending order.
/// Sorted times need no sort; unsorted or repeated times give the same bins.
/// Throws std::invalid_argument if n > kMaxAcfBins.
void presence_bins(std::span<const double> times, double t0, double bin,
                   std::size_t n, std::vector<std::uint32_t>& out);

/// Exact normalized ACF of y, the width-3 boxcar (y[i] = x[i-1] + x[i] +
/// x[i+1], clipped to [0, n)) of the 0/1 series x of `n` bins whose ones
/// are `occupied` (ascending, unique, each < n). Returns acf indexed by
/// lag, for lags 0..min(hi_lag, n - 1): acf[0] = 1, lags in [lo_lag, hi]
/// hold the ACF, lags in between hold 0. Each value is the one rounding of
///   [n²·P_L − n·S·(H_L + T_L) + (n − L)·S²] / [n·(n·Q − S²)],
/// with S = Σy, Q = Σy², P_L = Σ y[i]·y[i+L], H_L and T_L the sums over
/// [0, n − L) and [L, n), all exact integers. Empty when y is constant
/// (no variance). The span points into `ws` and lives until its next use.
/// Throws std::invalid_argument if n > kMaxAcfBins or `occupied` is not
/// ascending, unique and below n.
[[nodiscard]] std::span<const double> presence_boxcar_acf(
    std::span<const std::uint32_t> occupied, std::size_t n,
    std::size_t lo_lag, std::size_t hi_lag, PeriodWorkspace& ws);

/// Checks whether the boxcar presence ACF (see presence_boxcar_acf) has a
/// significant local maximum near `candidate_lag` (in bins), searching
/// ±`search_frac` around it (validate_period_with_acf's rules, per Vlachos
/// et al. [71]). Fewer than 4 bins never validate.
[[nodiscard]] std::optional<AutocorrValidation> validate_presence_period(
    std::span<const std::uint32_t> occupied, std::size_t n,
    double candidate_lag, double search_frac, double min_score,
    PeriodWorkspace& ws);

/// Validation against a normalized ACF (acf[lag] for lag = 0..max): the
/// peak must exceed `min_score` and be a local maximum (hill shape) within
/// ±`search_frac` of `candidate_lag`; the lag is refined by parabolic
/// interpolation.
std::optional<AutocorrValidation> validate_period_with_acf(
    std::span<const double> acf, double candidate_lag,
    double search_frac = 0.2, double min_score = 0.3);

}  // namespace behaviot
