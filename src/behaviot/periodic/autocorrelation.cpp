#include "behaviot/periodic/autocorrelation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "behaviot/periodic/fft.hpp"

namespace behaviot {
namespace {

// With y <= 3 over n bins, P_L and Q are at most 9n, S at most 3n and
// H_L + T_L at most 6n, so each of the numerator's three terms is within
// 18n³, every partial sum within 36n³, and the denominator within 9n³.
// Below 2^53 all of them are exact in int64_t and convert to double
// exactly, leaving the division as the one rounding.
constexpr auto kMaxN = static_cast<std::int64_t>(kMaxAcfBins);
static_assert(36 * kMaxN * kMaxN * kMaxN < (std::int64_t{1} << 53),
              "kMaxAcfBins exceeds the exact integer ACF's headroom");

}  // namespace

std::size_t presence_bin_count(double window_seconds, double bin) {
  return static_cast<std::size_t>(std::ceil(window_seconds / bin)) + 1;
}

void presence_bins(std::span<const double> times, double t0, double bin,
                   std::size_t n, std::vector<std::uint32_t>& out) {
  if (n > kMaxAcfBins) {
    throw std::invalid_argument("presence_bins: more than kMaxAcfBins bins");
  }
  out.clear();
  bool ascending = true;
  for (double t : times) {
    const auto idx = static_cast<std::size_t>((t - t0) / bin);
    if (idx >= n) continue;
    const auto b = static_cast<std::uint32_t>(idx);
    if (!out.empty()) {
      if (b == out.back()) continue;
      if (b < out.back()) ascending = false;
    }
    out.push_back(b);
  }
  if (!ascending) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

std::span<const double> presence_boxcar_acf(
    std::span<const std::uint32_t> occupied, std::size_t n,
    std::size_t lo_lag, std::size_t hi_lag, PeriodWorkspace& ws) {
  if (n > kMaxAcfBins) {
    throw std::invalid_argument(
        "presence_boxcar_acf: more than kMaxAcfBins bins");
  }
  ws.acf.clear();
  if (n == 0) return {};
  hi_lag = std::min(hi_lag, n - 1);

  // Boxcar counts at the positions the occupied bins reach. ws.boxcar is
  // all zeros between calls (the positions set here are cleared below) and
  // padded past n, so y[i + L] reads 0 beyond the series.
  if (ws.boxcar.size() < n + hi_lag + 1) ws.boxcar.resize(n + hi_lag + 1, 0);
  std::uint8_t* y = ws.boxcar.data();
  std::vector<std::uint32_t>& nonzero = ws.nonzero;
  nonzero.clear();
  // Reserved up front, so no push_back below can throw with y half set.
  nonzero.reserve(std::min(n, 3 * occupied.size()));
  std::int64_t prev = -1;
  for (const std::uint32_t b : occupied) {
    if (b >= n || static_cast<std::int64_t>(b) <= prev) {
      for (const std::uint32_t i : nonzero) y[i] = 0;
      throw std::invalid_argument(
          "presence_boxcar_acf: occupied bins must ascend and lie below n");
    }
    prev = b;
    const std::uint32_t last = std::min<std::uint32_t>(
        b + 1, static_cast<std::uint32_t>(n - 1));
    for (std::uint32_t i = b > 0 ? b - 1 : 0; i <= last; ++i) {
      if (y[i]++ == 0) nonzero.push_back(i);
    }
  }

  const auto ni = static_cast<std::int64_t>(n);
  std::int64_t s = 0;
  std::int64_t q = 0;
  for (const std::uint32_t i : nonzero) {
    s += y[i];
    q += y[i] * y[i];
  }
  const std::int64_t den = ni * (ni * q - s * s);
  if (den != 0) {
    ws.acf.assign(hi_lag + 1, 0.0);
    ws.acf[0] = 1.0;
    for (std::size_t lag = lo_lag; lag <= hi_lag; ++lag) {
      std::int64_t products = 0;
      std::int64_t ends = 0;  // head sum over [0, n - L) + tail over [L, n)
      for (const std::uint32_t i : nonzero) {
        const std::int64_t v = y[i];
        products += v * y[i + lag];
        if (i + lag < n) ends += v;
        if (i >= lag) ends += v;
      }
      const auto li = static_cast<std::int64_t>(lag);
      const std::int64_t num =
          ni * ni * products - ni * s * ends + (ni - li) * s * s;
      ws.acf[lag] = static_cast<double>(num) / static_cast<double>(den);
    }
  }
  for (const std::uint32_t i : nonzero) y[i] = 0;
  return ws.acf;
}

std::optional<AutocorrValidation> validate_presence_period(
    std::span<const std::uint32_t> occupied, std::size_t n,
    double candidate_lag, double search_frac, double min_score,
    PeriodWorkspace& ws) {
  if (n < 4 || candidate_lag < 1.0) return std::nullopt;
  // The search window plus one lag either side for the refinement.
  const auto lo_lag = static_cast<std::size_t>(
      std::max(1.0, std::floor(candidate_lag * (1.0 - search_frac)) - 1.0));
  const auto hi_lag = std::min(
      static_cast<std::size_t>(std::ceil(candidate_lag * (1.0 + search_frac))) +
          1,
      n - 1);
  if (lo_lag >= hi_lag) return std::nullopt;
  const std::span<const double> acf =
      presence_boxcar_acf(occupied, n, lo_lag, hi_lag, ws);
  if (acf.empty()) return std::nullopt;  // constant series
  return validate_period_with_acf(acf, candidate_lag, search_frac, min_score);
}

std::optional<AutocorrValidation> validate_period_with_acf(
    std::span<const double> acf, double candidate_lag, double search_frac,
    double min_score) {
  if (acf.size() < 4 || candidate_lag < 1.0) return std::nullopt;

  const auto lo = static_cast<std::size_t>(
      std::max(1.0, std::floor(candidate_lag * (1.0 - search_frac))));
  const auto hi = std::min(
      static_cast<std::size_t>(std::ceil(candidate_lag * (1.0 + search_frac))),
      acf.size() - 1);
  if (lo >= acf.size() - 1 || lo >= hi) return std::nullopt;

  // Maximum in the search window.
  std::size_t best = lo;
  for (std::size_t k = lo; k <= hi; ++k) {
    if (acf[k] > acf[best]) best = k;
  }
  if (acf[best] < min_score) return std::nullopt;

  // Hill check: the peak must rise above its window edges, so a slowly
  // decaying ACF (trend, not periodicity) does not validate.
  const bool interior_peak = best > lo && best < hi &&
                             acf[best] >= acf[lo] && acf[best] >= acf[hi];
  const bool strong_edge_peak = acf[best] >= 0.8;  // near-perfect periodicity
  if (!interior_peak && !strong_edge_peak) return std::nullopt;

  // Parabolic interpolation refines the lag to sub-sample resolution.
  double refined = static_cast<double>(best);
  if (best > 0 && best + 1 < acf.size()) {
    const double y0 = acf[best - 1], y1 = acf[best], y2 = acf[best + 1];
    const double denom = y0 - 2.0 * y1 + y2;
    if (std::abs(denom) > 1e-12) {
      const double delta = 0.5 * (y0 - y2) / denom;
      if (std::abs(delta) <= 1.0) refined += delta;
    }
  }
  return AutocorrValidation{refined, acf[best]};
}

}  // namespace behaviot
