// Radix-2 FFT and periodogram, from scratch.
//
// The periodic-model inference (§4.1) extracts candidate periods from the
// spectral density of a flow-occurrence time series; this header provides
// the transform and spectrum helpers it needs.
//
// The spectrum comes in two forms: an allocating convenience, and a
// `PeriodWorkspace`-threaded variant that reuses scratch buffers across
// calls. Period detection runs once per traffic group (hundreds of groups
// per training pass), and the coarse transform buffer alone is half a
// megabyte — per-worker workspace reuse removes that allocation churn from
// the hot path entirely. Both forms perform the identical floating-point
// operation sequence, so models stay bit-identical whichever is used.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace behaviot {

/// Reusable scratch buffers for one period-detection worker. Not
/// thread-safe: each runtime worker owns its own instance
/// (runtime::WorkerLocal), so parallel groups never contend. Buffers only
/// grow (std::vector capacity is retained across calls).
struct PeriodWorkspace {
  std::vector<std::complex<double>> fft;  ///< transform buffer
  std::vector<double> power;              ///< coarse periodogram
  std::vector<double> series;             ///< coarse event raster
  std::vector<double> scratch;            ///< order-statistics scratch
  // Per-candidate validation (autocorrelation.hpp).
  std::vector<std::uint32_t> bins;     ///< occupied presence bins
  std::vector<std::uint8_t> boxcar;    ///< boxcar counts; zero between calls
  std::vector<std::uint32_t> nonzero;  ///< positions set in `boxcar`
  std::vector<double> acf;             ///< ACF over the lag window
};

/// Smallest power of two >= n (n >= 1). Throws std::overflow_error when n
/// exceeds the largest std::size_t power of two (no such power exists).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// In-place iterative radix-2 Cooley-Tukey. `data.size()` must be a power of
/// two. `inverse` applies the conjugate transform *without* 1/N scaling
/// (callers scale once where needed).
void fft(std::vector<std::complex<double>>& data, bool inverse = false);

/// Power spectrum |X_k|^2 for k = 0..N/2 of a real series (zero-padded to a
/// power of two). The series is mean-centered first so the DC term does not
/// dominate peak detection.
[[nodiscard]] std::vector<double> power_spectrum(std::span<const double> series);

/// Workspace variant: transforms via `ws.fft` and writes into `ws.power`,
/// allocating only on first use (or growth). Returns `ws.power`.
const std::vector<double>& power_spectrum(std::span<const double> series,
                                          PeriodWorkspace& ws);

}  // namespace behaviot
