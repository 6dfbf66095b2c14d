#include "behaviot/periodic/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>

#include "behaviot/core/simd.hpp"

namespace behaviot {
namespace {

/// Per-stage twiddle tables for a radix-2 transform of size n: the stage
/// with half-length h uses entries [h-1, 2h-2) — exp(-2*pi*i*j*(n/2h)/n) for
/// j = 0..h-1 — laid out contiguously so the butterfly loop reads them
/// sequentially instead of gathering a strided walk of one shared table.
/// Values are identical to the shared-table formulation (each entry is
/// cos/sin of the same angle), so transforms are bit-identical to it.
///
/// Split real/imag arrays keep the hot loop on plain doubles; see fft().
struct StageTables {
  std::vector<double> re, im;  ///< n-1 entries, stages concatenated
};

/// Tables are computed once per size and never evicted; std::map node
/// stability keeps returned references valid while the cache grows. A
/// per-thread memo of the last table removes even the lookup lock from the
/// steady state: period detection transforms at one coarse size for a whole
/// training pass, so parallel workers hit the memo on every call after
/// their first.
const StageTables& stage_tables(std::size_t n) {
  struct Memo {
    std::size_t n = 0;
    const StageTables* tables = nullptr;
  };
  thread_local Memo memo;
  if (memo.n == n && memo.tables != nullptr) return *memo.tables;

  static std::mutex mu;
  static std::map<std::size_t, StageTables> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(n);
  if (it == cache.end()) {
    StageTables t;
    t.re.reserve(n - 1);
    t.im.reserve(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t stride = n / len;
      for (std::size_t k = 0; k < len / 2; ++k) {
        const double angle = -2.0 * M_PI *
                             static_cast<double>(k * stride) /
                             static_cast<double>(n);
        t.re.push_back(std::cos(angle));
        t.im.push_back(std::sin(angle));
      }
    }
    it = cache.emplace(n, std::move(t)).first;
  }
  memo = {n, &it->second};
  return it->second;
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  constexpr std::size_t kMaxPow2 =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  if (n > kMaxPow2) {
    throw std::overflow_error(
        "next_pow2: no std::size_t power of two >= the requested size");
  }
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

/// One radix-2 stage with half-length `half` over `region` points starting
/// at `d` (interleaved complex doubles). The exact arithmetic the seed's
/// std::complex formulation performs on finite values.
inline void butterfly_stage(double* d, std::size_t region, std::size_t half,
                            const double* wre, const double* wim,
                            bool inverse) {
  const std::size_t len = 2 * half;
  for (std::size_t i = 0; i < region; i += len) {
    double* a = d + 2 * i;
    double* b = d + 2 * (i + half);
    for (std::size_t k = 0; k < half; ++k) {
      const double wr = wre[k];
      const double wi = inverse ? -wim[k] : wim[k];  // conjugate transform
      const double ure = a[2 * k];
      const double uim = a[2 * k + 1];
      const double xre = b[2 * k];
      const double xim = b[2 * k + 1];
      const double vre = xre * wr - xim * wi;
      const double vim = xre * wi + xim * wr;
      a[2 * k] = ure + vre;
      a[2 * k + 1] = uim + vim;
      b[2 * k] = ure - vre;
      b[2 * k + 1] = uim - vim;
    }
  }
}

/// Two consecutive radix-2 stages (len, 2*len) fused: every element is
/// loaded and stored once per pair of stages instead of once per stage.
/// Each element undergoes the exact same multiply/add sequence as two
/// separate butterfly_stage passes — only the memory scheduling changes —
/// so the transform stays bit-identical while cutting pass traffic in half.
inline void butterfly_stage_pair(double* d, std::size_t region,
                                 std::size_t len, const StageTables& tables,
                                 bool inverse) {
  const std::size_t q = len / 2;  // half-length of the first fused stage
  const double* w1re = tables.re.data() + (q - 1);
  const double* w1im = tables.im.data() + (q - 1);
  const double* w2re = tables.re.data() + (len - 1);
  const double* w2im = tables.im.data() + (len - 1);
  const double sign = inverse ? -1.0 : 1.0;
  for (std::size_t i = 0; i < region; i += 2 * len) {
    double* p0 = d + 2 * i;
    double* p1 = d + 2 * (i + q);
    double* p2 = d + 2 * (i + 2 * q);
    double* p3 = d + 2 * (i + 3 * q);
    for (std::size_t k = 0; k < q; ++k) {
      const double w1r = w1re[k];
      const double w1i = sign * w1im[k];
      // First stage, butterfly (p0[k], p1[k]).
      const double u0re = p0[2 * k], u0im = p0[2 * k + 1];
      const double x0re = p1[2 * k], x0im = p1[2 * k + 1];
      const double v0re = x0re * w1r - x0im * w1i;
      const double v0im = x0re * w1i + x0im * w1r;
      const double a0re = u0re + v0re, a0im = u0im + v0im;
      const double b0re = u0re - v0re, b0im = u0im - v0im;
      // First stage, butterfly (p2[k], p3[k]) — same twiddle.
      const double u1re = p2[2 * k], u1im = p2[2 * k + 1];
      const double x1re = p3[2 * k], x1im = p3[2 * k + 1];
      const double v1re = x1re * w1r - x1im * w1i;
      const double v1im = x1re * w1i + x1im * w1r;
      const double a1re = u1re + v1re, a1im = u1im + v1im;
      const double b1re = u1re - v1re, b1im = u1im - v1im;
      // Second stage, butterfly (a0, a1) with w2[k].
      {
        const double wr = w2re[k];
        const double wi = sign * w2im[k];
        const double vre = a1re * wr - a1im * wi;
        const double vim = a1re * wi + a1im * wr;
        p0[2 * k] = a0re + vre;
        p0[2 * k + 1] = a0im + vim;
        p2[2 * k] = a0re - vre;
        p2[2 * k + 1] = a0im - vim;
      }
      // Second stage, butterfly (b0, b1) with w2[k + q].
      {
        const double wr = w2re[k + q];
        const double wi = sign * w2im[k + q];
        const double vre = b1re * wr - b1im * wi;
        const double vim = b1re * wi + b1im * wr;
        p1[2 * k] = b0re + vre;
        p1[2 * k + 1] = b0im + vim;
        p3[2 * k] = b0re - vre;
        p3[2 * k + 1] = b0im - vim;
      }
    }
  }
}

/// Runs all stages len=2..region depth-first over one `region`-sized span,
/// pairing stages so most elements move through two stages per pass.
inline void butterfly_region(double* d, std::size_t region,
                             const StageTables& tables, bool inverse) {
  std::size_t len = 2;
  const int stages = std::countr_zero(region);
  if (stages & 1) {
    butterfly_stage(d, region, 1, tables.re.data(), tables.im.data(), inverse);
    len = 4;
  }
  for (; len <= region; len <<= 2) {
    butterfly_stage_pair(d, region, len, tables, inverse);
  }
}

}  // namespace

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterflies on raw interleaved doubles. std::complex operator* lowers to
  // a libgcc helper with non-finite fixup (__muldc3) at the default flags,
  // which made the multiply the single hottest instruction sequence of
  // training; writing out the naive complex product — the exact operations
  // the helper performs on finite values — is ~8x faster and bit-identical.
  // std::complex<double> is specified as array-of-two-doubles layout, so the
  // reinterpret is well-defined.
  //
  // Cache-blocked schedule: after bit-reversal every stage with len <= B
  // touches only points inside aligned B-sized blocks, so those stages run
  // depth-first per block while the block is cache-hot; only the final
  // log2(n/B) stages sweep the whole array, in fused pairs. Reordering
  // butterflies across independent blocks/stages never changes the operand
  // values any individual butterfly sees, so the output is bit-identical to
  // the straight stage-by-stage loop.
  double* d = reinterpret_cast<double*>(data.data());
  const StageTables& tables = stage_tables(n);
  constexpr std::size_t kBlock = 1024;  // 16 KiB of complex doubles
  const std::size_t b = std::min(n, kBlock);
  for (std::size_t base = 0; base < n; base += b) {
    butterfly_region(d + 2 * base, b, tables, inverse);
  }
  std::size_t len = 2 * b;
  const int remaining = std::countr_zero(n) - std::countr_zero(b);
  if (remaining & 1) {
    const std::size_t half = len / 2;
    butterfly_stage(d, n, half, tables.re.data() + (half - 1),
                    tables.im.data() + (half - 1), inverse);
    len <<= 1;
  }
  for (; len <= n; len <<= 2) {
    butterfly_stage_pair(d, n, len, tables, inverse);
  }
}

const std::vector<double>& power_spectrum(std::span<const double> series,
                                          PeriodWorkspace& ws) {
  if (series.empty()) {
    ws.power.clear();
    return ws.power;
  }
  const double mean =
      simd::sum(series) / static_cast<double>(series.size());

  const std::size_t n = next_pow2(series.size());
  ws.fft.assign(n, {0.0, 0.0});
  for (std::size_t i = 0; i < series.size(); ++i) ws.fft[i] = series[i] - mean;
  fft(ws.fft);

  ws.power.resize(n / 2 + 1);
  simd::magnitudes_squared({ws.fft.data(), n / 2 + 1}, ws.power.data());
  return ws.power;
}

std::vector<double> power_spectrum(std::span<const double> series) {
  PeriodWorkspace ws;
  return power_spectrum(series, ws);  // ws.power moves out via copy-return
}

}  // namespace behaviot
