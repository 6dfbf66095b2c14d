// Portable hot-loop kernels for the periodic-inference path.
//
// Every kernel preserves the exact IEEE-754 operation sequence of the naive
// scalar loop it replaces: unrolling never splits an accumulation chain into
// multiple accumulators, and element-wise kernels have no cross-element
// dependency at all. That pins results bit-for-bit — the byte-identity
// guarantees (thread-invariance, zero-spec chaos identity, the golden-model
// test) hold through these kernels by construction, while the compiler is
// still free to vectorize the independent work:
//
//  - `magnitudes_squared` writes independent outputs (trivially SIMD).
//  - Reduction kernels (`sum`, `squared_distance`, ...) keep a single
//    accumulator and are unrolled only to cut loop overhead; they exist so
//    the callers share one definition whose FP shape is audited here once.
//
// Header-only; no intrinsics, no target-specific code. The scalar fallback
// IS the implementation — "SIMD" here means shaped so that auto-vectorization
// is legal without -ffast-math.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

namespace behaviot::simd {

/// Σ x[i], left-to-right. Same add sequence as `for (x : xs) s += x;`.
[[nodiscard]] inline double sum(std::span<const double> xs) {
  double s = 0.0;
  std::size_t i = 0;
  const std::size_t n = xs.size();
  // Single accumulator: the unroll removes branch overhead only; the add
  // chain (and therefore rounding) is identical to the rolled loop.
  for (; i + 4 <= n; i += 4) {
    s += xs[i];
    s += xs[i + 1];
    s += xs[i + 2];
    s += xs[i + 3];
  }
  for (; i < n; ++i) s += xs[i];
  return s;
}

/// Squared euclidean distance with the accumulation order of the naive
/// `for (i) { d = a[i]-b[i]; s += d*d; }` loop. The 2/3-D fast paths cover
/// the projected-grid DBSCAN hot path without any loop overhead.
[[nodiscard]] inline double squared_distance(const double* a, const double* b,
                                             std::size_t n) {
  switch (n) {
    case 2: {
      const double d0 = a[0] - b[0];
      const double d1 = a[1] - b[1];
      double s = d0 * d0;
      s += d1 * d1;
      return s;
    }
    case 3: {
      const double d0 = a[0] - b[0];
      const double d1 = a[1] - b[1];
      const double d2 = a[2] - b[2];
      double s = d0 * d0;
      s += d1 * d1;
      s += d2 * d2;
      return s;
    }
    default: {
      double s = 0.0;
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        const double d0 = a[i] - b[i];
        const double d1 = a[i + 1] - b[i + 1];
        const double d2 = a[i + 2] - b[i + 2];
        const double d3 = a[i + 3] - b[i + 3];
        s += d0 * d0;
        s += d1 * d1;
        s += d2 * d2;
        s += d3 * d3;
      }
      for (; i < n; ++i) {
        const double d = a[i] - b[i];
        s += d * d;
      }
      return s;
    }
  }
}

[[nodiscard]] inline double squared_distance(std::span<const double> a,
                                             std::span<const double> b) {
  return squared_distance(a.data(), b.data(), a.size());
}

/// out[k] = |c[k]|^2. Element-wise, no cross-element dependency.
inline void magnitudes_squared(std::span<const std::complex<double>> c,
                               double* out) {
  for (std::size_t k = 0; k < c.size(); ++k) {
    const double re = c[k].real();
    const double im = c[k].imag();
    out[k] = re * re + im * im;
  }
}

}  // namespace behaviot::simd
