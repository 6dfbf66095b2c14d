#include "behaviot/periodic/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "behaviot/net/rng.hpp"

namespace behaviot {
namespace {

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(NextPow2, OverflowBoundary) {
  // The largest representable power of two is its own ceiling; anything
  // above it must throw instead of looping forever on the shifted-out bit.
  constexpr std::size_t kMaxPow2 =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_EQ(next_pow2(kMaxPow2 - 1), kMaxPow2);
  EXPECT_EQ(next_pow2(kMaxPow2), kMaxPow2);
  EXPECT_THROW(next_pow2(kMaxPow2 + 1), std::overflow_error);
  EXPECT_THROW(next_pow2(std::numeric_limits<std::size_t>::max()),
               std::overflow_error);
}

// Reference O(n^2) DFT for validation.
std::vector<std::complex<double>> naive_dft(
    const std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0, 0};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * M_PI * static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += x[t] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(Fft, MatchesNaiveDftOnRandomInput) {
  Rng rng(1);
  std::vector<std::complex<double>> x(64);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto fast = x;
  fft(fast);
  const auto slow = naive_dft(x);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-9) << k;
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-9) << k;
  }
}

TEST(Fft, InverseRoundTrip) {
  Rng rng(2);
  std::vector<std::complex<double>> x(256);
  for (auto& v : x) v = {rng.uniform(-5, 5), 0.0};
  auto buf = x;
  fft(buf);
  fft(buf, /*inverse=*/true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(buf[i].real() / 256.0, x[i].real(), 1e-9);
  }
}

TEST(Fft, SingleElementIsIdentity) {
  std::vector<std::complex<double>> x{{3.0, 4.0}};
  fft(x);
  EXPECT_DOUBLE_EQ(x[0].real(), 3.0);
  EXPECT_DOUBLE_EQ(x[0].imag(), 4.0);
}

TEST(PowerSpectrum, PeakAtSignalFrequency) {
  // 512 samples of a sine with 16 cycles → peak at bin 16.
  std::vector<double> series(512);
  for (std::size_t i = 0; i < series.size(); ++i) {
    series[i] = std::sin(2.0 * M_PI * 16.0 * static_cast<double>(i) / 512.0);
  }
  const auto power = power_spectrum(series);
  std::size_t argmax = 1;
  for (std::size_t k = 1; k < power.size(); ++k) {
    if (power[k] > power[argmax]) argmax = k;
  }
  EXPECT_EQ(argmax, 16u);
}

TEST(PowerSpectrum, MeanCenteringRemovesDc) {
  const std::vector<double> series(128, 42.0);
  const auto power = power_spectrum(series);
  EXPECT_NEAR(power[0], 0.0, 1e-9);
}

TEST(PowerSpectrum, EmptyInput) {
  EXPECT_TRUE(power_spectrum(std::vector<double>{}).empty());
}

}  // namespace
}  // namespace behaviot
