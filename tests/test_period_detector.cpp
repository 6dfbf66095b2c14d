#include "behaviot/periodic/period_detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "behaviot/net/rng.hpp"
#include "behaviot/periodic/autocorrelation.hpp"
#include "behaviot/periodic/fft.hpp"

namespace behaviot {
namespace {

std::vector<double> periodic_times(double period, double jitter,
                                   double window, Rng& rng) {
  std::vector<double> times;
  const double phase = rng.uniform(0.0, period);
  for (double t = phase; t < window; t += period) {
    times.push_back(std::max(0.0, t + rng.normal(0.0, jitter)));
  }
  return times;
}

std::vector<double> aperiodic_times(std::size_t n, double window, Rng& rng) {
  std::vector<double> times;
  times.reserve(n);
  for (std::size_t i = 0; i < n; ++i) times.push_back(rng.uniform(0.0, window));
  return times;
}

TEST(PeriodDetector, FindsCleanPeriod) {
  Rng rng(1);
  const double window = 86400.0;
  const auto times = periodic_times(600.0, 2.0, window, rng);
  const PeriodDetector detector;
  const auto dominant = detector.dominant_period(times, window);
  ASSERT_TRUE(dominant.has_value());
  EXPECT_NEAR(dominant->period_seconds, 600.0, 600.0 * 0.05);
  EXPECT_GT(dominant->autocorr_score, 0.3);
}

TEST(PeriodDetector, RejectsUniformRandomTimes) {
  Rng rng(2);
  const double window = 86400.0;
  const auto times = aperiodic_times(144, window, rng);
  const PeriodDetector detector;
  EXPECT_FALSE(detector.dominant_period(times, window).has_value());
}

TEST(PeriodDetector, TooFewEventsIsAperiodic) {
  const std::vector<double> times{10.0, 20.0, 30.0};
  const PeriodDetector detector;
  EXPECT_TRUE(detector.detect(times, 100.0).empty());
}

// The §5.1 synthetic evaluation: 100 periodic sequences of varying periods,
// 100 aperiodic sequences, and 100 noisy periodic sequences — all must be
// classified correctly (the paper reports 100% on all three).
class SyntheticEval : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticEval, PeriodicSequencesDetected) {
  const int index = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(index));
  const double window = 86400.0 * 2;
  const double period = 236.0 + 107.0 * index;  // 236 s .. ~10800 s
  const double jitter = 0.01 * period;
  const auto times = periodic_times(period, jitter, window, rng);
  const PeriodDetector detector;
  const auto dominant = detector.dominant_period(times, window);
  ASSERT_TRUE(dominant.has_value()) << "period " << period;
  EXPECT_NEAR(dominant->period_seconds, period, period * 0.08);
}

TEST_P(SyntheticEval, AperiodicSequencesRejected) {
  const int index = GetParam();
  Rng rng(300 + static_cast<std::uint64_t>(index));
  const double window = 86400.0 * 2;
  const auto times = aperiodic_times(100 + 5 * static_cast<std::size_t>(index),
                                     window, rng);
  const PeriodDetector detector;
  EXPECT_FALSE(detector.dominant_period(times, window).has_value());
}

TEST_P(SyntheticEval, NoisyPeriodicSequencesDetected) {
  const int index = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(index));
  const double window = 86400.0 * 2;
  const double period = 300.0 + 100.0 * index;
  auto times = periodic_times(period, 0.01 * period, window, rng);
  // Mix in aperiodic noise at 25% of the periodic event count.
  const auto noise = aperiodic_times(times.size() / 4, window, rng);
  times.insert(times.end(), noise.begin(), noise.end());
  const PeriodDetector detector;
  const auto periods = detector.detect(times, window);
  ASSERT_FALSE(periods.empty()) << "period " << period;
  bool found = false;
  for (const auto& p : periods) {
    if (std::abs(p.period_seconds - period) < period * 0.08) found = true;
  }
  EXPECT_TRUE(found) << "period " << period;
}

INSTANTIATE_TEST_SUITE_P(HundredSequences, SyntheticEval,
                         ::testing::Range(0, 100));

TEST(PeriodDetector, DetectsTwoOverlappingPeriods) {
  Rng rng(7);
  const double window = 86400.0 * 2;
  auto times = periodic_times(600.0, 3.0, window, rng);
  const auto second = periodic_times(3600.0, 10.0, window, rng);
  times.insert(times.end(), second.begin(), second.end());
  const PeriodDetector detector;
  const auto periods = detector.detect(times, window);
  bool found_600 = false;
  bool found_3600 = false;
  for (const auto& p : periods) {
    if (std::abs(p.period_seconds - 600.0) < 40.0) found_600 = true;
    if (std::abs(p.period_seconds - 3600.0) < 250.0) found_3600 = true;
  }
  EXPECT_TRUE(found_600);
  EXPECT_TRUE(found_3600);
}

TEST(PeriodDetector, LongPeriodNeedsEnoughCycles) {
  // A 24 h period in a 2-day window has <3 cycles: undetectable by design
  // (the paper makes the same observation about daily update checks).
  Rng rng(8);
  const double window = 86400.0 * 2;
  const auto times = periodic_times(86400.0, 60.0, window, rng);
  const PeriodDetector detector;
  for (const auto& p : detector.detect(times, window)) {
    EXPECT_LT(p.period_seconds, 86400.0 / 2.0);
  }
}

// ---------------------------------------------------------------------------
// Stage-2 validation: the exact ACF of the boxcar-smoothed presence series,
// computed from the occupied bins alone.

/// The width-3 boxcar of a presence set, dense and in integers:
/// y[i] = x[i-1] + x[i] + x[i+1], with x zero outside [0, n).
std::vector<std::int64_t> dense_boxcar(std::span<const std::uint32_t> occupied,
                                       std::size_t n) {
  std::vector<std::int64_t> x(n, 0);
  for (const std::uint32_t b : occupied) x[b] = 1;
  std::vector<std::int64_t> y(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x[i] + (i > 0 ? x[i - 1] : 0) + (i + 1 < n ? x[i + 1] : 0);
  }
  return y;
}

/// The normalized ACF at `lag` as an exact rational, straight from the
/// dense definition scaled by n²: Σ (n·y[i] − S)(n·y[i+lag] − S) over
/// Σ (n·y[i] − S)².
double dense_exact_acf(const std::vector<std::int64_t>& y, std::size_t lag) {
  const auto n = static_cast<std::int64_t>(y.size());
  std::int64_t s = 0;
  for (const std::int64_t v : y) s += v;
  std::int64_t num = 0;
  std::int64_t den = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const std::int64_t c = n * y[i] - s;
    den += c * c;
    if (i + lag < y.size()) num += c * (n * y[i + lag] - s);
  }
  return static_cast<double>(num) / static_cast<double>(den);
}

/// The dense floating-point validation this repo used before the exact
/// ACF: a double raster, boxcar, mean-centred per-lag sums over r0.
std::optional<AutocorrValidation> dense_double_validate(
    std::span<const std::uint32_t> occupied, std::size_t n,
    double candidate_lag, double search_frac, double min_score) {
  if (n < 4 || candidate_lag < 1.0) return std::nullopt;
  std::vector<double> x(n, 0.0);
  for (const std::uint32_t b : occupied) x[b] = 1.0;
  std::vector<double> y(n, 0.0);
  y[0] = x[0] + x[1];
  for (std::size_t i = 1; i + 1 < n; ++i) y[i] = x[i] + x[i - 1] + x[i + 1];
  y[n - 1] = x[n - 1] + x[n - 2];
  const auto lo_lag = static_cast<std::size_t>(
      std::max(1.0, std::floor(candidate_lag * (1.0 - search_frac)) - 1.0));
  const auto hi_lag = std::min(
      static_cast<std::size_t>(std::ceil(candidate_lag * (1.0 + search_frac))) +
          1,
      n - 1);
  if (lo_lag >= hi_lag) return std::nullopt;
  double sum = 0.0;
  for (const double v : y) sum += v;
  const double mean = sum / static_cast<double>(n);
  double r0 = 0.0;
  for (const double v : y) r0 += (v - mean) * (v - mean);
  if (r0 <= 1e-12) return std::nullopt;
  std::vector<double> acf(hi_lag + 1, 0.0);
  acf[0] = 1.0;
  for (std::size_t lag = lo_lag; lag <= hi_lag; ++lag) {
    double c = 0.0;
    for (std::size_t t = 0; t + lag < n; ++t) {
      c += (y[t] - mean) * (y[t + lag] - mean);
    }
    acf[lag] = c / r0;
  }
  return validate_period_with_acf(acf, candidate_lag, search_frac, min_score);
}

/// Checks every lag the exact ACF returns against the dense rational.
void expect_exact_acf(std::span<const std::uint32_t> occupied, std::size_t n,
                      std::size_t lo_lag, std::size_t hi_lag,
                      PeriodWorkspace& ws) {
  const std::span<const double> acf =
      presence_boxcar_acf(occupied, n, lo_lag, hi_lag, ws);
  ASSERT_FALSE(acf.empty()) << "n " << n;
  ASSERT_EQ(acf.size(), std::min(hi_lag, n - 1) + 1) << "n " << n;
  EXPECT_EQ(acf[0], 1.0);
  const auto y = dense_boxcar(occupied, n);
  for (std::size_t lag = 1; lag < acf.size(); ++lag) {
    const double expected = lag >= lo_lag ? dense_exact_acf(y, lag) : 0.0;
    ASSERT_EQ(acf[lag], expected) << "n " << n << " lag " << lag;
  }
}

/// A random presence set over n bins: Bernoulli noise at a density spread
/// over three decades, or a jittered grid with drop-outs plus noise.
std::vector<std::uint32_t> random_presence(Rng& rng, std::size_t n,
                                           double period) {
  std::vector<std::uint32_t> occupied;
  const double noise = std::exp(rng.uniform(std::log(1e-3), std::log(0.9)));
  const bool grid = rng.chance(0.6);
  const double drop = rng.uniform(0.0, 0.3);
  const double jitter = rng.uniform(0.0, 2.0);
  const double phase = rng.uniform(0.0, period);
  std::vector<char> x(n, 0);
  if (grid) {
    for (double t = phase; t < static_cast<double>(n); t += period) {
      if (rng.chance(drop)) continue;
      const double at = std::round(t + rng.normal(0.0, jitter));
      if (at >= 0.0 && at < static_cast<double>(n)) {
        x[static_cast<std::size_t>(at)] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(grid ? noise * 0.05 : noise)) x[i] = 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i]) occupied.push_back(static_cast<std::uint32_t>(i));
  }
  return occupied;
}

TEST(PresenceBoxcarAcf, MatchesTheDenseRationalOnRandomPresenceSets) {
  Rng rng(27);
  PeriodWorkspace ws;
  std::size_t validated = 0;
  constexpr int kCases = 1200;
  for (int c = 0; c < kCases; ++c) {
    // n log-uniform over [4, kMaxAcfBins], both ends included.
    std::size_t n = static_cast<std::size_t>(std::exp(rng.uniform(
        std::log(4.0), std::log(static_cast<double>(kMaxAcfBins) + 1.0))));
    if (c == 0) n = 4;
    if (c == 1) n = kMaxAcfBins;
    n = std::clamp<std::size_t>(n, 4, kMaxAcfBins);
    // Half the cases validate at the detector's 50 bins per period, the
    // rest at a random candidate lag.
    const double lag = c % 2 == 0 ? 50.0 : rng.uniform(2.0, 120.0);
    const double period = lag * rng.uniform(0.9, 1.1);
    const auto occupied = random_presence(rng, n, period);

    const auto y = dense_boxcar(occupied, n);
    const bool constant =
        std::all_of(y.begin(), y.end(), [&](auto v) { return v == y[0]; });
    if (constant) {
      EXPECT_TRUE(presence_boxcar_acf(occupied, n, 0, 70, ws).empty());
    } else {
      expect_exact_acf(occupied, n, 0, 70, ws);
      const std::size_t lo = rng.uniform_index(n);
      expect_exact_acf(occupied, n, lo, lo + 20, ws);
    }

    const auto exact = validate_presence_period(occupied, n, lag, 0.16, 0.3, ws);
    const auto dense = dense_double_validate(occupied, n, lag, 0.16, 0.3);
    ASSERT_EQ(exact.has_value(), dense.has_value())
        << "case " << c << " n " << n << " lag " << lag;
    if (!exact) continue;
    ++validated;
    EXPECT_NEAR(exact->refined_lag, dense->refined_lag,
                1e-12 * dense->refined_lag)
        << "case " << c;
    EXPECT_NEAR(exact->score, dense->score, 1e-12) << "case " << c;
  }
  // The sets must exercise both outcomes.
  EXPECT_GT(validated, kCases / 10);
  EXPECT_LT(validated, kCases * 9 / 10);
}

TEST(PresenceBoxcarAcf, IntegerHeadroomHoldsAtTheBinCap) {
  // Densest and sparsest extremes at n = kMaxAcfBins, where the int64
  // numerator is largest.
  PeriodWorkspace ws;
  Rng rng(5);
  std::vector<std::uint32_t> every(kMaxAcfBins);
  for (std::size_t i = 0; i < every.size(); ++i) {
    every[i] = static_cast<std::uint32_t>(i);
  }
  expect_exact_acf(every, kMaxAcfBins, 0, 64, ws);
  std::vector<std::uint32_t> dense_random;
  for (std::uint32_t i = 0; i < kMaxAcfBins; ++i) {
    if (rng.chance(0.7)) dense_random.push_back(i);
  }
  expect_exact_acf(dense_random, kMaxAcfBins, kMaxAcfBins - 70,
                   kMaxAcfBins + 5, ws);
  const std::vector<std::uint32_t> ends{0, kMaxAcfBins - 1};
  expect_exact_acf(ends, kMaxAcfBins, 1, kMaxAcfBins - 1, ws);
  EXPECT_THROW((void)presence_boxcar_acf(ends, kMaxAcfBins + 1, 1, 60, ws),
               std::invalid_argument);
}

TEST(PresenceBoxcarAcf, FewerThanFourBinsNeverValidate) {
  PeriodWorkspace ws;
  for (std::size_t n = 0; n < 4; ++n) {
    std::vector<std::uint32_t> occupied;
    if (n > 0) occupied.push_back(0);
    EXPECT_FALSE(validate_presence_period(occupied, n, 1.0, 0.5, 0.0, ws));
    EXPECT_FALSE(validate_presence_period(occupied, n, 50.0, 0.16, 0.3, ws));
  }
  // Three bins still have an ACF; only validation refuses them.
  const std::vector<std::uint32_t> first{0};
  expect_exact_acf(first, 3, 0, 2, ws);
}

TEST(PresenceBoxcarAcf, NoOccupiedBinIsConstant) {
  PeriodWorkspace ws;
  EXPECT_TRUE(presence_boxcar_acf({}, 100, 1, 60, ws).empty());
  EXPECT_FALSE(validate_presence_period({}, 100, 50.0, 0.16, 0.3, ws));
}

TEST(PresenceBoxcarAcf, EveryBinOccupied) {
  PeriodWorkspace ws;
  // Two full bins smooth to [2, 2]: no variance, rejected.
  const std::vector<std::uint32_t> two{0, 1};
  EXPECT_TRUE(presence_boxcar_acf(two, 2, 0, 1, ws).empty());
  // Longer, the clipped edges [2, 3, ..., 3, 2] are the only variance; the
  // ACF still matches the dense rational and validation the dense path.
  for (const std::size_t n : {std::size_t{4}, std::size_t{60}, std::size_t{500}}) {
    std::vector<std::uint32_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::uint32_t>(i);
    expect_exact_acf(all, n, 0, n - 1, ws);
    EXPECT_EQ(validate_presence_period(all, n, 50.0, 0.16, 0.3, ws).has_value(),
              dense_double_validate(all, n, 50.0, 0.16, 0.3).has_value());
  }
}

TEST(PresenceBoxcarAcf, BoxcarClipsAtBothEdges) {
  PeriodWorkspace ws;
  // Four bins smooth to [1, 1, 1, 1]: no variance.
  const std::vector<std::uint32_t> four{0, 3};
  EXPECT_TRUE(presence_boxcar_acf(four, 4, 0, 3, ws).empty());
  for (const std::size_t n : {std::size_t{5}, std::size_t{6}, std::size_t{97}}) {
    const std::vector<std::uint32_t> ends{0, static_cast<std::uint32_t>(n - 1)};
    expect_exact_acf(ends, n, 0, n - 1, ws);
  }
}

TEST(PresenceBoxcarAcf, RejectsBinsThatAreUnsortedRepeatedOrPastTheEnd) {
  PeriodWorkspace ws;
  const std::vector<std::uint32_t> unsorted{5, 3};
  const std::vector<std::uint32_t> repeated{3, 3};
  const std::vector<std::uint32_t> past{3, 10};
  EXPECT_THROW((void)presence_boxcar_acf(unsorted, 10, 1, 4, ws),
               std::invalid_argument);
  EXPECT_THROW((void)presence_boxcar_acf(repeated, 10, 1, 4, ws),
               std::invalid_argument);
  EXPECT_THROW((void)presence_boxcar_acf(past, 10, 1, 4, ws),
               std::invalid_argument);
  // A refused call leaves the workspace clean for the next one.
  const std::vector<std::uint32_t> ok{1, 4, 7};
  expect_exact_acf(ok, 10, 0, 9, ws);
}

TEST(PresenceBins, UnsortedAndRepeatedTimesGiveTheSortedBins) {
  Rng rng(9);
  std::vector<double> sorted;
  for (double t = 3.0; t < 5000.0; t += rng.uniform(0.1, 40.0)) {
    sorted.push_back(t);
  }
  std::vector<double> shuffled = sorted;
  shuffled.insert(shuffled.end(), sorted.begin(), sorted.begin() + 40);
  rng.shuffle(shuffled);
  const std::size_t n = presence_bin_count(4000.0, 7.5);
  std::vector<std::uint32_t> from_sorted;
  std::vector<std::uint32_t> from_shuffled;
  presence_bins(sorted, 3.0, 7.5, n, from_sorted);
  presence_bins(shuffled, 3.0, 7.5, n, from_shuffled);
  EXPECT_EQ(from_sorted, from_shuffled);
  ASSERT_FALSE(from_sorted.empty());
  EXPECT_TRUE(std::is_sorted(from_sorted.begin(), from_sorted.end()));
  EXPECT_EQ(std::adjacent_find(from_sorted.begin(), from_sorted.end()),
            from_sorted.end());
  EXPECT_LT(from_sorted.back(), n);  // times past the window are dropped
  EXPECT_EQ(n, 535u);                // ceil(4000 / 7.5) + 1
}

TEST(PeriodDetector, UnsortedAndRepeatedTimesDetectAsSorted) {
  Rng rng(10);
  const double window = 86400.0;
  auto times = periodic_times(900.0, 5.0, window, rng);
  const auto noise = aperiodic_times(20, window, rng);
  times.insert(times.end(), noise.begin(), noise.end());
  std::sort(times.begin(), times.end());
  std::vector<double> shuffled = times;
  shuffled.insert(shuffled.end(), times.begin(), times.begin() + 30);
  rng.shuffle(shuffled);
  const PeriodDetector detector;
  const auto a = detector.detect(times, window);
  const auto b = detector.detect(shuffled, window);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].period_seconds, b[i].period_seconds);
    EXPECT_EQ(a[i].autocorr_score, b[i].autocorr_score);
  }
}

TEST(ValidatePeriod, AcceptsExactGrid) {
  std::vector<std::uint32_t> occupied;
  for (std::uint32_t i = 0; i < 1000; i += 50) occupied.push_back(i);
  PeriodWorkspace ws;
  const auto v = validate_presence_period(occupied, 1000, 50.0, 0.2, 0.3, ws);
  ASSERT_TRUE(v.has_value());
  EXPECT_NEAR(v->refined_lag, 50.0, 0.5);
  EXPECT_GT(v->score, 0.9);
}

TEST(ValidatePeriod, RejectsConstantSeries) {
  // No occupied bin: the boxcar is all zeros.
  PeriodWorkspace ws;
  EXPECT_FALSE(validate_presence_period({}, 1000, 50.0, 0.2, 0.3, ws));
}

TEST(ValidatePeriod, RejectsWrongLag) {
  std::vector<std::uint32_t> occupied;
  for (std::uint32_t i = 0; i < 1000; i += 50) occupied.push_back(i);
  PeriodWorkspace ws;
  EXPECT_FALSE(validate_presence_period(occupied, 1000, 37.0, 0.2, 0.3, ws));
}

TEST(ValidatePeriodWithAcf, HandlesShortAcf) {
  const std::vector<double> acf{1.0, 0.1};
  EXPECT_FALSE(validate_period_with_acf(acf, 5.0).has_value());
}

// The FFT autocorrelation's properties, on the exact presence ACF.

TEST(Autocorrelation, LagZeroIsOne) {
  Rng rng(3);
  std::vector<std::uint32_t> occupied;
  for (std::uint32_t i = 0; i < 300; ++i) {
    if (rng.chance(0.3)) occupied.push_back(i);
  }
  PeriodWorkspace ws;
  const auto acf = presence_boxcar_acf(occupied, 300, 0, 50, ws);
  ASSERT_EQ(acf.size(), 51u);
  EXPECT_EQ(acf[0], 1.0);  // n·(n·Q − S²) over itself, exactly
}

TEST(Autocorrelation, PeriodicSignalPeaksAtPeriod) {
  std::vector<std::uint32_t> occupied;
  for (std::uint32_t i = 0; i < 1024; i += 32) occupied.push_back(i);
  PeriodWorkspace ws;
  const auto acf = presence_boxcar_acf(occupied, 1024, 1, 64, ws);
  EXPECT_GT(acf[32], 0.8);
  EXPECT_LT(std::abs(acf[16]), 0.2);
  EXPECT_GT(acf[64], 0.6);
}

TEST(Autocorrelation, ConstantSeriesIsRejected) {
  PeriodWorkspace ws;
  EXPECT_TRUE(presence_boxcar_acf({}, 128, 0, 10, ws).empty());
  const std::vector<std::uint32_t> both{0, 1};
  EXPECT_TRUE(presence_boxcar_acf(both, 2, 0, 10, ws).empty());
}

TEST(Autocorrelation, WhiteNoiseDecorrelates) {
  // Independent presence is white noise; its width-3 boxcar correlates
  // only at lags 1 and 2.
  Rng rng(4);
  std::vector<std::uint32_t> occupied;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    if (rng.chance(0.3)) occupied.push_back(i);
  }
  PeriodWorkspace ws;
  const auto acf = presence_boxcar_acf(occupied, 4096, 3, 100, ws);
  for (std::size_t lag = 3; lag <= 100; ++lag) {
    EXPECT_LT(std::abs(acf[lag]), 0.1) << lag;
  }
}

TEST(Autocorrelation, MaxLagClampedToSeries) {
  const std::vector<std::uint32_t> occupied{0, 2};
  PeriodWorkspace ws;
  const auto acf = presence_boxcar_acf(occupied, 4, 0, 100, ws);
  EXPECT_EQ(acf.size(), 4u);  // clamped to n-1 lags + lag 0
  // The detector's window is clamped the same way: 55 bins cap hi_lag at 54.
  const std::vector<std::uint32_t> grid{2, 20, 31, 52};
  EXPECT_EQ(validate_presence_period(grid, 55, 50.0, 0.16, 0.3, ws).has_value(),
            dense_double_validate(grid, 55, 50.0, 0.16, 0.3).has_value());
  expect_exact_acf(grid, 55, 40, 59, ws);
}

}  // namespace
}  // namespace behaviot
