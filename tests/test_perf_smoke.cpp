// Wall-clock smoke ceiling for the training hot path (ctest label:
// perf_smoke).
//
// Periodic inference was rebuilt around vectorized kernels (pair-sweep
// DBSCAN, cache-blocked FFT) and an exact sparse ACF for a multi-x speedup;
// this test keeps the floor from silently eroding. The ceiling is
// deliberately generous — an order of magnitude above the current
// single-thread time on a modest container — so it only trips on
// structural regressions (e.g. reintroducing an O(n^2) traversal or a
// __muldc3-lowered complex multiply in the FFT), never on CI scheduling
// noise.
#include <gtest/gtest.h>

#include <chrono>
#include <iostream>

#include "behaviot/core/pipeline.hpp"
#include "behaviot/testbed/datasets.hpp"

namespace behaviot {
namespace {

TEST(PerfSmoke, TrainWallClockStaysUnderCeiling) {
  Pipeline pipeline;
  DomainResolver resolver;
  const auto idle = testbed::Datasets::idle(211, /*days=*/0.25);
  const auto activity = testbed::Datasets::activity(212, /*repetitions=*/2);
  const auto routine = testbed::Datasets::routine_week(213, /*days=*/0.5);
  const auto idle_flows = pipeline.to_flows(idle, resolver);
  const auto activity_flows = pipeline.to_flows(activity, resolver);
  const auto routine_flows = pipeline.to_flows(routine, resolver);

  const auto t0 = std::chrono::steady_clock::now();
  const auto models = pipeline.train(idle_flows, 0.25 * 86400.0,
                                     activity_flows, routine_flows);
  const double train_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  std::cout << "[perf_smoke] train_ms=" << train_ms << "\n";
  EXPECT_GT(models.periodic.size(), 0u);  // the run did real work

  // Current single-thread time on a 1-core container: ~1.0 s. Seed (before
  // the kernel work): ~3.5 s on the same dataset. Ceiling sits above both
  // noise and hardware spread, below an accidental O(n^2) reintroduction.
  constexpr double kCeilingMs = 15000.0;
  EXPECT_LT(train_ms, kCeilingMs);
}

}  // namespace
}  // namespace behaviot
