// Golden-model byte-identity regression test.
//
// The periodic-inference hot path carries aggressively restructured kernels
// (pair-sweep DBSCAN, fused/cache-blocked FFT schedule) whose contract is
// *bit-identical* models: every floating-point accumulation chain keeps the
// exact operation order of the straightforward formulation, and candidate
// validation computes its ACF exactly in integers with one rounding per lag,
// so serialized models must match the reference byte for byte — across
// optimizations, thread counts, and compiler flag changes.
//
// tests/data/golden_periodic_models.txt holds the models this
// implementation trains on the deterministic golden dataset below. It was
// regenerated once, when candidate validation moved from a dense
// floating-point ACF to the exact integer ACF: the same 359 periodic
// groups, with periods moved by at most 3.8e-16 relative. Any divergence
// means a change altered arithmetic, not just scheduling, and must be
// rejected (or the golden deliberately regenerated with a documented
// semantic change). tests/data/golden_models.bbm is the binary form of the
// same models (test_serialize_binary and CI's convert-models compares).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "behaviot/core/pipeline.hpp"
#include "behaviot/core/serialize.hpp"
#include "behaviot/runtime/runtime.hpp"
#include "behaviot/testbed/datasets.hpp"

namespace behaviot {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing golden file: " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::string train_and_serialize() {
  Pipeline pipeline;
  DomainResolver resolver;
  const auto idle = testbed::Datasets::idle(211, /*days=*/0.25);
  const auto activity = testbed::Datasets::activity(212, /*repetitions=*/2);
  const auto routine = testbed::Datasets::routine_week(213, /*days=*/0.5);
  const auto idle_flows = pipeline.to_flows(idle, resolver);
  const auto activity_flows = pipeline.to_flows(activity, resolver);
  const auto routine_flows = pipeline.to_flows(routine, resolver);
  const auto models = pipeline.train(idle_flows, 0.25 * 86400.0,
                                     activity_flows, routine_flows);
  std::ostringstream os;
  save_models(os, models);
  return os.str();
}

TEST(GoldenModel, TrainedModelsAreByteIdenticalToReference) {
  const std::string golden =
      read_file(std::string(BEHAVIOT_TEST_DATA_DIR) +
                "/golden_periodic_models.txt");
  ASSERT_FALSE(golden.empty());
  const std::string current = train_and_serialize();
  ASSERT_EQ(current.size(), golden.size())
      << "serialized model size diverged from the golden reference";
  // Byte compare; on mismatch report the first diverging offset rather than
  // dumping 40 KB of models.
  if (current != golden) {
    std::size_t at = 0;
    while (at < current.size() && current[at] == golden[at]) ++at;
    FAIL() << "models diverge from golden at byte " << at << " (of "
           << golden.size() << ")";
  }
}

TEST(GoldenModel, ByteIdentityHoldsAcrossThreadCounts) {
  // The parallel inference path must assemble the same bytes at any worker
  // count; runs a second configuration to catch scheduling-dependent
  // arithmetic that the single-configuration test above would miss.
  const std::string golden =
      read_file(std::string(BEHAVIOT_TEST_DATA_DIR) +
                "/golden_periodic_models.txt");
  const std::size_t restore = runtime::global_threads();
  runtime::set_global_threads(3);
  const std::string with_three = train_and_serialize();
  runtime::set_global_threads(restore);
  EXPECT_EQ(with_three, golden);
}

}  // namespace
}  // namespace behaviot
