// Parallel runtime: primitive correctness (chunking, exceptions, nesting)
// and the pipeline-wide determinism guarantee — training with 1, 2, and
// hardware-concurrency threads must serialize to byte-identical models.
#include "behaviot/runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "behaviot/core/pipeline.hpp"
#include "behaviot/core/serialize.hpp"

namespace behaviot {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  runtime::ThreadPool pool({.threads = 4});
  std::vector<std::atomic<int>> hits(10'000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, EmptyAndSingleElementRanges) {
  runtime::ThreadPool pool({.threads = 4});
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SerialPoolRunsInline) {
  runtime::ThreadPool pool({.threads = 1});
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> order;
  pool.parallel_for(0, 100, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // no race: must be inline
  });
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ParallelFor, PropagatesException) {
  runtime::ThreadPool pool({.threads = 4});
  EXPECT_THROW(pool.parallel_for(0, 1000,
                                 [&](std::size_t i) {
                                   if (i == 537) {
                                     throw std::runtime_error("index 537");
                                   }
                                 }),
               std::runtime_error);
  try {
    pool.parallel_for(0, 1000, [&](std::size_t i) {
      if (i == 537) throw std::runtime_error("index 537");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 537");
  }
  // The pool survives a failed job and runs subsequent jobs normally.
  std::atomic<int> total{0};
  pool.parallel_for(0, 64, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, NestedCallsRunSeriallyWithoutDeadlock) {
  runtime::ThreadPool pool({.threads = 4});
  std::vector<std::atomic<int>> hits(32 * 32);
  pool.parallel_for(0, 32, [&](std::size_t outer) {
    // Inner call re-enters the same pool from a parallel region; it must
    // degrade to inline execution instead of deadlocking on the workers.
    pool.parallel_for(0, 32, [&](std::size_t inner) {
      hits[outer * 32 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, ConcurrentSubmittersNeverDeadlock) {
  // Several threads submit to one pool at once, as the watch daemon's
  // window path and a background retrain do. The yields keep every job's
  // workers busy while the other submitters arrive. A hang is the failure
  // under test, so a watchdog aborts with a message instead of leaving it to
  // the ctest timeout.
  runtime::ThreadPool pool({.threads = 4});
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(60),
                     [&] { return finished; })) {
      std::fprintf(stderr,
                   "ParallelFor.ConcurrentSubmittersNeverDeadlock: "
                   "parallel_for still blocked after 60 s\n");
      std::abort();
    }
  });
  std::atomic<std::size_t> miscounted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int call = 0; call < 2000; ++call) {
        std::array<std::atomic<int>, 64> hits{};
        pool.parallel_for(0, hits.size(), [&](std::size_t i) {
          hits[i].fetch_add(1);
          std::this_thread::yield();
        });
        for (const auto& h : hits) {
          if (h.load() != 1) miscounted.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_one();
  watchdog.join();
  EXPECT_EQ(miscounted.load(), 0u);
}

TEST(ParallelMap, AlignsResultsWithInput) {
  runtime::ThreadPool pool({.threads = 3});
  std::vector<int> items(1000);
  std::iota(items.begin(), items.end(), 0);
  const auto squares =
      pool.parallel_map(items, [](int v) { return v * v; });
  ASSERT_EQ(squares.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(squares[i], items[i] * items[i]);
  }
}

TEST(GlobalPool, SetThreadsRebuildsPool) {
  runtime::set_global_threads(2);
  EXPECT_EQ(runtime::global_threads(), 2u);
  std::atomic<int> total{0};
  runtime::parallel_for(0, 100, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
  runtime::set_global_threads(1);
  EXPECT_EQ(runtime::global_threads(), 1u);
}

/// Serializes the full trained model set for one thread count.
std::string train_and_serialize(std::size_t threads) {
  runtime::set_global_threads(threads);
  Pipeline pipeline;
  DomainResolver resolver;
  const auto idle = testbed::Datasets::idle(71, /*days=*/0.5);
  const auto activity = testbed::Datasets::activity(72, /*repetitions=*/4);
  const auto routine = testbed::Datasets::routine_week(73, /*days=*/1.0);
  const auto idle_flows = pipeline.to_flows(idle, resolver);
  const auto activity_flows = pipeline.to_flows(activity, resolver);
  const auto routine_flows = pipeline.to_flows(routine, resolver);
  const auto models = pipeline.train(idle_flows, 43200.0, activity_flows,
                                     routine_flows);

  // Fold classification outcomes in as well: kinds/labels/merged events must
  // also be invariant, not just what save_models covers.
  const auto classified = pipeline.classify(routine_flows, models);
  std::ostringstream os;
  save_models(os, models);
  os << "classified";
  for (const EventKind k : classified.kinds) os << ' ' << static_cast<int>(k);
  for (const auto& label : classified.labels) os << ' ' << label;
  os << ' ' << classified.periodic_via_timer << ' '
     << classified.periodic_via_cluster << ' '
     << classified.user_events.size();
  return os.str();
}

TEST(ThreadInvariance, TrainAndClassifyAreBitIdenticalAcrossThreadCounts) {
  const std::string serial = train_and_serialize(1);
  ASSERT_FALSE(serial.empty());
  const std::string two_threads = train_and_serialize(2);
  EXPECT_EQ(serial, two_threads);
  const std::size_t hw = runtime::default_threads();
  if (hw > 2) {
    const std::string hw_threads = train_and_serialize(hw);
    EXPECT_EQ(serial, hw_threads);
  }
  runtime::set_global_threads(0);  // restore default for any later suites
}

}  // namespace
}  // namespace behaviot
