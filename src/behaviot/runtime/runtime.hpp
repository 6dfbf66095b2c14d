// Deterministic parallel execution runtime for the pipeline's hot paths.
//
// A small chunked thread pool (no work stealing): each `parallel_for` splits
// its index range into fixed-size chunks and workers claim chunks from a
// single atomic cursor. Which thread executes which chunk is nondeterministic,
// but every index writes to its own dedicated output slot, so any computation
// whose per-index work is pure produces bit-identical results at every thread
// count. The pipeline relies on this: training with 1 thread and N threads
// must serialize to byte-identical `BehaviorModelSet`s.
//
// Rules of use:
//  - `threads == 1` (or a pool on a single-core machine) never spawns
//    workers; every call runs inline on the caller's thread.
//  - Nested calls are safe: a `parallel_for` issued from inside a worker (or
//    from inside the caller's own chunk) runs serially on that thread rather
//    than deadlocking on the shared pool.
//  - Concurrent submitters are safe: a `parallel_for` from another thread
//    while the pool runs a job executes its range inline on that thread.
//  - Exceptions thrown by the body are caught, the remaining chunks are
//    abandoned, and the first exception is rethrown on the calling thread.
//
// When the event tracer (obs/trace.hpp) is armed, each claimed chunk is
// recorded as a span on the executing thread, labeled with the submitting
// thread's innermost StageSpan path plus "/task" — so a parallel stage
// renders as per-thread lanes of chunk spans under the stage's name in
// Perfetto. Workers label themselves "pool-worker-<i>" in exported traces.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace behaviot::runtime {

/// Outcome of one item of an error-isolating parallel map: either the value
/// or the error message of the exception the item's function threw.
template <typename T>
struct Try {
  std::optional<T> value;
  std::string error;  ///< empty on success

  [[nodiscard]] bool ok() const noexcept { return value.has_value(); }
  [[nodiscard]] T& operator*() { return *value; }
  [[nodiscard]] const T& operator*() const { return *value; }
  [[nodiscard]] T* operator->() { return &*value; }
  [[nodiscard]] const T* operator->() const { return &*value; }
};

struct RuntimeOptions {
  /// Worker count. 0 = use the BEHAVIOT_THREADS environment variable when it
  /// is set to a positive integer, otherwise hardware concurrency.
  std::size_t threads = 0;
};

/// Thread count a default-constructed pool resolves to: BEHAVIOT_THREADS
/// when set to a positive integer, else hardware concurrency (>= 1).
[[nodiscard]] std::size_t default_threads();

class ThreadPool {
 public:
  explicit ThreadPool(RuntimeOptions options = {});
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in a parallel region (workers + caller).
  [[nodiscard]] std::size_t threads() const noexcept {
    return workers_.size() + 1;
  }

  /// Calls `fn(i)` for every i in [begin, end) and blocks until all calls
  /// return. Rethrows the first exception thrown by `fn`.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Maps `fn` over `items` into a result vector aligned with the input.
  /// The result type must be default-constructible and move-assignable.
  template <typename Items, typename Fn>
  auto parallel_map(const Items& items, Fn&& fn) {
    using Out = std::decay_t<std::invoke_result_t<Fn&, decltype(items[0])>>;
    std::vector<Out> out(items.size());
    parallel_for(0, items.size(),
                 [&](std::size_t i) { out[i] = fn(items[i]); });
    return out;
  }

  /// Error-isolating variant of `parallel_map`: an item whose `fn` throws
  /// yields a Try carrying the error message instead of aborting the whole
  /// map — the quarantine primitive of the graceful-degradation pipeline.
  /// Every item runs to completion (or failure); results stay aligned with
  /// the input, so the outcome is deterministic at any thread count.
  template <typename Items, typename Fn>
  auto parallel_try_map(const Items& items, Fn&& fn) {
    using Out = std::decay_t<std::invoke_result_t<Fn&, decltype(items[0])>>;
    std::vector<Try<Out>> out(items.size());
    parallel_for(0, items.size(), [&](std::size_t i) {
      try {
        out[i].value = fn(items[i]);
      } catch (const std::exception& e) {
        out[i].error = e.what();
        if (out[i].error.empty()) out[i].error = "unspecified error";
      } catch (...) {
        out[i].error = "non-standard exception";
      }
    });
    return out;
  }

 private:
  struct Job;

  void worker_loop(std::size_t worker_index);
  static void run_job(Job& job);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signals a new job generation
  std::condition_variable done_cv_;  ///< signals all workers finished a job
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;  ///< workers still inside the current job
  bool stop_ = false;
};

/// The process-wide pool used by the pipeline's parallel stages. Lazily
/// constructed with `RuntimeOptions{}` (honoring BEHAVIOT_THREADS).
[[nodiscard]] ThreadPool& global_pool();

/// Replaces the global pool with one of `threads` threads (0 = re-resolve
/// the default). Must not race with in-flight parallel work; intended for
/// startup configuration, tests, and benchmarks.
void set_global_threads(std::size_t threads);

/// Thread count of the current global pool.
[[nodiscard]] std::size_t global_threads();

/// Stable slot of the current thread within parallel regions: 0 for the
/// submitting caller (and any thread outside a pool), 1..N for pool workers.
/// Slots are per-thread and fixed for a worker's lifetime, so they index
/// per-worker scratch storage without locks.
[[nodiscard]] std::size_t worker_slot();

/// Per-worker scratch storage for parallel regions: one `T` per
/// participating thread, indexed by `worker_slot()`. Intended for reusable
/// buffers (e.g. FFT workspaces) that are expensive to allocate per item but
/// must not be shared across threads mid-region.
///
/// Size it with `global_threads()` (the default) when the region runs on the
/// global pool. A slot index beyond the storage (a pool larger than the
/// WorkerLocal, e.g. after `set_global_threads` grew the pool) falls back to
/// slot 0 — safe only when such threads cannot run concurrently with the
/// caller, so construct the WorkerLocal after the pool is configured.
template <typename T>
class WorkerLocal {
 public:
  explicit WorkerLocal(std::size_t slots = 0)
      : slots_(slots > 0 ? slots : global_threads() + 1) {}

  /// This thread's instance (slot 0 for the caller).
  [[nodiscard]] T& local() {
    const std::size_t s = worker_slot();
    return slots_[s < slots_.size() ? s : 0];
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

 private:
  std::vector<T> slots_;
};

/// Convenience wrappers over the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

template <typename Items, typename Fn>
auto parallel_map(const Items& items, Fn&& fn) {
  return global_pool().parallel_map(items, std::forward<Fn>(fn));
}

template <typename Items, typename Fn>
auto parallel_try_map(const Items& items, Fn&& fn) {
  return global_pool().parallel_try_map(items, std::forward<Fn>(fn));
}

}  // namespace behaviot::runtime
