#include "behaviot/runtime/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "behaviot/obs/span.hpp"
#include "behaviot/obs/trace.hpp"

namespace behaviot::runtime {
namespace {

/// Scheduling grain: chunks handed out per thread. More chunks smooth out
/// imbalanced per-index work at the cost of more cursor traffic.
constexpr std::size_t kChunksPerThread = 8;

/// True while this thread is executing inside a parallel region (a worker,
/// or the caller running its own share of chunks). Nested parallel_for
/// calls from such a thread run inline instead of re-entering the pool.
thread_local bool tls_in_parallel_region = false;

/// Worker-scratch slot of this thread; 0 (caller) unless a pool worker set
/// it at startup. See runtime::worker_slot().
thread_local std::size_t tls_worker_slot = 0;

}  // namespace

std::size_t worker_slot() { return tls_worker_slot; }

std::size_t default_threads() {
  if (const char* env = std::getenv("BEHAVIOT_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// One parallel_for invocation. Lives on the caller's stack; workers hold a
/// pointer only for the duration of the job (the caller blocks until
/// `active_` drains before the Job goes out of scope).
struct ThreadPool::Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> cursor{0};  ///< next chunk to claim
  std::atomic<bool> failed{false};     ///< abandon unclaimed chunks
  std::mutex error_mu;
  std::exception_ptr error;
  /// Trace span name for each executed chunk; empty when tracing is off at
  /// submit time. Captured once by the submitting thread (its innermost
  /// StageSpan path + "/task"), read-only during the job.
  std::string trace_label;
};

ThreadPool::ThreadPool(RuntimeOptions options) {
  const std::size_t threads =
      options.threads == 0 ? default_threads() : options.threads;
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_job(Job& job) {
  const bool traced = !job.trace_label.empty() && obs::Tracer::enabled();
  while (!job.failed.load(std::memory_order_relaxed)) {
    const std::size_t c = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) break;
    const std::size_t lo = job.begin + c * job.chunk;
    const std::size_t hi = std::min(job.end, lo + job.chunk);
    if (traced) obs::Tracer::global().span_begin(job.trace_label);
    try {
      for (std::size_t i = lo; i < hi; ++i) (*job.fn)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job.error_mu);
        if (!job.error) job.error = std::current_exception();
      }
      job.failed.store(true, std::memory_order_relaxed);
    }
    if (traced) obs::Tracer::global().span_end(job.trace_label);
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  tls_in_parallel_region = true;
  tls_worker_slot = worker_index + 1;
  obs::Tracer::set_thread_label("pool-worker-" + std::to_string(worker_index));
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(
          lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
    }
    if (job != nullptr) run_job(*job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (workers_.empty() || tls_in_parallel_region || n == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  Job job;
  job.fn = &fn;
  job.begin = begin;
  job.end = end;
  if (obs::Tracer::enabled()) {
    const std::string& parent = obs::current_span_path();
    job.trace_label = parent.empty() ? "parallel_for" : parent + "/task";
  }
  const std::size_t target_chunks = threads() * kChunksPerThread;
  job.chunk = std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
  job.num_chunks = (n + job.chunk - 1) / job.chunk;

  bool pool_busy = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // One job owns the workers at a time. A second submitting thread (a
    // background retrain racing the window path) runs its range inline
    // instead of overwriting the running job's slot and count; a chunk's
    // result never depends on the thread that runs it.
    pool_busy = job_ != nullptr;
    if (!pool_busy) {
      job_ = &job;
      ++generation_;
      active_ = workers_.size();
    }
  }
  if (pool_busy) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  work_cv_.notify_all();

  tls_in_parallel_region = true;
  run_job(job);  // the caller works too; run_job never throws
  tls_in_parallel_region = false;

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

namespace {

std::mutex g_global_mu;

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;  // joins workers at exit
  return pool;
}

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(RuntimeOptions{});
  return *slot;
}

void set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  global_slot() = std::make_unique<ThreadPool>(RuntimeOptions{.threads = threads});
}

std::size_t global_threads() { return global_pool().threads(); }

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  global_pool().parallel_for(begin, end, fn);
}

}  // namespace behaviot::runtime
