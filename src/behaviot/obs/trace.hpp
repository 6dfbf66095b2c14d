// Event tracer: a timeline companion to the metrics registry (metrics.hpp).
//
// Where the registry answers "how much / how long in aggregate", the tracer
// answers "when, on which thread" — span begin/end pairs, instant markers,
// and counter samples land in bounded per-thread ring buffers and export as
// Chrome trace-event JSON (`behaviot_cli --trace FILE`), openable in
// Perfetto or chrome://tracing as per-thread flamegraph lanes.
//
// Design constraints, mirroring the registry's:
//  1. Near-zero overhead when disabled: recording is gated on one
//     process-wide relaxed atomic flag, off by default. A disabled record
//     call is a load and a predictable branch — no clock read, no buffer
//     touch.
//  2. Lock-free hot path: each thread owns a ring buffer it alone writes
//     (the tracer mutex is taken only on a thread's first event). Event
//     names are copied into a fixed per-slot array, so recording never
//     allocates.
//  3. Bounded and lossy: when a ring wraps, the oldest events are
//     overwritten and a per-thread drop counter advances. A trace is a
//     window onto the run's tail, never an unbounded log.
//
// Quiescence contract: `snapshot()` and `start()`/`stop()` must not race
// with in-flight recording. The CLI honors this by exporting after the
// command (and every pool region) has completed; tests do the same.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace behaviot::obs {

struct TraceOptions {
  /// Ring capacity per thread, in events. At 72 bytes/event the default is
  /// ~4.5 MiB per recording thread — hours of orchestrator-level spans, a
  /// generous tail window for per-chunk worker events.
  std::size_t buffer_capacity = 1 << 16;
};

/// Event-name slot size (bytes, including the terminator); longer names are
/// truncated on record so the hot path never allocates.
inline constexpr std::size_t kTraceNameCap = 56;

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSpanBegin,  ///< Chrome "B"
    kSpanEnd,    ///< Chrome "E"
    kInstant,    ///< Chrome "i"
    kCounter,    ///< Chrome "C"
  };
  Kind kind = Kind::kInstant;
  std::int64_t ts_us = 0;  ///< microseconds since Tracer::start()
  double value = 0.0;      ///< counter events only
  char name[kTraceNameCap] = {};
};

/// One thread's retained event window, oldest first.
struct ThreadTrace {
  std::uint32_t tid = 0;      ///< stable ordinal (buffer registration order)
  std::string label;          ///< "main", "pool-worker-3", or "thread-<tid>"
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;  ///< events overwritten by ring wrap
};

struct TraceSnapshot {
  std::vector<ThreadTrace> threads;
  std::uint64_t total_events = 0;   ///< retained events across threads
  std::uint64_t total_dropped = 0;  ///< wrapped-away events across threads
};

class Tracer {
 public:
  /// The process-wide tracer every instrumented site records into.
  [[nodiscard]] static Tracer& global();

  /// Recording on/off switch, same shape as MetricsRegistry::enabled():
  /// one relaxed atomic load on every hot-path call site.
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Arms recording: zeroes every ring (buffers persist across sessions so
  /// cached thread-local pointers stay valid), stamps the trace epoch, and
  /// applies `options` (a capacity change re-sizes the rings in place).
  void start(TraceOptions options = {});

  /// Disarms recording; buffers are retained for snapshot()/export.
  void stop();

  void span_begin(std::string_view name) {
    record(TraceEvent::Kind::kSpanBegin, name, 0.0);
  }
  void span_end(std::string_view name) {
    record(TraceEvent::Kind::kSpanEnd, name, 0.0);
  }
  void instant(std::string_view name) {
    record(TraceEvent::Kind::kInstant, name, 0.0);
  }
  void counter(std::string_view name, double value) {
    record(TraceEvent::Kind::kCounter, name, value);
  }

  /// Display label for the calling thread in exported traces. Cheap to call
  /// whether or not tracing is active (it writes a thread_local); the label
  /// is captured when the thread registers its buffer.
  static void set_thread_label(std::string label);

  /// Copies every thread's retained window (see quiescence contract above).
  [[nodiscard]] TraceSnapshot snapshot() const;

 private:
  struct Buffer;

  Tracer() = default;
  void record(TraceEvent::Kind kind, std::string_view name, double value);
  Buffer& local_buffer();

  static std::atomic<bool> enabled_;
  /// Calling thread's buffer (nullptr until its first recorded event) and
  /// its pending display label.
  static thread_local Buffer* tls_buffer_;
  static thread_local std::string tls_thread_label_;
  mutable std::mutex mu_;  ///< guards buffers_ and options_/t0_ swaps
  std::vector<std::unique_ptr<Buffer>> buffers_;
  TraceOptions options_;
  std::chrono::steady_clock::time_point t0_{};
};

/// Convenience wrappers over the global tracer, each pre-gated on enabled()
/// so disabled call sites skip even the argument handoff.
inline void trace_instant(std::string_view name) {
  if (Tracer::enabled()) Tracer::global().instant(name);
}
inline void trace_counter(std::string_view name, double value) {
  if (Tracer::enabled()) Tracer::global().counter(name, value);
}

/// Renders a snapshot as Chrome trace-event JSON (the "JSON Array Format"
/// wrapped in an object): {"traceEvents": [...], "displayTimeUnit": "ms",
/// "otherData": {...}}. Emits thread_name metadata from ThreadTrace::label,
/// skips unmatched span-end events left dangling by ring wrap (so nesting
/// is always well-formed), and reports drop counts under "otherData".
[[nodiscard]] std::string trace_to_chrome_json(const TraceSnapshot& snap);

}  // namespace behaviot::obs
