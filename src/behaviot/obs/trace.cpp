#include "behaviot/obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "behaviot/obs/json.hpp"

namespace behaviot::obs {

std::atomic<bool> Tracer::enabled_{false};

/// One thread's ring. Only the owning thread writes events and head; other
/// threads read under the quiescence contract (snapshot after recording has
/// stopped on that thread, ordered by the release store on head).
struct Tracer::Buffer {
  std::uint32_t tid = 0;
  std::string label;
  std::vector<TraceEvent> ring;
  std::atomic<std::uint64_t> head{0};  ///< total events ever written
};

thread_local Tracer::Buffer* Tracer::tls_buffer_ = nullptr;
thread_local std::string Tracer::tls_thread_label_;

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_thread_label(std::string label) {
  tls_thread_label_ = std::move(label);
  if (tls_buffer_ != nullptr) tls_buffer_->label = tls_thread_label_;
}

void Tracer::start(TraceOptions options) {
  std::lock_guard lock(mu_);
  options_ = options;
  if (options_.buffer_capacity == 0) options_.buffer_capacity = 1;
  for (auto& b : buffers_) {
    b->ring.assign(options_.buffer_capacity, TraceEvent{});
    b->head.store(0, std::memory_order_relaxed);
  }
  t0_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_relaxed); }

Tracer::Buffer& Tracer::local_buffer() {
  if (tls_buffer_ == nullptr) {
    std::lock_guard lock(mu_);
    auto buffer = std::make_unique<Buffer>();
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    buffer->label = tls_thread_label_.empty()
                        ? "thread-" + std::to_string(buffer->tid)
                        : tls_thread_label_;
    buffer->ring.assign(options_.buffer_capacity, TraceEvent{});
    tls_buffer_ = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *tls_buffer_;
}

void Tracer::record(TraceEvent::Kind kind, std::string_view name,
                    double value) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  const std::int64_t ts =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count();
  const std::uint64_t head = b.head.load(std::memory_order_relaxed);
  TraceEvent& e = b.ring[head % b.ring.size()];
  e.kind = kind;
  e.ts_us = ts;
  e.value = value;
  const std::size_t n = std::min(name.size(), kTraceNameCap - 1);
  std::memcpy(e.name, name.data(), n);
  e.name[n] = '\0';
  // Publish: the event write above happens-before any acquire read of head.
  b.head.store(head + 1, std::memory_order_release);
}

TraceSnapshot Tracer::snapshot() const {
  TraceSnapshot snap;
  std::lock_guard lock(mu_);
  for (const auto& b : buffers_) {
    const std::uint64_t head = b->head.load(std::memory_order_acquire);
    if (head == 0) continue;
    ThreadTrace t;
    t.tid = b->tid;
    t.label = b->label;
    const std::uint64_t cap = b->ring.size();
    const std::uint64_t kept = std::min(head, cap);
    t.dropped = head - kept;
    t.events.reserve(kept);
    for (std::uint64_t i = head - kept; i < head; ++i) {
      t.events.push_back(b->ring[i % cap]);
    }
    snap.total_events += kept;
    snap.total_dropped += t.dropped;
    snap.threads.push_back(std::move(t));
  }
  return snap;
}

std::string trace_to_chrome_json(const TraceSnapshot& snap) {
  std::ostringstream os;
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {"
     << "\"tool\": \"behaviot\", \"dropped_events\": " << snap.total_dropped
     << "},\n\"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    os << (first ? "" : ",\n") << line;
    first = false;
  };
  emit(R"({"ph": "M", "name": "process_name", "pid": 1, "tid": 0,)"
       R"( "args": {"name": "behaviot"}})");
  for (const ThreadTrace& t : snap.threads) {
    std::ostringstream meta;
    meta << R"({"ph": "M", "name": "thread_name", "pid": 1, "tid": )" << t.tid
         << R"(, "args": {"name": ")" << json::escape(t.label) << "\"}}";
    emit(meta.str());
    // Ring wrap can strand span-end events whose begin was overwritten;
    // skip those so per-thread B/E nesting is always balanced from the top.
    std::size_t depth = 0;
    for (const TraceEvent& e : t.events) {
      const char* ph = nullptr;
      switch (e.kind) {
        case TraceEvent::Kind::kSpanBegin:
          ph = "B";
          ++depth;
          break;
        case TraceEvent::Kind::kSpanEnd:
          if (depth == 0) continue;  // stranded by wrap
          ph = "E";
          --depth;
          break;
        case TraceEvent::Kind::kInstant: ph = "i"; break;
        case TraceEvent::Kind::kCounter: ph = "C"; break;
      }
      std::ostringstream line;
      line << R"({"ph": ")" << ph << R"(", "name": ")" << json::escape(e.name)
           << R"(", "ts": )" << e.ts_us << R"(, "pid": 1, "tid": )" << t.tid;
      if (e.kind == TraceEvent::Kind::kInstant) line << R"(, "s": "t")";
      if (e.kind == TraceEvent::Kind::kCounter) {
        line << R"(, "args": {"value": )"
             << (std::isfinite(e.value) ? e.value : 0.0) << "}";
      }
      line << "}";
      emit(line.str());
    }
  }
  os << "\n]\n}\n";
  return os.str();
}

}  // namespace behaviot::obs
