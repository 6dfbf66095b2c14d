// Live telemetry endpoint: a small, dependency-free HTTP/1.1 server on a
// dedicated thread, so a long-running `behaviot watch` daemon (or a long
// score/train run) can be observed while it works instead of only through
// exit-time file dumps.
//
// Endpoints:
//   GET /metrics       Prometheus 0.0.4 text exposition of the global
//                      registry + per-component health + behaviot_process_*
//                      self-stats — the per-home scrape surface the fleet
//                      layer aggregates.
//   GET /metrics.json  The same snapshot as --metrics JSON.
//   GET /healthz       200 "ok" while every component is healthy, 503 with
//                      the health table otherwise — mirrors the `health`
//                      subcommand's exit semantics (0 vs 3).
//   GET /statusz       JSON run status: process self-stats, server uptime,
//                      and whatever the host command publishes (the watch
//                      loop publishes seal watermark, window lag, model
//                      generation, backlog gauges, close-latency and retrain
//                      percentiles).
//   GET /tracez        Bounded recent-event snapshot from the PR-4 tracer as
//                      Chrome trace-event JSON.
//
// Threading and snapshot-consistency model (DESIGN.md §5j): the server
// thread only ever touches thread-safe surfaces — the metrics registry
// (sharded mutex + relaxed atomics), the health registry (mutex), and
// immutable documents published through publish_status_json() /
// publish_trace_json(). The tracer's ring buffers are NOT thread-safe to
// read while armed, so /tracez serves the last published snapshot (the
// watch loop publishes one at every window boundary, a natural quiescent
// point) and only renders the rings directly when the tracer is disarmed.
// Requests are handled sequentially on the server thread: scrapes are
// read-only and cheap, and sequential handling means no handler ever races
// another.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace behaviot::obs {

struct TelemetryServerOptions {
  /// TCP port to listen on; 0 asks the kernel for an ephemeral port (read
  /// it back with port() — tests and parallel daemons use this).
  std::uint16_t port = 0;
  /// Loopback by default: telemetry is a LAN-gateway diagnostic surface,
  /// exposing it beyond the host is an operator decision.
  std::string bind_address = "127.0.0.1";
};

class TelemetryServer {
 public:
  explicit TelemetryServer(TelemetryServerOptions options = {});
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds, listens, and starts the server thread. False (with a one-line
  /// reason) when the socket cannot be set up; the process can then decide
  /// whether to run blind or abort.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Stops the server thread and closes the socket. Idempotent; also run by
  /// the destructor.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// Actual bound port (resolves an ephemeral request); 0 before start().
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Publishes the host command's /statusz contribution: a JSON object
  /// string, served verbatim under "watch" until the next publish.
  void publish_status_json(std::string json);

  /// Publishes an immutable rendered trace document for /tracez. Call from
  /// a quiescent point (the watch loop's window sink); the server hands out
  /// shared references without ever touching the tracer rings.
  void publish_trace_json(std::string json);

 private:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  void serve_loop();
  void handle_connection(int fd);
  [[nodiscard]] Response dispatch(const std::string& target);
  [[nodiscard]] Response metrics_response(bool as_json);
  [[nodiscard]] Response healthz_response();
  [[nodiscard]] Response statusz_response();
  [[nodiscard]] Response tracez_response();

  TelemetryServerOptions options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: stop() wakes the poll loop
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::chrono::steady_clock::time_point started_{};

  mutable std::mutex mu_;  ///< guards status_json_ and trace_json_
  std::shared_ptr<const std::string> status_json_;
  std::shared_ptr<const std::string> trace_json_;
};

}  // namespace behaviot::obs
