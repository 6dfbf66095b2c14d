// The `behaviot watch` daemon (DESIGN.md §5h, §5k): a WatchEngine fed from a
// pcap file (tailed as it grows with `follow`) plus every output it keeps —
// the stdout window report, the --alerts, --metrics and --trace snapshots,
// the rotating --checkpoint and the /statusz and /tracez documents, all
// rewritten after each closed window. A run starts from a model file or a
// checkpoint, and ends with a finite capture, at max_windows/until, or on
// request_stop(). The CLI's `watch` command is its flag front end.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "behaviot/core/model_handle.hpp"
#include "behaviot/core/watch_engine.hpp"
#include "behaviot/net/parse_policy.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/snapshot.hpp"

namespace behaviot {

namespace obs {
class TelemetryServer;
}  // namespace obs

/// One field per `watch` flag.
struct WatchDaemonOptions {
  /// --window-s, --max-windows, --until-s, --retrain-every,
  /// --retrain-timeout-s, --horizon-s, --max-open-flows,
  /// --max-buffered-packets, --publish-models. A checkpoint's pinned grid
  /// overrides the deterministic ones on resume.
  WatchOptions engine;
  std::string models_path;   ///< --models (unused when resuming)
  std::string resume_path;   ///< --resume
  std::string capture_path;  ///< --capture
  ParsePolicy parse = ParsePolicy::kLenient;  ///< --parse
  bool follow = false;                        ///< --follow
  long poll_ms = 200;                         ///< --poll-ms
  long reopen_backoff_max_ms = 5000;          ///< --reopen-backoff-max-ms
  std::string alerts_path;                    ///< --alerts
  std::string metrics_path;                   ///< --metrics
  std::string trace_path;                     ///< --trace
  obs::SnapshotRotation rotation;  ///< --rotate-max-bytes, --rotate-keep
  std::string checkpoint_path;     ///< --checkpoint
  std::uint64_t checkpoint_every = 1;  ///< --checkpoint-every
};

class WatchDaemon {
 public:
  /// Runs on each chunk read from the capture before the engine sees it
  /// (the CLI restores device identity and applies --chaos here). A stop
  /// requested by the hook drops the chunk.
  using PacketHook = std::function<void(std::vector<Packet>&)>;

  /// Loads the checkpoint (`resume_path`) or else the model file, and
  /// builds the engine; throws when that fails. A non-null `telemetry`
  /// receives the /statusz and /tracez documents and must outlive the
  /// daemon.
  WatchDaemon(WatchDaemonOptions options, PacketHook hook = {},
              obs::TelemetryServer* telemetry = nullptr);

  /// Streams the capture, then prints the run summary. Returns the exit
  /// code: 0, or 1 when a non-follow capture cannot be opened. Parse errors
  /// in a non-follow capture propagate.
  int run();

  /// Asks run() to end at the last closed window. The stream is not
  /// finished and no end-of-stream checkpoint is written: the newest
  /// per-window checkpoint stays the resume point, as after a kill -9, and a
  /// resumed run continues the alert stream byte-identically.
  /// Async-signal-safe.
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  /// The engine, for inspection between chunks (from the packet hook).
  [[nodiscard]] const WatchEngine& engine() const { return *engine_; }

 private:
  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int stream();
  void on_window(const WatchWindowReport& r);
  void write_snapshots(std::size_t window, const obs::HealthSnapshot& health,
                       bool checkpoint);
  void write_checkpoint(std::size_t window, const obs::HealthSnapshot& health);
  void publish_telemetry(const WatchWindowReport& r);
  [[nodiscard]] std::string status_json(const WatchWindowReport& r) const;

  WatchDaemonOptions options_;
  PacketHook hook_;
  obs::TelemetryServer* telemetry_;
  std::atomic<bool> stop_{false};

  ModelHandle models_{BehaviorModelSet{}};
  std::unique_ptr<WatchEngine> engine_;  ///< scores against models_
  /// Capture offset the next checkpoint pins; the first open resumes here.
  std::uint64_t input_offset_ = 0;
  /// Alerts since the last --alerts rotation.
  std::vector<DeviationAlert> alerts_;
  std::optional<obs::SnapshotWriter> alerts_writer_;
  std::optional<obs::SnapshotWriter> metrics_writer_;
  std::optional<obs::SnapshotWriter> trace_writer_;

  /// The newest checkpoint this process wrote, for /statusz.
  struct LastCheckpoint {
    std::size_t window = 0;
    std::uint64_t bytes = 0;
    double write_ms = 0.0;
    std::chrono::steady_clock::time_point at{};
  };
  std::optional<LastCheckpoint> checkpoint_;
};

}  // namespace behaviot
