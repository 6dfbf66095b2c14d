// Streaming daemon core (`behaviot watch`): unbounded packet stream in,
// per-window deviation alerts out, with bounded memory and hot model swaps.
//
// The engine composes the incremental pieces of the pipeline:
//
//   packets ─→ StreamingFlowAssembler ─→ window close ─→ DeviationMonitor
//                     (bounded)               │                 │
//                                      retrain buffer    ModelHandle swap
//                                              └── background merge ──┘
//
// The k-th window is [t0 + kW, t0 + (k+1)W) with t0 the first flow start;
// windows run while flows remain or the window starts before the latest
// flow end + 1 s. A window is evaluated as soon as the assembler's seal
// watermark passes its end. `score --window-s` is this engine fed the whole
// capture in one ingest() call under a hold-all reorder horizon, so every
// flow is resolved with every DNS/SNI binding in the capture. `watch` feeds
// 1024-packet chunks, and a flow sealed before its binding arrives is
// resolved with only the DNS seen so far, so its alerts can differ from
// `score --window-s` on such captures (DESIGN.md §5h; ROADMAP item 6).
//
// Retraining is deterministic by construction: a retrain generation is
// launched right after window k closes and *always* joined (and its model
// set published + rebound) before window k+1 is evaluated. The background
// thread only buys wall-clock overlap with ingestion; alert output is
// byte-identical whether the merge runs inline or concurrently, at any
// runtime thread count.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "behaviot/core/model_handle.hpp"
#include "behaviot/deviation/monitor.hpp"
#include "behaviot/flow/assembler.hpp"
#include "behaviot/net/domain_resolver.hpp"
#include "behaviot/periodic/retrain.hpp"

namespace behaviot {

struct WatchOptions {
  /// Deviation window width W.
  std::int64_t window_us = minutes(30.0);
  /// Stop after this many evaluated windows; 0 = run until the stream ends.
  std::size_t max_windows = 0;
  /// Stop before evaluating any window that starts at or after this capture
  /// time (deterministic `--until` mode); unset = run until the stream ends.
  std::optional<Timestamp> until;
  /// Launch a background retrain every N closed windows (over the flows of
  /// those N windows) and hot-swap the merged models; 0 = never retrain.
  std::size_t retrain_every_windows = 0;
  /// Retrain watchdog: a background retrain still not finished this many
  /// seconds after launch is abandoned at its join point — the prior
  /// generation keeps scoring, `watch.retrain_failures_total` counts it,
  /// health degrades, and the next interval retries with fresh flows. 0
  /// (default) waits indefinitely, which keeps the join point — and thus
  /// alert output — deterministic; a timeout trades that determinism for
  /// liveness, so it is opt-in. Abandoned retrains finish (and are
  /// discarded) in the background; the engine destructor joins stragglers.
  double retrain_timeout_s = 0.0;
  RetrainOptions retrain;
  MonitorOptions monitor;
  /// Reorder horizon and the open-flow/buffered-packet memory caps.
  StreamingAssemblerOptions assembler;
  /// When non-empty, every retrained generation is written here right after
  /// the hot swap (format by extension — ".bbm" binary, otherwise text), so
  /// a fleet's model store always holds the generation currently scoring.
  /// A write failure degrades health but never stops the stream.
  std::string publish_models_path;
};

/// Serializable snapshot of a WatchEngine between two windows
/// (checkpointing). Captured at the window sink — the only point where no
/// retrain is in flight (window k's retrain is joined before window k+1 is
/// evaluated and launched only after the sink returns), so the snapshot is
/// closed under the engine's own invariants: restoring it and replaying the
/// remaining packets reproduces the uninterrupted alert stream byte for
/// byte. The pinned model generation itself is *not* part of the snapshot —
/// the checkpoint container embeds it as a binary model image and restores
/// it into the ModelHandle before import_state() runs.
struct WatchEngineState {
  std::optional<Timestamp> t0;
  std::optional<Timestamp> last_watermark;
  std::size_t next_window = 0;
  Timestamp max_end{std::numeric_limits<std::int64_t>::min()};
  std::size_t windows = 0;
  std::size_t alerts = 0;
  std::uint64_t model_version = 1;
  std::uint64_t swaps = 0;
  bool swapped_pending_report = false;
  bool done = false;
  bool finished = false;
  std::uint64_t reported_force_sealed = 0;
  std::uint64_t reported_late = 0;
  std::vector<FlowRecord> retrain_buffer;
  StreamingAssemblerState assembler;
  DeviationMonitorState monitor;
  DomainResolverState resolver;
};

/// One closed window's outcome, handed to the window sink.
struct WatchWindowReport {
  std::size_t index = 0;  ///< 0-based window number
  Timestamp start;
  Timestamp end;
  std::size_t flows = 0;
  std::vector<DeviationAlert> alerts;
  /// Model generation the window was evaluated against.
  std::uint64_t model_version = 1;
  /// True when a retrain finished and its generation was swapped in right
  /// before this window was evaluated.
  bool swapped = false;
};

class WatchEngine {
 public:
  /// `models` must outlive the engine. The resolver is owned (DNS knowledge
  /// accumulates across the whole stream, as on a gateway); pre-seed it with
  /// static rDNS before handing it over.
  WatchEngine(ModelHandle& models, DomainResolver resolver,
              WatchOptions options);

  /// Invoked synchronously for every evaluated window, in window order.
  void set_window_sink(std::function<void(const WatchWindowReport&)> sink) {
    sink_ = std::move(sink);
  }

  /// Feeds a chunk of captured packets (any chunking; boundaries carry no
  /// meaning) and evaluates every window the stream clock has closed.
  /// No-op once done().
  void ingest(std::span<const Packet> packets);

  /// End of stream: flushes the assembler and evaluates all remaining
  /// windows. Joins any in-flight retrain. Idempotent.
  void finish();

  /// True once max_windows/until was hit or finish() completed — the caller
  /// can stop reading the capture.
  [[nodiscard]] bool done() const { return done_; }

  [[nodiscard]] const WatchOptions& options() const { return options_; }
  [[nodiscard]] std::size_t windows_evaluated() const { return windows_; }
  [[nodiscard]] std::size_t alerts_emitted() const { return alerts_; }
  [[nodiscard]] std::uint64_t model_version() const { return model_version_; }
  [[nodiscard]] std::uint64_t swaps() const { return swaps_; }
  [[nodiscard]] const StreamingAssemblerStats& assembler_stats() const {
    return assembler_.stats();
  }
  /// Live buffered-state gauge for memory-bound assertions.
  [[nodiscard]] std::size_t buffered_packets() const {
    return assembler_.buffered_packets();
  }
  [[nodiscard]] std::size_t open_flows() const {
    return assembler_.open_flows();
  }
  /// Seal watermark observed at the most recent window-advance check — the
  /// stream clock /statusz reports. Unset until the first released packet.
  [[nodiscard]] std::optional<Timestamp> last_seal_watermark() const {
    return last_watermark_;
  }
  /// Retrains abandoned (threw or exceeded retrain_timeout_s); the prior
  /// generation kept scoring each time.
  [[nodiscard]] std::uint64_t retrain_failures() const {
    return retrain_failures_;
  }

  /// Snapshot of the full streaming state. Only valid where no retrain is
  /// in flight — guaranteed inside the window sink; calling with a retrain
  /// pending throws std::logic_error.
  [[nodiscard]] WatchEngineState export_state() const;
  /// Restores a snapshot into a freshly constructed engine (before any
  /// ingest). The ModelHandle must already hold the checkpointed
  /// generation; the monitor is rebound to it here. Replays the retrain
  /// launch the uninterrupted run performed right after the checkpointing
  /// sink returned, so resumed and uninterrupted runs stay in lockstep. A
  /// finished run's snapshot (done) replays nothing: finish() had already
  /// joined that retrain.
  void import_state(WatchEngineState state);

 private:
  void advance_windows(bool to_completion);
  void close_window(Timestamp ws, Timestamp we);
  void join_retrain_and_swap();
  void launch_retrain();

  WatchOptions options_;
  ModelHandle* models_;
  DomainResolver resolver_;
  StreamingFlowAssembler assembler_;
  /// Pinned generation the monitor currently scores against.
  std::shared_ptr<const BehaviorModelSet> generation_;
  DeviationMonitor monitor_;
  std::function<void(const WatchWindowReport&)> sink_;

  std::optional<Timestamp> t0_;      ///< window-grid origin (first flow start)
  std::optional<Timestamp> last_watermark_;  ///< latest observed seal watermark
  std::size_t next_window_ = 0;      ///< next window index to evaluate
  Timestamp max_end_{std::numeric_limits<std::int64_t>::min()};
  std::size_t windows_ = 0;
  std::size_t alerts_ = 0;
  std::uint64_t model_version_ = 1;
  std::uint64_t swaps_ = 0;
  bool swapped_pending_report_ = false;
  bool done_ = false;
  bool finished_ = false;

  std::vector<FlowRecord> retrain_buffer_;
  std::future<BehaviorModelSet> retrain_;
  /// Launch instant of retrain_, for the retrain_timeout_s watchdog.
  std::chrono::steady_clock::time_point retrain_launched_at_{};
  /// Timed-out retrains parked here so their destructors (which block on
  /// the async task) don't stall the join point; swept once finished.
  std::vector<std::future<BehaviorModelSet>> abandoned_retrains_;
  std::uint64_t retrain_failures_ = 0;

  // Degradation dedup: last reported assembler-stat values.
  std::uint64_t reported_force_sealed_ = 0;
  std::uint64_t reported_late_ = 0;
};

}  // namespace behaviot
