// Versioned binary watch-checkpoint format (`.bbc`) — durable crash-safe
// snapshots of a running `behaviot watch` daemon.
//
// A checkpoint captures, between two windows, everything a fresh process
// needs to continue the stream as if the crash never happened:
//
//   - the WatchEngine streaming state (window-grid cursor, seal watermark,
//     assembler clamp slot + reorder heap + open/sealed flows, deviation
//     monitor timers and dedup sets, retrain buffer, counters),
//   - the pinned model generation, embedded verbatim as a `.bbm` image
//     (core/serialize_binary.hpp) so resume scores against bit-identical
//     models even if the on-disk model store moved on,
//   - the resolver's learned DNS/SNI bindings,
//   - the capture-side cursor: the byte offset up to which the input pcap
//     was consumed, and the accumulated --alerts JSON document so the
//     resumed daemon's snapshot files continue byte-identically,
//   - the health registry snapshot, preserving escalate-only semantics
//     across the restart.
//
// The envelope is the shared section-tabled image format (core/binary_io.hpp):
// magic "BBC1", version, section table, payloads, CRC32 trailer. Unknown
// section ids are skipped (forward compatibility); the health section is
// optional, every other section is required in either parse policy.
// kLenient differs from kStrict only in tolerating a corrupt CRC or a
// damaged *optional* section (counted in stats->sections_dropped) — state
// a resume cannot do without still throws, because resuming from a guessed
// engine state would silently break the byte-identity guarantee.
//
// On-disk rotation (write_checkpoint_rotating) keeps two generations:
// `FILE` (newest) and `FILE.prev`. The write sequence — rename FILE to
// FILE.prev, then write_file_atomic the new image — guarantees that at
// every instant at least one complete, CRC-valid checkpoint exists.
// load_checkpoint_resilient() encodes the matching read side: strict FILE
// first, lenient FILE.prev as fallback.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "behaviot/core/model_handle.hpp"
#include "behaviot/core/watch_engine.hpp"
#include "behaviot/net/parse_policy.hpp"
#include "behaviot/obs/health.hpp"

namespace behaviot {

inline constexpr std::uint16_t kCheckpointFormatVersion = 1;
/// "BBC1" when read as little-endian u32.
inline constexpr std::uint32_t kCheckpointMagic = 0x31434242u;

/// Section ids of checkpoint format version 1.
inline constexpr std::uint32_t kCkptSectionEngine = 1;
inline constexpr std::uint32_t kCkptSectionAssembler = 2;
inline constexpr std::uint32_t kCkptSectionMonitor = 3;
inline constexpr std::uint32_t kCkptSectionResolver = 4;
inline constexpr std::uint32_t kCkptSectionModels = 5;
inline constexpr std::uint32_t kCkptSectionFrontend = 6;
inline constexpr std::uint32_t kCkptSectionRetrain = 7;
inline constexpr std::uint32_t kCkptSectionHealth = 8;

/// The deterministic option grid a checkpoint pins. On resume these win
/// over whatever flags the restarted process was given — window geometry,
/// retrain cadence and assembler behavior must match the checkpointed run
/// exactly or the continuation diverges. Operational knobs (--follow,
/// --max-windows, --until, snapshot paths, telemetry port) stay
/// CLI-provided.
struct CheckpointOptions {
  std::int64_t window_us = 0;
  std::uint64_t retrain_every_windows = 0;
  std::int64_t burst_gap_us = 0;
  bool drop_infrastructure = false;
  std::int64_t max_ts_regression_us = 0;
  std::int64_t reorder_horizon_us = 0;
  std::uint64_t max_open_flows = 0;
  std::uint64_t max_buffered_packets = 0;
};

/// One complete daemon snapshot, in memory.
struct WatchCheckpoint {
  CheckpointOptions options;
  WatchEngineState engine;
  /// The pinned generation as a `.bbm` image (save_models_binary), plus the
  /// ModelHandle version to restore so post-resume publishes number their
  /// generations exactly as the uninterrupted run would.
  std::string models_image;
  std::uint64_t model_version = 1;
  /// Consumed byte offset in the input capture: every byte before it is
  /// fully inside the checkpointed engine state; replay starts here.
  std::uint64_t input_offset = 0;
  /// The accumulated --alerts JSON document at checkpoint time (empty when
  /// the daemon writes no alerts file).
  std::string alerts_json;
  obs::HealthSnapshot health;
};

/// Composes a checkpoint: the engine's state and pinned grid, the current
/// generation of `models` as a `.bbm` image with its version, and the
/// caller's capture cursor, alerts document and health. Call it from the
/// window sink or after finish(), where export_state() is exact.
[[nodiscard]] WatchCheckpoint compose_checkpoint(const WatchEngine& engine,
                                                 const ModelHandle& models,
                                                 std::uint64_t input_offset,
                                                 std::string alerts_json,
                                                 obs::HealthSnapshot health);

/// The restore side: `models` takes the embedded generation at its
/// version, and the returned engine continues the checkpointed state on
/// `opts` with the pinned grid put back over it (see CheckpointOptions).
/// Moves from `cp.engine`.
[[nodiscard]] std::unique_ptr<WatchEngine> resume_engine(
    WatchCheckpoint& cp, ModelHandle& models, DomainResolver resolver,
    WatchOptions opts);

/// Serializes a checkpoint to a complete `.bbc` image.
[[nodiscard]] std::string save_checkpoint(const WatchCheckpoint& cp);

/// Deserializes a `.bbc` image. See the header comment for what kLenient
/// may salvage; everything a resume requires throws SerializationError
/// (with the absolute byte offset of the damage) in either policy.
WatchCheckpoint load_checkpoint(std::span<const std::uint8_t> bytes,
                                ParsePolicy policy = ParsePolicy::kStrict,
                                ParseStats* stats = nullptr);

/// Writes `cp` to `path` with two-generation rotation: the existing file
/// (if any) is renamed to `path + ".prev"`, then the new image lands via
/// write-to-temp-then-rename. At every instant at least one complete
/// checkpoint survives a kill -9. Returns false (with a one-line reason in
/// `error`) on I/O failure; never throws.
[[nodiscard]] bool write_checkpoint_rotating(const std::string& path,
                                             const WatchCheckpoint& cp,
                                             std::string* error = nullptr);

/// Read side of the rotation scheme: loads `path` strictly; if that fails
/// (missing, torn, corrupt), falls back to `path + ".prev"` leniently.
/// `source` (when non-null) receives the path actually loaded. Throws when
/// neither generation is usable.
WatchCheckpoint load_checkpoint_resilient(const std::string& path,
                                          std::string* source = nullptr,
                                          ParseStats* stats = nullptr);

}  // namespace behaviot
