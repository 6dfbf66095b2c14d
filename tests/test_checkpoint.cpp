// Crash-safety tests for the `.bbc` watch-checkpoint format and the
// kill/resume invariant: a daemon killed with SIGKILL at any checkpoint
// instant and resumed from the written checkpoint must produce an alert
// stream byte-identical to the uninterrupted run — at any thread count and
// any ingest chunking. The format half of the suite hammers the image
// itself: truncations at every section boundary, bit flips, missing and
// unknown sections, rotation fallback.
#include "behaviot/core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/core/binary_io.hpp"
#include "behaviot/core/model_handle.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/core/watch_daemon.hpp"
#include "behaviot/core/watch_engine.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/runtime/runtime.hpp"
#include "watch_fixture.hpp"

namespace behaviot {
namespace {

const binio::ImageFormat kBbcFormat{kCheckpointMagic, kCheckpointFormatVersion,
                                    "bbc", "watch checkpoint"};

WatchOptions watch_options() {
  WatchOptions opts;
  opts.window_us = kWindowUs;
  opts.retrain_every_windows = 4;
  return opts;
}

struct ReferenceRun {
  std::vector<DeviationAlert> alerts;
  std::vector<std::string> checkpoints;  ///< one .bbc image per window
};

/// The uninterrupted run: ingest in `chunk`-sized pieces and serialize a
/// full checkpoint at every window sink, where the daemon writes its
/// rotating file. The capture offset is the count of packets fed (the
/// stand-in for the daemon's pcap byte offset), taken before each ingest()
/// because the sink fires inside it, with the whole chunk in engine state.
ReferenceRun run_checkpointed(const BehaviorModelSet& models,
                              const std::vector<Packet>& packets,
                              const WatchOptions& opts, std::size_t chunk) {
  ModelHandle handle(models);
  WatchEngine engine(handle, DomainResolver{}, opts);
  ReferenceRun run;
  std::size_t fed = 0;
  // A degraded health table, so the round trips cover the health section.
  obs::HealthSnapshot health;
  health.components = {{"watch.test", obs::ComponentState::kDegraded,
                        {"synthetic incident for round-trip coverage"}, {}, 3}};
  engine.set_window_sink([&](const WatchWindowReport& r) {
    run.alerts.insert(run.alerts.end(), r.alerts.begin(), r.alerts.end());
    const WatchCheckpoint cp = compose_checkpoint(
        engine, handle, fed, alerts_to_json(run.alerts), health);
    run.checkpoints.push_back(save_checkpoint(cp));
  });
  const std::span<const Packet> all(packets);
  for (std::size_t i = 0; i < all.size() && !engine.done(); i += chunk) {
    const auto part = all.subspan(i, std::min(chunk, all.size() - i));
    fed = i + part.size();
    engine.ingest(part);
  }
  engine.finish();
  return run;
}

struct ResumeResult {
  std::vector<DeviationAlert> alerts;  ///< emitted after the resume point
  std::size_t alerts_before = 0;       ///< checkpointed alert count
};

/// The kill -9 + resume side: everything the fresh process has is the .bbc
/// image and the capture tail. Models come from the embedded image, the
/// engine from import_state(), and the remaining packets replay from the
/// checkpointed position.
ResumeResult resume_and_finish(const std::string& bbc,
                               const std::vector<Packet>& packets,
                               std::size_t chunk) {
  WatchCheckpoint cp = load_checkpoint(binio::as_bytes(bbc));
  ModelHandle handle{BehaviorModelSet{}};
  ResumeResult result;
  result.alerts_before = cp.engine.alerts;
  const auto resumed = resume_engine(cp, handle, DomainResolver{}, {});
  WatchEngine& engine = *resumed;
  engine.set_window_sink([&](const WatchWindowReport& r) {
    result.alerts.insert(result.alerts.end(), r.alerts.begin(),
                         r.alerts.end());
  });
  const std::span<const Packet> rest =
      std::span<const Packet>(packets).subspan(
          static_cast<std::size_t>(cp.input_offset));
  for (std::size_t i = 0; i < rest.size() && !engine.done(); i += chunk) {
    engine.ingest(rest.subspan(i, std::min(chunk, rest.size() - i)));
  }
  engine.finish();
  return result;
}

/// One full checkpoint the format tests dissect (taken mid-run, after a
/// retrain swap, so every section carries real content).
const std::string& reference_image() {
  static const std::string* image = [] {
    const auto& fx = fixture();
    const auto run = run_checkpointed(fx.models, fx.eval_packets,
                                      watch_options(), 1024);
    EXPECT_GE(run.checkpoints.size(), 6u);
    return new std::string(
        run.checkpoints[run.checkpoints.size() / 2]);
  }();
  return *image;
}

// ---------------------------------------------------------------------------
// The tentpole invariant: kill at any checkpoint instant, resume, and the
// alert stream continues byte-identically — at 1 and 8 threads, under two
// unrelated chunkings, across every kill point.

TEST(CheckpointKillMatrix, ResumeMatchesUninterruptedRunAtEveryKillPoint) {
  const auto& fx = fixture();
  const std::size_t before = runtime::global_threads();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    runtime::set_global_threads(threads);
    for (const std::size_t chunk : {std::size_t{311}, std::size_t{1024}}) {
      const auto base =
          run_checkpointed(fx.models, fx.eval_packets, watch_options(), chunk);
      ASSERT_GE(base.checkpoints.size(), 8u);
      ASSERT_FALSE(base.alerts.empty());
      for (std::size_t k = 0; k < base.checkpoints.size(); ++k) {
        const auto resumed =
            resume_and_finish(base.checkpoints[k], fx.eval_packets, chunk);
        ASSERT_LE(resumed.alerts_before, base.alerts.size())
            << "kill point " << k;
        SCOPED_TRACE(::testing::Message()
                     << "threads " << threads << " chunk " << chunk
                     << " kill point " << k);
        expect_same_alerts(resumed.alerts,
                           std::span<const DeviationAlert>(base.alerts)
                               .subspan(resumed.alerts_before));
      }
    }
  }
  runtime::set_global_threads(before);
}

TEST(CheckpointKillMatrix, ResumeChunkingIsIrrelevant) {
  // The resumed process need not replay with the chunking the dead one
  // used: boundaries carry no meaning, so a 1024-chunk run resumed with
  // 311-packet chunks (and vice versa) still continues byte-identically.
  const auto& fx = fixture();
  const auto base =
      run_checkpointed(fx.models, fx.eval_packets, watch_options(), 1024);
  ASSERT_GE(base.checkpoints.size(), 4u);
  const auto& mid = base.checkpoints[base.checkpoints.size() / 2];
  const auto resumed = resume_and_finish(mid, fx.eval_packets, 311);
  expect_same_alerts(resumed.alerts,
                     std::span<const DeviationAlert>(base.alerts)
                         .subspan(resumed.alerts_before));
}

TEST(CheckpointKillMatrix, FinishedRunResumesWithoutReplayingItsLastRetrain) {
  // The daemon's final checkpoint is taken after finish(), which joined the
  // retrain launched after the last window. When that window completes a
  // retrain interval, a resume from the final checkpoint must not launch
  // the retrain again: nothing is in flight, finishing adds no swap, and
  // the state exports unchanged.
  const auto& fx = fixture();
  const std::size_t windows =
      run_checkpointed(fx.models, fx.eval_packets, watch_options(), 1024)
          .checkpoints.size();
  WatchOptions opts = watch_options();
  opts.retrain_every_windows = windows;  // a divisor of the window count
  for (std::size_t d = 2; d < windows; ++d) {
    if (windows % d == 0) {
      opts.retrain_every_windows = d;
      break;
    }
  }
  ModelHandle handle(fx.models);
  WatchEngine engine(handle, DomainResolver{}, opts);
  engine.ingest(fx.eval_packets);
  engine.finish();
  ASSERT_EQ(engine.windows_evaluated(), windows);
  ASSERT_GT(engine.swaps(), 0u);
  const auto image = [&](const WatchEngine& e, const ModelHandle& h) {
    return save_checkpoint(compose_checkpoint(
        e, h, fx.eval_packets.size(), alerts_to_json({}), {}));
  };
  const std::string final_image = image(engine, handle);

  WatchCheckpoint cp = load_checkpoint(binio::as_bytes(final_image));
  ModelHandle restored{BehaviorModelSet{}};
  const auto resumed = resume_engine(cp, restored, DomainResolver{}, {});
  std::string reexported;
  ASSERT_NO_THROW(reexported = image(*resumed, restored));
  EXPECT_EQ(reexported, final_image);
  resumed->finish();
  EXPECT_EQ(resumed->swaps(), engine.swaps());
  EXPECT_EQ(image(*resumed, restored), final_image);
}

// ---------------------------------------------------------------------------
// The daemon's stop path: a stop request ends the run at the last closed
// window and leaves the newest per-window checkpoint as the resume point, so
// a stop followed by --resume continues the alert stream exactly as a kill
// followed by --resume does.

WatchDaemonOptions daemon_options(const std::string& tag) {
  const WatchFixtureFiles& files = fixture_files();
  WatchDaemonOptions o;
  o.engine = watch_options();
  o.models_path = files.models;
  o.capture_path = files.capture;
  o.alerts_path = files.dir + "/" + tag + "_alerts.json";
  o.checkpoint_path = files.dir + "/" + tag + ".bbc";
  std::filesystem::remove(o.checkpoint_path);
  std::filesystem::remove(o.checkpoint_path + ".prev");
  return o;
}

/// Runs a daemon to its end. Its packet hook restores device identity (as
/// the CLI's does) and requests a stop once `stop_at(chunk, windows)` holds
/// for the chunk about to be ingested and the windows closed so far; the
/// daemon then stops before ingesting that chunk.
int run_daemon(
    const WatchDaemonOptions& o,
    const std::function<bool(std::size_t, std::size_t)>& stop_at = {}) {
  WatchDaemon* self = nullptr;
  std::size_t chunk = 0;
  WatchDaemon daemon(o, [&](std::vector<Packet>& packets) {
    testbed::annotate_devices(packets);
    if (stop_at && stop_at(chunk++, self->engine().windows_evaluated())) {
      self->request_stop();
    }
  });
  self = &daemon;
  return daemon.run();
}

TEST(WatchDaemonStop, StopThenResumeMatchesTheUninterruptedRun) {
  const WatchDaemonOptions base = daemon_options("uninterrupted");
  std::size_t chunks = 0;
  ASSERT_EQ(run_daemon(base,
                       [&](std::size_t, std::size_t) {
                         ++chunks;
                         return false;
                       }),
            0);
  const std::vector<DeviationAlert> expected = alerts_in(base.alerts_path);
  ASSERT_FALSE(expected.empty());
  ASSERT_GE(chunks, 8u);
  const std::size_t windows =
      load_checkpoint_resilient(base.checkpoint_path).engine.windows;

  struct StopPoint {
    const char* name;
    std::function<bool(std::size_t, std::size_t)> at;
  };
  const auto at_chunk = [](std::size_t n) {
    return [n](std::size_t chunk, std::size_t) { return chunk == n; };
  };
  const StopPoint stops[] = {
      {"a quarter in", at_chunk(chunks / 4)},
      {"half way", at_chunk(chunks / 2)},
      // Every 4th window launches a retrain that the next window close
      // joins: the stop lands while one is in flight.
      {"during a retrain",
       [](std::size_t, std::size_t windows) {
         return windows > 0 && windows % 4 == 0;
       }},
      {"before the last chunk", at_chunk(chunks - 1)},
  };
  for (const StopPoint& stop : stops) {
    SCOPED_TRACE(stop.name);
    WatchDaemonOptions o = daemon_options("stopped");
    ASSERT_EQ(run_daemon(o, stop.at), 0);
    // The resume point is a per-window checkpoint, not an end of stream.
    const WatchCheckpoint at_stop =
        load_checkpoint_resilient(o.checkpoint_path);
    EXPECT_FALSE(at_stop.engine.finished);
    EXPECT_LT(at_stop.engine.windows, windows);

    o.resume_path = o.checkpoint_path;
    ASSERT_EQ(run_daemon(o), 0);
    expect_same_alerts(alerts_in(o.alerts_path), expected);
  }
}

// ---------------------------------------------------------------------------
// Format round-trip and damage handling.

TEST(CheckpointFormat, SaveLoadSaveIsByteIdentical) {
  const std::string& image = reference_image();
  const WatchCheckpoint cp = load_checkpoint(binio::as_bytes(image));
  EXPECT_EQ(save_checkpoint(cp), image);
  // Spot-check the restored content is real, not default.
  EXPECT_GT(cp.engine.windows, 0u);
  EXPECT_EQ(cp.options.window_us, kWindowUs);
  EXPECT_EQ(cp.options.retrain_every_windows, 4u);
  EXPECT_FALSE(cp.models_image.empty());
  EXPECT_FALSE(cp.engine.monitor.last_seen.empty());
  EXPECT_FALSE(cp.health.components.empty());
  EXPECT_EQ(cp.health.components.front().component, "watch.test");
  const BehaviorModelSet models =
      load_models_binary(binio::as_bytes(cp.models_image));
  EXPECT_GT(models.periodic.size(), 0u);
}

TEST(CheckpointFormat, TruncationAtEveryBoundaryThrowsInBothPolicies) {
  const std::string& image = reference_image();
  const auto layout = binio::parse_layout(binio::as_bytes(image), kBbcFormat);
  std::vector<std::size_t> cuts = {0, 1, binio::kHeaderSize - 1,
                                   binio::kHeaderSize};
  for (const auto& s : layout.sections) {
    cuts.push_back(s.offset - 1);
    cuts.push_back(s.offset);
    cuts.push_back(s.offset + s.size / 2);
    cuts.push_back(s.offset + s.size - 1);
    cuts.push_back(s.offset + s.size);
  }
  cuts.push_back(layout.payload_end);
  cuts.push_back(image.size() - 1);
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, image.size());
    const auto prefix = binio::as_bytes(image).first(cut);
    // A truncated image is structural damage — no policy may salvage it,
    // and none may crash or allocate unboundedly on it.
    EXPECT_THROW((void)load_checkpoint(prefix, ParsePolicy::kStrict),
                 SerializationError)
        << "cut at " << cut;
    EXPECT_THROW((void)load_checkpoint(prefix, ParsePolicy::kLenient),
                 SerializationError)
        << "cut at " << cut;
  }
}

TEST(CheckpointFormat, BitFlipsNeverPassTheStrictLoad) {
  const std::string& image = reference_image();
  for (std::size_t at = 4; at < image.size(); at += 101) {
    std::string damaged = image;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    EXPECT_THROW(
        (void)load_checkpoint(binio::as_bytes(damaged), ParsePolicy::kStrict),
        SerializationError)
        << "flip at " << at;
  }
}

/// Slices the reference image back into (id, payload) pairs so individual
/// sections can be dropped, damaged, or augmented and the image rebuilt
/// with a consistent table and CRC.
std::vector<std::pair<std::uint32_t, std::string>> reference_sections() {
  const std::string& image = reference_image();
  const auto layout = binio::parse_layout(binio::as_bytes(image), kBbcFormat);
  std::vector<std::pair<std::uint32_t, std::string>> sections;
  for (const auto& s : layout.sections) {
    sections.emplace_back(s.id, image.substr(s.offset, s.size));
  }
  return sections;
}

TEST(CheckpointFormat, UnknownSectionsAreSkippedForForwardCompat) {
  auto sections = reference_sections();
  sections.emplace_back(99u, std::string("payload from a future version"));
  const std::string extended = binio::build_image(kBbcFormat, sections);
  const WatchCheckpoint cp = load_checkpoint(binio::as_bytes(extended));
  // Everything the loader understands round-trips untouched.
  EXPECT_EQ(save_checkpoint(cp), reference_image());
}

TEST(CheckpointFormat, MissingRequiredSectionThrowsByName) {
  for (const std::uint32_t drop :
       {kCkptSectionEngine, kCkptSectionAssembler, kCkptSectionMonitor,
        kCkptSectionResolver, kCkptSectionModels, kCkptSectionFrontend,
        kCkptSectionRetrain}) {
    auto sections = reference_sections();
    std::erase_if(sections, [&](const auto& s) { return s.first == drop; });
    const std::string gutted = binio::build_image(kBbcFormat, sections);
    for (const auto policy : {ParsePolicy::kStrict, ParsePolicy::kLenient}) {
      try {
        (void)load_checkpoint(binio::as_bytes(gutted), policy);
        FAIL() << "section " << drop << " missing but load succeeded";
      } catch (const SerializationError& e) {
        EXPECT_NE(std::string(e.what()).find("missing required section"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(CheckpointFormat, DamagedHealthSectionIsDroppedOnlyLeniently) {
  // Chop bytes off the (optional) health payload and rebuild, so the CRC is
  // valid and only that one section is internally broken: a resume cannot
  // be blocked by damaged telemetry, but strict parsing must still object.
  auto sections = reference_sections();
  bool found = false;
  for (auto& [id, payload] : sections) {
    if (id == kCkptSectionHealth) {
      ASSERT_GE(payload.size(), 4u);
      payload.resize(payload.size() - 3);
      found = true;
    }
  }
  ASSERT_TRUE(found);
  const std::string damaged = binio::build_image(kBbcFormat, sections);
  EXPECT_THROW(
      (void)load_checkpoint(binio::as_bytes(damaged), ParsePolicy::kStrict),
      SerializationError);
  ParseStats stats;
  const WatchCheckpoint cp =
      load_checkpoint(binio::as_bytes(damaged), ParsePolicy::kLenient, &stats);
  EXPECT_EQ(stats.sections_dropped, 1u);
  EXPECT_TRUE(cp.health.components.empty());
  EXPECT_GT(cp.engine.windows, 0u);  // the rest loaded intact
}

// ---------------------------------------------------------------------------
// Rotation and the resilient read side.

TEST(CheckpointRotation, KeepsOneIntactGenerationThroughDamage) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "behaviot_checkpoint_rotation";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "state.bbc").string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");

  const std::string& image = reference_image();
  WatchCheckpoint first = load_checkpoint(binio::as_bytes(image));
  WatchCheckpoint second = load_checkpoint(binio::as_bytes(image));
  second.input_offset = first.input_offset + 12345;

  std::string error;
  ASSERT_TRUE(write_checkpoint_rotating(path, first, &error)) << error;
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".prev"));
  ASSERT_TRUE(write_checkpoint_rotating(path, second, &error)) << error;
  EXPECT_TRUE(std::filesystem::exists(path + ".prev"));

  // Healthy: the newest generation wins.
  std::string source;
  WatchCheckpoint loaded = load_checkpoint_resilient(path, &source);
  EXPECT_EQ(source, path);
  EXPECT_EQ(loaded.input_offset, second.input_offset);

  // FILE torn mid-write (truncated): fall back to FILE.prev.
  {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(image.data(), 100);
  }
  loaded = load_checkpoint_resilient(path, &source);
  EXPECT_EQ(source, path + ".prev");
  EXPECT_EQ(loaded.input_offset, first.input_offset);

  // FILE gone entirely (killed between rename and write): same fallback.
  std::filesystem::remove(path);
  loaded = load_checkpoint_resilient(path, &source);
  EXPECT_EQ(source, path + ".prev");
  EXPECT_EQ(loaded.input_offset, first.input_offset);

  // Neither generation usable: the primary failure is reported.
  std::filesystem::remove(path + ".prev");
  EXPECT_THROW((void)load_checkpoint_resilient(path), SerializationError);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Cross-version compatibility: a checkpoint written by the version that
// introduced the format must keep loading (the CI compat job runs this
// standalone against the checked-in golden file).

TEST(CheckpointGolden, CheckedInCheckpointStillLoads) {
  const std::string path =
      std::string(BEHAVIOT_TEST_DATA_DIR) + "/golden_checkpoint.bbc";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden checkpoint: " << path;
  const std::string image((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_FALSE(image.empty());
  const WatchCheckpoint cp = load_checkpoint(binio::as_bytes(image));
  EXPECT_GT(cp.engine.windows, 0u);
  EXPECT_GT(cp.input_offset, 0u);
  EXPECT_FALSE(cp.models_image.empty());
  const BehaviorModelSet models =
      load_models_binary(binio::as_bytes(cp.models_image));
  EXPECT_GT(models.periodic.size(), 0u);
  // The byte-identity contract extends to re-serialization: writing the
  // loaded golden back out reproduces it exactly.
  EXPECT_EQ(save_checkpoint(cp), image);
}

}  // namespace
}  // namespace behaviot
