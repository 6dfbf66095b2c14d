#include "behaviot/core/watch_daemon.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/core/checkpoint.hpp"
#include "behaviot/core/serialize.hpp"
#include "behaviot/net/pcap.hpp"
#include "behaviot/obs/crash_point.hpp"
#include "behaviot/obs/export.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/process_stats.hpp"
#include "behaviot/obs/telemetry_server.hpp"
#include "behaviot/obs/trace.hpp"
#include "behaviot/testbed/datasets.hpp"

namespace behaviot {

WatchDaemon::WatchDaemon(WatchDaemonOptions options, PacketHook hook,
                         obs::TelemetryServer* telemetry)
    : options_(std::move(options)),
      hook_(std::move(hook)),
      telemetry_(telemetry) {
  if (!options_.resume_path.empty()) {
    // The newest intact generation: FILE strictly, else FILE.prev leniently.
    std::string source;
    WatchCheckpoint cp =
        load_checkpoint_resilient(options_.resume_path, &source);
    std::fprintf(stderr,
                 "resume: restored %s (window %zu, input offset %llu,"
                 " models v%llu)\n",
                 source.c_str(), cp.engine.windows,
                 static_cast<unsigned long long>(cp.input_offset),
                 static_cast<unsigned long long>(cp.model_version));
    obs::health().restore(cp.health);
    input_offset_ = cp.input_offset;
    // The alerts document continues where the checkpoint froze it.
    if (!cp.alerts_json.empty()) alerts_ = alerts_from_json(cp.alerts_json);
    engine_ = resume_engine(cp, models_, testbed::gateway_resolver(),
                            options_.engine);
  } else {
    models_.restore(
        load_models_file_reporting(options_.models_path, options_.parse), 1);
    engine_ = std::make_unique<WatchEngine>(
        models_, testbed::gateway_resolver(), options_.engine);
  }
  const WatchDaemonOptions& o = options_;
  if (!o.alerts_path.empty()) alerts_writer_.emplace(o.alerts_path, o.rotation);
  if (!o.metrics_path.empty()) {
    metrics_writer_.emplace(o.metrics_path, o.rotation);
  }
  if (!o.trace_path.empty()) trace_writer_.emplace(o.trace_path, o.rotation);
  engine_->set_window_sink(
      [this](const WatchWindowReport& r) { on_window(r); });
}

int WatchDaemon::run() {
  if (const int rc = stream(); rc != 0) return rc;
  const bool stopped = stopping() && !engine_->done();
  if (stopped) {
    std::fprintf(stderr, "watch: shutdown signal received — the run ends at"
                         " the last closed window\n");
  } else {
    engine_->finish();
  }
  // A run that closes no further window (a --resume at the end of the
  // capture, a stop before the first close) still leaves complete documents
  // behind. Only a finished stream gets a final checkpoint.
  const std::size_t windows = engine_->windows_evaluated();
  write_snapshots(windows == 0 ? 0 : windows - 1, obs::health().snapshot(),
                  /*checkpoint=*/!stopped);

  const StreamingAssemblerStats& st = engine_->assembler_stats();
  std::printf("watched %zu windows: %llu flows, %zu alerts, %llu model"
              " swap(s); peak %zu open flows / %zu buffered packets\n",
              windows, static_cast<unsigned long long>(st.flows_emitted),
              engine_->alerts_emitted(),
              static_cast<unsigned long long>(engine_->swaps()),
              st.peak_open_flows, st.peak_buffered_packets);
  return 0;
}

int WatchDaemon::stream() {
  const WatchDaemonOptions& o = options_;
  // Follow-mode self-healing: the input is fingerprinted (device, inode,
  // size) at every EOF poll. A vanished path, a changed inode or a shrunken
  // file means the capture was rotated or truncated under us: the reader is
  // abandoned and the path reopened from its new pcap header, with capped
  // exponential backoff between attempts.
  std::optional<struct stat> seen;
  const auto input_intact = [&]() {
    struct stat st {};
    if (::stat(o.capture_path.c_str(), &st) != 0) return false;
    if (seen && (st.st_ino != seen->st_ino || st.st_dev != seen->st_dev ||
                 st.st_size < seen->st_size)) {
      return false;
    }
    seen = st;
    return true;
  };
  // Short sleep slices, so a stop request cuts a wait short.
  const auto sleep_unless_stopped = [this](long ms) {
    for (; ms > 0 && !stopping(); ms -= 50) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<long>(ms, 50)));
    }
  };
  const char* reopen_why = nullptr;
  PcapReaderOptions ropts;
  ropts.policy = o.parse;
  if (o.follow) {
    // Tail mode: at EOF, check the input is still the same growing file,
    // then sleep one poll interval and read on.
    ropts.on_eof = [&]() {
      if (engine_->done() || stopping()) return false;
      if (!input_intact()) {
        reopen_why = "was rotated or truncated";
        return false;
      }
      sleep_unless_stopped(o.poll_ms);
      return !stopping();
    };
  }

  std::vector<Packet> chunk;
  std::optional<std::ifstream> input;  // outlives reader (reader holds a ref)
  std::optional<PcapReader> reader;
  const auto flush_chunk = [&]() {
    if (chunk.empty()) return;
    if (hook_) hook_(chunk);
    if (stopping()) return;  // dropped: the resume point precedes the chunk
    // Every packet of the chunk lies below this offset, and the window sink
    // fires inside ingest() with the whole chunk in engine state, so a
    // resume from a checkpointed offset replays no packet twice, loses none.
    input_offset_ = reader->consumed_offset();
    engine_->ingest(chunk);
    chunk.clear();
  };

  bool first_open = true;
  long backoff_ms = std::max<long>(1, o.poll_ms);
  while (!engine_->done() && !stopping()) {
    reader.reset();
    input.emplace(o.capture_path, std::ios::binary);
    if (!*input && !o.follow) {
      std::fprintf(stderr, "error: cannot open %s\n", o.capture_path.c_str());
      return 1;
    }
    if (*input) {  // else a tailed capture may not exist yet: back off
      seen.reset();
      (void)input_intact();
      PcapReaderOptions per_open = ropts;
      // The checkpointed cursor applies to the first open only: a reopened
      // (rotated) file is a new capture, read from its header on.
      per_open.resume_offset = first_open ? input_offset_ : 0;
      try {
        reader.emplace(*input, per_open);
      } catch (const ParseError& e) {
        if (!o.follow) throw;
        // A truncated global header is transient in tail mode: the writer
        // may still be producing the file.
        std::fprintf(stderr, "watch: cannot read %s (%s) — retrying\n",
                     o.capture_path.c_str(), e.what());
      }
    }
    if (reader) {
      first_open = false;
      reopen_why = nullptr;
      while (!engine_->done() && !stopping()) {
        std::optional<Packet> packet;
        try {
          packet = reader->next();
        } catch (const ParseError& e) {
          if (!o.follow) throw;
          std::fprintf(stderr, "watch: read error on %s (%s) — reopening\n",
                       o.capture_path.c_str(), e.what());
          reopen_why = "hit a read error";
          break;
        }
        if (!packet) break;
        backoff_ms = std::max<long>(1, o.poll_ms);  // a healthy read resets it
        chunk.push_back(std::move(*packet));
        if (chunk.size() >= 1024) flush_chunk();
      }
      if (!o.follow || engine_->done() || stopping() || !reopen_why) break;
      std::fprintf(stderr, "watch: input %s %s — reopening from the start\n",
                   o.capture_path.c_str(), reopen_why);
    }
    obs::counter("watch.input_reopens").inc();
    obs::health().degrade("watch.input", "input-reopened");
    sleep_unless_stopped(backoff_ms);
    // Doubles up to the cap without overflowing a poll interval near
    // LONG_MAX.
    backoff_ms = backoff_ms > o.reopen_backoff_max_ms / 2
                     ? o.reopen_backoff_max_ms
                     : backoff_ms * 2;
  }
  if (!engine_->done() && !stopping()) flush_chunk();
  return 0;
}

void WatchDaemon::on_window(const WatchWindowReport& r) {
  const std::string note =
      r.swapped ? "  [models v" + std::to_string(r.model_version) +
                      " swapped in]"
                : "";
  std::printf("window %4zu [%11.1fs, %11.1fs)  %5zu flows  %zu alert(s)%s\n",
              r.index, static_cast<double>(r.start.micros()) / 1e6,
              static_cast<double>(r.end.micros()) / 1e6, r.flows,
              r.alerts.size(), note.c_str());
  for (const DeviationAlert& a : r.alerts) print_alert_line(stdout, a);
  alerts_.insert(alerts_.end(), r.alerts.begin(), r.alerts.end());
  const obs::HealthSnapshot health = obs::health().snapshot();
  // The sink is the engine's quiescent point (no retrain in flight), so the
  // checkpoint is exact here. The cadence keys off the absolute window
  // index, so interrupted and uninterrupted runs checkpoint alike.
  write_snapshots(r.index, health,
                  (r.index + 1) % options_.checkpoint_every == 0);
  publish_telemetry(r);
  std::fflush(stdout);
}

void WatchDaemon::write_snapshots(std::size_t window,
                                  const obs::HealthSnapshot& health,
                                  bool checkpoint) {
  // Each snapshot is replaced atomically (and archived past the rotation
  // cap), so a kill -9 at any moment leaves complete documents.
  if (alerts_writer_) {
    if (!alerts_writer_->write(alerts_to_json(alerts_, &health), window)) {
      std::fprintf(stderr, "error: cannot write alerts: %s\n",
                   alerts_writer_->last_error().c_str());
    } else if (alerts_writer_->rotated_last_write()) {
      // The archive holds everything so far; archives plus the live file
      // concatenate to the unrotated report.
      alerts_.clear();
    }
  }
  if (checkpoint && !options_.checkpoint_path.empty()) {
    write_checkpoint(window, health);
  }
}

void WatchDaemon::write_checkpoint(std::size_t window,
                                   const obs::HealthSnapshot& health) {
  const WatchCheckpoint cp = compose_checkpoint(
      *engine_, models_, input_offset_, alerts_to_json(alerts_, &health),
      health);
  const auto begin = std::chrono::steady_clock::now();
  obs::crash_point("window.before_checkpoint");
  std::string error;
  if (!write_checkpoint_rotating(options_.checkpoint_path, cp, &error)) {
    std::fprintf(stderr, "error: cannot write checkpoint: %s\n",
                 error.c_str());
    obs::health().degrade("watch.checkpoint",
                          "checkpoint-write-failed: " + error);
    return;
  }
  obs::crash_point("window.after_checkpoint");
  const auto at = std::chrono::steady_clock::now();
  std::error_code ec;
  const auto size = std::filesystem::file_size(options_.checkpoint_path, ec);
  const LastCheckpoint& ck = checkpoint_.emplace(LastCheckpoint{
      window, ec ? 0 : static_cast<std::uint64_t>(size),
      std::chrono::duration<double, std::milli>(at - begin).count(), at});
  obs::counter("checkpoint.writes").inc();
  obs::gauge("checkpoint.bytes").set(static_cast<double>(ck.bytes));
  obs::gauge("checkpoint.last_window").set(static_cast<double>(window));
  obs::histogram("checkpoint.write_ms").observe(ck.write_ms);
}

void WatchDaemon::publish_telemetry(const WatchWindowReport& r) {
  if (metrics_writer_ || telemetry_ != nullptr) obs::update_process_gauges();
  if (metrics_writer_ &&
      !metrics_writer_->write(
          obs::metrics_document(metrics_writer_->path(),
                                obs::MetricsRegistry::global().snapshot(),
                                obs::health().snapshot()),
          r.index)) {
    std::fprintf(stderr, "error: cannot write metrics: %s\n",
                 metrics_writer_->last_error().c_str());
  }
  if (obs::Tracer::enabled() && (trace_writer_ || telemetry_ != nullptr)) {
    // The sink is also the tracer's quiescent point (retrain joined, pool
    // workers idle): the rings may be read here.
    const std::string doc =
        obs::trace_to_chrome_json(obs::Tracer::global().snapshot());
    if (trace_writer_ && !trace_writer_->write(doc, r.index)) {
      std::fprintf(stderr, "error: cannot write trace: %s\n",
                   trace_writer_->last_error().c_str());
    }
    if (telemetry_ != nullptr) telemetry_->publish_trace_json(doc);
  }
  if (telemetry_ != nullptr) telemetry_->publish_status_json(status_json(r));
}

std::string WatchDaemon::status_json(const WatchWindowReport& r) const {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  std::ostringstream js;
  const auto quantiles = [&](const char* key, const char* histogram) {
    js << ",\"" << key << "\":";
    const auto it = snap.histograms.find(histogram);
    if (it == snap.histograms.end()) {
      js << "{\"count\":0}";
      return;
    }
    js << "{\"count\":" << it->second.count
       << ",\"p50\":" << obs::histogram_quantile(it->second, 0.5)
       << ",\"p95\":" << obs::histogram_quantile(it->second, 0.95)
       << ",\"p99\":" << obs::histogram_quantile(it->second, 0.99) << "}";
  };
  const WatchEngine& e = *engine_;
  js << "{\"window\":" << r.index << ",\"window_end_s\":"
     << static_cast<double>(r.end.micros()) / 1e6 << ",\"seal_watermark_s\":";
  if (const auto wm = e.last_seal_watermark()) {
    js << static_cast<double>(wm->micros()) / 1e6 << ",\"watermark_lag_s\":"
       << static_cast<double>(wm->micros() - r.end.micros()) / 1e6;
  } else {
    js << "null,\"watermark_lag_s\":null";
  }
  js << ",\"model_version\":" << r.model_version << ",\"swaps\":" << e.swaps()
     << ",\"alerts\":" << e.alerts_emitted()
     << ",\"open_flows\":" << e.open_flows()
     << ",\"buffered_packets\":" << e.buffered_packets()
     << ",\"retrain_failures\":" << e.retrain_failures();
  quantiles("window_close_latency_ms", "watch.window_close_latency_ms");
  quantiles("retrain_duration_ms", "watch.retrain_duration_ms");
  // Checkpoint staleness: operators alert on age_s exceeding a few window
  // widths — the daemon is alive but no longer durable.
  js << ",\"checkpoint\":";
  if (checkpoint_) {
    js << "{\"window\":" << checkpoint_->window
       << ",\"bytes\":" << checkpoint_->bytes
       << ",\"write_ms\":" << checkpoint_->write_ms << ",\"age_s\":"
       << std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        checkpoint_->at)
              .count()
       << "}";
  } else {
    js << "null";
  }
  js << "}";
  return js.str();
}

}  // namespace behaviot
