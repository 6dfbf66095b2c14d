#include "behaviot/core/watch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "behaviot/core/serialize.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/span.hpp"

namespace behaviot {

WatchEngine::WatchEngine(ModelHandle& models, DomainResolver resolver,
                         WatchOptions options)
    : options_(options),
      models_(&models),
      resolver_(std::move(resolver)),
      assembler_(options.assembler, resolver_),
      generation_(models.acquire()),
      monitor_(generation_->periodic, generation_->pfsm,
               generation_->short_term, options.monitor),
      model_version_(models.version()) {}

void WatchEngine::ingest(std::span<const Packet> packets) {
  if (done_ || finished_) return;
  obs::counter("watch.packets_in").add(packets.size());
  assembler_.feed(packets);
  advance_windows(/*to_completion=*/false);
}

void WatchEngine::finish() {
  if (finished_) {
    // Still join a retrain left in flight by a max_windows/until stop.
    join_retrain_and_swap();
    done_ = true;
    return;
  }
  finished_ = true;
  assembler_.finish();
  advance_windows(/*to_completion=*/true);
}

void WatchEngine::advance_windows(bool to_completion) {
  for (;;) {
    if (done_) break;
    if (!t0_) {
      // The first released packet carries the minimum flow start.
      t0_ = assembler_.first_release();
      if (!t0_) break;
    }
    const Timestamp ws =
        *t0_ + static_cast<std::int64_t>(next_window_) * options_.window_us;
    const Timestamp we = ws + options_.window_us;
    if (options_.until && ws >= *options_.until) {
      done_ = true;
      break;
    }
    if (to_completion) {
      // Windows exist while flows remain or ws < max flow end + 1 s.
      const bool flows_left = assembler_.sealed_pending() > 0;
      const bool time_left =
          max_end_.micros() != std::numeric_limits<std::int64_t>::min() &&
          ws < max_end_ + seconds(1.0);
      if (!flows_left && !time_left) break;
    } else {
      // One watermark read serves both the close decision and the /statusz
      // stream clock (seal_watermark() sweeps idle flows, so read it once).
      last_watermark_ = assembler_.seal_watermark();
      if (*last_watermark_ < we) {
        break;  // window not final yet — wait for the stream clock
      }
    }
    close_window(ws, we);
    if (options_.max_windows > 0 && windows_ >= options_.max_windows) {
      done_ = true;
    }
  }
  if (to_completion) {
    join_retrain_and_swap();
    done_ = true;
  }
}

namespace {

/// Stream-time lag buckets (seconds): how far the seal watermark had moved
/// past a window's end by the time we closed it. Spans sub-second live
/// tailing through multi-hour batch replay.
std::span<const double> watermark_lag_bounds_s() {
  static const double bounds[] = {0.5, 1.0, 5.0, 30.0, 60.0,
                                  300.0, 900.0, 3600.0};
  return bounds;
}

}  // namespace

void WatchEngine::close_window(Timestamp ws, Timestamp we) {
  obs::StageSpan span("watch.window");
  obs::health().heartbeat("watch.engine");
  const auto close_start = std::chrono::steady_clock::now();
  if (last_watermark_ && *last_watermark_ >= we) {
    static auto& lag_hist =
        obs::histogram("watch.watermark_lag_s", watermark_lag_bounds_s());
    lag_hist.observe(
        static_cast<double>(last_watermark_->micros() - we.micros()) / 1e6);
  }

  // Deterministic swap point: a retrain launched after window k is always
  // published and rebound here, before window k+1 is evaluated — never
  // mid-window, never against a half-written set.
  join_retrain_and_swap();

  std::vector<FlowRecord> flows = assembler_.drain_sealed(we);
  std::size_t late = 0;
  for (const FlowRecord& f : flows) {
    max_end_ = std::max(max_end_, f.end);
    if (f.start < ws) ++late;
  }
  if (late > 0) {
    // A packet beyond the reorder horizon (or a force-sealed flow's
    // continuation) produced a flow for an already-closed window. Score it
    // in this window rather than dropping it, and disclose.
    obs::counter("watch.flows_out_of_window").add(late);
    obs::health().degrade("watch.engine",
                          "out-of-window-flows:" + std::to_string(late));
  }

  std::vector<DeviationAlert> alerts =
      monitor_.evaluate_window(ws, we, flows, {});

  static auto& windows_counter = obs::counter("watch.windows");
  static auto& flows_counter = obs::counter("watch.flows");
  static auto& alerts_counter = obs::counter("watch.alerts");
  windows_counter.inc();
  flows_counter.add(flows.size());
  alerts_counter.add(alerts.size());
  obs::gauge("watch.buffered_packets")
      .set(static_cast<double>(assembler_.buffered_packets()));
  obs::gauge("watch.open_flows").set(static_cast<double>(open_flows()));

  const StreamingAssemblerStats& st = assembler_.stats();
  if (st.force_sealed > reported_force_sealed_) {
    reported_force_sealed_ = st.force_sealed;
    obs::health().degrade("watch.engine",
                          "force-sealed:" + std::to_string(st.force_sealed));
  }
  if (st.late_packets > reported_late_) {
    reported_late_ = st.late_packets;
    obs::health().degrade("watch.engine",
                          "late-packets:" + std::to_string(st.late_packets));
  }

  alerts_ += alerts.size();
  WatchWindowReport report;
  report.index = next_window_;
  report.start = ws;
  report.end = we;
  report.flows = flows.size();
  report.alerts = std::move(alerts);
  report.model_version = model_version_;
  report.swapped = swapped_pending_report_;
  swapped_pending_report_ = false;

  if (options_.retrain_every_windows > 0) {
    retrain_buffer_.insert(retrain_buffer_.end(),
                           std::make_move_iterator(flows.begin()),
                           std::make_move_iterator(flows.end()));
  }

  ++windows_;
  ++next_window_;

  // Observed before the sink so a scrape triggered by the sink (the watch
  // daemon publishes /statusz there) already includes this window's close
  // latency.
  static auto& close_hist = obs::histogram("watch.window_close_latency_ms");
  close_hist.observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - close_start)
                         .count());

  if (sink_) sink_(report);

  if (options_.retrain_every_windows > 0 &&
      windows_ % options_.retrain_every_windows == 0) {
    launch_retrain();
  }
}

void WatchEngine::launch_retrain() {
  // Sweep abandoned retrains that have since finished so the parking lot
  // stays bounded even under repeated timeouts.
  std::erase_if(abandoned_retrains_, [](std::future<BehaviorModelSet>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  });
  obs::counter("watch.retrains").inc();
  const double duration_s =
      static_cast<double>(options_.retrain_every_windows) *
      static_cast<double>(options_.window_us) / 1e6;
  const RetrainOptions ropts = options_.retrain;
  auto base = generation_;  // pinned: stays alive for the thread's lifetime
  retrain_launched_at_ = std::chrono::steady_clock::now();
  retrain_ = std::async(
      std::launch::async,
      [buffer = std::move(retrain_buffer_), base, duration_s, ropts]() {
        obs::StageSpan span("watch.retrain");
        const auto retrain_start = std::chrono::steady_clock::now();
        PeriodicModelSet fresh = PeriodicModelSet::infer(buffer, duration_s);
        RetrainSummary summary;
        BehaviorModelSet next = *base;  // non-periodic members carry over
        next.periodic =
            merge_periodic_models(base->periodic, fresh, summary, ropts);
        obs::histogram("watch.retrain_duration_ms")
            .observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - retrain_start)
                         .count());
        return next;
      });
  retrain_buffer_ = {};
}

void WatchEngine::join_retrain_and_swap() {
  if (!retrain_.valid()) return;
  // Blocking on purpose: the join point — not thread speed — defines which
  // window first sees the new generation, so alert output is identical at
  // any thread count and with the merge run inline. A watchdog timeout
  // (opt-in) caps the block: a wedged retrain is abandoned and the prior
  // generation keeps scoring.
  if (options_.retrain_timeout_s > 0.0) {
    const auto deadline =
        retrain_launched_at_ +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.retrain_timeout_s));
    if (retrain_.wait_until(deadline) != std::future_status::ready) {
      // Park the future: its destructor blocks on the async task, and the
      // whole point is not to. Swept once finished; joined at destruction.
      abandoned_retrains_.push_back(std::move(retrain_));
      retrain_ = {};
      ++retrain_failures_;
      obs::counter("watch.retrain_failures_total").inc();
      obs::health().degrade("watch.engine", "retrain-timeout");
      return;
    }
  }
  BehaviorModelSet next;
  try {
    next = retrain_.get();
  } catch (const std::exception& e) {
    ++retrain_failures_;
    obs::counter("watch.retrain_failures_total").inc();
    obs::health().degrade("watch.engine",
                          std::string("retrain-failed: ") + e.what());
    return;
  }
  model_version_ = models_->publish(std::move(next));
  generation_ = models_->acquire();
  monitor_.rebind(generation_->periodic, generation_->pfsm,
                  generation_->short_term);
  ++swaps_;
  swapped_pending_report_ = true;
  obs::counter("watch.swaps").inc();

  if (!options_.publish_models_path.empty()) {
    // The swapped-in generation is what every window from here on scores
    // against; persist exactly that. Publishing is best-effort — a full
    // disk must not take down the monitoring stream.
    try {
      save_models_file(options_.publish_models_path, *generation_);
      obs::counter("watch.models_published").inc();
    } catch (const std::exception& e) {
      obs::health().degrade("watch.engine",
                            std::string("publish-models-failed: ") + e.what());
    }
  }
}

WatchEngineState WatchEngine::export_state() const {
  if (retrain_.valid()) {
    throw std::logic_error(
        "WatchEngine::export_state: retrain in flight — snapshot only from "
        "the window sink");
  }
  WatchEngineState s;
  s.t0 = t0_;
  s.last_watermark = last_watermark_;
  s.next_window = next_window_;
  s.max_end = max_end_;
  s.windows = windows_;
  s.alerts = alerts_;
  s.model_version = model_version_;
  s.swaps = swaps_;
  s.swapped_pending_report = swapped_pending_report_;
  s.done = done_;
  s.finished = finished_;
  s.reported_force_sealed = reported_force_sealed_;
  s.reported_late = reported_late_;
  s.retrain_buffer = retrain_buffer_;
  s.assembler = assembler_.export_state();
  s.monitor = monitor_.export_state();
  s.resolver = resolver_.export_state();
  return s;
}

void WatchEngine::import_state(WatchEngineState state) {
  t0_ = state.t0;
  last_watermark_ = state.last_watermark;
  next_window_ = state.next_window;
  max_end_ = state.max_end;
  windows_ = state.windows;
  alerts_ = state.alerts;
  model_version_ = state.model_version;
  swaps_ = state.swaps;
  swapped_pending_report_ = state.swapped_pending_report;
  done_ = state.done;
  finished_ = state.finished;
  reported_force_sealed_ = state.reported_force_sealed;
  reported_late_ = state.reported_late;
  retrain_buffer_ = std::move(state.retrain_buffer);
  resolver_.import_state(state.resolver);
  assembler_.import_state(std::move(state.assembler));
  // Re-pin whatever generation the handle was restored to, and rebind the
  // monitor before pouring its streaming state back in.
  generation_ = models_->acquire();
  monitor_.rebind(generation_->periodic, generation_->pfsm,
                  generation_->short_term);
  monitor_.import_state(state.monitor);
  // A snapshot taken inside the sink precedes the post-sink launch
  // decision. Replay it: the uninterrupted run launched a retrain over the
  // restored buffer iff the just-closed window completed an interval. A
  // finished run's snapshot (done) follows finish(), which already joined
  // that retrain, so there is nothing to replay.
  if (!done_ && options_.retrain_every_windows > 0 && windows_ > 0 &&
      windows_ % options_.retrain_every_windows == 0) {
    launch_retrain();
  }
}

}  // namespace behaviot
