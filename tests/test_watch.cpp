// `behaviot watch` engine tests: the streaming daemon must be a faithful
// re-statement of the batch pipeline — same windows, same alerts, byte for
// byte — while holding peak buffered state under its caps and swapping
// retrained models without dropping or double-scoring a window.
#include "behaviot/core/watch_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "behaviot/core/model_handle.hpp"
#include "behaviot/flow/assembler.hpp"
#include "behaviot/runtime/runtime.hpp"
#include "watch_fixture.hpp"

namespace behaviot {
namespace {

/// An independent batch reference: assemble everything, then score the
/// engine's window grid in a plain loop over all flows.
std::vector<DeviationAlert> batch_score(const BehaviorModelSet& models,
                                        const std::vector<Packet>& packets,
                                        std::int64_t window_us,
                                        std::size_t max_windows = 0) {
  DomainResolver resolver;
  const auto flows = FlowAssembler().assemble(packets, resolver);
  std::vector<DeviationAlert> alerts;
  if (flows.empty()) return alerts;
  DeviationMonitor monitor(models.periodic, models.pfsm, models.short_term);
  const Timestamp t0 = flows.front().start;
  const Timestamp end = flows.back().end + seconds(1.0);
  std::size_t k = 0;
  for (Timestamp ws = t0; ws < end; ws = ws + window_us) {
    if (max_windows > 0 && k >= max_windows) break;
    std::vector<FlowRecord> in_window;
    for (const FlowRecord& f : flows) {
      if (f.start >= ws && f.start < ws + window_us) in_window.push_back(f);
    }
    auto batch = monitor.evaluate_window(ws, ws + window_us, in_window, {});
    alerts.insert(alerts.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
    ++k;
  }
  return alerts;
}

struct WatchRun {
  std::vector<DeviationAlert> alerts;
  std::vector<WatchWindowReport> reports;
  StreamingAssemblerStats stats;
  std::size_t windows = 0;
  std::uint64_t swaps = 0;
  std::uint64_t final_version = 0;
  std::size_t live_buffered_max = 0;  ///< max buffered_packets() between chunks
};

WatchRun run_watch(const BehaviorModelSet& models,
                   const std::vector<Packet>& packets, WatchOptions opts,
                   std::size_t chunk) {
  ModelHandle handle(models);
  WatchEngine engine(handle, DomainResolver{}, opts);
  WatchRun run;
  engine.set_window_sink([&run](const WatchWindowReport& r) {
    run.alerts.insert(run.alerts.end(), r.alerts.begin(), r.alerts.end());
    run.reports.push_back(r);
  });
  const std::span<const Packet> all(packets);
  for (std::size_t i = 0; i < all.size() && !engine.done(); i += chunk) {
    engine.ingest(all.subspan(i, std::min(chunk, all.size() - i)));
    run.live_buffered_max =
        std::max(run.live_buffered_max, engine.buffered_packets());
  }
  engine.finish();
  run.stats = engine.assembler_stats();
  run.windows = engine.windows_evaluated();
  run.swaps = engine.swaps();
  run.final_version = engine.model_version();
  return run;
}


TEST(ModelHandle, PublishBumpsVersionOldGenerationStaysValid) {
  BehaviorModelSet initial;
  initial.training_traces = {{"a"}};
  ModelHandle handle(initial);
  EXPECT_EQ(handle.version(), 1u);
  const auto gen1 = handle.acquire();
  ASSERT_EQ(gen1->training_traces.size(), 1u);

  BehaviorModelSet next;
  next.training_traces = {{"a"}, {"b"}};
  EXPECT_EQ(handle.publish(std::move(next)), 2u);
  EXPECT_EQ(handle.version(), 2u);
  const auto gen2 = handle.acquire();
  EXPECT_EQ(gen2->training_traces.size(), 2u);
  // A reader holding the old generation is unaffected by the swap.
  EXPECT_EQ(gen1->training_traces.size(), 1u);
}

TEST(WatchEngine, StreamingMatchesBatchScore) {
  const auto& fx = fixture();
  const auto batch = batch_score(fx.models, fx.eval_packets, kWindowUs);
  ASSERT_FALSE(batch.empty()) << "fixture must produce alerts or the "
                                 "streaming==batch check is vacuous";
  WatchOptions opts;
  opts.window_us = kWindowUs;
  const auto run = run_watch(fx.models, fx.eval_packets, opts, /*chunk=*/257);
  expect_same_alerts(run.alerts, batch);
  // Same window grid: quarter day / 30 min = 12 windows (+1 for the +1 s
  // batch tail bound, depending on the last flow's end).
  EXPECT_GE(run.windows, 12u);
}

TEST(WatchEngine, ChunkingDoesNotChangeAlertsOrSwaps) {
  const auto& fx = fixture();
  WatchOptions opts;
  opts.window_us = kWindowUs;
  opts.retrain_every_windows = 4;
  const auto a = run_watch(fx.models, fx.eval_packets, opts, /*chunk=*/64);
  const auto b = run_watch(fx.models, fx.eval_packets, opts, /*chunk=*/4099);
  expect_same_alerts(a.alerts, b.alerts);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_GT(a.swaps, 0u);
  EXPECT_EQ(a.final_version, a.swaps + 1);
}

TEST(WatchEngine, RetrainSwapIsThreadCountInvariant) {
  const auto& fx = fixture();
  WatchOptions opts;
  opts.window_us = kWindowUs;
  opts.retrain_every_windows = 3;
  const std::size_t before = runtime::global_threads();
  runtime::set_global_threads(1);
  const auto single = run_watch(fx.models, fx.eval_packets, opts, 311);
  runtime::set_global_threads(8);
  const auto pooled = run_watch(fx.models, fx.eval_packets, opts, 311);
  runtime::set_global_threads(before);
  expect_same_alerts(single.alerts, pooled.alerts);
  EXPECT_EQ(single.swaps, pooled.swaps);
  EXPECT_GT(single.swaps, 0u);
}

TEST(WatchEngine, SwapNeverDropsOrReordersWindows) {
  const auto& fx = fixture();
  WatchOptions opts;
  opts.window_us = kWindowUs;
  opts.retrain_every_windows = 2;  // swap pressure on almost every window
  const auto run = run_watch(fx.models, fx.eval_packets, opts, 997);

  // Windows arrive exactly once, in order, on the fixed grid.
  ASSERT_FALSE(run.reports.empty());
  const Timestamp t0 = run.reports.front().start;
  std::uint64_t version = 0;
  std::uint64_t swapped_windows = 0;
  for (std::size_t i = 0; i < run.reports.size(); ++i) {
    const WatchWindowReport& r = run.reports[i];
    EXPECT_EQ(r.index, i);
    EXPECT_EQ(r.start,
              t0 + static_cast<std::int64_t>(i) * opts.window_us);
    EXPECT_EQ(r.end, r.start + opts.window_us);
    EXPECT_GE(r.model_version, version);  // generations only move forward
    version = r.model_version;
    swapped_windows += r.swapped ? 1 : 0;
  }
  // Every swap lands on exactly one window's report — except a retrain
  // launched after the final window, which is still joined (and counted) at
  // shutdown but has no later window to mark.
  EXPECT_GE(run.swaps, swapped_windows);
  EXPECT_LE(run.swaps, swapped_windows + 1);
  EXPECT_GT(run.swaps, 0u);

  // And every assembled flow was scored in exactly one window.
  DomainResolver resolver;
  const auto flows = FlowAssembler().assemble(fx.eval_packets, resolver);
  std::size_t windowed = 0;
  for (const auto& r : run.reports) windowed += r.flows;
  EXPECT_EQ(windowed, flows.size());
}

TEST(WatchEngine, BoundedMemoryHoldsUnderCapsWithoutLosingWindows) {
  const auto& fx = fixture();
  const auto unbounded = batch_score(fx.models, fx.eval_packets, kWindowUs);

  WatchOptions opts;
  opts.window_us = kWindowUs;
  opts.assembler.max_open_flows = 64;
  opts.assembler.max_buffered_packets = 512;  // capture is >10x this
  const auto run = run_watch(fx.models, fx.eval_packets, opts, 509);
  ASSERT_GT(fx.eval_packets.size(), 10u * 512u);

  EXPECT_LE(run.stats.peak_open_flows, 64u);
  EXPECT_LE(run.stats.peak_buffered_packets, 512u);
  EXPECT_LE(run.live_buffered_max, 512u);
  // No window dropped: the cap may split flows (force-seals), never skip
  // windows or lose packets.
  std::uint64_t packets_out = 0;
  DomainResolver resolver;
  for (const auto& f : FlowAssembler().assemble(fx.eval_packets, resolver)) {
    packets_out += f.packets.size();
  }
  std::size_t streamed_windows = run.reports.size();
  EXPECT_EQ(run.windows, streamed_windows);
  EXPECT_GE(streamed_windows, 12u);
  EXPECT_EQ(run.stats.packets_in, fx.eval_packets.size());
  // With generous caps the capture fits: behavior stays batch-identical.
  expect_same_alerts(run.alerts, unbounded);

  // Now with caps tight enough to actually bind: flows get force-sealed,
  // but the window grid is unchanged and every packet still reaches exactly
  // one flow in exactly one window.
  WatchOptions tight = opts;
  tight.assembler.max_open_flows = 8;
  tight.assembler.max_buffered_packets = 64;
  const auto squeezed = run_watch(fx.models, fx.eval_packets, tight, 509);
  EXPECT_LE(squeezed.stats.peak_open_flows, 8u);
  EXPECT_LE(squeezed.stats.peak_buffered_packets, 64u);
  EXPECT_GT(squeezed.stats.force_sealed, 0u);
  EXPECT_EQ(squeezed.windows, run.windows);
  EXPECT_EQ(squeezed.stats.packets_in, fx.eval_packets.size());
}

TEST(WatchEngine, MaxWindowsStopsDeterministically) {
  const auto& fx = fixture();
  const auto batch3 =
      batch_score(fx.models, fx.eval_packets, kWindowUs, /*max_windows=*/3);
  WatchOptions opts;
  opts.window_us = kWindowUs;
  opts.max_windows = 3;
  const auto run = run_watch(fx.models, fx.eval_packets, opts, 1021);
  EXPECT_EQ(run.windows, 3u);
  expect_same_alerts(run.alerts, batch3);
}

TEST(WatchEngine, UntilStopsBeforeTheBoundary) {
  const auto& fx = fixture();
  WatchOptions opts;
  opts.window_us = kWindowUs;
  opts.until = Timestamp(seconds(3.5 * 1800.0));  // mid-window-3
  const auto run = run_watch(fx.models, fx.eval_packets, opts, 1021);
  // Windows starting at/after `until` are never evaluated.
  for (const auto& r : run.reports) {
    EXPECT_LT(r.start, *opts.until);
  }
  EXPECT_GT(run.windows, 0u);
  EXPECT_LE(run.windows, 4u);
}

}  // namespace
}  // namespace behaviot
