// Event tracer and provenance layer: ring-buffer semantics (wrap, drop
// counting, sampling), Chrome trace-event JSON schema, per-thread worker
// lanes under the runtime pool, the shared JSON escape/parse helpers,
// exporter quantiles and Prometheus collision handling, and the alert
// explanation round trip.
#include "behaviot/obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/deviation/monitor.hpp"
#include "behaviot/obs/export.hpp"
#include "behaviot/obs/json.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/span.hpp"
#include "behaviot/pfsm/synoptic.hpp"
#include "behaviot/runtime/runtime.hpp"

namespace behaviot {
namespace {

/// Every test runs against a freshly armed tracer and leaves it disabled
/// (the library default). The registry stays disabled unless a test enables
/// it — span/trace gating is independent and tested as such.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Tracer::global().stop();
    obs::MetricsRegistry::set_enabled(false);
    obs::MetricsRegistry::global().reset_values();
  }
};

TEST_F(TraceTest, DisabledByDefaultRecordsNothing) {
  ASSERT_FALSE(obs::Tracer::enabled());
  obs::trace_instant("ignored");
  obs::trace_counter("ignored", 1.0);
  obs::Tracer::global().start();  // arm only now; prior events must be gone
  obs::Tracer::global().stop();
  const auto snap = obs::Tracer::global().snapshot();
  EXPECT_EQ(snap.total_events, 0u);
}

TEST_F(TraceTest, RecordsSpansInstantsAndCounters) {
  obs::Tracer::global().start();
  obs::Tracer::global().span_begin("work");
  obs::Tracer::global().instant("marker");
  obs::Tracer::global().counter("queue_depth", 3.0);
  obs::Tracer::global().span_end("work");
  obs::Tracer::global().stop();

  const auto snap = obs::Tracer::global().snapshot();
  ASSERT_EQ(snap.total_events, 4u);
  EXPECT_EQ(snap.total_dropped, 0u);
  // All four came from this thread; timestamps are nondecreasing.
  const obs::ThreadTrace* mine = nullptr;
  for (const auto& t : snap.threads) {
    if (t.events.size() == 4) mine = &t;
  }
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->events[0].kind, obs::TraceEvent::Kind::kSpanBegin);
  EXPECT_STREQ(mine->events[0].name, "work");
  EXPECT_EQ(mine->events[1].kind, obs::TraceEvent::Kind::kInstant);
  EXPECT_EQ(mine->events[2].kind, obs::TraceEvent::Kind::kCounter);
  EXPECT_DOUBLE_EQ(mine->events[2].value, 3.0);
  EXPECT_EQ(mine->events[3].kind, obs::TraceEvent::Kind::kSpanEnd);
  for (std::size_t i = 1; i < mine->events.size(); ++i) {
    EXPECT_GE(mine->events[i].ts_us, mine->events[i - 1].ts_us);
  }
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsDrops) {
  obs::Tracer::global().start({.buffer_capacity = 8});
  for (int i = 0; i < 20; ++i) {
    std::string name = "i";
    name += std::to_string(i);
    obs::Tracer::global().instant(name);
  }
  obs::Tracer::global().stop();

  const auto snap = obs::Tracer::global().snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  const auto& t = snap.threads[0];
  EXPECT_EQ(t.dropped, 12u);
  EXPECT_EQ(snap.total_dropped, 12u);
  ASSERT_EQ(t.events.size(), 8u);
  // The retained window is the newest 8 events, oldest first.
  for (int i = 0; i < 8; ++i) {
    std::string expected = "i";
    expected += std::to_string(12 + i);
    EXPECT_STREQ(t.events[i].name, expected.c_str());
  }
}

TEST_F(TraceTest, LongNamesTruncateInsteadOfAllocating) {
  obs::Tracer::global().start();
  const std::string name(200, 'x');
  obs::Tracer::global().instant(name);
  obs::Tracer::global().stop();
  const auto snap = obs::Tracer::global().snapshot();
  ASSERT_EQ(snap.total_events, 1u);
  EXPECT_EQ(std::string(snap.threads[0].events[0].name).size(),
            obs::kTraceNameCap - 1);
}

TEST_F(TraceTest, RestartResetsRetainedEvents) {
  obs::Tracer::global().start();
  obs::Tracer::global().instant("old");
  obs::Tracer::global().stop();
  obs::Tracer::global().start();
  obs::Tracer::global().instant("new");
  obs::Tracer::global().stop();
  const auto snap = obs::Tracer::global().snapshot();
  ASSERT_EQ(snap.total_events, 1u);
  EXPECT_STREQ(snap.threads[0].events[0].name, "new");
}

/// Walks a parsed Chrome trace document and asserts the schema the CLI
/// promises: required keys per event, known phases, and balanced B/E
/// nesting per thread.
void check_chrome_schema(const std::string& text) {
  const auto doc = obs::json::parse(text);
  const auto& events = doc.at("traceEvents").as_array();
  std::map<double, int> depth;  // tid -> open spans
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").as_string();
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "i" || ph == "C" || ph == "M")
        << "unknown phase " << ph;
    (void)e.at("name").as_string();
    (void)e.at("pid").as_number();
    const double tid = e.at("tid").as_number();
    if (ph != "M") (void)e.at("ts").as_number();
    if (ph == "B") ++depth[tid];
    if (ph == "E") {
      --depth[tid];
      ASSERT_GE(depth[tid], 0) << "unbalanced span end on tid " << tid;
    }
    if (ph == "C") (void)e.at("args").as_object();
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
  }
}

TEST_F(TraceTest, ChromeExportIsValidAndBalanced) {
  obs::Tracer::set_thread_label("test-main");
  obs::Tracer::global().start();
  obs::Tracer::global().span_begin("outer");
  obs::Tracer::global().span_begin("inner");
  obs::Tracer::global().instant("mark");
  obs::Tracer::global().counter("n", 7.0);
  obs::Tracer::global().span_end("inner");
  obs::Tracer::global().span_end("outer");
  obs::Tracer::global().stop();

  const std::string text =
      obs::trace_to_chrome_json(obs::Tracer::global().snapshot());
  check_chrome_schema(text);
  EXPECT_NE(text.find("\"test-main\""), std::string::npos);
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\": 0"), std::string::npos);
}

TEST_F(TraceTest, ExportStaysValidAfterWrapStrandsSpanEnds) {
  // Capacity 4 with a span pair followed by instants: the wrap overwrites
  // the span-begin, leaving a stranded end the exporter must skip.
  obs::Tracer::global().start({.buffer_capacity = 4});
  obs::Tracer::global().span_begin("doomed");
  for (int i = 0; i < 6; ++i) obs::Tracer::global().instant("filler");
  obs::Tracer::global().span_end("doomed");
  obs::Tracer::global().stop();

  const auto snap = obs::Tracer::global().snapshot();
  EXPECT_GT(snap.total_dropped, 0u);
  check_chrome_schema(obs::trace_to_chrome_json(snap));
}

TEST_F(TraceTest, StageSpanTracesEvenWithRegistryDisabled) {
  ASSERT_FALSE(obs::MetricsRegistry::enabled());
  obs::Tracer::global().start();
  {
    obs::StageSpan outer("stage_a");
    EXPECT_EQ(outer.path(), "stage_a");
    obs::StageSpan inner("stage_b");
    EXPECT_EQ(inner.path(), "stage_a/stage_b");
  }
  obs::Tracer::global().stop();

  const auto snap = obs::Tracer::global().snapshot();
  ASSERT_EQ(snap.total_events, 4u);
  const auto& ev = snap.threads[0].events;
  EXPECT_STREQ(ev[0].name, "stage_a");
  EXPECT_STREQ(ev[1].name, "stage_a/stage_b");
  EXPECT_EQ(ev[2].kind, obs::TraceEvent::Kind::kSpanEnd);
  EXPECT_EQ(ev[3].kind, obs::TraceEvent::Kind::kSpanEnd);
  // The registry saw nothing: no span histogram was ever registered.
  EXPECT_EQ(
      obs::MetricsRegistry::global().snapshot().histograms.count("span.stage_a"),
      0u);
}

TEST_F(TraceTest, SpansStayNoOpWhenBothRecordersDisabled) {
  obs::StageSpan span("invisible");
  EXPECT_EQ(span.path(), "");
  EXPECT_EQ(span.elapsed_ms(), 0.0);
}

TEST_F(TraceTest, ParallelForRendersMultipleWorkerLanes) {
  runtime::ThreadPool pool({.threads = 4});
  obs::Tracer::global().start();

  // Chunk bodies hold until a second distinct thread has joined the job, so
  // at least two lanes are guaranteed even on a single-core machine (the
  // workers are already notified; the spin yields until one is scheduled).
  std::mutex mu;
  std::set<std::thread::id> seen;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  {
    // Scoped so the stage's end event is recorded before stop().
    obs::StageSpan stage("fanout");
    pool.parallel_for(0, 64, [&](std::size_t) {
      {
        std::lock_guard lock(mu);
        seen.insert(std::this_thread::get_id());
      }
      for (;;) {
        {
          std::lock_guard lock(mu);
          if (seen.size() >= 2) break;
        }
        if (std::chrono::steady_clock::now() > deadline) break;
        std::this_thread::yield();
      }
    });
  }
  ASSERT_GE(seen.size(), 2u) << "no second thread joined within the deadline";
  obs::Tracer::global().stop();

  const auto snap = obs::Tracer::global().snapshot();
  std::size_t lanes_with_chunks = 0;
  for (const auto& t : snap.threads) {
    bool has_chunk = false;
    for (const auto& e : t.events) {
      if (std::string(e.name) == "fanout/task" &&
          e.kind == obs::TraceEvent::Kind::kSpanBegin) {
        has_chunk = true;
      }
    }
    lanes_with_chunks += has_chunk ? 1 : 0;
  }
  EXPECT_GE(lanes_with_chunks, 2u);
  // Worker lanes carry their pool label.
  bool labeled_worker = false;
  for (const auto& t : snap.threads) {
    if (t.label.rfind("pool-worker-", 0) == 0 && !t.events.empty()) {
      labeled_worker = true;
    }
  }
  EXPECT_TRUE(labeled_worker);
  check_chrome_schema(obs::trace_to_chrome_json(snap));
}

// ---- JSON helpers ----

TEST(ObsJson, EscapeControlAndNonAscii) {
  EXPECT_EQ(obs::json::escape("plain"), "plain");
  EXPECT_EQ(obs::json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(obs::json::escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(obs::json::escape("\x01\x1f"), "\\u0001\\u001f");
  // Bytes >= 0x7f (DEL, Latin-1, UTF-8 lead bytes) never pass through raw.
  EXPECT_EQ(obs::json::escape("\x7f"), "\\u007f");
  EXPECT_EQ(obs::json::escape("caf\xc3\xa9"), "caf\\u00c3\\u00a9");
}

TEST(ObsJson, ParseRoundTripsEscapedStrings) {
  const auto doc = obs::json::parse("{\"k\": \"a\\u00e9\\n\\\"b\\\"\"}");
  EXPECT_EQ(doc.at("k").as_string(), "a\xe9\n\"b\"");
}

TEST(ObsJson, ParseStructuresAndNumbers) {
  const auto doc = obs::json::parse(
      R"({"a": [1, -2.5, 1e3], "b": {"c": true, "d": null}, "e": "s"})");
  const auto& a = doc.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a[1].as_number(), -2.5);
  EXPECT_DOUBLE_EQ(a[2].as_number(), 1000.0);
  EXPECT_TRUE(doc.at("b").at("c").as_bool());
  EXPECT_TRUE(doc.at("b").at("d").is_null());
  EXPECT_EQ(doc.at("e").as_string(), "s");
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(obs::json::parse(""), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("nul"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("1 2"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("nan"), std::runtime_error);
}

TEST(ObsJson, TypedAccessorsThrowOnMismatch) {
  const auto doc = obs::json::parse("{\"n\": 1}");
  EXPECT_THROW((void)doc.at("n").as_string(), std::runtime_error);
  EXPECT_THROW((void)doc.at("missing"), std::runtime_error);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

// ---- Exporter quantiles and Prometheus naming ----

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::set_enabled(true);
    obs::MetricsRegistry::global().reset_values();
  }
  void TearDown() override {
    obs::MetricsRegistry::set_enabled(false);
    obs::MetricsRegistry::global().reset_values();
  }
};

TEST_F(ExportTest, HistogramQuantileInterpolatesWithinBuckets) {
  obs::HistogramSnapshot h;
  h.bounds = {10.0, 20.0, 30.0};
  h.buckets = {10, 10, 10, 0};  // 30 observations, none in the +Inf tail
  h.count = 30;
  // Rank 15 falls in the (10, 20] bucket, halfway through it.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 30.0);
  EXPECT_NEAR(histogram_quantile(h, 0.95), 28.5, 1e-9);
}

TEST_F(ExportTest, HistogramQuantileHandlesEdgeCases) {
  obs::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(histogram_quantile(empty, 0.5), 0.0);

  obs::HistogramSnapshot tail;
  tail.bounds = {10.0};
  tail.buckets = {0, 5};  // everything beyond the last finite bound
  tail.count = 5;
  EXPECT_DOUBLE_EQ(histogram_quantile(tail, 0.5), 10.0);
}

TEST_F(ExportTest, JsonExporterCarriesQuantiles) {
  auto& h = obs::histogram("q.hist", std::vector<double>{10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  const std::string text = obs::to_json(obs::MetricsRegistry::global().snapshot());
  const auto doc = obs::json::parse(text);  // exporter output must parse
  const auto& entry = doc.at("histograms").at("q.hist");
  EXPECT_DOUBLE_EQ(entry.at("p50").as_number(), 10.0);
  EXPECT_GT(entry.at("p95").as_number(), 10.0);
  EXPECT_LE(entry.at("p99").as_number(), 20.0);
}

TEST_F(ExportTest, PrometheusEmitsQuantileSummaries) {
  auto& h = obs::histogram("sum.hist", std::vector<double>{1.0});
  h.observe(0.5);
  const std::string text =
      obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  EXPECT_NE(text.find("# TYPE behaviot_sum_hist_summary summary"),
            std::string::npos);
  EXPECT_NE(text.find("behaviot_sum_hist_summary{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  // Span histograms keep their stage label alongside the quantile label.
  obs::histogram(std::string(obs::kSpanMetricPrefix) + "stage_x",
                 std::vector<double>{1.0})
      .observe(0.5);
  const std::string spans =
      obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  EXPECT_NE(spans.find("behaviot_stage_ms_summary{stage=\"stage_x\","
                       "quantile=\"0.5\"}"),
            std::string::npos);
}

TEST_F(ExportTest, PrometheusDisambiguatesCollidingNames) {
  obs::counter("collide.name").inc();
  obs::counter("collide_name").add(2);
  const std::string text =
      obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  // "collide.name" sorts first and keeps the bare family; "collide_name"
  // is deterministically suffixed instead of silently merging.
  EXPECT_NE(text.find("behaviot_collide_name_total 1"), std::string::npos);
  EXPECT_NE(text.find("behaviot_collide_name_total_2 2"), std::string::npos);
  // One # TYPE line per family, never repeated.
  EXPECT_EQ(text.find("# TYPE behaviot_collide_name_total counter"),
            text.rfind("# TYPE behaviot_collide_name_total counter"));
}

// ---- Alert provenance ----

/// Minimal deviation scenario shared by the explanation tests: one 600 s
/// heartbeat model and a small PFSM.
struct ProvenanceFixture {
  PeriodicModelSet periodic;
  Pfsm pfsm;
  ShortTermThreshold short_term;

  ProvenanceFixture() {
    std::vector<FlowRecord> flows;
    for (double t = 0; t < 86400.0; t += 600.0) {
      FlowRecord f = heartbeat_at(t);
      f.truth = EventKind::kPeriodic;
      flows.push_back(std::move(f));
    }
    periodic = PeriodicModelSet::infer(flows, 86400.0);

    const std::vector<std::vector<std::string>> traces{
        {"cam:motion", "bulb:on"},
        {"cam:motion", "bulb:on"},
        {"plug:on", "plug:off"}};
    pfsm = infer_pfsm(traces).pfsm;
    short_term = ShortTermThreshold::calibrate(pfsm, traces);
  }

  [[nodiscard]] static FlowRecord heartbeat_at(double t_s) {
    FlowRecord f;
    f.device = 1;
    f.tuple = {{Ipv4Addr(192, 168, 1, 11), 40000},
               {Ipv4Addr(54, 2, 2, 2), 443},
               Transport::kTcp};
    f.domain = "hb.vendor.com";
    f.app = AppProtocol::kTls;
    f.start = f.end = Timestamp::from_seconds(t_s);
    f.packets = {{f.start, 120, Direction::kOutbound, false},
                 {f.start + milliseconds(40), 90, Direction::kInbound, false}};
    return f;
  }

  [[nodiscard]] static EventTrace trace_of(
      const std::vector<std::string>& labels, double t0_s) {
    EventTrace trace;
    double t = t0_s;
    for (const auto& l : labels) {
      UserEvent e;
      const auto colon = l.find(':');
      e.device_name = l.substr(0, colon);
      e.activity = l.substr(colon + 1);
      e.ts = Timestamp::from_seconds(t);
      e.vote_margin = 0.4;
      e.confidence = 0.8;
      t += 5.0;
      trace.push_back(e);
    }
    return trace;
  }
};

TEST(AlertProvenance, EveryAlertCarriesAPopulatedExplanation) {
  ProvenanceFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);

  // Window 1 primes the timers; window 2 goes silent (periodic alert) and
  // replays a never-seen trace (short-term alert, long-term shift).
  std::vector<FlowRecord> day1;
  for (double t = 0; t < 86400.0; t += 600.0) {
    day1.push_back(ProvenanceFixture::heartbeat_at(t));
  }
  (void)monitor.evaluate_window(Timestamp(0),
                                Timestamp::from_seconds(86400.0), day1, {});

  std::vector<EventTrace> weird;
  for (int i = 0; i < 6; ++i) {
    weird.push_back(ProvenanceFixture::trace_of(
        {"kettle:on", "door:open", "plug:off", "cam:motion"},
        86400.0 + 100.0 * i));
  }
  const auto alerts = monitor.evaluate_window(
      Timestamp::from_seconds(86400.0), Timestamp::from_seconds(2 * 86400.0),
      {}, weird);
  ASSERT_FALSE(alerts.empty());

  std::set<DeviationSource> sources;
  for (const auto& a : alerts) {
    sources.insert(a.source);
    const AlertExplanation& ex = a.explanation;
    EXPECT_FALSE(ex.metric.empty()) << a.context;
    EXPECT_FALSE(ex.model_group.empty()) << a.context;
    EXPECT_GT(ex.threshold, 0.0) << a.context;
    switch (a.source) {
      case DeviationSource::kPeriodic:
        EXPECT_EQ(ex.metric, "Mp");
        EXPECT_GT(ex.observed, ex.expected);  // silence >> period
        EXPECT_GT(ex.support, 0u);
        break;
      case DeviationSource::kShortTerm:
        EXPECT_EQ(ex.metric, "A_T");
        EXPECT_DOUBLE_EQ(ex.observed, a.score);
        EXPECT_EQ(ex.support, 4u);  // trace length
        EXPECT_DOUBLE_EQ(ex.vote_margin, 0.4);
        break;
      case DeviationSource::kLongTerm:
        EXPECT_EQ(ex.metric, "|z|");
        EXPECT_NE(ex.model_group.find(" -> "), std::string::npos);
        EXPECT_GT(ex.support, 0u);
        break;
    }
  }
  EXPECT_TRUE(sources.count(DeviationSource::kPeriodic));
  EXPECT_TRUE(sources.count(DeviationSource::kShortTerm));
}

TEST(AlertProvenance, PeriodicLateArrivalCarriesClusterEvidence) {
  ProvenanceFixture fx;
  DeviationMonitor monitor(fx.periodic, fx.pfsm, fx.short_term);

  std::vector<FlowRecord> day1;
  for (double t = 0; t < 86400.0; t += 600.0) {
    day1.push_back(ProvenanceFixture::heartbeat_at(t));
  }
  (void)monitor.evaluate_window(Timestamp(0),
                                Timestamp::from_seconds(86400.0), day1, {});

  // Day 2: one very late heartbeat (observed flow, not a silence) — the
  // explanation should locate it against the trained density clusters.
  const std::vector<FlowRecord> day2{
      ProvenanceFixture::heartbeat_at(86400.0 + 40000.0)};
  const auto alerts = monitor.evaluate_window(
      Timestamp::from_seconds(86400.0), Timestamp::from_seconds(86400.0 + 40600.0),
      day2, {});
  ASSERT_FALSE(alerts.empty());
  const auto& ex = alerts[0].explanation;
  EXPECT_EQ(ex.metric, "Mp");
  // The fixture's idle flows form at least one density cluster, and the
  // late flow has the same shape, so evidence must be present and close.
  EXPECT_GE(ex.cluster_id, 0);
  EXPECT_GE(ex.cluster_distance, 0.0);
}

TEST(AlertProvenance, ReportRoundTripsThroughJson) {
  DeviationAlert a;
  a.source = DeviationSource::kShortTerm;
  a.when = Timestamp(123456789);
  a.device = 7;
  a.score = 3.25;
  a.threshold = 1.5;
  a.context = "trace [cam:motion -> bulb:on] with \"quotes\" and\nnewline";
  a.explanation.metric = "A_T";
  a.explanation.observed = 3.25;
  a.explanation.expected = 1.0625;
  a.explanation.threshold = 1.5;
  a.explanation.model_group = "cam:motion -> bulb:on";
  a.explanation.vote_margin = 0.125;
  a.explanation.support = 2;

  DeviationAlert b;  // defaults everywhere: n/a fields must survive too
  b.source = DeviationSource::kPeriodic;
  b.explanation.metric = "Mp";
  b.explanation.model_group = "tcp:hb";
  b.explanation.cluster_id = 3;
  b.explanation.cluster_distance = 0.75;

  const std::vector<DeviationAlert> alerts{a, b};
  const std::string text = alerts_to_json(alerts);
  (void)obs::json::parse(text);  // must be a valid document

  const auto back = alerts_from_json(text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].source, DeviationSource::kShortTerm);
  EXPECT_EQ(back[0].when.micros(), 123456789);
  EXPECT_EQ(back[0].device, 7);
  EXPECT_DOUBLE_EQ(back[0].score, 3.25);
  EXPECT_EQ(back[0].context, a.context);
  EXPECT_EQ(back[0].explanation.metric, "A_T");
  EXPECT_DOUBLE_EQ(back[0].explanation.expected, 1.0625);
  EXPECT_DOUBLE_EQ(back[0].explanation.vote_margin, 0.125);
  EXPECT_EQ(back[0].explanation.support, 2u);
  EXPECT_EQ(back[1].explanation.cluster_id, 3);
  EXPECT_DOUBLE_EQ(back[1].explanation.cluster_distance, 0.75);
  EXPECT_EQ(back[1].explanation.vote_margin, -1.0);  // n/a preserved

  // Serialization is deterministic: a second pass is byte-identical.
  EXPECT_EQ(alerts_to_json(back), text);
}

TEST(AlertProvenance, FromJsonRejectsMalformedReports) {
  EXPECT_THROW(alerts_from_json("not json"), std::runtime_error);
  EXPECT_THROW(alerts_from_json("{\"version\": 2, \"alerts\": []}"),
               std::runtime_error);
  EXPECT_THROW(alerts_from_json("{\"alerts\": []}"), std::runtime_error);
  EXPECT_THROW(
      alerts_from_json(
          R"({"version": 1, "alerts": [{"source": "bogus"}]})"),
      std::runtime_error);
}

TEST(AlertProvenance, RenderedExplanationNamesTheEvidence) {
  DeviationAlert a;
  a.source = DeviationSource::kPeriodic;
  a.when = Timestamp::from_seconds(42.0);
  a.device = 1;
  a.score = 2.5;
  a.threshold = 1.609;
  a.context = "tcp:hb: silent for 40000s";
  a.explanation.metric = "Mp";
  a.explanation.observed = 40000.0;
  a.explanation.expected = 600.0;
  a.explanation.threshold = 1.609;
  a.explanation.model_group = "tcp:hb.vendor.com:443";
  a.explanation.support = 144;

  const std::string text = render_alert_explanation(a, "tplink_plug");
  EXPECT_NE(text.find("tplink_plug"), std::string::npos);
  EXPECT_NE(text.find("Mp"), std::string::npos);
  EXPECT_NE(text.find("expected period 600.0s"), std::string::npos);
  EXPECT_NE(text.find("tcp:hb.vendor.com:443"), std::string::npos);
  EXPECT_NE(text.find("support 144"), std::string::npos);
}

}  // namespace
}  // namespace behaviot
