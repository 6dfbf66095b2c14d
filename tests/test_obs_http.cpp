// Live telemetry layer: TelemetryServer endpoint semantics, atomic snapshot
// writes with size-gated rotation, process self-stats, and the concurrent
// scrape contract — endpoints hammered from multiple threads while the watch
// daemon closes windows and hot-swaps retrained models must answer with
// well-formed documents and must not perturb the alert stream by one byte.
#include "behaviot/obs/telemetry_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/core/watch_daemon.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/json.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/process_stats.hpp"
#include "behaviot/obs/snapshot.hpp"
#include "behaviot/obs/trace.hpp"
#include "behaviot/testbed/datasets.hpp"
#include "watch_fixture.hpp"

namespace behaviot {
namespace {

struct HttpResponse {
  int status = -1;  ///< -1 = connection failed / malformed status line
  std::string headers;
  std::string body;
};

/// Minimal blocking HTTP client: one request, read to connection close.
HttpResponse http_request(std::uint16_t port, const std::string& target,
                          const std::string& method = "GET") {
  HttpResponse r;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return r;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return r;
  }
  const std::string req = method + " " + target +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return r;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto split = raw.find("\r\n\r\n");
  if (split == std::string::npos || raw.rfind("HTTP/1.1 ", 0) != 0) return r;
  r.headers = raw.substr(0, split);
  r.body = raw.substr(split + 4);
  r.status = std::atoi(raw.c_str() + 9);
  return r;
}

/// Every test runs with a fresh enabled registry and clean health state, and
/// restores the library defaults behind itself.
class ObsHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::set_enabled(true);
    obs::MetricsRegistry::global().reset_values();
    obs::health().reset();
  }
  void TearDown() override {
    obs::MetricsRegistry::set_enabled(false);
    obs::MetricsRegistry::global().reset_values();
    obs::health().reset();
  }
};

TEST_F(ObsHttpTest, StartsOnEphemeralPortAndServesIndex) {
  obs::TelemetryServer server;
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_NE(server.port(), 0);
  const auto index = http_request(server.port(), "/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  EXPECT_EQ(http_request(server.port(), "/nope").status, 404);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ObsHttpTest, MetricsEndpointServesPrometheusWithProcessFamilies) {
  obs::counter("http_test.requests").add(7);
  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());
  const auto r = http_request(server.port(), "/metrics");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.headers.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(r.body.find("behaviot_http_test_requests_total 7"),
            std::string::npos);
  // Process self-stats are refreshed on the scrape path.
  EXPECT_NE(r.body.find("behaviot_process_rss_bytes"), std::string::npos);
  EXPECT_NE(r.body.find("behaviot_process_cpu_seconds"), std::string::npos);
  EXPECT_NE(r.body.find("behaviot_process_uptime_seconds"),
            std::string::npos);
}

TEST_F(ObsHttpTest, MetricsJsonEndpointParsesAsJson) {
  obs::counter("http_test.json").inc();
  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());
  const auto r = http_request(server.port(), "/metrics.json");
  ASSERT_EQ(r.status, 200);
  const auto doc = obs::json::parse(r.body);
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("http_test.json").as_number(), 1.0);
  EXPECT_TRUE(doc.find("health") != nullptr);
}

TEST_F(ObsHttpTest, HealthzMirrorsHealthSubcommandSemantics) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());
  const auto healthy = http_request(server.port(), "/healthz");
  EXPECT_EQ(healthy.status, 200);
  EXPECT_EQ(healthy.body, "ok\n");

  obs::health().degrade("http.test", "synthetic-degrade");
  const auto degraded = http_request(server.port(), "/healthz");
  EXPECT_EQ(degraded.status, 503);
  EXPECT_NE(degraded.body.find("http.test"), std::string::npos);
  EXPECT_NE(degraded.body.find("synthetic-degrade"), std::string::npos);
}

TEST_F(ObsHttpTest, StatuszEmbedsPublishedDocument) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());
  const auto bare = http_request(server.port(), "/statusz");
  ASSERT_EQ(bare.status, 200);
  const auto bare_doc = obs::json::parse(bare.body);
  EXPECT_TRUE(bare_doc.at("watch").is_null());
  EXPECT_GE(bare_doc.at("process").at("uptime_seconds").as_number(), 0.0);

  server.publish_status_json("{\"window\":42}");
  const auto with = http_request(server.port(), "/statusz");
  ASSERT_EQ(with.status, 200);
  const auto doc = obs::json::parse(with.body);
  EXPECT_DOUBLE_EQ(doc.at("watch").at("window").as_number(), 42.0);
  EXPECT_GE(doc.at("server").at("requests").as_number(), 1.0);
}

TEST_F(ObsHttpTest, TracezServesOnlyPublishedSnapshotsWhileArmed) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());

  // Armed with nothing published: reading the live rings would race the
  // recording threads, so the endpoint must decline rather than crash.
  obs::Tracer::global().start();
  const auto pending = http_request(server.port(), "/tracez");
  EXPECT_EQ(pending.status, 503);
  EXPECT_NE(pending.body.find("pending"), std::string::npos);

  const std::string doc = "{\"traceEvents\":[],\"published\":true}";
  server.publish_trace_json(doc);
  const auto published = http_request(server.port(), "/tracez");
  EXPECT_EQ(published.status, 200);
  EXPECT_EQ(published.body, doc);
  obs::Tracer::global().stop();

  // Disarmed: the rings are static, a live render is safe and wins over any
  // stale published document on a fresh server.
  obs::TelemetryServer fresh;
  ASSERT_TRUE(fresh.start());
  const auto live = http_request(fresh.port(), "/tracez");
  EXPECT_EQ(live.status, 200);
  EXPECT_NE(live.body.find("traceEvents"), std::string::npos);
}

TEST_F(ObsHttpTest, HeadOmitsBodyAndOtherMethodsAreRejected) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());
  const auto head = http_request(server.port(), "/healthz", "HEAD");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  EXPECT_NE(head.headers.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(http_request(server.port(), "/healthz", "POST").status, 405);
  // Query strings are accepted and ignored (scraper cache-busting).
  EXPECT_EQ(http_request(server.port(), "/healthz?ts=1").status, 200);
}

// ---- Atomic snapshot writes and rotation ----

TEST(SnapshotWrite, AtomicWriteReplacesWholeFile) {
  const std::string dir = ::testing::TempDir() + "/behaviot_snap_atomic";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.json";
  ASSERT_TRUE(obs::write_file_atomic(path, "first"));
  ASSERT_TRUE(obs::write_file_atomic(path, "second generation"));
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    text.assign(buf, std::fread(buf, 1, sizeof(buf), f));
    std::fclose(f);
  }
  EXPECT_EQ(text, "second generation");
  // No temp droppings left behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotWrite, FailedWriteReportsErrorAndLeavesTargetAlone) {
  const std::string path =
      ::testing::TempDir() + "/behaviot_no_such_dir/out.json";
  std::string error;
  EXPECT_FALSE(obs::write_file_atomic(path, "content", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SnapshotWrite, RotationArchivesByWindowIndexAndPrunes) {
  const std::string dir = ::testing::TempDir() + "/behaviot_snap_rotate";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/alerts.json";
  obs::SnapshotRotation rotation;
  rotation.max_bytes = 8;
  rotation.keep = 2;
  obs::SnapshotWriter writer(path, rotation);

  ASSERT_TRUE(writer.write("tiny", 1));
  EXPECT_FALSE(writer.rotated_last_write());
  EXPECT_TRUE(std::filesystem::exists(path));

  ASSERT_TRUE(writer.write("well over the byte cap", 2));
  EXPECT_TRUE(writer.rotated_last_write());
  EXPECT_TRUE(std::filesystem::exists(path + ".2"));
  ASSERT_TRUE(writer.write("another oversized generation", 5));
  ASSERT_TRUE(writer.write("and one more past the cap", 9));
  EXPECT_EQ(writer.rotations(), 3u);
  // keep=2: the oldest archive was pruned, the newest two remain.
  EXPECT_FALSE(std::filesystem::exists(path + ".2"));
  EXPECT_TRUE(std::filesystem::exists(path + ".5"));
  EXPECT_TRUE(std::filesystem::exists(path + ".9"));
  EXPECT_EQ(writer.archives().size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(ProcessStats, CollectsPlausibleValues) {
  const obs::ProcessStats stats = obs::collect_process_stats();
  EXPECT_GT(stats.rss_bytes, 0.0);  // a running gtest binary has an RSS
  EXPECT_GE(stats.cpu_seconds, 0.0);
  EXPECT_GE(stats.uptime_seconds, 0.0);

  obs::MetricsRegistry::set_enabled(true);
  obs::update_process_gauges();
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(snap.gauges.at("process.rss_bytes"), 0.0);
  obs::MetricsRegistry::set_enabled(false);
  obs::MetricsRegistry::global().reset_values();
}

// ---- Concurrent scraping against a live watch daemon ----

/// One watch daemon run over the fixture, retraining every 2 windows and
/// publishing /statusz and /tracez to `server` when set. Returns the alerts
/// it wrote, rendered without the health block.
std::string run_watch_collecting(obs::TelemetryServer* server) {
  const WatchFixtureFiles& fx = fixture_files();
  WatchDaemonOptions o;
  o.engine.window_us = kWindowUs;
  o.engine.retrain_every_windows = 2;
  o.models_path = fx.models;
  o.capture_path = fx.capture;
  o.alerts_path = fx.capture + ".alerts.json";
  WatchDaemon daemon(o, testbed::annotate_devices, server);
  EXPECT_EQ(daemon.run(), 0);
  return alerts_to_json(alerts_in(o.alerts_path));
}

TEST_F(ObsHttpTest, ConcurrentScrapesDoNotPerturbAlerts) {
  // Reference run: no server, no tracer, nobody scraping.
  const std::string baseline = run_watch_collecting(nullptr);
  ASSERT_NE(baseline.find("\"when_us\""), std::string::npos)
      << "fixture must produce real alerts";

  obs::MetricsRegistry::global().reset_values();
  obs::health().reset();
  obs::Tracer::global().start();
  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());

  // Hammer every endpoint from several threads for the whole run, including
  // through window closes and retrain + ModelHandle swaps.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> well_formed{0};
  std::atomic<std::uint64_t> malformed{0};
  const char* kTargets[] = {"/metrics", "/metrics.json", "/healthz",
                            "/statusz", "/tracez"};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        const char* target = kTargets[i++ % std::size(kTargets)];
        const auto r = http_request(server.port(), target);
        const bool ok =
            (r.status == 200 || r.status == 503) && !r.body.empty();
        if (ok &&
            (r.status != 200 || std::string_view(target) != "/metrics" ||
             r.body.find("behaviot_") != std::string::npos)) {
          well_formed.fetch_add(1, std::memory_order_relaxed);
        } else {
          malformed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const std::string scraped = run_watch_collecting(&server);
  stop.store(true, std::memory_order_release);
  for (auto& th : scrapers) th.join();
  obs::Tracer::global().stop();

  EXPECT_EQ(malformed.load(), 0u);
  EXPECT_GT(well_formed.load(), 0u);

  // The scrape load changed nothing: alert for alert, byte for byte.
  EXPECT_EQ(scraped, baseline);
}

}  // namespace
}  // namespace behaviot
