// Fixture shared by the watch-engine, checkpoint and telemetry suites, built
// once per test binary (heavy: trains real periodic models from generated
// idle traffic). Routine traffic — automations plus user commands — scored
// against idle-only models guarantees real deviation alerts, so equality
// checks never compare empty sets.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/core/model_set.hpp"
#include "behaviot/core/serialize.hpp"
#include "behaviot/flow/assembler.hpp"
#include "behaviot/net/pcap.hpp"
#include "behaviot/testbed/datasets.hpp"

namespace behaviot {

inline constexpr std::int64_t kWindowUs = 30 * 60 * 1'000'000LL;  // 30 min

struct WatchFixture {
  BehaviorModelSet models;
  std::vector<Packet> eval_packets;  ///< quarter-day capture to stream
};

inline const WatchFixture& fixture() {
  static const WatchFixture* fx = [] {
    auto* f = new WatchFixture;
    const auto train = testbed::Datasets::idle(/*seed=*/11, /*days=*/0.5);
    DomainResolver train_resolver;
    const auto train_flows =
        FlowAssembler().assemble(train.packets, train_resolver);
    f->models.periodic = PeriodicModelSet::infer(train_flows, 0.5 * 86400.0);
    f->eval_packets =
        testbed::Datasets::routine_week(/*seed=*/23, /*days=*/0.25).packets;
    return f;
  }();
  return *fx;
}

/// The fixture as the watch daemon reads it: a model file and a pcap, in a
/// directory of this process's own.
struct WatchFixtureFiles {
  std::string dir;
  std::string models;
  std::string capture;
};

inline const WatchFixtureFiles& fixture_files() {
  static const WatchFixtureFiles* files = [] {
    const std::string dir = ::testing::TempDir() + "/behaviot_watch_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    auto* f =
        new WatchFixtureFiles{dir, dir + "/models.bbm", dir + "/day.pcap"};
    save_models_file(f->models, fixture().models);
    PcapWriter writer(f->capture);
    for (const Packet& p : fixture().eval_packets) writer.write(p);
    return f;
  }();
  return *files;
}

/// The alerts array of an --alerts document.
inline std::vector<DeviationAlert> alerts_in(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return alerts_from_json(text.str());
}

inline void expect_same_alerts(std::span<const DeviationAlert> a,
                               std::span<const DeviationAlert> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source) << i;
    EXPECT_EQ(a[i].when, b[i].when) << i;
    EXPECT_EQ(a[i].device, b[i].device) << i;
    EXPECT_EQ(a[i].score, b[i].score) << i;  // byte-identical, not near
    EXPECT_EQ(a[i].threshold, b[i].threshold) << i;
    EXPECT_EQ(a[i].context, b[i].context) << i;
  }
}

}  // namespace behaviot
