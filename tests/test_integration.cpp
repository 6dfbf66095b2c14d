// End-to-end integration: train on controlled datasets, then verify the
// deviation engine stays quiet on normal days and fires on injected
// incidents — the core claim of the paper at miniature scale.
#include <gtest/gtest.h>

#include "behaviot/core/deviation_engine.hpp"
#include "behaviot/core/pipeline.hpp"
#include "behaviot/net/pcap.hpp"

namespace behaviot {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new Pipeline();
    DomainResolver resolver;
    const auto idle = testbed::Datasets::idle(91, /*days=*/1.0);
    const auto activity = testbed::Datasets::activity(92, /*repetitions=*/6);
    const auto routine = testbed::Datasets::routine_week(93, /*days=*/2.0);
    const auto idle_flows = pipeline_->to_flows(idle, resolver);
    const auto activity_flows = pipeline_->to_flows(activity, resolver);
    const auto routine_flows = pipeline_->to_flows(routine, resolver);
    models_ = new BehaviorModelSet(pipeline_->train(
        idle_flows, 86400.0, activity_flows, routine_flows));
  }

  static void TearDownTestSuite() {
    delete models_;
    delete pipeline_;
  }

  static Pipeline* pipeline_;
  static BehaviorModelSet* models_;
};

Pipeline* IntegrationTest::pipeline_ = nullptr;
BehaviorModelSet* IntegrationTest::models_ = nullptr;

TEST_F(IntegrationTest, QuietDaysStayMostlyQuiet) {
  DeviationEngine engine(*models_);
  std::size_t total_alerts = 0;
  for (std::size_t day = 1; day <= 3; ++day) {
    const auto capture = testbed::Datasets::uncontrolled_day(day, 94);
    total_alerts += engine.process_window(capture).size();
  }
  // The paper sees ~2 deviations/day on average across 47 devices; a small
  // number of alerts is expected, a flood is a failure.
  EXPECT_LT(total_alerts, 40u);
  EXPECT_EQ(engine.windows_processed(), 3u);
}

TEST_F(IntegrationTest, NetworkOutageDayFiresPeriodicAlerts) {
  DeviationEngine engine(*models_);
  // Prime timers with a quiet day, then the outage day (day 30).
  (void)engine.process_window(testbed::Datasets::uncontrolled_day(29, 94));
  const auto alerts =
      engine.process_window(testbed::Datasets::uncontrolled_day(30, 94));
  std::size_t periodic_alerts = 0;
  for (const auto& a : alerts) {
    periodic_alerts += a.source == DeviationSource::kPeriodic ? 1 : 0;
  }
  EXPECT_GT(periodic_alerts, 3u);
}

TEST_F(IntegrationTest, LabExperimentDayFiresUserEventAlerts) {
  DeviationEngine engine(*models_);
  (void)engine.process_window(testbed::Datasets::uncontrolled_day(12, 94));
  const auto alerts =
      engine.process_window(testbed::Datasets::uncontrolled_day(13, 94));
  bool user_alert = false;
  for (const auto& a : alerts) {
    if (a.source != DeviationSource::kPeriodic &&
        a.context.find("echo_spot") != std::string::npos) {
      user_alert = true;
    }
  }
  EXPECT_TRUE(user_alert);
}

TEST_F(IntegrationTest, MisconfigDayFiresAlerts) {
  DeviationEngine engine(*models_);
  (void)engine.process_window(testbed::Datasets::uncontrolled_day(14, 94));
  const auto alerts =
      engine.process_window(testbed::Datasets::uncontrolled_day(15, 94));
  bool hit = false;
  for (const auto& a : alerts) {
    if (a.context.find("smartlife_bulb") != std::string::npos ||
        a.context.find("switchbot_hub") != std::string::npos) {
      hit = true;
    }
  }
  EXPECT_TRUE(hit);
}

TEST_F(IntegrationTest, ResetReplaysIdenticallyToFreshEngine) {
  // Replaying the same capture after reset() must match a fresh engine:
  // stale timers and DNS knowledge would otherwise leak phantom alerts
  // into the second run.
  auto run = [&](DeviationEngine& e) {
    std::vector<std::string> log;
    for (std::size_t day = 1; day <= 2; ++day) {
      const auto alerts =
          e.process_window(testbed::Datasets::uncontrolled_day(day, 94));
      for (const auto& a : alerts) {
        log.push_back(std::string(to_string(a.source)) + "|" + a.context);
      }
    }
    return log;
  };

  DeviationEngine engine(*models_);
  const auto first = run(engine);
  EXPECT_EQ(engine.windows_processed(), 2u);

  engine.reset();
  EXPECT_EQ(engine.windows_processed(), 0u);
  EXPECT_EQ(run(engine), first);

  DeviationEngine fresh(*models_);
  EXPECT_EQ(run(fresh), first);
}

TEST_F(IntegrationTest, PcapRoundTripPreservesPipelineResults) {
  // Export a small capture to pcap bytes, re-ingest, and verify flows agree
  // — the pipeline works identically on "real" capture files.
  const auto capture = testbed::Datasets::idle(95, 0.05);
  const auto bytes = serialize_pcap(capture.packets);
  const auto parsed = parse_pcap(bytes);
  EXPECT_EQ(parsed.packets.size(), capture.packets.size());
  EXPECT_EQ(parsed.stats.skipped(), 0u);

  DomainResolver r1, r2;
  testbed::configure_resolver(r1, capture);
  testbed::configure_resolver(r2, capture);
  FlowAssembler assembler;
  // Device ids are unknown after pcap ingestion (kUnknownDevice); map back
  // via the catalog by source IP, as a real deployment would.
  auto reparsed = parsed.packets;
  testbed::annotate_devices(reparsed);
  const auto flows_direct = assembler.assemble(capture.packets, r1);
  const auto flows_pcap = assembler.assemble(reparsed, r2);
  ASSERT_EQ(flows_direct.size(), flows_pcap.size());
  for (std::size_t i = 0; i < flows_direct.size(); ++i) {
    EXPECT_EQ(flows_direct[i].tuple, flows_pcap[i].tuple);
    EXPECT_EQ(flows_direct[i].device, flows_pcap[i].device);
    EXPECT_EQ(flows_direct[i].domain, flows_pcap[i].domain);
    EXPECT_EQ(flows_direct[i].packets.size(), flows_pcap[i].packets.size());
  }
}

TEST_F(IntegrationTest, ModelsAreDeterministic) {
  // Re-training on identical inputs yields the same model sizes and
  // thresholds (full reproducibility claim).
  Pipeline pipeline;
  DomainResolver resolver;
  const auto idle = testbed::Datasets::idle(91, 1.0);
  const auto activity = testbed::Datasets::activity(92, 6);
  const auto routine = testbed::Datasets::routine_week(93, 2.0);
  const auto idle_flows = pipeline.to_flows(idle, resolver);
  const auto activity_flows = pipeline.to_flows(activity, resolver);
  const auto routine_flows = pipeline.to_flows(routine, resolver);
  const auto again = pipeline.train(idle_flows, 86400.0, activity_flows,
                                    routine_flows);
  EXPECT_EQ(again.periodic.size(), models_->periodic.size());
  EXPECT_EQ(again.user_actions.size(), models_->user_actions.size());
  EXPECT_EQ(again.pfsm.num_states(), models_->pfsm.num_states());
  EXPECT_EQ(again.pfsm.num_transitions(), models_->pfsm.num_transitions());
  EXPECT_DOUBLE_EQ(again.short_term.value(), models_->short_term.value());
}

}  // namespace
}  // namespace behaviot
