// Allocation guard for the per-window scoring path (ctest label:
// perf_smoke).
//
// DeviationMonitor keeps its per-group state in vectors indexed by model
// slot and reuses its per-window buffers, so scoring a window of modeled
// flows that raises no alert allocates nothing once the monitor is warm.
// This binary replaces the global operator new to count heap allocations
// around evaluate_window: a per-flow key string, a per-window map or a
// temporary sort buffer brought back onto that path fails it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "behaviot/deviation/monitor.hpp"
#include "behaviot/pfsm/synoptic.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load()) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The standard library's nothrow and sized forms forward to these.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace behaviot {
namespace {

FlowRecord flow_at(const std::string& domain, double t_s) {
  FlowRecord f;
  f.device = 1;
  f.tuple = {{Ipv4Addr(192, 168, 1, 11), 41000},
             {Ipv4Addr(54, 2, 2, 2), 443},
             Transport::kTcp};
  f.domain = domain;
  f.app = AppProtocol::kTls;
  f.start = f.end = Timestamp::from_seconds(t_s);
  f.packets = {{f.start, 120, Direction::kOutbound, false}};
  return f;
}

TEST(ScoringAllocations, WarmWindowOfModeledFlowsAllocatesNothing) {
  PeriodicModel model;
  model.device = 1;
  model.domain = "heartbeat.vendor.example.com";
  model.group = flow_at(model.domain, 0.0).group_key();
  model.app = AppProtocol::kTls;
  model.period_seconds = 600.0;
  model.tolerance_seconds = 12.0;
  model.support = 100;
  const PeriodicModelSet periodic = PeriodicModelSet::from_models({model});
  const std::vector<std::vector<std::string>> traces{{"cam:motion", "bulb:on"},
                                                     {"plug:on", "plug:off"}};
  const Pfsm pfsm = infer_pfsm(traces).pfsm;
  DeviationMonitor monitor(periodic, pfsm,
                           ShortTermThreshold::calibrate(pfsm, traces));

  // Hour-long windows: six on-period heartbeats of the modeled group, and
  // two flows to an unresolved destination no model names.
  const auto window_flows = [&model](double start_s) {
    std::vector<FlowRecord> flows;
    for (int k = 0; k < 6; ++k) {
      flows.push_back(flow_at(model.domain, start_s + 100.0 + 600.0 * k));
    }
    flows.push_back(flow_at("", start_s + 50.0));
    flows.push_back(flow_at("", start_s + 1800.0));
    return flows;
  };
  const auto window_start = [](int w) {
    return Timestamp::from_seconds(3600.0 * w);
  };

  ASSERT_TRUE(monitor
                  .evaluate_window(window_start(0), window_start(1),
                                   window_flows(0.0), {})
                  .empty());
  for (int w = 1; w <= 3; ++w) {
    const std::vector<FlowRecord> flows = window_flows(3600.0 * w);
    g_allocations.store(0);
    g_counting.store(true);
    const std::vector<DeviationAlert> alerts = monitor.evaluate_window(
        window_start(w), window_start(w + 1), flows, {});
    g_counting.store(false);
    EXPECT_TRUE(alerts.empty()) << "window " << w;
    EXPECT_EQ(g_allocations.load(), 0u) << "window " << w;
  }
}

}  // namespace
}  // namespace behaviot
