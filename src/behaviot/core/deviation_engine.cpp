#include "behaviot/core/deviation_engine.hpp"

#include "behaviot/obs/span.hpp"

namespace behaviot {

DeviationEngine::DeviationEngine(const BehaviorModelSet& models)
    : models_(&models),
      monitor_(models.periodic, models.pfsm, models.short_term) {}

std::vector<DeviationAlert> DeviationEngine::process_window(
    const testbed::GeneratedCapture& capture) {
  obs::StageSpan span("deviation.window");
  const std::vector<FlowRecord> flows =
      pipeline_.to_flows(capture, resolver_);
  const Pipeline::Classified classified =
      pipeline_.classify(flows, *models_);
  const std::vector<EventTrace> traces =
      pipeline_.traces_of(classified.user_events);
  ++windows_;
  return monitor_.evaluate_window(capture.start, capture.end, flows, traces);
}

void DeviationEngine::reset() {
  monitor_.reset();
  resolver_ = DomainResolver{};
  windows_ = 0;
}

}  // namespace behaviot
