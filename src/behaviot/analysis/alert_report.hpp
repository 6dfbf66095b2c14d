// Alert report serialization: deviation alerts — including their provenance
// records — round-trip through a JSON document so a scoring run can be
// archived and explained offline (`behaviot_cli score --alerts FILE`, then
// `behaviot_cli explain --alerts FILE`).
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "behaviot/deviation/monitor.hpp"
#include "behaviot/obs/health.hpp"

namespace behaviot {

/// Serializes alerts as a JSON object {"version": 1, "alerts": [...]};
/// every alert carries its AlertExplanation under "explanation". Field
/// order is fixed, doubles round-trip at full precision, and strings are
/// escaped to plain ASCII, so the output is deterministic and diffable.
///
/// When `health` is non-null the document also carries a "health" object
/// (obs::health_to_json) — an alert consumer can then tell whether the run
/// that produced the alerts was itself degraded (readers that predate the
/// field ignore it).
[[nodiscard]] std::string alerts_to_json(
    std::span<const DeviationAlert> alerts,
    const obs::HealthSnapshot* health = nullptr);

/// Parses a document written by alerts_to_json. Throws std::runtime_error
/// on malformed JSON, an unknown version, or a missing required field.
[[nodiscard]] std::vector<DeviationAlert> alerts_from_json(
    std::string_view text);

/// Prints one alert as the one-line summary `score` and `watch` show:
/// source, device name, score against threshold, and the context.
void print_alert_line(std::FILE* out, const DeviationAlert& alert);

/// Renders one alert's provenance as a human-readable block (used by the
/// `explain` subcommand): what was observed, what the model expected, which
/// threshold was crossed, and the source-specific evidence.
/// `device_name` may be empty for system-level (long-term) alerts.
[[nodiscard]] std::string render_alert_explanation(const DeviationAlert& alert,
                                                   std::string_view device_name);

}  // namespace behaviot
