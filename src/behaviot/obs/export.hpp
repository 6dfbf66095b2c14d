// Snapshot exporters: machine-readable JSON (behaviot_cli --metrics),
// Prometheus text exposition (scrape-ready), and a human end-of-run summary
// table.
#pragma once

#include <string>
#include <string_view>

#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"

namespace behaviot::obs {

/// Estimated q-quantile (q in [0, 1]) of a histogram by linear
/// interpolation inside the bucket containing the target rank — the same
/// estimate Prometheus's histogram_quantile() computes. Ranks landing in
/// the +Inf tail report the last finite bound (there is no upper edge to
/// interpolate toward). 0 for an empty histogram.
[[nodiscard]] double histogram_quantile(const HistogramSnapshot& h, double q);

/// JSON document with four top-level objects: "counters", "gauges",
/// "histograms" (bucket arrays with an "inf" tail, plus estimated
/// "p50"/"p95"/"p99"), and "spans" — the span histograms re-expressed as
/// {calls, total_ms, mean_ms} keyed by stage path, which is what
/// dashboards usually want first.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snap);

/// Same document with a fifth top-level "health" object (health_to_json) so
/// one --metrics file carries both what the pipeline did and whether its
/// outputs can be trusted.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snap,
                                  const HealthSnapshot& health);

/// Prometheus text exposition format (version 0.0.4). Instrument names are
/// sanitized to [a-zA-Z0-9_] and prefixed "behaviot_"; histograms emit
/// cumulative le-labeled buckets plus _sum/_count, span histograms under
/// behaviot_stage_ms{stage="..."}, and every histogram also exposes a
/// sibling "_summary" family with quantile="0.5|0.95|0.99" sample lines.
/// Distinct instrument names whose sanitized forms collide (e.g. "a.b" and
/// "a_b") are disambiguated with a deterministic "_2"/"_3"... suffix in
/// lexicographic processing order, so no family is silently merged.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snap);

/// Exposition plus per-component health families:
/// behaviot_component_health{component="..."} 0|1|2 (healthy/degraded/
/// quarantined) and behaviot_component_incidents_total{component="..."}.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snap,
                                        const HealthSnapshot& health);

/// The --metrics document for `path`: Prometheus text exposition when it
/// ends in ".prom", JSON otherwise — both with the health families.
[[nodiscard]] std::string metrics_document(std::string_view path,
                                           const MetricsSnapshot& snap,
                                           const HealthSnapshot& health);

/// Fixed-width table of stage timings and non-zero counters/gauges for
/// end-of-run terminal output.
[[nodiscard]] std::string summary_table(const MetricsSnapshot& snap);

}  // namespace behaviot::obs
