#include "behaviot/obs/export.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "behaviot/obs/json.hpp"
#include "behaviot/obs/span.hpp"

namespace behaviot::obs {

namespace {

/// Formats a double with enough precision to round-trip typical wall-clock
/// and ratio values without scientific-notation surprises in JSON.
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";
  // to_chars, not snprintf: %g renders the radix character of the global C
  // locale, and a comma decimal point corrupts both the JSON document and
  // the Prometheus exposition for every scraper parsing these numbers back.
  char buf[64];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6);
  return std::string(buf, end);
}

/// Shared escaper (obs/json.hpp): unlike the previous local version it also
/// escapes bytes >= 0x7f, so a name carrying raw capture bytes can never
/// produce an invalid JSON document.
std::string json_escape(const std::string& s) { return json::escape(s); }

bool is_span_metric(const std::string& name) {
  return name.rfind(kSpanMetricPrefix, 0) == 0;
}

std::string span_stage(const std::string& name) {
  return name.substr(kSpanMetricPrefix.size());
}

std::string prom_sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return out;
}

/// Collision-free family naming: sanitization is lossy ("a.b" and "a_b"
/// both map to "a_b"), and silently merging two instruments into one
/// Prometheus family corrupts both series. Each logical instrument claims
/// its sanitized family name; a name already claimed by a *different*
/// instrument gets a deterministic "_2"/"_3"... suffix (instruments are
/// processed in the snapshot's lexicographic order, so the assignment is
/// stable across exports).
class PromNamer {
 public:
  /// `family` is the fully assembled candidate name; `instrument` the
  /// logical source identity (instrument name + kind, or a shared sentinel
  /// for families that intentionally pool several instruments).
  std::string claim(const std::string& family, const std::string& instrument) {
    auto it = claimed_.find(family);
    if (it == claimed_.end()) {
      claimed_.emplace(family, instrument);
      return family;
    }
    if (it->second == instrument) return family;
    for (int n = 2;; ++n) {
      const std::string candidate = family + "_" + std::to_string(n);
      auto c = claimed_.find(candidate);
      if (c == claimed_.end()) {
        claimed_.emplace(candidate, instrument);
        return candidate;
      }
      if (c->second == instrument) return candidate;
    }
  }

 private:
  std::map<std::string, std::string> claimed_;  ///< family -> instrument
};

}  // namespace

double histogram_quantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(h.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const std::uint64_t below = cumulative;
    cumulative += h.buckets[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= h.bounds.size()) {
      // +Inf tail: no upper edge to interpolate toward.
      return h.bounds.empty() ? 0.0 : h.bounds.back();
    }
    const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
    const double hi = h.bounds[i];
    if (h.buckets[i] == 0) return hi;
    const double frac = (target - static_cast<double>(below)) /
                        static_cast<double>(h.buckets[i]);
    return lo + (hi - lo) * frac;
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

std::string to_json(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << v;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << fmt_double(v);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": {\"count\": " << h.count << ", \"sum\": " << fmt_double(h.sum)
       << ", \"p50\": " << fmt_double(histogram_quantile(h, 0.50))
       << ", \"p95\": " << fmt_double(histogram_quantile(h, 0.95))
       << ", \"p99\": " << fmt_double(histogram_quantile(h, 0.99))
       << ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"le\": ";
      if (i < h.bounds.size()) {
        os << fmt_double(h.bounds[i]);
      } else {
        os << "\"inf\"";
      }
      os << ", \"count\": " << h.buckets[i] << "}";
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"spans\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!is_span_metric(name)) continue;
    const double mean =
        h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(span_stage(name))
       << "\": {\"calls\": " << h.count
       << ", \"total_ms\": " << fmt_double(h.sum)
       << ", \"mean_ms\": " << fmt_double(mean) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string to_json(const MetricsSnapshot& snap,
                    const HealthSnapshot& health) {
  std::string base = to_json(snap);
  // Splice the health object in as a fifth top-level key, before the
  // document's closing brace.
  const std::size_t brace = base.rfind('}');
  base.insert(brace, ",\n  \"health\": " + health_to_json(health) + "\n");
  return base;
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::ostringstream os;
  PromNamer namer;
  std::set<std::string> typed;  ///< families whose # TYPE line was emitted
  const auto type_line = [&](const std::string& family, const char* type) {
    if (typed.insert(family).second) {
      os << "# TYPE " << family << " " << type << "\n";
    }
  };
  for (const auto& [name, v] : snap.counters) {
    const std::string prom = namer.claim(
        "behaviot_" + prom_sanitize(name) + "_total", "counter:" + name);
    type_line(prom, "counter");
    os << prom << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string prom =
        namer.claim("behaviot_" + prom_sanitize(name), "gauge:" + name);
    type_line(prom, "gauge");
    os << prom << " " << fmt_double(v) << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    // Span histograms share one metric family, distinguished by a stage
    // label; other histograms get their own family.
    const bool span = is_span_metric(name);
    const std::string prom =
        span ? namer.claim("behaviot_stage_ms", "histogram:span")
             : namer.claim("behaviot_" + prom_sanitize(name),
                           "histogram:" + name);
    const std::string label =
        span ? "stage=\"" + span_stage(name) + "\"" : std::string();
    type_line(prom, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      os << prom << "_bucket{" << label << (label.empty() ? "" : ",")
         << "le=\""
         << (i < h.bounds.size() ? fmt_double(h.bounds[i]) : "+Inf")
         << "\"} " << cumulative << "\n";
    }
    const std::string braces = label.empty() ? "" : "{" + label + "}";
    os << prom << "_sum" << braces << " " << fmt_double(h.sum) << "\n"
       << prom << "_count" << braces << " " << h.count << "\n";
    // Sibling summary family: pre-estimated quantiles for consumers that
    // don't run histogram_quantile() themselves.
    const std::string summary = namer.claim(
        prom + "_summary", span ? "summary:span" : "summary:" + name);
    type_line(summary, "summary");
    for (const double q : {0.5, 0.95, 0.99}) {
      os << summary << "{" << label << (label.empty() ? "" : ",")
         << "quantile=\"" << fmt_double(q) << "\"} "
         << fmt_double(histogram_quantile(h, q)) << "\n";
    }
    os << summary << "_sum" << braces << " " << fmt_double(h.sum) << "\n"
       << summary << "_count" << braces << " " << h.count << "\n";
  }
  return os.str();
}

std::string to_prometheus(const MetricsSnapshot& snap,
                          const HealthSnapshot& health) {
  std::ostringstream os;
  os << to_prometheus(snap);
  if (!health.empty()) {
    os << "# TYPE behaviot_component_health gauge\n";
    for (const ComponentHealth& c : health.components) {
      os << "behaviot_component_health{component=\""
         << prom_sanitize(c.component) << "\"} "
         << static_cast<int>(c.state) << "\n";
    }
    os << "# TYPE behaviot_component_incidents_total counter\n";
    for (const ComponentHealth& c : health.components) {
      os << "behaviot_component_incidents_total{component=\""
         << prom_sanitize(c.component) << "\"} " << c.incidents << "\n";
    }
  }
  return os.str();
}

std::string metrics_document(std::string_view path,
                             const MetricsSnapshot& snap,
                             const HealthSnapshot& health) {
  return path.ends_with(".prom") ? to_prometheus(snap, health)
                                 : to_json(snap, health);
}

std::string summary_table(const MetricsSnapshot& snap) {
  std::ostringstream os;
  bool any_span = false;
  for (const auto& [name, h] : snap.histograms) {
    if (is_span_metric(name)) {
      any_span = true;
      break;
    }
  }
  if (any_span) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-44s %8s %12s %12s\n", "stage",
                  "calls", "total ms", "mean ms");
    os << line;
    for (const auto& [name, h] : snap.histograms) {
      if (!is_span_metric(name) || h.count == 0) continue;
      std::snprintf(line, sizeof(line), "%-44s %8llu %12.2f %12.3f\n",
                    span_stage(name).c_str(),
                    static_cast<unsigned long long>(h.count), h.sum,
                    h.sum / static_cast<double>(h.count));
      os << line;
    }
  }
  bool any_counter = false;
  for (const auto& [name, v] : snap.counters) {
    if (v == 0) continue;
    if (!any_counter) {
      os << (any_span ? "\n" : "");
      char line[160];
      std::snprintf(line, sizeof(line), "%-44s %12s\n", "counter", "value");
      os << line;
      any_counter = true;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%-44s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    os << line;
  }
  for (const auto& [name, v] : snap.gauges) {
    if (v == 0.0) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "%-44s %12.4f  (gauge)\n", name.c_str(),
                  v);
    os << line;
  }
  return os.str();
}

}  // namespace behaviot::obs
