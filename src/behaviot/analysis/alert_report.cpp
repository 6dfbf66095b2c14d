#include "behaviot/analysis/alert_report.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "behaviot/obs/json.hpp"
#include "behaviot/testbed/catalog.hpp"

namespace behaviot {
namespace {

/// Full-precision double rendering so scores survive a round trip. The
/// report consumers parse with from_chars, so 17 significant digits are
/// exact — and to_chars (unlike %.17g) never swaps the decimal point for
/// the global C locale's radix character, which would break those parses.
std::string num(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general, 17);
  return std::string(buf, end);
}

DeviationSource source_from_string(const std::string& s) {
  if (s == "periodic") return DeviationSource::kPeriodic;
  if (s == "short-term") return DeviationSource::kShortTerm;
  if (s == "long-term") return DeviationSource::kLongTerm;
  throw std::runtime_error("alert report: unknown source '" + s + "'");
}

void emit_explanation(std::ostringstream& os, const AlertExplanation& ex) {
  os << "{\"metric\": \"" << obs::json::escape(ex.metric) << "\""
     << ", \"observed\": " << num(ex.observed)
     << ", \"expected\": " << num(ex.expected)
     << ", \"threshold\": " << num(ex.threshold)
     << ", \"model_group\": \"" << obs::json::escape(ex.model_group) << "\""
     << ", \"cluster_id\": " << ex.cluster_id
     << ", \"cluster_distance\": " << num(ex.cluster_distance)
     << ", \"vote_margin\": " << num(ex.vote_margin)
     << ", \"support\": " << ex.support << "}";
}

AlertExplanation parse_explanation(const obs::json::Value& v) {
  AlertExplanation ex;
  ex.metric = v.at("metric").as_string();
  ex.observed = v.at("observed").as_number();
  ex.expected = v.at("expected").as_number();
  ex.threshold = v.at("threshold").as_number();
  ex.model_group = v.at("model_group").as_string();
  ex.cluster_id = static_cast<int>(v.at("cluster_id").as_number());
  ex.cluster_distance = v.at("cluster_distance").as_number();
  ex.vote_margin = v.at("vote_margin").as_number();
  ex.support = static_cast<std::size_t>(v.at("support").as_number());
  return ex;
}

}  // namespace

std::string alerts_to_json(std::span<const DeviationAlert> alerts,
                           const obs::HealthSnapshot* health) {
  std::ostringstream os;
  os << "{\n\"version\": 1,\n";
  if (health != nullptr) {
    os << "\"health\": " << obs::health_to_json(*health) << ",\n";
  }
  os << "\"alerts\": [";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const DeviationAlert& a = alerts[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "{\"source\": \"" << to_string(a.source) << "\""
       << ", \"when_us\": " << a.when.micros()
       << ", \"device\": " << static_cast<long long>(a.device)
       << ", \"score\": " << num(a.score)
       << ", \"threshold\": " << num(a.threshold)
       << ", \"context\": \"" << obs::json::escape(a.context) << "\""
       << ", \"explanation\": ";
    emit_explanation(os, a.explanation);
    os << "}";
  }
  os << "\n]\n}\n";
  return os.str();
}

std::vector<DeviationAlert> alerts_from_json(std::string_view text) {
  const obs::json::Value doc = obs::json::parse(text);
  const double version = doc.at("version").as_number();
  if (version != 1.0) {
    throw std::runtime_error("alert report: unsupported version " +
                             std::to_string(version));
  }
  std::vector<DeviationAlert> out;
  for (const obs::json::Value& v : doc.at("alerts").as_array()) {
    DeviationAlert a;
    a.source = source_from_string(v.at("source").as_string());
    a.when = Timestamp(static_cast<std::int64_t>(v.at("when_us").as_number()));
    a.device = static_cast<DeviceId>(v.at("device").as_number());
    a.score = v.at("score").as_number();
    a.threshold = v.at("threshold").as_number();
    a.context = v.at("context").as_string();
    a.explanation = parse_explanation(v.at("explanation"));
    out.push_back(std::move(a));
  }
  return out;
}

std::string render_alert_explanation(const DeviationAlert& alert,
                                     std::string_view device_name) {
  const AlertExplanation& ex = alert.explanation;
  std::ostringstream os;
  os << "[" << to_string(alert.source) << "] ";
  if (!device_name.empty()) {
    os << std::string(device_name) << " ";
  }
  char line[160];
  std::snprintf(line, sizeof(line), "score %.3f crossed threshold %.3f (%s)",
                alert.score, alert.threshold, ex.metric.c_str());
  os << "at t=" << alert.when.micros() / 1000000 << "s: " << line << "\n";

  switch (alert.source) {
    case DeviationSource::kPeriodic:
      std::snprintf(line, sizeof(line),
                    "  observed %.1fs between events vs expected period %.1fs",
                    ex.observed, ex.expected);
      os << line << "\n";
      os << "  model group: " << ex.model_group << " (support "
         << ex.support << " training flows)\n";
      if (ex.cluster_id >= 0) {
        std::snprintf(line, sizeof(line),
                      "  deviating flow sits %.3f from density cluster #%d",
                      ex.cluster_distance, ex.cluster_id);
        os << line << "\n";
      } else {
        os << "  no flow evidence (silence, or no fitted cluster stage)\n";
      }
      break;
    case DeviationSource::kShortTerm:
      std::snprintf(line, sizeof(line),
                    "  trace surprisal A_T=%.3f vs calibrated mean %.3f",
                    ex.observed, ex.expected);
      os << line << "\n";
      os << "  trace (" << ex.support << " events): " << ex.model_group
         << "\n";
      if (ex.vote_margin >= 0.0) {
        std::snprintf(line, sizeof(line),
                      "  weakest classifier vote margin in trace: %.3f",
                      ex.vote_margin);
        os << line << "\n";
      }
      break;
    case DeviationSource::kLongTerm:
      std::snprintf(line, sizeof(line),
                    "  transition probability %.4f vs model %.4f over n=%zu",
                    ex.observed, ex.expected, ex.support);
      os << line << "\n";
      os << "  transition: " << ex.model_group << "\n";
      break;
  }
  os << "  context: " << alert.context << "\n";
  return os.str();
}

void print_alert_line(std::FILE* out, const DeviationAlert& alert) {
  const auto& catalog = testbed::Catalog::standard();
  const char* device_name = alert.device < catalog.size()
                                ? catalog.by_id(alert.device).name.c_str()
                                : "(system)";
  std::fprintf(out, "  [%s] %-18s score %6.2f (thr %4.2f)  %s\n",
               to_string(alert.source), device_name, alert.score,
               alert.threshold, alert.context.substr(0, 80).c_str());
}

}  // namespace behaviot
