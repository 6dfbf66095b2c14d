#include "behaviot/net/parse_policy.hpp"

#include <sstream>

#include "behaviot/obs/metrics.hpp"

namespace behaviot {

ParseError::ParseError(const std::string& what, std::uint64_t offset)
    : std::runtime_error(what + " (at byte offset " + std::to_string(offset) +
                         ")"),
      offset_(offset) {}

std::string ParseStats::summary() const {
  std::ostringstream os;
  os << "records " << records << ", packets " << packets << ", skipped "
     << skipped();
  if (skipped() > 0) {
    os << " (non-ip " << non_ip << ", non-tcp/udp " << non_transport
       << ", malformed " << malformed << ", truncated " << truncated << ")";
  }
  if (snapped_payloads > 0) os << ", snapped payloads " << snapped_payloads;
  if (sections_dropped > 0) os << ", sections dropped " << sections_dropped;
  if (models_dropped > 0) os << ", models dropped " << models_dropped;
  return os.str();
}

void record_parse_stats(const ParseStats& stats) {
  if (!obs::MetricsRegistry::enabled()) return;
  static auto& records = obs::counter("ingest.records");
  static auto& packets = obs::counter("ingest.packets");
  static auto& non_ip = obs::counter("ingest.skipped.non_ip");
  static auto& non_transport = obs::counter("ingest.skipped.non_transport");
  static auto& malformed = obs::counter("ingest.skipped.malformed");
  static auto& truncated = obs::counter("ingest.skipped.truncated");
  static auto& snapped = obs::counter("ingest.snapped_payloads");
  static auto& dropped = obs::counter("ingest.sections_dropped");
  records.add(stats.records);
  packets.add(stats.packets);
  non_ip.add(stats.non_ip);
  non_transport.add(stats.non_transport);
  malformed.add(stats.malformed);
  truncated.add(stats.truncated);
  snapped.add(stats.snapped_payloads);
  dropped.add(stats.sections_dropped);
}

}  // namespace behaviot
