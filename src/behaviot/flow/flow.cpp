#include "behaviot/flow/flow.hpp"

namespace behaviot {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kUnknown: return "unknown";
    case EventKind::kPeriodic: return "periodic";
    case EventKind::kUser: return "user";
    case EventKind::kAperiodic: return "aperiodic";
  }
  return "?";
}

std::string FlowRecord::group_key() const {
  std::string key;
  group_key_into(key);
  return key;
}

void FlowRecord::group_key_into(std::string& out) const {
  // Unnamed destinations map to a stable "unresolved:<ip>" key: they still
  // form a group (so periodic inference and deviation scoring run), but the
  // key is distinguishable from a real domain, so reports and operators can
  // see at a glance that annotation failed (e.g. the DNS answer was lost).
  if (domain.empty()) {
    out.assign("unresolved:");
    out += tuple.dst.ip.to_string();  // at most 15 chars: no heap block
  } else {
    out.assign(domain);
  }
  out += '|';
  out += to_string(app);
}

}  // namespace behaviot
