#include "behaviot/core/serialize.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <locale>
#include <optional>
#include <sstream>
#include <string_view>

#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/snapshot.hpp"

namespace behaviot {
namespace {

void put_double(std::ostream& os, double v) {
  // Locale-independent, byte-identical to the former
  // `os << std::hexfloat << v`: to_chars emits the same shortest hexfloat
  // this toolchain's num_put did, minus the 0x prefix (restored here) and
  // with non-finite values spelled "inf(f)"/"nan" instead of the stream's
  // "inf"/"-inf"/"nan"/"-nan" (special-cased here).
  if (std::isnan(v)) {
    os << (std::signbit(v) ? "-nan" : "nan");
    return;
  }
  if (std::isinf(v)) {
    os << (std::signbit(v) ? "-inf" : "inf");
    return;
  }
  char buf[48];
  char* p = buf;
  if (std::signbit(v)) {
    *p++ = '-';
    v = -v;
  }
  *p++ = '0';
  *p++ = 'x';
  const auto [end, ec] =
      std::to_chars(p, buf + sizeof(buf), v, std::chars_format::hex);
  os.write(buf, end - buf);
}

double get_double(std::istream& is) {
  std::string token;
  if (!(is >> token)) throw SerializationError("unexpected end of input");
  // Parsed with from_chars, never strtod: strtod's radix character follows
  // the C global locale, so under a comma-decimal locale it rejects the
  // '.' in "0x1.8p+3" — the exact corruption this loader must not have.
  std::string_view sv = token;
  bool negative = false;
  if (!sv.empty() && (sv.front() == '+' || sv.front() == '-')) {
    negative = sv.front() == '-';
    sv.remove_prefix(1);
  }
  double v = 0.0;
  std::from_chars_result r{};
  if (sv.size() > 2 && sv[0] == '0' && (sv[1] == 'x' || sv[1] == 'X')) {
    r = std::from_chars(sv.data() + 2, sv.data() + sv.size(), v,
                        std::chars_format::hex);
  } else {
    // Decimal/scientific plus the "inf"/"nan" spellings the writer emits.
    r = std::from_chars(sv.data(), sv.data() + sv.size(), v,
                        std::chars_format::general);
  }
  if (sv.empty() || r.ec != std::errc{} || r.ptr != sv.data() + sv.size()) {
    throw SerializationError("malformed floating-point value: " + token);
  }
  return negative ? -v : v;
}

std::string get_token(std::istream& is, const char* what) {
  std::string token;
  if (!(is >> token)) {
    throw SerializationError(std::string("missing token: ") + what);
  }
  return token;
}

// Parses a non-negative integer token. Unlike std::stoul, a leading '-'
// (which stoul silently wraps to 2^64-1) or any other non-digit rejects.
std::size_t get_count(std::istream& is, const char* what) {
  const std::string token = get_token(is, what);
  const bool digits_only =
      !token.empty() && std::all_of(token.begin(), token.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (!digits_only || ec != std::errc{} || ptr != token.data() + token.size()) {
    throw SerializationError(std::string("malformed count for ") + what +
                             ": " + token);
  }
  return value;
}

// Bytes left in the stream, or nullopt when the stream is not seekable.
std::optional<std::size_t> remaining_bytes(std::istream& is) {
  const auto pos = is.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return std::nullopt;
  return static_cast<std::size_t>(end - pos);
}

// For counts that size a loop or a reserve(): every serialized element
// occupies at least two bytes (one token character plus a separator), so a
// count exceeding the remaining input is malformed — reject it before it
// reaches reserve() and turns a corrupt file into a bad_alloc/OOM.
std::size_t get_size_count(std::istream& is, const char* what) {
  const std::size_t value = get_count(is, what);
  const auto remaining = remaining_bytes(is);
  if (remaining.has_value() && value > *remaining) {
    throw SerializationError(std::string("count for ") + what + " (" +
                             std::to_string(value) +
                             ") exceeds remaining input (" +
                             std::to_string(*remaining) + " bytes)");
  }
  return value;
}

void expect(std::istream& is, const std::string& keyword) {
  const std::string token = get_token(is, keyword.c_str());
  if (token != keyword) {
    throw SerializationError("expected '" + keyword + "', got '" + token +
                             "'");
  }
}

}  // namespace

void save_models(std::ostream& os, const BehaviorModelSet& models) {
  // A grouping locale would insert thousands separators into the integer
  // insertions below; pin the stream to the classic ("C") locale so the file
  // bytes never depend on the embedding application's global locale.
  os.imbue(std::locale::classic());
  os << "behaviot-models v" << kModelFormatVersion << "\n";

  // --- periodic models ---
  os << "periodic " << models.periodic.size() << "\n";
  for (const PeriodicModel& m : models.periodic.all()) {
    os << m.device << ' ' << static_cast<int>(m.app) << ' ';
    put_double(os, m.period_seconds);
    os << ' ';
    put_double(os, m.tolerance_seconds);
    os << ' ';
    put_double(os, m.autocorr_score);
    os << ' ' << m.support << ' '
       << (m.domain.empty() ? "-" : m.domain) << ' ' << m.group << ' '
       << m.secondary_periods.size();
    for (double p : m.secondary_periods) {
      os << ' ';
      put_double(os, p);
    }
    // Optional trailer, omitted when zero so files from sets that never went
    // through a retrain merge stay byte-identical to the v-format they had
    // before absence tracking existed.
    if (m.absent_generations > 0) os << " absent " << m.absent_generations;
    os << "\n";
  }

  // --- PFSM ---
  os << "pfsm " << models.pfsm.num_states() << "\n";
  for (std::size_t s = 2; s < models.pfsm.num_states(); ++s) {
    os << models.pfsm.label(static_cast<int>(s)) << "\n";
  }
  const auto transitions = models.pfsm.transitions();
  os << "transitions " << transitions.size() << "\n";
  for (const auto& t : transitions) {
    os << t.from << ' ' << t.to << ' ' << t.count << "\n";
  }

  // --- thresholds ---
  os << "thresholds ";
  put_double(os, models.thresholds.periodic);
  os << ' ';
  put_double(os, models.thresholds.long_term_z);
  os << ' ';
  put_double(os, models.short_term.mean);
  os << ' ';
  put_double(os, models.short_term.sigma);
  os << ' ';
  put_double(os, models.short_term.n_sigma);
  os << "\n";

  // --- training traces (label sequences) ---
  os << "traces " << models.training_traces.size() << "\n";
  for (const auto& trace : models.training_traces) {
    os << trace.size();
    for (const auto& label : trace) os << ' ' << label;
    os << "\n";
  }
}

void save_models_file(const std::string& path,
                      const BehaviorModelSet& models) {
  // Serialize fully in memory, then replace the target atomically: a watch
  // daemon killed mid-publish (or a fleet reader racing the write) sees the
  // previous complete generation or the new one, never a torn prefix. The
  // format still dispatches on the *target* extension, not the temp name.
  std::string payload;
  if (is_binary_model_path(path)) {
    payload = save_models_binary(models);
  } else {
    std::ostringstream os;
    save_models(os, models);
    payload = os.str();
  }
  std::string error;
  if (!obs::write_file_atomic(path, payload, &error)) {
    throw SerializationError("cannot write models: " + error);
  }
}

BehaviorModelSet load_models(std::istream& is, ParsePolicy policy,
                             ParseStats* stats) {
  // Mirror of save_models: token extraction (`is >> token`) classifies
  // whitespace through the stream's locale, so pin it too.
  is.imbue(std::locale::classic());
  BehaviorModelSet models;
  // Under kLenient a SerializationError past the header stops parsing at the
  // damage instead of propagating: completed entries stay committed, the
  // abandonment is counted, and whatever parsed so far is returned.
  const auto drop_section = [&](const SerializationError&) {
    if (policy == ParsePolicy::kStrict) throw;
    if (stats != nullptr) ++stats->sections_dropped;
    obs::counter("ingest.sections_dropped").inc();
  };

  const std::string magic = get_token(is, "magic");
  const std::string version = get_token(is, "version");
  if (magic != "behaviot-models" ||
      version != "v" + std::to_string(kModelFormatVersion)) {
    throw SerializationError("unsupported format: " + magic + " " + version);
  }

  // --- periodic models ---
  std::vector<PeriodicModel> periodic;
  try {
    expect(is, "periodic");
    const std::size_t n_periodic = get_size_count(is, "periodic count");
    periodic.reserve(n_periodic);
    for (std::size_t i = 0; i < n_periodic; ++i) {
      PeriodicModel m;
      m.device = static_cast<DeviceId>(get_count(is, "device"));
      m.app = static_cast<AppProtocol>(get_count(is, "app"));
      m.period_seconds = get_double(is);
      m.tolerance_seconds = get_double(is);
      m.autocorr_score = get_double(is);
      m.support = get_count(is, "support");
      m.domain = get_token(is, "domain");
      if (m.domain == "-") m.domain.clear();
      m.group = get_token(is, "group");
      const std::size_t n_secondary = get_size_count(is, "secondary count");
      for (std::size_t k = 0; k < n_secondary; ++k) {
        m.secondary_periods.push_back(get_double(is));
      }
      // Optional "absent <n>" trailer. The next token otherwise starts with
      // a digit (next model's device id) or 'p' ("pfsm"), so one character
      // of lookahead disambiguates.
      is >> std::ws;
      if (is.peek() == 'a') {
        expect(is, "absent");
        m.absent_generations = get_count(is, "absent generations");
      }
      periodic.push_back(std::move(m));
    }
  } catch (const SerializationError& e) {
    drop_section(e);
    models.periodic = PeriodicModelSet::from_models(std::move(periodic));
    return models;
  }
  models.periodic = PeriodicModelSet::from_models(std::move(periodic));

  // --- PFSM ---
  try {
    expect(is, "pfsm");
    const std::size_t n_states = get_size_count(is, "state count");
    if (n_states < 2) throw SerializationError("pfsm needs >= 2 states");
    for (std::size_t s = 2; s < n_states; ++s) {
      models.pfsm.add_state(get_token(is, "state label"));
    }
    expect(is, "transitions");
    const std::size_t n_transitions = get_size_count(is, "transition count");
    for (std::size_t t = 0; t < n_transitions; ++t) {
      const auto from = static_cast<int>(get_count(is, "from"));
      const auto to = static_cast<int>(get_count(is, "to"));
      const std::size_t count = get_count(is, "count");
      if (from < 0 || to < 0 ||
          static_cast<std::size_t>(from) >= n_states ||
          static_cast<std::size_t>(to) >= n_states) {
        throw SerializationError("transition references unknown state");
      }
      models.pfsm.add_transition(from, to, count);
    }
  } catch (const SerializationError& e) {
    drop_section(e);
    models.pfsm.finalize();
    return models;
  }
  models.pfsm.finalize();

  // --- thresholds ---
  try {
    expect(is, "thresholds");
    const double periodic_thr = get_double(is);
    const double long_term_z = get_double(is);
    const double mean = get_double(is);
    const double sigma = get_double(is);
    const double n_sigma = get_double(is);
    models.thresholds.periodic = periodic_thr;
    models.thresholds.long_term_z = long_term_z;
    models.short_term.mean = mean;
    models.short_term.sigma = sigma;
    models.short_term.n_sigma = n_sigma;
    models.thresholds.short_term = models.short_term.value();
  } catch (const SerializationError& e) {
    drop_section(e);
    return models;
  }

  // --- training traces ---
  try {
    expect(is, "traces");
    const std::size_t n_traces = get_size_count(is, "trace count");
    for (std::size_t t = 0; t < n_traces; ++t) {
      const std::size_t len = get_size_count(is, "trace length");
      std::vector<std::string> trace;
      trace.reserve(len);
      for (std::size_t i = 0; i < len; ++i) {
        trace.push_back(get_token(is, "trace label"));
      }
      models.training_traces.push_back(std::move(trace));
    }
  } catch (const SerializationError& e) {
    drop_section(e);
  }
  return models;
}

BehaviorModelSet load_models_file(const std::string& path, ParsePolicy policy,
                                  ParseStats* stats) {
  if (is_binary_model_path(path)) {
    return load_models_binary_file(path, policy, stats);
  }
  std::ifstream file(path);
  if (!file) throw SerializationError("cannot open for read: " + path);
  return load_models(file, policy, stats);
}

BehaviorModelSet load_models_file_reporting(const std::string& path,
                                            ParsePolicy policy) {
  ParseStats stats;
  BehaviorModelSet models = load_models_file(path, policy, &stats);
  if (stats.sections_dropped > 0) {
    std::fprintf(stderr,
                 "warning: %s is damaged — %zu model section(s) dropped by"
                 " the lenient load (re-run with --parse strict for the"
                 " offending byte)\n",
                 path.c_str(), stats.sections_dropped);
  }
  return models;
}

}  // namespace behaviot
