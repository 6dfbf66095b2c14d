#include "behaviot/core/serialize.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <locale>
#include <ostream>
#include <sstream>

#include "behaviot/core/serialize_binary.hpp"
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
  // previous complete generation or the new one, never a torn prefix.
  if (is_binary_model_path(path)) {
    save_models_binary_file(path, models);
    return;
  }
  std::ostringstream os;
  save_models(os, models);
  std::string error;
  if (!obs::write_file_atomic(path, os.str(), &error)) {
    throw SerializationError("cannot write models: " + error);
  }
}

BehaviorModelSet load_models_file_reporting(const std::string& path,
                                            ParsePolicy policy) {
  ParseStats stats;
  BehaviorModelSet models = load_models_binary_file(path, policy, &stats);
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
