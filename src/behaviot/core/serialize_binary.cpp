#include "behaviot/core/serialize_binary.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <system_error>
#include <tuple>
#include <utility>
#include <vector>

#include "behaviot/core/binary_io.hpp"
#include "behaviot/flow/features.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/snapshot.hpp"

namespace behaviot {
namespace {

using binio::Cursor;
using binio::ImageLayout;
using binio::SectionEntry;
using binio::put_f64;
using binio::put_f64_array;
using binio::put_i32;
using binio::put_str;
using binio::put_u32;
using binio::put_u64;
using binio::put_u8;

// Section ids. Unknown ids are skipped on load (their size is in the table),
// so a minor format extension can add sections without a version bump.

constexpr binio::ImageFormat kBbmFormat{kBinaryModelMagic,
                                        kBinaryModelFormatVersion, "bbm",
                                        "binary model"};

ImageLayout parse_layout(std::span<const std::uint8_t> bytes) {
  return binio::parse_layout(bytes, kBbmFormat);
}

[[noreturn]] void throw_crc_mismatch(const ImageLayout& layout) {
  binio::throw_crc_mismatch(layout, kBbmFormat);
}

Cursor section_cursor(std::span<const std::uint8_t> bytes,
                      std::size_t file_offset, const char* section) {
  return Cursor(bytes, file_offset, section, kBbmFormat.tag);
}

// ---------------------------------------------------------------------------
// Section writers.

std::string write_periodic(const BehaviorModelSet& models) {
  std::string out;
  put_u64(out, models.periodic.size());
  for (const PeriodicModel& m : models.periodic.all()) {
    put_u32(out, static_cast<std::uint32_t>(m.device));
    put_u8(out, static_cast<std::uint8_t>(m.app));
    put_u64(out, m.support);
    put_u64(out, m.absent_generations);
    put_f64(out, m.period_seconds);
    put_f64(out, m.tolerance_seconds);
    put_f64(out, m.autocorr_score);
    put_str(out, m.domain);
    put_str(out, m.group);
    put_u64(out, m.secondary_periods.size());
    put_f64_array(out, m.secondary_periods);
  }
  return out;
}

std::string write_pfsm(const BehaviorModelSet& models) {
  std::string out;
  put_u64(out, models.pfsm.num_states());
  for (std::size_t s = 2; s < models.pfsm.num_states(); ++s) {
    put_str(out, models.pfsm.label(static_cast<int>(s)));
  }
  const auto transitions = models.pfsm.transitions();
  put_u64(out, transitions.size());
  for (const auto& t : transitions) {
    put_u32(out, static_cast<std::uint32_t>(t.from));
    put_u32(out, static_cast<std::uint32_t>(t.to));
    put_u64(out, t.count);
  }
  return out;
}

std::string write_thresholds(const BehaviorModelSet& models) {
  std::string out;
  put_f64(out, models.thresholds.periodic);
  put_f64(out, models.thresholds.long_term_z);
  put_f64(out, models.short_term.mean);
  put_f64(out, models.short_term.sigma);
  put_f64(out, models.short_term.n_sigma);
  return out;
}

std::string write_traces(const BehaviorModelSet& models) {
  std::string out;
  put_u64(out, models.training_traces.size());
  for (const auto& trace : models.training_traces) {
    put_u64(out, trace.size());
    for (const auto& label : trace) put_str(out, label);
  }
  return out;
}

std::string write_forests(const BehaviorModelSet& models) {
  std::string out;
  put_f64(out, models.user_actions.decision_threshold());
  const auto& by_device = models.user_actions.classifiers();
  put_u64(out, by_device.size());
  for (const auto& [device, classifiers] : by_device) {
    put_u32(out, static_cast<std::uint32_t>(device));
    put_u64(out, classifiers.size());
    for (const auto& c : classifiers) {
      put_str(out, c.activity);
      put_u32(out, static_cast<std::uint32_t>(c.forest.num_classes()));
      put_u64(out, c.forest.num_trees());
      for (const DecisionTree& tree : c.forest.trees()) {
        put_u64(out, tree.nodes().size());
        for (const DecisionTree::Node& node : tree.nodes()) {
          put_i32(out, node.feature);
          put_f64(out, node.threshold);
          put_i32(out, node.left);
          put_i32(out, node.right);
          put_u64(out, node.distribution.size());
          put_f64_array(out, node.distribution);
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Section readers. Each consumes exactly its section span; trailing bytes
// inside a section are structural corruption (strict) / a drop (lenient).

/// One periodic record decoded in place — shared by the materializing
/// loader (via PeriodicModelView::materialize) and the zero-copy view.
PeriodicModelView read_periodic_model_view(Cursor& c) {
  PeriodicModelView v;
  v.device = static_cast<DeviceId>(c.u32("device"));
  v.app = static_cast<AppProtocol>(c.u8("app protocol"));
  v.support = c.u64("support");
  v.absent_generations = c.u64("absent generations");
  v.period_seconds = c.f64("period");
  v.tolerance_seconds = c.f64("tolerance");
  v.autocorr_score = c.f64("autocorr score");
  v.domain = c.str_view("domain");
  v.group = c.str_view("group");
  v.secondary_period_count = c.count("secondary period count", sizeof(double));
  v.secondary_period_bytes =
      c.f64_array_bytes(v.secondary_period_count, "secondary periods");
  return v;
}

/// Indices of the records that repeat an earlier record's (device, group)
/// key, in file order.
std::vector<std::size_t> repeated_keys(const std::vector<PeriodicModel>& ms) {
  std::vector<std::size_t> order(ms.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&ms](std::size_t a, std::size_t b) {
    return std::tie(ms[a].device, ms[a].group, a) <
           std::tie(ms[b].device, ms[b].group, b);
  });
  std::vector<std::size_t> repeats;
  for (std::size_t k = 1; k < order.size(); ++k) {
    const PeriodicModel& prev = ms[order[k - 1]];
    const PeriodicModel& m = ms[order[k]];
    if (m.device == prev.device && m.group == prev.group) {
      repeats.push_back(order[k]);
    }
  }
  std::sort(repeats.begin(), repeats.end());
  return repeats;
}

void read_periodic(Cursor& c, BehaviorModelSet& models, ParsePolicy policy,
                   ParseStats* stats) {
  // Fixed part per model: u32 + u8 + 2×u64 + 3×f64 + 2×(u32 len) + u64.
  const std::size_t n = c.count("periodic model count", 61);
  std::vector<PeriodicModel> periodic;
  std::vector<std::size_t> offsets;  // each record's absolute offset
  periodic.reserve(n);
  offsets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    offsets.push_back(c.offset());
    periodic.push_back(read_periodic_model_view(c).materialize());
  }
  if (!c.at_end()) c.fail("trailing bytes after periodic models");
  // A set that names one (device, group) twice has no meaning: lookups see
  // only the first model. Strict refuses the repeat; lenient keeps the
  // first and drops the rest.
  const std::vector<std::size_t> repeats = repeated_keys(periodic);
  if (!repeats.empty()) {
    const PeriodicModel& m = periodic[repeats.front()];
    if (policy == ParsePolicy::kStrict) {
      c.fail_at(offsets[repeats.front()],
                "periodic model repeats (device " + std::to_string(m.device) +
                    ", group " + m.group + ")");
    }
    for (auto it = repeats.rbegin(); it != repeats.rend(); ++it) {
      periodic.erase(periodic.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    if (stats != nullptr) stats->models_dropped += repeats.size();
    obs::counter("ingest.models_dropped").add(repeats.size());
  }
  models.periodic = PeriodicModelSet::from_models(std::move(periodic));
}

void read_pfsm(Cursor& c, BehaviorModelSet& models) {
  const std::size_t n_states = c.count("pfsm state count", 4);
  if (n_states < 2) c.fail("pfsm needs >= 2 states");
  for (std::size_t s = 2; s < n_states; ++s) {
    models.pfsm.add_state(c.str("state label"));
  }
  const std::size_t n_transitions = c.count("pfsm transition count", 16);
  for (std::size_t t = 0; t < n_transitions; ++t) {
    const auto from = static_cast<int>(c.u32("transition from"));
    const auto to = static_cast<int>(c.u32("transition to"));
    const auto count = static_cast<std::size_t>(c.u64("transition count"));
    if (static_cast<std::size_t>(from) >= n_states ||
        static_cast<std::size_t>(to) >= n_states) {
      c.fail("transition references unknown state");
    }
    models.pfsm.add_transition(from, to, count);
  }
  if (!c.at_end()) c.fail("trailing bytes after pfsm");
}

void read_thresholds(Cursor& c, BehaviorModelSet& models) {
  const double periodic = c.f64("periodic threshold");
  const double long_term_z = c.f64("long-term z");
  const double mean = c.f64("short-term mean");
  const double sigma = c.f64("short-term sigma");
  const double n_sigma = c.f64("short-term n_sigma");
  if (!c.at_end()) c.fail("trailing bytes after thresholds");
  models.thresholds.periodic = periodic;
  models.thresholds.long_term_z = long_term_z;
  models.short_term.mean = mean;
  models.short_term.sigma = sigma;
  models.short_term.n_sigma = n_sigma;
  models.thresholds.short_term = models.short_term.value();
}

void read_traces(Cursor& c, BehaviorModelSet& models) {
  const std::size_t n_traces = c.count("trace count", 8);
  // Parse into a scratch vector and commit only after the section fully
  // parses: a lenient drop of a damaged traces section must not leave its
  // partial traces behind (mirrors read_periodic/read_forests).
  std::vector<std::vector<std::string>> traces;
  traces.reserve(n_traces);
  for (std::size_t t = 0; t < n_traces; ++t) {
    const std::size_t len = c.count("trace length", 4);
    std::vector<std::string> trace;
    trace.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      trace.push_back(c.str("trace label"));
    }
    traces.push_back(std::move(trace));
  }
  if (!c.at_end()) c.fail("trailing bytes after traces");
  models.training_traces = std::move(traces);
}

void read_forests(Cursor& c, BehaviorModelSet& models) {
  const double decision_threshold = c.f64("decision threshold");
  const std::size_t n_devices = c.count("forest device count", 12);
  UserActionModels::ClassifierMap classifiers;
  for (std::size_t d = 0; d < n_devices; ++d) {
    const auto device = static_cast<DeviceId>(c.u32("forest device id"));
    const std::size_t n_classifiers = c.count("classifier count", 16);
    auto& list = classifiers[device];
    list.reserve(n_classifiers);
    for (std::size_t k = 0; k < n_classifiers; ++k) {
      UserActionModels::BinaryClassifier bc;
      bc.activity = c.str("activity");
      // Classify reads predict_proba(row)[1], so a forest with fewer than
      // two classes would index past its leaf distributions.
      const auto num_classes = static_cast<int>(c.u32("class count"));
      if (num_classes < 2 || num_classes > 1 << 20) {
        c.fail("implausible class count");
      }
      const std::size_t n_trees = c.count("tree count", 8);
      std::vector<DecisionTree> trees;
      trees.reserve(n_trees);
      for (std::size_t t = 0; t < n_trees; ++t) {
        const std::size_t n_nodes = c.count("node count", 24);
        std::vector<DecisionTree::Node> nodes;
        nodes.reserve(n_nodes);
        for (std::size_t i = 0; i < n_nodes; ++i) {
          DecisionTree::Node node;
          node.feature = c.i32("node feature");
          node.threshold = c.f64("node threshold");
          node.left = c.i32("node left");
          node.right = c.i32("node right");
          const std::size_t dist =
              c.count("distribution length", sizeof(double));
          c.f64_array(node.distribution, dist, "node distribution");
          // DecisionTree::predict_proba walks nodes with no bounds checks,
          // so every invariant it relies on is enforced here: a leaf
          // (feature == -1, the only negative value the writer emits) has
          // no children and a full per-class distribution; an internal
          // node splits on a real flow feature and points both children
          // strictly forward (the builder lays children out after their
          // parent, so forward-only edges also preclude cycles and
          // self-references).
          if (node.feature < 0) {
            if (node.feature != -1 || node.left != -1 || node.right != -1) {
              c.fail("malformed leaf node");
            }
            if (node.distribution.size() !=
                static_cast<std::size_t>(num_classes)) {
              c.fail("leaf distribution length != class count");
            }
          } else {
            if (node.feature >= static_cast<int>(kNumFlowFeatures)) {
              c.fail("node feature out of range");
            }
            if (node.left <= static_cast<int>(i) ||
                node.right <= static_cast<int>(i) ||
                node.left >= static_cast<int>(n_nodes) ||
                node.right >= static_cast<int>(n_nodes)) {
              c.fail("tree child index out of range");
            }
          }
          nodes.push_back(std::move(node));
        }
        trees.push_back(
            DecisionTree::from_nodes(num_classes, std::move(nodes)));
      }
      bc.forest = RandomForest::from_trees(num_classes, std::move(trees));
      list.push_back(std::move(bc));
    }
  }
  if (!c.at_end()) c.fail("trailing bytes after forests");
  models.user_actions = UserActionModels::from_classifiers(
      std::move(classifiers), decision_threshold);
}

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSectionPeriodic:
      return "periodic";
    case kSectionPfsm:
      return "pfsm";
    case kSectionThresholds:
      return "thresholds";
    case kSectionTraces:
      return "traces";
    case kSectionForests:
      return "forests";
    default:
      return "unknown";
  }
}

}  // namespace

std::string save_models_binary(const BehaviorModelSet& models) {
  const std::pair<std::uint32_t, std::string> sections[] = {
      {kSectionPeriodic, write_periodic(models)},
      {kSectionPfsm, write_pfsm(models)},
      {kSectionThresholds, write_thresholds(models)},
      {kSectionTraces, write_traces(models)},
      {kSectionForests, write_forests(models)},
  };
  return binio::build_image(kBbmFormat, sections);
}

void save_models_binary_file(const std::string& path,
                             const BehaviorModelSet& models) {
  // Temp file + rename: a crash mid-write leaves the previous generation,
  // never a torn image.
  std::string error;
  if (!obs::write_file_atomic(path, save_models_binary(models), &error)) {
    throw SerializationError("cannot write models: " + error);
  }
}

BehaviorModelSet load_models_binary(std::span<const std::uint8_t> bytes,
                                    ParsePolicy policy, ParseStats* stats) {
  // Header, section table and CRC trailer are structural: parse_layout
  // throws under either policy.
  const ImageLayout layout = parse_layout(bytes);
  if (!layout.crc_ok && policy == ParsePolicy::kStrict) {
    throw_crc_mismatch(layout);
  }
  // Lenient: parsing continues — every section walk below is bounds-checked,
  // so flipped payload bytes surface as dropped sections or bounded wrong
  // values, never as a crash or an oversized allocation. The damage is
  // disclosed through the stats.
  if (!layout.crc_ok && stats != nullptr) ++stats->malformed;
  const std::vector<SectionEntry>& table = layout.sections;

  // --- sections: per-section strict/lenient, resynchronized by the table ---
  BehaviorModelSet models;
  bool pfsm_loaded = false;
  const auto drop_section = [&](const SerializationError&) {
    if (policy == ParsePolicy::kStrict) throw;
    if (stats != nullptr) ++stats->sections_dropped;
    obs::counter("ingest.sections_dropped").inc();
  };
  for (const SectionEntry& entry : table) {
    Cursor c = section_cursor(bytes.subspan(entry.offset, entry.size),
                              entry.offset, section_name(entry.id));
    try {
      switch (entry.id) {
        case kSectionPeriodic:
          read_periodic(c, models, policy, stats);
          break;
        case kSectionPfsm: {
          // A half-parsed PFSM (states added, then a bad transition) must
          // not leak into the result; parse into a scratch set and commit
          // whole.
          BehaviorModelSet scratch;
          read_pfsm(c, scratch);
          models.pfsm = std::move(scratch.pfsm);
          pfsm_loaded = true;
          break;
        }
        case kSectionThresholds:
          read_thresholds(c, models);
          break;
        case kSectionTraces:
          read_traces(c, models);
          break;
        case kSectionForests:
          read_forests(c, models);
          break;
        default:
          // Unknown section from a newer minor revision: skip its bytes.
          break;
      }
    } catch (const SerializationError& e) {
      drop_section(e);
    }
  }
  if (pfsm_loaded) models.pfsm.finalize();
  return models;
}

BehaviorModelSet load_models_binary_file(const std::string& path,
                                         ParsePolicy policy,
                                         ParseStats* stats) {
  // One read of the whole image; the loader then walks it in place. The
  // buffer is sized from the filesystem, not tellg(): tellg returns -1 on
  // failure and an absurd value for non-regular files (a directory passed
  // as a model path), either of which would size the allocation at garbage
  // and surface as bad_alloc instead of a typed error.
  std::ifstream file(path, std::ios::binary);
  if (!file) throw SerializationError("cannot open for read: " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw SerializationError("not a readable model file: " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 && !file.read(reinterpret_cast<char*>(bytes.data()),
                             static_cast<std::streamsize>(size))) {
    throw SerializationError("read failed: " + path);
  }
  try {
    return load_models_binary(bytes, policy, stats);
  } catch (const SerializationError& e) {
    throw e.in_file(path);
  }
}

bool is_binary_model_path(const std::string& path) {
  static constexpr char kExt[] = ".bbm";
  if (path.size() < 4) return false;
  for (std::size_t i = 0; i < 4; ++i) {
    const char c = path[path.size() - 4 + i];
    if (std::tolower(static_cast<unsigned char>(c)) != kExt[i]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Zero-copy view.

double PeriodicModelView::secondary_period(std::size_t i) const {
  std::uint64_t bits = 0;
  const std::uint8_t* p = secondary_period_bytes + i * sizeof(double);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&bits, p, sizeof(bits));
  } else {
    for (int k = 0; k < 8; ++k) {
      bits |= std::uint64_t{p[k]} << (8 * k);
    }
  }
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

PeriodicModel PeriodicModelView::materialize() const {
  PeriodicModel m;
  m.device = device;
  m.app = app;
  m.support = static_cast<std::size_t>(support);
  m.absent_generations = static_cast<std::size_t>(absent_generations);
  m.period_seconds = period_seconds;
  m.tolerance_seconds = tolerance_seconds;
  m.autocorr_score = autocorr_score;
  m.domain.assign(domain);
  m.group.assign(group);
  m.secondary_periods.resize(secondary_period_count);
  if constexpr (std::endian::native == std::endian::little) {
    if (secondary_period_count > 0) {
      std::memcpy(m.secondary_periods.data(), secondary_period_bytes,
                  secondary_period_count * sizeof(double));
    }
  } else {
    for (std::size_t i = 0; i < secondary_period_count; ++i) {
      m.secondary_periods[i] = secondary_period(i);
    }
  }
  return m;
}

BinaryModelView BinaryModelView::open(std::span<const std::uint8_t> bytes) {
  const ImageLayout layout = parse_layout(bytes);
  if (!layout.crc_ok) throw_crc_mismatch(layout);
  BinaryModelView view;
  view.image_ = bytes;
  view.sections_.reserve(layout.sections.size());
  for (const SectionEntry& entry : layout.sections) {
    view.sections_.push_back({entry.id, entry.offset, entry.size});
  }
  return view;
}

const BinaryModelView::Section* BinaryModelView::find_section(
    std::uint32_t id) const {
  for (const Section& s : sections_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

bool BinaryModelView::has_section(std::uint32_t id) const {
  return find_section(id) != nullptr;
}

std::vector<PeriodicModelView> BinaryModelView::periodic() const {
  const Section* s = find_section(kSectionPeriodic);
  if (s == nullptr) return {};
  Cursor c = section_cursor(image_.subspan(s->offset, s->size), s->offset,
                            "periodic");
  const std::size_t n = c.count("periodic model count", 61);
  std::vector<PeriodicModelView> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(read_periodic_model_view(c));
  }
  if (!c.at_end()) c.fail("trailing bytes after periodic models");
  return out;
}

std::size_t BinaryModelView::periodic_count() const {
  const Section* s = find_section(kSectionPeriodic);
  if (s == nullptr) return 0;
  Cursor c = section_cursor(image_.subspan(s->offset, s->size), s->offset,
                            "periodic");
  return c.count("periodic model count", 61);
}

}  // namespace behaviot
