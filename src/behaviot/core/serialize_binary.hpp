// Versioned binary behavior-model format (`.bbm`) — the one format every
// model load reads (the text dump in core/serialize.hpp is write-only).
//
// Motivation (ROADMAP "fleet scale"): a fleet of N homes sharing a model
// store loads models homes × retrain-generations times. The format is laid
// out so a load is one read plus an in-place pointer walk: POD arrays
// (secondary periods, tree node distributions) are copied with a single
// memcpy each, strings need exactly one pass, and no tokenizer runs.
//
// Layout (all integers little-endian, doubles raw IEEE-754 binary64 LE):
//
//   offset  size  field
//   0       4     magic "BBM1"
//   4       2     format version (currently 1)
//   6       2     flags (reserved, must be 0)
//   8       4     section count (u32)
//   12      16*n  section table: {id u32, reserved u32 = 0, size u64}
//   ...           section payloads, in table order, back to back
//   end-4   4     CRC32 (IEEE 802.3) over every byte before it
//
// Sections (unknown ids are skipped — forward compatibility within a major
// version; their bytes are still covered by the CRC):
//
//   1 periodic    u64 count; per model: u32 device, u8 app, u64 support,
//                 u64 absent_generations, f64 period, f64 tolerance,
//                 f64 autocorr, str domain, str group,
//                 u64 n_secondary + raw f64[n_secondary]
//   2 pfsm        u64 num_states; str label per state >= 2;
//                 u64 n_transitions; per edge: u32 from, u32 to, u64 count
//   3 thresholds  f64 periodic, f64 long_term_z, f64 short_term mean,
//                 f64 sigma, f64 n_sigma
//   4 traces      u64 n_traces; per trace: u64 len + str per label
//   5 forests     f64 decision_threshold; u64 n_devices; per device:
//                 u32 device, u64 n_classifiers; per classifier:
//                 str activity, u32 num_classes, u64 n_trees; per tree:
//                 u64 n_nodes; per node: i32 feature, f64 threshold,
//                 i32 left, i32 right, u64 dist_len + raw f64[dist_len]
//
// Forest invariants (enforced on load — classify walks trees with no
// bounds checks): num_classes >= 2; a leaf is exactly {feature == -1,
// left == right == -1, dist_len == num_classes}; an internal node has
// 0 <= feature < kNumFlowFeatures and both children strictly greater than
// its own index and < n_nodes (the trainer lays children out after their
// parent, so forward-only edges also rule out cycles).
//
// `str` is u32 length + raw bytes. The forests section exists only here:
// the text dump omits user-action forests, while the binary store carries
// the full model set a fleet shares.
//
// Parse policy (DESIGN.md §5c/§5i): the header (magic, version, flags,
// section table, structural sizes) must always parse — failing there throws
// SerializationError in either policy, with the absolute byte offset of the
// damage. After the header, kStrict throws at the first malformed section;
// kLenient drops the damaged section (counted in stats->sections_dropped)
// and uses the section table to continue with the next section. Every
// count is capped against the bytes remaining in its section before any
// reserve(), so a corrupt count can never drive an allocation larger than
// the input.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "behaviot/core/model_set.hpp"
#include "behaviot/core/serialize.hpp"
#include "behaviot/net/parse_policy.hpp"

namespace behaviot {

inline constexpr std::uint16_t kBinaryModelFormatVersion = 1;
/// "BBM1" when read as little-endian u32.
inline constexpr std::uint32_t kBinaryModelMagic = 0x314d4242u;

/// Section ids of format version 1 (see the layout comment above).
inline constexpr std::uint32_t kSectionPeriodic = 1;
inline constexpr std::uint32_t kSectionPfsm = 2;
inline constexpr std::uint32_t kSectionThresholds = 3;
inline constexpr std::uint32_t kSectionTraces = 4;
inline constexpr std::uint32_t kSectionForests = 5;

/// CRC32 (IEEE 802.3, reflected, init/final 0xffffffff) — the trailer
/// checksum of the .bbm format, exposed for tests and external validators.
[[nodiscard]] std::uint32_t crc32_ieee(std::span<const std::uint8_t> bytes);

/// Serializes the full model set — periodic models (incl.
/// absent_generations), user-action forests, PFSM, thresholds, training
/// traces — to the binary format.
[[nodiscard]] std::string save_models_binary(const BehaviorModelSet& models);
/// Writes the image to `path` atomically (temp file + rename), so a crash
/// mid-write leaves the previous file whole.
void save_models_binary_file(const std::string& path,
                             const BehaviorModelSet& models);

/// Deserializes a binary model set from an in-memory image (the whole file,
/// read in one shot — the zero-copy walk needs random access for the
/// section table and CRC). See the header comment for policy semantics.
BehaviorModelSet load_models_binary(std::span<const std::uint8_t> bytes,
                                    ParsePolicy policy = ParsePolicy::kStrict,
                                    ParseStats* stats = nullptr);
/// Reads `path` whole and loads it; every SerializationError names the path.
BehaviorModelSet load_models_binary_file(
    const std::string& path, ParsePolicy policy = ParsePolicy::kStrict,
    ParseStats* stats = nullptr);

/// True when `path` names a binary model file by extension (".bbm",
/// case-insensitive) — the rule save_models_file uses to choose between
/// the binary format and the text dump.
[[nodiscard]] bool is_binary_model_path(const std::string& path);

/// One periodic model decoded in place from a .bbm image: scalars by value,
/// strings as views into the image. Valid only while the image bytes
/// outlive it — a borrowed record, not an owning PeriodicModel.
struct PeriodicModelView {
  DeviceId device = kUnknownDevice;
  AppProtocol app = AppProtocol::kOtherTcp;
  std::uint64_t support = 0;
  std::uint64_t absent_generations = 0;
  double period_seconds = 0.0;
  double tolerance_seconds = 0.0;
  double autocorr_score = 0.0;
  std::string_view domain;
  std::string_view group;
  /// Secondary periods stay in the image (where they are unaligned, so a
  /// span<const double> would be UB); decode one on demand.
  std::size_t secondary_period_count = 0;
  const std::uint8_t* secondary_period_bytes = nullptr;

  [[nodiscard]] double secondary_period(std::size_t i) const;

  /// Owning copy, for callers that keep a record past the image's lifetime.
  [[nodiscard]] PeriodicModel materialize() const;
};

/// The thresholds section decoded by value (it is all scalars).
struct ThresholdsView {
  double periodic = 0.0;
  double long_term_z = 0.0;
  double short_term_mean = 0.0;
  double short_term_sigma = 0.0;
  double short_term_n_sigma = 0.0;
};

/// Zero-copy accessor over a .bbm image — the "one read + in-place pointer
/// walk" load the format is laid out for. open() validates everything
/// structural (header, section table, size accounting, CRC trailer) and
/// throws SerializationError with a byte offset on any damage; there is no
/// lenient mode here — salvage belongs to load_models_binary. After open(),
/// accessors decode fields straight out of the borrowed image with no
/// per-model allocation, so a fleet store can scan thousands of model files
/// without materializing them. The image must outlive the view and every
/// PeriodicModelView obtained from it.
class BinaryModelView {
 public:
  struct Section {
    std::uint32_t id = 0;
    std::size_t offset = 0;  ///< absolute payload offset in the image
    std::size_t size = 0;
  };

  static BinaryModelView open(std::span<const std::uint8_t> bytes);

  /// Decodes every periodic model in place: one allocation for the returned
  /// vector, zero per model.
  [[nodiscard]] std::vector<PeriodicModelView> periodic() const;

  [[nodiscard]] std::size_t periodic_count() const;
  [[nodiscard]] std::optional<ThresholdsView> thresholds() const;
  [[nodiscard]] bool has_section(std::uint32_t id) const;
  [[nodiscard]] const std::vector<Section>& sections() const {
    return sections_;
  }

 private:
  BinaryModelView() = default;

  [[nodiscard]] const Section* find_section(std::uint32_t id) const;

  std::span<const std::uint8_t> image_;
  std::vector<Section> sections_;
};

}  // namespace behaviot
