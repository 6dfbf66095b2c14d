// Behavior-model serialization (§7.2: "models based on lab experiments can
// be pushed into home-network-based deployments").
//
// A line-oriented text format: human-diffable, versioned, and stable across
// platforms (all floating-point values round-trip via hexfloat). Covers the
// periodic models (with their timer state-free parameters) and the PFSM +
// thresholds. Random-Forest user-action models serialize tree-by-tree.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "behaviot/core/model_set.hpp"
#include "behaviot/net/parse_policy.hpp"

namespace behaviot {

/// Raised on malformed or version-incompatible input. The binary loader
/// (core/serialize_binary.hpp) reports the absolute byte offset of the
/// damage; the token-oriented text loader has no byte positions and leaves
/// it at kNoOffset.
class SerializationError : public std::runtime_error {
 public:
  static constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

  using std::runtime_error::runtime_error;
  SerializationError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}

  /// Byte offset of the malformation, or kNoOffset when unknown.
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_ = kNoOffset;
};

inline constexpr int kModelFormatVersion = 1;

/// Writes the full model set (periodic models, PFSM, thresholds, training
/// traces). User-action forests are *not* included — they are retrained
/// from labeled data and dominate size; see the discussion in DESIGN.md.
/// All formatting is locale-independent (to_chars + a classic-imbued
/// stream), so an embedding app that sets a comma-decimal global locale
/// still writes and reads byte-identical model files.
void save_models(std::ostream& os, const BehaviorModelSet& models);
/// Dispatches on extension: a ".bbm" path is written in the binary format
/// (core/serialize_binary.hpp, which does carry user-action forests); any
/// other path gets the text format.
void save_models_file(const std::string& path,
                      const BehaviorModelSet& models);

/// Reads a model set previously written by save_models. The periodic
/// cluster stage is not serialized (it is a cache over training features);
/// loaded models classify via timers, which the paper's timer-first design
/// makes the dominant path.
///
/// The header (magic + version) must always parse — a file that fails there
/// is not a model file and throws SerializationError in either policy.
/// After the header, kStrict (the default) throws SerializationError at the
/// first malformed token; kLenient stops at the damage instead, returning
/// every fully parsed entry up to that point and counting the abandonment
/// in `stats->sections_dropped`. Counts are validated (digits only, capped
/// against the remaining input size) so corrupt files fail cleanly instead
/// of driving huge reserve() allocations.
BehaviorModelSet load_models(std::istream& is,
                             ParsePolicy policy = ParsePolicy::kStrict,
                             ParseStats* stats = nullptr);
/// Dispatches on extension like save_models_file: ".bbm" loads binary,
/// anything else loads text.
BehaviorModelSet load_models_file(const std::string& path,
                                  ParsePolicy policy = ParsePolicy::kStrict,
                                  ParseStats* stats = nullptr);
/// load_models_file plus a one-line warning on stderr when a lenient load
/// had to drop damaged sections — the load behind every --models flag.
BehaviorModelSet load_models_file_reporting(const std::string& path,
                                            ParsePolicy policy);

}  // namespace behaviot
