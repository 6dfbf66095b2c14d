// Behavior-model serialization (§7.2: "models based on lab experiments can
// be pushed into home-network-based deployments").
//
// Models are stored and loaded in the binary `.bbm` format
// (core/serialize_binary.hpp), the only format on the load path. This
// header adds the file-level entry points and a line-oriented text dump:
// human-diffable and stable across platforms (every floating-point value
// is written as hexfloat), for reviewing a model set and for the golden
// byte-compare. The dump is write-only — nothing parses it back — and it
// omits the user-action forests, which only `.bbm` carries.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "behaviot/core/model_set.hpp"
#include "behaviot/net/parse_policy.hpp"

namespace behaviot {

/// Raised on malformed or version-incompatible input. The binary loaders
/// report the absolute byte offset of the damage; errors with no position
/// (a file that cannot be opened) leave it at kNoOffset.
class SerializationError : public std::runtime_error {
 public:
  static constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

  using std::runtime_error::runtime_error;
  SerializationError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}

  /// Byte offset of the malformation, or kNoOffset when unknown.
  [[nodiscard]] std::size_t offset() const { return offset_; }

  /// The same error with `path` prefixed to its message, offset kept.
  [[nodiscard]] SerializationError in_file(const std::string& path) const {
    SerializationError e(path + ": " + what());
    e.offset_ = offset_;
    return e;
  }

 private:
  std::size_t offset_ = kNoOffset;
};

inline constexpr int kModelFormatVersion = 1;

/// Writes the text dump of a model set (periodic models, PFSM, thresholds,
/// training traces). User-action forests are *not* included — see the
/// discussion in DESIGN.md. All formatting is locale-independent (to_chars
/// + a classic-imbued stream), so an embedding app that sets a
/// comma-decimal global locale still writes byte-identical dumps.
void save_models(std::ostream& os, const BehaviorModelSet& models);
/// Dispatches on extension: a ".bbm" path gets the binary format through
/// save_models_binary_file; any other path gets the text dump. Either way
/// the target is replaced atomically.
void save_models_file(const std::string& path,
                      const BehaviorModelSet& models);

/// load_models_binary_file plus a one-line warning on stderr when a lenient
/// load had to drop damaged sections — the load behind every --models flag.
BehaviorModelSet load_models_file_reporting(const std::string& path,
                                            ParsePolicy policy);

}  // namespace behaviot
