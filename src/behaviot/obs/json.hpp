// Minimal JSON support shared by the observability exporters and the alert
// provenance reports: string escaping for the emitters, and a small
// recursive-descent parser for the consumers (`behaviot_cli explain` reads
// alert reports back; tests validate exporter output structurally).
//
// The parser accepts the subset this repo emits — objects, arrays, strings,
// finite numbers, booleans, null — and rejects everything else with a
// std::runtime_error carrying the byte offset. It is not a general-purpose
// JSON library: no streaming, no \uXXXX surrogate pairs beyond Latin-1, and
// documents are expected to fit in memory (reports and traces are bounded by
// construction).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace behaviot::obs::json {

/// Escapes `s` for embedding inside a JSON string literal. Control
/// characters and every byte >= 0x7f are emitted as \u00XX escapes, so the
/// output is always plain ASCII and valid regardless of the input encoding
/// (device names and domains in this repo are ASCII; arbitrary capture bytes
/// must not be able to corrupt a report).
[[nodiscard]] std::string escape(std::string_view s);

class Value;

using Array = std::vector<Value>;
/// Ordered map: deterministic iteration for re-serialization and tests.
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double n) : kind_(Kind::kNumber), num_(n) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  explicit Value(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::runtime_error on kind mismatch so malformed
  /// reports fail loudly instead of yielding default values.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Object member that must exist; throws naming the key otherwise.
  [[nodiscard]] const Value& at(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Throws std::runtime_error with a byte offset on malformation.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace behaviot::obs::json
