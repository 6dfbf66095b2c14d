// Shared machinery for the repo's section-tabled binary image formats.
//
// Two on-disk formats use the exact same envelope — the `.bbm` model store
// (core/serialize_binary.hpp) and the `.bbc` watch checkpoint
// (core/checkpoint.hpp):
//
//   offset  size  field
//   0       4     format magic (u32 LE)
//   4       2     format version (u16 LE)
//   6       2     flags (reserved, must be 0)
//   8       4     section count (u32 LE)
//   12      16*n  section table: {id u32, reserved u32 = 0, size u64}
//   ...           section payloads, in table order, back to back
//   end-4   4     CRC32 (IEEE 802.3) over every byte before it
//
// This header factors the envelope out once: little-endian writer
// primitives, the bounds-checked section Cursor (absolute byte offsets in
// every SerializationError, counts capped against remaining section bytes
// before any allocation), structural layout validation, and image assembly.
// Each format supplies an ImageFormat{magic, version, tag, name}; the tag
// prefixes every error ("bbm: ...", "bbc: ...") so a damaged file names its
// own format.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "behaviot/core/serialize.hpp"

namespace behaviot {

/// CRC32 (IEEE 802.3, reflected, init/final 0xffffffff) — the trailer
/// checksum of every section-tabled image, exposed for tests and external
/// validators.
[[nodiscard]] std::uint32_t crc32_ieee(std::span<const std::uint8_t> bytes);

namespace binio {

inline constexpr std::size_t kHeaderSize = 12;  ///< magic + ver + flags + n
inline constexpr std::size_t kSectionEntrySize = 16;  ///< id + reserved + size
inline constexpr std::size_t kCrcSize = 4;

/// Identity of one image format: magic word, the single supported version,
/// the error-message tag ("bbm") and a human-readable name for the
/// bad-magic message ("binary model").
struct ImageFormat {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  const char* tag = "?";
  const char* name = "?";
};

[[nodiscard]] inline std::span<const std::uint8_t> as_bytes(
    const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// ---------------------------------------------------------------------------
// Writer: append little-endian primitives to a byte buffer. Doubles are raw
// IEEE-754 binary64 — every platform this repo targets is little-endian
// IEEE; the formats pin that so images are portable across the fleet.

void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_i32(std::string& out, std::int32_t v);
void put_i64(std::string& out, std::int64_t v);
void put_f64(std::string& out, double v);

/// Raw POD array: one length-free memcpy (the element count is always
/// written separately by the caller).
void put_f64_array(std::string& out, std::span<const double> values);

void put_str(std::string& out, std::string_view s);

// ---------------------------------------------------------------------------
// Reader: a bounds-checked cursor over one section of a loaded image.
// Every accessor throws SerializationError with the absolute file offset of
// the damage; counts are capped against the bytes remaining in the section
// before any allocation sized by them.

class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> bytes, std::size_t file_offset,
         const char* section, const char* tag)
      : bytes_(bytes), file_offset_(file_offset), section_(section),
        tag_(tag) {}

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t offset() const { return file_offset_ + pos_; }

  std::uint8_t u8(const char* what);
  std::uint16_t u16(const char* what);
  std::uint32_t u32(const char* what);
  std::uint64_t u64(const char* what);
  std::int32_t i32(const char* what);
  std::int64_t i64(const char* what);
  double f64(const char* what);

  /// Element count for a loop/reserve: each element occupies at least
  /// `min_element_bytes` of the section, so a count exceeding the remaining
  /// bytes is structural corruption — rejected before it can size an
  /// allocation (a count of 2^64-1 never reaches reserve()).
  std::size_t count(const char* what, std::size_t min_element_bytes);

  /// Borrowed string: length-prefix check, then a view into the image.
  std::string_view str_view(const char* what);
  std::string str(const char* what) { return std::string(str_view(what)); }

  /// Zero-copy POD array read: one memcpy from the image into `out`.
  void f64_array(std::vector<double>& out, std::size_t n, const char* what);

  /// Fully zero-copy variant: bounds-checks and skips `n` doubles, returning
  /// a pointer to their (unaligned) bytes in the image.
  const std::uint8_t* f64_array_bytes(std::size_t n, const char* what);

  [[noreturn]] void fail(const std::string& why) const {
    fail_at(offset(), why);
  }
  /// fail() at an absolute file offset already passed.
  [[noreturn]] void fail_at(std::size_t at, const std::string& why) const;

 private:
  void need(std::size_t n, const char* what);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::size_t file_offset_;
  const char* section_;
  const char* tag_;
};

struct SectionEntry {
  std::uint32_t id = 0;
  std::size_t offset = 0;  ///< absolute offset of the payload in the image
  std::size_t size = 0;
};

/// Everything structural about an image, validated: header fields, section
/// table, size accounting, CRC trailer. Structural damage always throws
/// regardless of parse policy; the CRC verdict is returned instead of
/// enforced so each caller (strict load, lenient load, zero-copy view) can
/// apply its own policy to payload integrity.
struct ImageLayout {
  std::vector<SectionEntry> sections;
  std::size_t payload_end = 0;
  bool crc_ok = false;
  std::uint32_t stored_crc = 0;
  std::uint32_t computed_crc = 0;
};

ImageLayout parse_layout(std::span<const std::uint8_t> bytes,
                         const ImageFormat& fmt);

[[noreturn]] void throw_crc_mismatch(const ImageLayout& layout,
                                     const ImageFormat& fmt);

/// Assembles a complete image — header, section table, payloads in order,
/// CRC trailer — from (id, payload) pairs.
[[nodiscard]] std::string build_image(
    const ImageFormat& fmt,
    std::span<const std::pair<std::uint32_t, std::string>> sections);

}  // namespace binio
}  // namespace behaviot
