// Essential / non-essential destination lists (§6.1), modeled on the IoTrim
// study [49]: a destination is non-essential when blocking it does not
// impair device functionality.
#pragma once

#include <set>
#include <string>
#include <string_view>

namespace behaviot {

enum class Essentiality : std::uint8_t { kEssential, kNonEssential, kUnlisted };

[[nodiscard]] const char* to_string(Essentiality e);

class EssentialList {
 public:
  /// The list used for the §6.1 analysis: vendor-cloud control/primary-
  /// function endpoints are essential; telemetry, ads, trackers, and
  /// public-DNS detours are non-essential.
  static EssentialList standard();

  void add_essential(std::string suffix);
  void add_non_essential(std::string suffix);

  [[nodiscard]] Essentiality classify(std::string_view domain) const;

  [[nodiscard]] std::size_t essential_count() const {
    return essential_.size();
  }

 private:
  std::set<std::string> essential_;
  std::set<std::string> non_essential_;
};

}  // namespace behaviot
