// Model-file API (core/serialize.hpp): save_models_file writes a `.bbm`
// image or the text dump by extension, and load_models_file_reporting — the
// load behind every --models flag — reads `.bbm` only, names the file in
// its errors and warns when a lenient load drops sections. Byte-level
// format checks live in test_serialize_binary.cpp.
#include "behaviot/core/serialize.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/pfsm/synoptic.hpp"

namespace behaviot {
namespace {

BehaviorModelSet small_models() {
  BehaviorModelSet models;

  std::vector<PeriodicModel> periodic;
  PeriodicModel hb;
  hb.device = 3;
  hb.group = "hb.vendor.com|TLS";
  hb.domain = "hb.vendor.com";
  hb.app = AppProtocol::kTls;
  hb.period_seconds = 600.125;
  hb.tolerance_seconds = 12.5;
  hb.autocorr_score = 0.93;
  hb.support = 144;
  hb.secondary_periods = {3600.0};
  periodic.push_back(hb);
  PeriodicModel unnamed;
  unnamed.device = 4;
  unnamed.group = "54.1.2.3|UDP";
  unnamed.domain = "";  // blank destination (the paper's unresolved case)
  unnamed.app = AppProtocol::kOtherUdp;
  unnamed.period_seconds = 236.0;
  unnamed.tolerance_seconds = 3.0;
  unnamed.support = 10;
  periodic.push_back(unnamed);
  models.periodic = PeriodicModelSet::from_models(periodic);

  const std::vector<std::vector<std::string>> traces{
      {"cam:motion", "bulb:on"}, {"plug:on_off", "plug:on_off"}};
  models.pfsm = infer_pfsm(traces).pfsm;
  models.training_traces = traces;
  models.short_term = ShortTermThreshold::calibrate(models.pfsm, traces);
  models.thresholds.short_term = models.short_term.value();
  return models;
}

/// A path of this process's own: ctest runs each test as a process, maybe
/// next to another build's.
std::string scratch_path(const std::string& name) {
  return ::testing::TempDir() + "/behaviot_serialize_" +
         std::to_string(::getpid()) + "_" + name;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Saves through save_models_file and reads back through the --models load.
BehaviorModelSet round_trip(const BehaviorModelSet& models,
                            const std::string& name) {
  const std::string path = scratch_path(name);
  save_models_file(path, models);
  BehaviorModelSet loaded =
      load_models_file_reporting(path, ParsePolicy::kStrict);
  std::filesystem::remove(path);
  return loaded;
}

/// End offset of section `index` of a .bbm image (sections are written in
/// fixed order: periodic, pfsm, thresholds, traces, forests).
std::size_t section_end(const std::string& image, std::size_t index) {
  const auto u64at = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      v |= std::uint64_t{static_cast<std::uint8_t>(image[at + b])} << (8 * b);
    }
    return static_cast<std::size_t>(v);
  };
  std::size_t end = 12 + 5 * 16;
  for (std::size_t i = 0; i <= index; ++i) end += u64at(12 + i * 16 + 8);
  return end;
}

void put_u32_at(std::string& image, std::size_t at, std::uint32_t v) {
  for (std::size_t b = 0; b < 4; ++b) {
    image[at + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
}

/// Rewrites the CRC trailer so a patched image fails only where patched.
void fix_crc(std::string& image) {
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(image.data()), image.size() - 4);
  put_u32_at(image, image.size() - 4, crc32_ieee(bytes));
}

/// The image of small_models() with a traces count (the first u64 of
/// section 4) no input this size could back.
std::string image_with_oversized_trace_count() {
  std::string image = save_models_binary(small_models());
  put_u32_at(image, section_end(image, 2), 400000000);
  fix_crc(image);
  return image;
}

/// Loads `path` under `policy`, expecting a SerializationError that names
/// the file; returns its offset.
std::size_t load_error_offset(const std::string& path, ParsePolicy policy) {
  try {
    (void)load_models_file_reporting(path, policy);
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
    return e.offset();
  }
  ADD_FAILURE() << "expected SerializationError loading " << path;
  return SerializationError::kNoOffset;
}

TEST(Serialize, RoundTripPreservesPeriodicModels) {
  const BehaviorModelSet original = small_models();
  const BehaviorModelSet loaded = round_trip(original, "periodic.bbm");

  ASSERT_EQ(loaded.periodic.size(), original.periodic.size());
  const PeriodicModel* hb = loaded.periodic.find(3, "hb.vendor.com|TLS");
  ASSERT_NE(hb, nullptr);
  EXPECT_DOUBLE_EQ(hb->period_seconds, 600.125);
  EXPECT_DOUBLE_EQ(hb->tolerance_seconds, 12.5);
  EXPECT_DOUBLE_EQ(hb->autocorr_score, 0.93);
  EXPECT_EQ(hb->support, 144u);
  EXPECT_EQ(hb->app, AppProtocol::kTls);
  ASSERT_EQ(hb->secondary_periods.size(), 1u);
  EXPECT_DOUBLE_EQ(hb->secondary_periods[0], 3600.0);

  const PeriodicModel* unnamed = loaded.periodic.find(4, "54.1.2.3|UDP");
  ASSERT_NE(unnamed, nullptr);
  EXPECT_TRUE(unnamed->domain.empty());
}

TEST(Serialize, RoundTripPreservesPfsmBehavior) {
  const BehaviorModelSet original = small_models();
  const BehaviorModelSet loaded = round_trip(original, "pfsm.bbm");

  EXPECT_EQ(loaded.pfsm.num_states(), original.pfsm.num_states());
  EXPECT_EQ(loaded.pfsm.num_transitions(), original.pfsm.num_transitions());
  for (const auto& trace : original.training_traces) {
    EXPECT_TRUE(loaded.pfsm.accepts(trace));
    EXPECT_DOUBLE_EQ(loaded.pfsm.trace_probability(trace),
                     original.pfsm.trace_probability(trace));
  }
}

TEST(Serialize, RoundTripPreservesThresholds) {
  const BehaviorModelSet original = small_models();
  const BehaviorModelSet loaded = round_trip(original, "thresholds.bbm");
  EXPECT_DOUBLE_EQ(loaded.short_term.value(), original.short_term.value());
  EXPECT_DOUBLE_EQ(loaded.thresholds.periodic, original.thresholds.periodic);
  EXPECT_DOUBLE_EQ(loaded.thresholds.long_term_z,
                   original.thresholds.long_term_z);
}

TEST(Serialize, FileRoundTrip) {
  // The extension picks what save_models_file writes: the .bbm image, or
  // the text dump. Reloading the .bbm and saving again reproduces it.
  const BehaviorModelSet models = small_models();
  const std::string bbm = scratch_path("file.bbm");
  const std::string txt = scratch_path("file.txt");
  const std::string again = scratch_path("again.bbm");
  save_models_file(bbm, models);
  save_models_file(txt, models);
  EXPECT_EQ(read_bytes(bbm), save_models_binary(models));
  std::ostringstream dump;
  save_models(dump, models);
  EXPECT_EQ(read_bytes(txt), dump.str());

  save_models_file(again,
                   load_models_file_reporting(bbm, ParsePolicy::kStrict));
  EXPECT_EQ(read_bytes(again), read_bytes(bbm));
  for (const auto& p : {bbm, txt, again}) std::filesystem::remove(p);
}

TEST(Serialize, RejectsBadMagic) {
  // What `train --out models.txt` writes is a dump nothing loads back:
  // either policy refuses it at byte 0, naming the file.
  const std::string path = scratch_path("dump.txt");
  save_models_file(path, small_models());
  EXPECT_EQ(load_error_offset(path, ParsePolicy::kStrict), 0u);
  EXPECT_EQ(load_error_offset(path, ParsePolicy::kLenient), 0u);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsWrongVersion) {
  std::string image = save_models_binary(small_models());
  image[4] = 2;  // format version 2
  const std::string path = scratch_path("v2.bbm");
  write_bytes(path, image);
  EXPECT_EQ(load_error_offset(path, ParsePolicy::kStrict), 4u);
  EXPECT_EQ(load_error_offset(path, ParsePolicy::kLenient), 4u);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsTruncatedInput) {
  std::string image = save_models_binary(small_models());
  image.resize(image.size() / 2);
  const std::string path = scratch_path("half.bbm");
  write_bytes(path, image);
  EXPECT_LE(load_error_offset(path, ParsePolicy::kStrict), image.size());
  EXPECT_LE(load_error_offset(path, ParsePolicy::kLenient), image.size());
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsDanglingTransition) {
  // Point the last PFSM edge ({u32 from, u32 to, u64 count}) at state 99,
  // CRC intact: strict refuses the file, lenient drops the PFSM only.
  std::string image = save_models_binary(small_models());
  const std::size_t to_at = section_end(image, 1) - 12;
  put_u32_at(image, to_at, 99);
  fix_crc(image);
  const std::string path = scratch_path("dangling.bbm");
  write_bytes(path, image);

  const std::size_t at = load_error_offset(path, ParsePolicy::kStrict);
  EXPECT_GT(at, to_at);
  EXPECT_LE(at, section_end(image, 1));
  ::testing::internal::CaptureStderr();
  const BehaviorModelSet loaded =
      load_models_file_reporting(path, ParsePolicy::kLenient);
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(loaded.pfsm.num_transitions(), 0u);
  EXPECT_EQ(loaded.periodic.size(), 2u);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrows) {
  const std::string path = "/nonexistent/behaviot.bbm";
  EXPECT_EQ(load_error_offset(path, ParsePolicy::kStrict),
            SerializationError::kNoOffset);
}

TEST(Serialize, RejectsOversizedCount) {
  // A count no remaining input could back is refused at the count, before
  // any allocation sized by it.
  const std::string image = image_with_oversized_trace_count();
  const std::string path = scratch_path("oversized.bbm");
  write_bytes(path, image);
  EXPECT_EQ(load_error_offset(path, ParsePolicy::kStrict),
            section_end(image, 2));
  std::filesystem::remove(path);
}

TEST(Serialize, LenientLoadRecoversCompletedSections) {
  // Under kLenient the damaged traces section is dropped, every other
  // section survives, and the --models load says so on stderr.
  const BehaviorModelSet original = small_models();
  const std::string path = scratch_path("damaged.bbm");
  write_bytes(path, image_with_oversized_trace_count());

  ::testing::internal::CaptureStderr();
  const BehaviorModelSet loaded =
      load_models_file_reporting(path, ParsePolicy::kLenient);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find(path + " is damaged — 1 model section(s) dropped"),
            std::string::npos)
      << warning;
  EXPECT_EQ(loaded.periodic.size(), original.periodic.size());
  EXPECT_EQ(loaded.pfsm.num_states(), original.pfsm.num_states());
  EXPECT_DOUBLE_EQ(loaded.thresholds.periodic, original.thresholds.periodic);
  EXPECT_TRUE(loaded.training_traces.empty());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace behaviot
