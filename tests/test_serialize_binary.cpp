// Binary model format (.bbm) suite: round trips (including user-action
// forests, which the text dump omits), golden-file compatibility, header
// and CRC validation with byte offsets, count caps, lenient section resync,
// extension dispatch, atomic file writes, and locale independence of the
// .bbm format and the text dump.
#include "behaviot/core/serialize_binary.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <clocale>
#include <filesystem>
#include <fstream>
#include <locale>
#include <sstream>

#include "behaviot/core/serialize.hpp"
#include "behaviot/flow/features.hpp"
#include "behaviot/periodic/periodic_classifier.hpp"
#include "behaviot/pfsm/synoptic.hpp"

namespace behaviot {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A model set exercising every binary section, including the absence count
/// and the forests (which the text dump leaves out).
BehaviorModelSet full_models() {
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
  hb.absent_generations = 2;
  hb.secondary_periods = {3600.0, 7200.5};
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

  // One split tree + one leaf tree: covers internal nodes, leaves, empty
  // and filled distribution arrays.
  std::vector<DecisionTree::Node> split_nodes;
  split_nodes.push_back({2, 417.25, 1, 2, {}});
  split_nodes.push_back({-1, 0.0, -1, -1, {0.9, 0.1}});
  split_nodes.push_back({-1, 0.0, -1, -1, {0.2, 0.8}});
  std::vector<DecisionTree> trees;
  trees.push_back(DecisionTree::from_nodes(2, std::move(split_nodes)));
  trees.push_back(DecisionTree::from_nodes(
      2, {DecisionTree::Node{-1, 0.0, -1, -1, {0.4, 0.6}}}));
  UserActionModels::ClassifierMap classifiers;
  classifiers[3].push_back(
      {"cam:motion", RandomForest::from_trees(2, std::move(trees))});
  models.user_actions =
      UserActionModels::from_classifiers(std::move(classifiers), 0.6);
  return models;
}

/// Rewrites the trailing CRC so a deliberately patched image stays
/// structurally valid — the test then probes the *section* parser.
void fix_crc(std::string& image) {
  const std::uint32_t crc =
      crc32_ieee(as_bytes(image).first(image.size() - 4));
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

TEST(SerializeBinary, RoundTripPreservesEverySection) {
  const BehaviorModelSet original = full_models();
  const std::string image = save_models_binary(original);
  const BehaviorModelSet loaded = load_models_binary(as_bytes(image));

  ASSERT_EQ(loaded.periodic.size(), original.periodic.size());
  const PeriodicModel* hb = loaded.periodic.find(3, "hb.vendor.com|TLS");
  ASSERT_NE(hb, nullptr);
  EXPECT_DOUBLE_EQ(hb->period_seconds, 600.125);
  EXPECT_DOUBLE_EQ(hb->tolerance_seconds, 12.5);
  EXPECT_DOUBLE_EQ(hb->autocorr_score, 0.93);
  EXPECT_EQ(hb->support, 144u);
  EXPECT_EQ(hb->absent_generations, 2u);
  EXPECT_EQ(hb->app, AppProtocol::kTls);
  ASSERT_EQ(hb->secondary_periods.size(), 2u);
  EXPECT_DOUBLE_EQ(hb->secondary_periods[1], 7200.5);
  const PeriodicModel* unnamed = loaded.periodic.find(4, "54.1.2.3|UDP");
  ASSERT_NE(unnamed, nullptr);
  EXPECT_TRUE(unnamed->domain.empty());

  EXPECT_EQ(loaded.pfsm.num_states(), original.pfsm.num_states());
  EXPECT_EQ(loaded.pfsm.num_transitions(), original.pfsm.num_transitions());
  for (const auto& trace : original.training_traces) {
    EXPECT_TRUE(loaded.pfsm.accepts(trace));
    EXPECT_DOUBLE_EQ(loaded.pfsm.trace_probability(trace),
                     original.pfsm.trace_probability(trace));
  }
  EXPECT_EQ(loaded.training_traces, original.training_traces);
  EXPECT_DOUBLE_EQ(loaded.short_term.value(), original.short_term.value());
  EXPECT_DOUBLE_EQ(loaded.thresholds.periodic, original.thresholds.periodic);
}

TEST(SerializeBinary, RoundTripPreservesForests) {
  // The discriminating property: the text format drops user-action forests,
  // the binary format must reproduce their exact decision function.
  const BehaviorModelSet original = full_models();
  const std::string image = save_models_binary(original);
  const BehaviorModelSet loaded = load_models_binary(as_bytes(image));

  ASSERT_EQ(loaded.user_actions.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.user_actions.decision_threshold(), 0.6);
  const auto& device_classifiers = loaded.user_actions.classifiers();
  ASSERT_EQ(device_classifiers.count(3), 1u);
  const auto& list = device_classifiers.at(3);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].activity, "cam:motion");
  const RandomForest& forest = list[0].forest;
  ASSERT_EQ(forest.num_trees(), 2u);
  const RandomForest& original_forest =
      original.user_actions.classifiers().at(3)[0].forest;
  for (const double x : {0.0, 400.0, 417.25, 500.0, 1500.0}) {
    const std::vector<double> row{0.0, 0.0, x, 0.0, 0.0, 0.0};
    const auto got = forest.predict_proba(row);
    const auto want = original_forest.predict_proba(row);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      EXPECT_DOUBLE_EQ(got[c], want[c]) << "x=" << x << " class " << c;
    }
  }
}

TEST(SerializeBinary, SaveLoadSaveIsByteIdentical) {
  const std::string image = save_models_binary(full_models());
  const BehaviorModelSet loaded = load_models_binary(as_bytes(image));
  EXPECT_EQ(save_models_binary(loaded), image);
}

TEST(SerializeBinary, TextToBinaryToTextReproducesGoldenByteIdentical) {
  // The acceptance property on the real trained artifact: golden_models.bbm
  // is the binary form of the golden text models, so dumping it reproduces
  // that text without a byte of drift (hexfloat doubles, absence trailers,
  // blank domains and all).
  const std::string image =
      read_file(std::string(BEHAVIOT_TEST_DATA_DIR) + "/golden_models.bbm");
  const BehaviorModelSet models =
      load_models_binary(as_bytes(image), ParsePolicy::kStrict);
  std::ostringstream out;
  save_models(out, models);
  EXPECT_EQ(out.str(), read_file(std::string(BEHAVIOT_TEST_DATA_DIR) +
                                 "/golden_periodic_models.txt"));
}

TEST(SerializeBinary, GoldenBbmLoadsAndResavesByteIdentical) {
  // Format-compatibility pin: the checked-in .bbm must parse with today's
  // loader and re-serialize byte-identically. A layout change that breaks
  // existing model stores fails here (and requires a version bump plus a
  // regenerated golden).
  const std::string golden_path =
      std::string(BEHAVIOT_TEST_DATA_DIR) + "/golden_models.bbm";
  const std::string image = read_file(golden_path);
  const BehaviorModelSet models =
      load_models_binary(as_bytes(image), ParsePolicy::kStrict);
  EXPECT_GT(models.periodic.size(), 0u);
  EXPECT_EQ(save_models_binary(models), image);
}

TEST(SerializeBinary, FileDispatchSelectsFormatByExtension) {
  EXPECT_TRUE(is_binary_model_path("models.bbm"));
  EXPECT_TRUE(is_binary_model_path("MODELS.BBM"));
  EXPECT_FALSE(is_binary_model_path("models.txt"));
  EXPECT_FALSE(is_binary_model_path("bbm"));

  const std::string dir = ::testing::TempDir();
  const BehaviorModelSet models = full_models();

  const std::string bin_path = dir + "/models.bbm";
  save_models_file(bin_path, models);
  const std::string on_disk = read_file(bin_path);
  ASSERT_GE(on_disk.size(), 4u);
  EXPECT_EQ(on_disk.substr(0, 4), "BBM1");
  const BehaviorModelSet from_bin = load_models_binary_file(bin_path);
  EXPECT_EQ(from_bin.user_actions.size(), 1u);  // binary carries forests

  // Any other extension gets the text dump, which is write-only.
  const std::string text_path = dir + "/models.txt";
  save_models_file(text_path, models);
  EXPECT_EQ(read_file(text_path).substr(0, 15), "behaviot-models");
  EXPECT_THROW(load_models_binary_file(text_path), SerializationError);

  std::filesystem::remove(bin_path);
  std::filesystem::remove(text_path);
}

TEST(SerializeBinary, RejectsBadMagicWithOffsetZero) {
  std::string image = save_models_binary(full_models());
  image[0] = 'X';
  try {
    load_models_binary(as_bytes(image));
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.offset(), 0u);
  }
  // Bad magic is not a model file at all: both policies throw.
  EXPECT_THROW(load_models_binary(as_bytes(image), ParsePolicy::kLenient),
               SerializationError);
}

TEST(SerializeBinary, RejectsUnsupportedVersionAndFlags) {
  std::string image = save_models_binary(full_models());
  std::string bumped = image;
  bumped[4] = 2;  // version 2
  try {
    load_models_binary(as_bytes(bumped));
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
  std::string flagged = image;
  flagged[6] = 1;  // reserved flags must be zero
  try {
    load_models_binary(as_bytes(flagged));
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.offset(), 6u);
  }
}

TEST(SerializeBinary, StrictRejectsFlippedCrcLenientCountsIt) {
  std::string image = save_models_binary(full_models());
  image.back() = static_cast<char>(image.back() ^ 0x40);
  try {
    load_models_binary(as_bytes(image), ParsePolicy::kStrict);
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.offset(), image.size() - 4);
  }
  ParseStats stats;
  const BehaviorModelSet loaded =
      load_models_binary(as_bytes(image), ParsePolicy::kLenient, &stats);
  EXPECT_EQ(stats.malformed, 1u);  // damage disclosed
  EXPECT_EQ(loaded.periodic.size(), 2u);  // payload bytes were intact
}

TEST(SerializeBinary, StrictRejectsFlippedPayloadByteViaCrc) {
  // A single flipped payload bit that still parses structurally is exactly
  // what the CRC exists for.
  std::string image = save_models_binary(full_models());
  image[image.size() / 2] = static_cast<char>(image[image.size() / 2] ^ 1);
  EXPECT_THROW(load_models_binary(as_bytes(image), ParsePolicy::kStrict),
               SerializationError);
}

TEST(SerializeBinary, TruncationAtEverySectionBoundaryThrowsWithOffset) {
  const std::string image = save_models_binary(full_models());
  // Recompute the section boundaries from the table the image itself
  // declares (header is 12 bytes, entries 16, size at entry offset +8).
  const auto u32at = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= std::uint32_t{static_cast<std::uint8_t>(
               image[at + static_cast<std::size_t>(i)])}
           << (8 * i);
    }
    return v;
  };
  const std::uint32_t n_sections = u32at(8);
  ASSERT_EQ(n_sections, 5u);
  std::vector<std::size_t> boundaries;
  std::size_t offset = 12 + static_cast<std::size_t>(n_sections) * 16;
  boundaries.push_back(offset);
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    std::uint64_t size = 0;
    const std::size_t at = 12 + static_cast<std::size_t>(i) * 16 + 8;
    for (int b = 0; b < 8; ++b) {
      size |= std::uint64_t{static_cast<std::uint8_t>(
                  image[at + static_cast<std::size_t>(b)])}
              << (8 * b);
    }
    offset += static_cast<std::size_t>(size);
    boundaries.push_back(offset);
  }
  EXPECT_EQ(boundaries.back() + 4, image.size());

  for (const std::size_t cut : boundaries) {
    const auto prefix = as_bytes(image).first(cut);
    for (const ParsePolicy policy :
         {ParsePolicy::kStrict, ParsePolicy::kLenient}) {
      try {
        // Structural damage (sizes no longer fit) throws in both policies.
        load_models_binary(prefix, policy);
        FAIL() << "expected SerializationError at boundary " << cut;
      } catch (const SerializationError& e) {
        EXPECT_LE(e.offset(), cut + 1) << "boundary " << cut;
      }
    }
  }
}

TEST(SerializeBinary, OversizedCountRejectedBeforeAllocation) {
  // Patch the periodic section's model count to a value no section could
  // hold, fix the CRC so only the count is wrong: strict throws at the
  // count's offset, lenient drops the section — neither may reserve() it.
  std::string image = save_models_binary(full_models());
  const std::size_t count_at = 12 + 5 * 16;  // first payload byte
  for (int i = 0; i < 8; ++i) {
    image[count_at + static_cast<std::size_t>(i)] =
        static_cast<char>(0xff);
  }
  fix_crc(image);

  try {
    load_models_binary(as_bytes(image), ParsePolicy::kStrict);
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.offset(), count_at);
  }

  ParseStats stats;
  const BehaviorModelSet loaded =
      load_models_binary(as_bytes(image), ParsePolicy::kLenient, &stats);
  EXPECT_EQ(stats.sections_dropped, 1u);
  EXPECT_EQ(loaded.periodic.size(), 0u);
}

TEST(SerializeBinary, RepeatedPeriodicGroupIsRefusedStrictDroppedLenient) {
  // Rename one periodic record's group to an earlier record's: the set
  // would name one (device, group) twice, and lookups see only the first.
  BehaviorModelSet models = full_models();
  std::vector<PeriodicModel> periodic = models.periodic.all();
  PeriodicModel twin = periodic.front();
  twin.group = "hc.vendor.com|TLS";  // same length as the first's group
  twin.domain = "hc.vendor.com";
  twin.period_seconds = 42.0;
  periodic.insert(periodic.begin() + 1, twin);
  models.periodic = PeriodicModelSet::from_models(periodic);
  std::string image = save_models_binary(models);
  const std::size_t group_at = image.find(twin.group);
  ASSERT_NE(group_at, std::string::npos);
  image.replace(group_at, twin.group.size(), periodic.front().group);
  fix_crc(image);
  // The record starts 45 fixed bytes, then the domain's u32 length and
  // bytes, then the group's u32 length before the group.
  const std::size_t record_at = group_at - 4 - twin.domain.size() - 4 - 45;

  try {
    (void)load_models_binary(as_bytes(image), ParsePolicy::kStrict);
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.offset(), record_at);
    EXPECT_NE(std::string(e.what()).find("repeats"), std::string::npos)
        << e.what();
  }

  ParseStats stats;
  const BehaviorModelSet loaded =
      load_models_binary(as_bytes(image), ParsePolicy::kLenient, &stats);
  EXPECT_EQ(stats.models_dropped, 1u);
  EXPECT_EQ(stats.sections_dropped, 0u);
  ASSERT_EQ(loaded.periodic.size(), 2u);
  EXPECT_EQ(loaded.periodic.all()[0].group, periodic[0].group);
  EXPECT_EQ(loaded.periodic.all()[0].period_seconds,
            periodic[0].period_seconds);  // the first record wins
  EXPECT_EQ(loaded.periodic.all()[1].group, periodic[2].group);
}

TEST(SerializeBinary, LenientResynchronizesAtNextSection) {
  // The section table lets the lenient loader drop the damaged section and
  // still parse everything after it.
  std::string image = save_models_binary(full_models());
  const std::size_t count_at = 12 + 5 * 16;
  image[count_at] = static_cast<char>(0xff);
  image[count_at + 1] = static_cast<char>(0xff);
  image[count_at + 2] = static_cast<char>(0xff);
  image[count_at + 3] = static_cast<char>(0xff);
  fix_crc(image);

  ParseStats stats;
  const BehaviorModelSet loaded =
      load_models_binary(as_bytes(image), ParsePolicy::kLenient, &stats);
  const BehaviorModelSet original = full_models();
  EXPECT_EQ(stats.sections_dropped, 1u);
  EXPECT_EQ(loaded.periodic.size(), 0u);  // damaged section dropped whole
  // Every later section survived the resync.
  EXPECT_EQ(loaded.pfsm.num_states(), original.pfsm.num_states());
  EXPECT_EQ(loaded.training_traces, original.training_traces);
  EXPECT_EQ(loaded.user_actions.size(), original.user_actions.size());
  EXPECT_DOUBLE_EQ(loaded.short_term.value(), original.short_term.value());
}

TEST(SerializeBinary, UnknownSectionIdIsSkippedForForwardCompat) {
  // Append a section with an id from "the future": same major version, so
  // today's loader must skip it and still read everything else.
  const BehaviorModelSet original = full_models();
  std::string image = save_models_binary(original);

  // Rebuild the image with an extra empty-payload section id 99.
  const std::uint32_t n_sections = 5;
  std::string patched;
  patched.append(image, 0, 8);
  const std::uint32_t new_count = n_sections + 1;
  for (int i = 0; i < 4; ++i) {
    patched.push_back(static_cast<char>((new_count >> (8 * i)) & 0xff));
  }
  patched.append(image, 12, n_sections * 16);  // existing table entries
  const std::uint32_t unknown_id = 99;
  for (int i = 0; i < 4; ++i) {
    patched.push_back(static_cast<char>((unknown_id >> (8 * i)) & 0xff));
  }
  patched.append(4, '\0');   // reserved
  patched.append(8, '\0');   // size 0
  patched.append(image, 12 + n_sections * 16,
                 image.size() - 4 - (12 + n_sections * 16));  // payloads
  patched.append(4, '\0');  // CRC placeholder
  fix_crc(patched);

  const BehaviorModelSet loaded =
      load_models_binary(as_bytes(patched), ParsePolicy::kStrict);
  EXPECT_EQ(loaded.periodic.size(), original.periodic.size());
  EXPECT_EQ(loaded.user_actions.size(), original.user_actions.size());
}

TEST(SerializeBinary, RejectsBadTreeChild) {
  // Tree child index out of range: build nodes pointing past the end.
  std::vector<DecisionTree::Node> nodes;
  nodes.push_back({0, 1.0, 7, -1, {}});  // child 7 of a 2-node tree
  nodes.push_back({-1, 0.0, -1, -1, {1.0, 0.0}});
  BehaviorModelSet models = full_models();
  UserActionModels::ClassifierMap classifiers;
  std::vector<DecisionTree> trees;
  trees.push_back(DecisionTree::from_nodes(2, std::move(nodes)));
  classifiers[1].push_back(
      {"bad", RandomForest::from_trees(2, std::move(trees))});
  models.user_actions =
      UserActionModels::from_classifiers(std::move(classifiers), 0.5);
  const std::string image = save_models_binary(models);
  EXPECT_THROW(load_models_binary(as_bytes(image), ParsePolicy::kStrict),
               SerializationError);
  ParseStats stats;
  const BehaviorModelSet loaded =
      load_models_binary(as_bytes(image), ParsePolicy::kLenient, &stats);
  EXPECT_EQ(stats.sections_dropped, 1u);
  EXPECT_EQ(loaded.user_actions.size(), 0u);
  EXPECT_EQ(loaded.periodic.size(), 2u);  // earlier sections intact
}

/// Wraps one hand-built tree into a saved image, for probing the forest
/// validator with node layouts the trainer would never emit.
std::string image_with_forest(int num_classes,
                              std::vector<DecisionTree::Node> nodes) {
  BehaviorModelSet models = full_models();
  std::vector<DecisionTree> trees;
  trees.push_back(DecisionTree::from_nodes(num_classes, std::move(nodes)));
  UserActionModels::ClassifierMap classifiers;
  classifiers[1].push_back(
      {"bad", RandomForest::from_trees(num_classes, std::move(trees))});
  models.user_actions =
      UserActionModels::from_classifiers(std::move(classifiers), 0.5);
  return save_models_binary(models);
}

TEST(SerializeBinary, RejectsForestsThatWouldCrashClassify) {
  // Every layout here passes the CRC (it is faithfully serialized) but
  // violates an invariant DecisionTree::predict_proba relies on without
  // bounds checks. Each must throw under strict and drop the forest
  // section (leaving earlier sections intact) under lenient.
  struct Case {
    const char* name;
    int num_classes;
    std::vector<DecisionTree::Node> nodes;
  };
  const Case cases[] = {
      // Internal node with a -1 child: predict_proba would index
      // nodes_[size_t(-1)].
      {"internal node with leaf child marker", 2,
       {{0, 1.0, 1, -1, {}}, {-1, 0.0, -1, -1, {1.0, 0.0}}}},
      // Child pointing at the node itself: infinite walk.
      {"self-referencing child", 2,
       {{0, 1.0, 0, 1, {}}, {-1, 0.0, -1, -1, {1.0, 0.0}}}},
      // Child pointing backwards at an ancestor: cycle through the root.
      {"backward child edge", 2,
       {{0, 1.0, 1, 2, {}},
        {3, 2.0, 0, 2, {}},
        {-1, 0.0, -1, -1, {1.0, 0.0}}}},
      // Split feature past the feature-vector width: row[feature] reads
      // out of bounds.
      {"feature index out of range", 2,
       {{static_cast<int>(kNumFlowFeatures), 1.0, 1, 2, {}},
        {-1, 0.0, -1, -1, {1.0, 0.0}},
        {-1, 0.0, -1, -1, {0.0, 1.0}}}},
      // Leaf distribution shorter than num_classes: RandomForest's
      // acc[c] += p[c] and classify's proba[1] read out of bounds.
      {"short leaf distribution", 2, {{-1, 0.0, -1, -1, {1.0}}}},
      // Fewer than two classes: classify reads predict_proba(row)[1].
      {"single-class forest", 1, {{-1, 0.0, -1, -1, {1.0}}}},
  };
  for (const Case& c : cases) {
    const std::string image = image_with_forest(c.num_classes, c.nodes);
    EXPECT_THROW(load_models_binary(as_bytes(image), ParsePolicy::kStrict),
                 SerializationError)
        << c.name;
    ParseStats stats;
    const BehaviorModelSet loaded =
        load_models_binary(as_bytes(image), ParsePolicy::kLenient, &stats);
    EXPECT_EQ(stats.sections_dropped, 1u) << c.name;
    EXPECT_EQ(loaded.user_actions.size(), 0u) << c.name;
    EXPECT_EQ(loaded.periodic.size(), 2u) << c.name;
  }
}

TEST(SerializeBinary, LenientDropsDamagedTracesSectionWhole) {
  // Damage the traces section AFTER its first trace has parsed: the
  // documented lenient semantics drop the section, so no partially parsed
  // traces may leak into the result.
  std::string image = save_models_binary(full_models());
  // Walk the section table (5 fixed-order sections; traces is the 4th) to
  // find the traces payload span.
  std::size_t offset = 12 + 5 * 16;
  std::size_t traces_end = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    std::uint64_t size = 0;
    const std::size_t at = 12 + static_cast<std::size_t>(i) * 16 + 8;
    for (int b = 0; b < 8; ++b) {
      size |= std::uint64_t{static_cast<std::uint8_t>(
                  image[at + static_cast<std::size_t>(b)])}
              << (8 * b);
    }
    offset += static_cast<std::size_t>(size);
    if (i == 3) traces_end = offset;
  }
  ASSERT_GT(traces_end, 0u);
  // The section ends with the label "plug:on_off" (11 bytes) and its u32
  // length prefix; blow up that length so the final label fails to parse.
  const std::size_t len_at = traces_end - 11 - 4;
  for (int i = 0; i < 4; ++i) {
    image[len_at + static_cast<std::size_t>(i)] = static_cast<char>(0xff);
  }
  fix_crc(image);

  EXPECT_THROW(load_models_binary(as_bytes(image), ParsePolicy::kStrict),
               SerializationError);
  ParseStats stats;
  const BehaviorModelSet loaded =
      load_models_binary(as_bytes(image), ParsePolicy::kLenient, &stats);
  EXPECT_EQ(stats.sections_dropped, 1u);
  EXPECT_TRUE(loaded.training_traces.empty());  // nothing partial committed
  EXPECT_EQ(loaded.periodic.size(), 2u);        // other sections intact
  EXPECT_EQ(loaded.user_actions.size(), 1u);
}

TEST(SerializeBinary, UnreadableModelPathThrowsTypedErrorNotBadAlloc) {
  // A missing file fails at open; a directory opens but has no meaningful
  // size — tellg-based sizing used to turn the latter into bad_alloc.
  EXPECT_THROW(load_models_binary_file("/no/such/models.bbm"),
               SerializationError);
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  EXPECT_THROW(load_models_binary_file(dir), SerializationError);
}

TEST(SerializeBinary, SaveFileReplacesTheTargetWhole) {
  // The write goes to a temp file renamed over the target, so the old file
  // is never truncated in place: a reader still holding it (here, a hard
  // link) keeps the complete previous generation.
  const std::string dir = ::testing::TempDir() + "/behaviot_bbm_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/models.bbm";
  const std::string held = dir + "/held.bbm";
  BehaviorModelSet first = full_models();
  first.user_actions = UserActionModels{};
  save_models_binary_file(path, first);
  std::filesystem::create_hard_link(path, held);

  save_models_binary_file(path, full_models());
  EXPECT_EQ(read_file(path), save_models_binary(full_models()));
  EXPECT_EQ(read_file(held), save_models_binary(first));
  std::filesystem::remove_all(dir);
}

TEST(SerializeBinary, ViewMatchesMaterializedLoad) {
  const BehaviorModelSet models = full_models();
  const std::string image = save_models_binary(models);
  const BehaviorModelSet loaded = load_models_binary(as_bytes(image));
  const BinaryModelView view = BinaryModelView::open(as_bytes(image));

  ASSERT_EQ(view.periodic_count(), loaded.periodic.size());
  const std::vector<PeriodicModelView> records = view.periodic();
  ASSERT_EQ(records.size(), loaded.periodic.size());
  for (const PeriodicModelView& v : records) {
    const PeriodicModel* m = loaded.periodic.find(v.device, std::string(v.group));
    ASSERT_NE(m, nullptr) << "view-only model " << v.group;
    EXPECT_EQ(v.app, m->app);
    EXPECT_EQ(v.support, m->support);
    EXPECT_EQ(v.absent_generations, m->absent_generations);
    EXPECT_DOUBLE_EQ(v.period_seconds, m->period_seconds);
    EXPECT_DOUBLE_EQ(v.tolerance_seconds, m->tolerance_seconds);
    EXPECT_DOUBLE_EQ(v.autocorr_score, m->autocorr_score);
    EXPECT_EQ(v.domain, m->domain);
    ASSERT_EQ(v.secondary_period_count, m->secondary_periods.size());
    for (std::size_t i = 0; i < v.secondary_period_count; ++i) {
      EXPECT_DOUBLE_EQ(v.secondary_period(i), m->secondary_periods[i]);
    }
    // materialize() must reproduce the owning record exactly.
    const PeriodicModel owned = v.materialize();
    EXPECT_EQ(owned.group, m->group);
    EXPECT_EQ(owned.secondary_periods, m->secondary_periods);
  }

  EXPECT_TRUE(view.has_section(kSectionForests));
  EXPECT_FALSE(view.has_section(99));
}

TEST(SerializeBinary, LoadedModelsDriveTimerClassification) {
  // The loaded set classifies via timers even without the cluster stage,
  // which the format does not carry.
  const std::string image = save_models_binary(full_models());
  const BehaviorModelSet loaded = load_models_binary(as_bytes(image));

  PeriodicEventClassifier classifier(loaded.periodic);
  FlowRecord flow;
  flow.device = 3;
  flow.domain = "hb.vendor.com";
  flow.app = AppProtocol::kTls;
  flow.tuple = {{Ipv4Addr(192, 168, 1, 13), 40000},
                {Ipv4Addr(54, 9, 9, 9), 443},
                Transport::kTcp};
  flow.start = Timestamp(0);
  EXPECT_TRUE(classifier.classify(flow).periodic);  // first sighting arms
  flow.start = Timestamp::from_seconds(600.125);
  EXPECT_TRUE(classifier.classify(flow).periodic);  // on schedule
  flow.start = Timestamp::from_seconds(600.125 + 900.0);
  const auto off_schedule = classifier.classify(flow);
  EXPECT_FALSE(off_schedule.via_timer);
}

TEST(SerializeBinary, ViewOpenIsAlwaysStrict) {
  std::string image = save_models_binary(full_models());
  // Flipped payload byte: the view has no lenient mode — open() refuses.
  std::string corrupt = image;
  corrupt[corrupt.size() / 2] ^= 0x01;
  try {
    BinaryModelView::open(as_bytes(corrupt));
    FAIL() << "open() accepted a CRC-mismatched image";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.offset(), corrupt.size() - 4);
  }
  // Truncation is structural: rejected before any CRC work.
  EXPECT_THROW(
      BinaryModelView::open(as_bytes(image).first(image.size() / 2)),
      SerializationError);
}

/// Comma-decimal numpunct facet standing in for a de_DE-style locale: the
/// container images this repo tests on ship only the C/POSIX locales, so
/// the stream-side hazard is reproduced with a custom facet instead of
/// setlocale(3) names (whose availability the test probes and skips on).
struct CommaNumpunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// RAII: swaps in a comma-decimal global locale (C++ streams) and restores
/// on destruction even if the test fails mid-way.
class GlobalLocaleGuard {
 public:
  GlobalLocaleGuard()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new CommaNumpunct))) {}
  ~GlobalLocaleGuard() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

TEST(SerializeBinary, ModelFilesAreByteIdenticalUnderCommaDecimalLocale) {
  const BehaviorModelSet models = full_models();
  std::ostringstream ref_text_os;
  save_models(ref_text_os, models);
  const std::string ref_text = ref_text_os.str();
  const std::string ref_binary = save_models_binary(models);

  {
    GlobalLocaleGuard comma_locale;
    // Writers: newly created streams inherit the comma-decimal global
    // locale; save_models must still emit classic-locale bytes (no comma
    // radix in hexfloats, no thousands grouping in integers).
    std::ostringstream text_under;
    save_models(text_under, models);
    EXPECT_EQ(text_under.str(), ref_text);
    EXPECT_EQ(save_models_binary(models), ref_binary);

    // Reader: loading back under the same locale reproduces the set.
    const BehaviorModelSet from_binary =
        load_models_binary(as_bytes(ref_binary));
    EXPECT_EQ(save_models_binary(from_binary), ref_binary);
  }

  // The setlocale(3) side (C radix used by strtod/snprintf) needs a real
  // comma-decimal locale compiled into the image; skip that half when none
  // exists rather than silently testing nothing.
  const char* const named = std::setlocale(LC_ALL, "de_DE.UTF-8");
  if (named == nullptr) {
    GTEST_SKIP() << "no comma-decimal C locale available in this image";
  }
  std::ostringstream text_under;
  save_models(text_under, models);
  const std::string bin_under = save_models_binary(models);
  const BehaviorModelSet from_binary = load_models_binary(as_bytes(ref_binary));
  std::setlocale(LC_ALL, "C");
  EXPECT_EQ(text_under.str(), ref_text);
  EXPECT_EQ(bin_under, ref_binary);
  EXPECT_EQ(from_binary.periodic.size(), models.periodic.size());
}

}  // namespace
}  // namespace behaviot
