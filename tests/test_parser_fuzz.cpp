// Deterministic fuzz/property harness for every wire-format parser on the
// ingestion path: pcap records, DNS responses, TLS ClientHello, and .bbm
// model files.
//
// Two layers:
//  - properties on VALID inputs: parse → re-serialize is byte-identical,
//    all four pcap magic variants decode to the same packets, and the
//    streaming reader agrees with the in-memory parser;
//  - seeded mutation fuzzing (>10k mutants across the four parsers, both
//    policies): no crash, no hang (suite timeout), no unbounded allocation
//    (outputs are asserted to stay proportional to input size). Run the
//    suite under -DBEHAVIOT_ASAN=ON to add heap/UB checking; see README.
//
// Everything derives from fixed seeds via the repo's RNG, so a failure here
// reproduces bit-identically anywhere (bench/gen_fuzz_corpus emits the same
// corpus to disk for standalone debugging).
#include <gtest/gtest.h>

#include <span>
#include <sstream>

#include "behaviot/core/fuzz_corpus.hpp"
#include "behaviot/core/serialize.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/flow/features.hpp"
#include "behaviot/flow/flow.hpp"
#include "behaviot/net/dns.hpp"
#include "behaviot/net/pcap.hpp"
#include "behaviot/net/tls.hpp"

namespace behaviot {
namespace {

constexpr std::uint64_t kSeed = 0xbe4a710f;
constexpr std::size_t kCorpusPerKind = 64;

const fuzz::Corpus& corpus() {
  static const fuzz::Corpus c = fuzz::make_corpus(kSeed, kCorpusPerKind);
  return c;
}

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

bool packets_equal(const Packet& a, const Packet& b) {
  return a.ts == b.ts && a.tuple == b.tuple && a.size == b.size &&
         a.dir == b.dir && a.payload == b.payload;
}

TEST(ParserFuzz, ValidPcapReserializesByteIdentical) {
  Rng rng(kSeed);
  for (int round = 0; round < 8; ++round) {
    Rng fork = rng.fork(static_cast<std::uint64_t>(round));
    const auto packets = fuzz::random_packets(fork, 50);
    const auto bytes = serialize_pcap(packets);
    const auto parsed = parse_pcap(bytes, ParsePolicy::kStrict);
    EXPECT_EQ(parsed.stats.skipped(), 0u);
    EXPECT_EQ(parsed.packets.size(), packets.size());
    EXPECT_EQ(serialize_pcap(parsed.packets), bytes) << "round " << round;
  }
}

TEST(ParserFuzz, AllFourMagicVariantsDecodeIdentically) {
  Rng rng(kSeed ^ 1);
  const auto packets = fuzz::random_packets(rng, 80);
  const auto native = serialize_pcap(packets);
  const auto reference = parse_pcap(native, ParsePolicy::kStrict);
  ASSERT_EQ(reference.packets.size(), packets.size());
  for (const bool swapped : {false, true}) {
    for (const bool nanos : {false, true}) {
      const auto variant = fuzz::pcap_variant(native, swapped, nanos);
      const auto parsed = parse_pcap(variant, ParsePolicy::kStrict);
      ASSERT_EQ(parsed.packets.size(), reference.packets.size())
          << "swapped=" << swapped << " nanos=" << nanos;
      for (std::size_t i = 0; i < parsed.packets.size(); ++i) {
        EXPECT_TRUE(packets_equal(parsed.packets[i], reference.packets[i]))
            << "swapped=" << swapped << " nanos=" << nanos << " packet " << i;
      }
    }
  }
}

TEST(ParserFuzz, ValidDnsTlsModelRoundTrips) {
  Rng rng(kSeed ^ 2);
  for (int i = 0; i < 200; ++i) {
    Rng fork = rng.fork(static_cast<std::uint64_t>(i));
    const auto txid = static_cast<std::uint16_t>(fork.next_u64());
    const Ipv4Addr addr(static_cast<std::uint32_t>(fork.next_u64()));
    const auto ttl = static_cast<std::uint32_t>(fork.uniform_index(86400));
    const std::string name = "dev" + std::to_string(i) + ".vendor.example";
    const auto binding = parse_dns_response(
        make_dns_response(txid, name, addr, ttl), ParsePolicy::kStrict);
    ASSERT_TRUE(binding.has_value());
    EXPECT_EQ(binding->name, name);
    EXPECT_EQ(binding->address, addr);
    EXPECT_EQ(binding->ttl, ttl);

    const auto sni =
        parse_tls_sni(make_tls_client_hello(name), ParsePolicy::kStrict);
    ASSERT_TRUE(sni.has_value());
    EXPECT_EQ(*sni, name);
  }
  // Model files: a valid image loads whole under the lenient policy too —
  // nothing dropped, nothing flagged — and re-saves byte-identically.
  for (const std::string& image : corpus().binary_models) {
    ParseStats stats;
    const BehaviorModelSet loaded =
        load_models_binary(as_bytes(image), ParsePolicy::kLenient, &stats);
    EXPECT_EQ(stats.sections_dropped, 0u);
    EXPECT_EQ(stats.malformed, 0u);
    EXPECT_EQ(save_models_binary(loaded), image);
  }
}

TEST(ParserFuzz, StreamingReaderMatchesParsePcapWithBoundedBuffer) {
  Rng rng(kSeed ^ 3);
  const auto packets = fuzz::random_packets(rng, 1200);
  const auto bytes = serialize_pcap(packets);
  const auto reference = parse_pcap(bytes);

  const std::string text(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size());
  std::istringstream in(text);
  PcapReader reader(in, {.policy = ParsePolicy::kLenient, .chunk_size = 4096});
  std::vector<Packet> streamed;
  while (auto p = reader.next()) streamed.push_back(std::move(*p));

  ASSERT_EQ(streamed.size(), reference.packets.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_TRUE(packets_equal(streamed[i], reference.packets[i])) << i;
  }
  // Peak buffering is max(chunk, one record), never the whole capture.
  EXPECT_GT(bytes.size(), 100u * 1024u);
  EXPECT_LE(reader.buffer_capacity(),
            4096u + 16u + 65535u);  // chunk + record header + max frame
}

// Shared mutation driver: `parse` must swallow every mutant under kLenient
// and may only throw the documented typed errors under kStrict.
template <typename Parse>
void run_mutations(const std::vector<std::vector<std::uint8_t>>& seeds,
                   std::uint64_t seed, std::size_t mutants_per_seed,
                   int max_stacked, Parse parse) {
  Rng rng(seed);
  std::size_t executed = 0;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    for (std::size_t m = 0; m < mutants_per_seed; ++m) {
      Rng fork = rng.fork(s * 131071 + m);
      std::vector<std::uint8_t> mutant = seeds[s];
      const int stacked = 1 + static_cast<int>(fork.uniform_index(
                                  static_cast<std::uint64_t>(max_stacked)));
      for (int k = 0; k < stacked; ++k) fuzz::mutate(fork, mutant);
      for (const ParsePolicy policy :
           {ParsePolicy::kLenient, ParsePolicy::kStrict}) {
        parse(mutant, policy);
        ++executed;
      }
    }
  }
  // 2 policies × seeds × mutants; the suite total must clear 10k.
  EXPECT_EQ(executed, seeds.size() * mutants_per_seed * 2);
}

TEST(ParserFuzz, MutatedPcapNeverCrashesOrBalloons) {
  run_mutations(
      corpus().pcaps, kSeed ^ 4, /*mutants_per_seed=*/24, /*max_stacked=*/4,
      [](const std::vector<std::uint8_t>& mutant, ParsePolicy policy) {
        try {
          const auto result = parse_pcap(mutant, policy);
          // Every parsed packet consumed a >=16-byte record; anything more
          // would mean the parser invented data (OOM risk on real garbage).
          EXPECT_LE(result.packets.size(), mutant.size() / 16 + 1);
          for (const Packet& p : result.packets) {
            EXPECT_LE(p.payload.size(), mutant.size());
          }
        } catch (const ParseError&) {
          // typed rejection is a valid outcome in either policy
        }
      });
}

TEST(ParserFuzz, MutatedDnsNeverCrashes) {
  run_mutations(
      corpus().dns, kSeed ^ 5, /*mutants_per_seed=*/20, /*max_stacked=*/3,
      [](const std::vector<std::uint8_t>& mutant, ParsePolicy policy) {
        ParseStats stats;
        try {
          const auto binding = parse_dns_response(mutant, policy, &stats);
          if (binding.has_value()) {
            EXPECT_LE(binding->name.size(), mutant.size() * 64);
          }
        } catch (const ParseError& e) {
          EXPECT_LE(e.offset(), mutant.size() + 1);
        }
      });
}

TEST(ParserFuzz, MutatedTlsNeverCrashes) {
  run_mutations(
      corpus().tls, kSeed ^ 6, /*mutants_per_seed=*/20, /*max_stacked=*/3,
      [](const std::vector<std::uint8_t>& mutant, ParsePolicy policy) {
        ParseStats stats;
        try {
          const auto sni = parse_tls_sni(mutant, policy, &stats);
          if (sni.has_value()) {
            EXPECT_LE(sni->size(), mutant.size());
          }
        } catch (const ParseError& e) {
          EXPECT_LE(e.offset(), mutant.size() + 1);
        }
      });
}

TEST(ParserFuzz, ValidBinaryModelRoundTrips) {
  for (std::size_t i = 0; i < corpus().binary_models.size(); ++i) {
    const std::string& image = corpus().binary_models[i];
    const BehaviorModelSet loaded =
        load_models_binary(as_bytes(image), ParsePolicy::kStrict);
    // binary → binary: byte-identical (fixed section order, no optional
    // trailers).
    EXPECT_EQ(save_models_binary(loaded), image) << "corpus entry " << i;
  }
}

TEST(ParserFuzz, MutatedBinaryModelsNeverCrashOrBalloon) {
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const std::string& image : corpus().binary_models) {
    seeds.emplace_back(image.begin(), image.end());
  }
  run_mutations(
      seeds, kSeed ^ 9, /*mutants_per_seed=*/20, /*max_stacked=*/3,
      [](const std::vector<std::uint8_t>& mutant, ParsePolicy policy) {
        try {
          ParseStats stats;
          const BehaviorModelSet models =
              load_models_binary(mutant, policy, &stats);
          // Counts are capped against the bytes remaining in their section,
          // so no parsed structure can outgrow the input.
          EXPECT_LE(models.periodic.size(), mutant.size());
          EXPECT_LE(models.user_actions.size(), mutant.size());
          std::size_t labels = 0;
          for (const auto& t : models.training_traces) labels += t.size();
          EXPECT_LE(labels, mutant.size());
          // Anything the loader accepted must also be safe to USE: walk
          // every surviving forest exactly the way classify does (it
          // indexes row[feature], child indices and proba[1] unchecked),
          // so a forest invariant the loader failed to enforce shows up
          // here as an ASan hit or a hang instead of shipping.
          for (const auto& [device, list] : models.user_actions.classifiers()) {
            for (const double fill : {0.0, 1e308, -1e308}) {
              const std::vector<double> row(kNumFlowFeatures, fill);
              for (const auto& clf : list) {
                const auto proba = clf.forest.predict_proba(row);
                ASSERT_GE(proba.size(), 2u);
              }
            }
            FlowRecord flow;
            flow.device = device;
            (void)models.user_actions.classify(flow);
          }
        } catch (const SerializationError& e) {
          // Typed rejection with a sane offset is the only other outcome.
          EXPECT_LE(e.offset(), mutant.size() + 1);
        }
      });
}

TEST(ParserFuzz, TruncatedBinaryModelsFailCleanlyAtEveryLength) {
  // Chop a valid image at every byte length: each prefix must either load
  // (only the full image can — CRC) or throw a typed error whose offset
  // points inside the prefix. Catches any read-past-end at any boundary,
  // including mid-header, mid-table, and every section edge.
  const std::string& image = corpus().binary_models.front();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const auto prefix = as_bytes(image).first(len);
    EXPECT_THROW(load_models_binary(prefix, ParsePolicy::kStrict),
                 SerializationError)
        << "prefix length " << len;
    try {
      (void)load_models_binary(prefix, ParsePolicy::kLenient);
    } catch (const SerializationError& e) {
      EXPECT_LE(e.offset(), len + 1) << "prefix length " << len;
    }
  }
  // The untruncated image still loads (guards against an off-by-one above).
  EXPECT_NO_THROW(load_models_binary(as_bytes(image), ParsePolicy::kStrict));
}

TEST(ParserFuzz, LenientPcapClassifiesEveryMutantSkip) {
  // Whatever a mutant does, lenient mode must account for each record as
  // either a packet or exactly one skip class — the stats always add up.
  Rng rng(kSeed ^ 8);
  for (std::size_t s = 0; s < corpus().pcaps.size(); ++s) {
    Rng fork = rng.fork(s);
    std::vector<std::uint8_t> mutant = corpus().pcaps[s];
    fuzz::mutate(fork, mutant);
    try {
      const auto result = parse_pcap(mutant, ParsePolicy::kLenient);
      EXPECT_EQ(result.packets.size(), result.stats.packets);
      EXPECT_LE(result.stats.packets + result.stats.non_ip +
                    result.stats.non_transport + result.stats.malformed,
                result.stats.records + 1);
    } catch (const ParseError&) {
      // only the global header may throw under kLenient
    }
  }
}

}  // namespace
}  // namespace behaviot
