// Deterministic corpus generation for the parser fuzz/property harness.
//
// All four ingestion formats (pcap captures, DNS responses, TLS ClientHello,
// .bbm model files) get seed-reproducible valid inputs plus a seeded
// mutator, so the harness in tests/test_parser_fuzz.cpp and the
// bench/gen_fuzz_corpus tool exercise byte-for-byte identical corpora: a
// crash found in CI is a crash reproducible at the shell with the same seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "behaviot/core/model_set.hpp"
#include "behaviot/net/packet.hpp"
#include "behaviot/net/rng.hpp"

namespace behaviot::fuzz {

/// Random-but-plausible gateway packets: mixed TCP/UDP, private/public
/// endpoints, DNS/TLS payloads on some, sizes spanning padded minimum
/// frames to MTU-sized records.
std::vector<Packet> random_packets(Rng& rng, std::size_t count);

/// Small randomized model set (periodic models incl. absence counts,
/// user-action forests, PFSM, thresholds) whose save_models_binary image
/// exercises every section of the format.
BehaviorModelSet random_models(Rng& rng);

/// Rewrites a native little-endian µs pcap byte stream (as produced by
/// serialize_pcap) into one of the other magic variants: byte-swapped
/// headers and/or nanosecond timestamp fractions. Frame bytes are copied
/// unchanged. Input must be well-formed.
std::vector<std::uint8_t> pcap_variant(const std::vector<std::uint8_t>& bytes,
                                       bool swapped, bool nanos);

/// Applies one seeded mutation in place: bit flip, byte splat, truncation,
/// span erase/duplicate/zero, or small random insertion. Size growth is
/// bounded, so repeated application cannot balloon the input.
void mutate(Rng& rng, std::vector<std::uint8_t>& bytes);

/// A full valid corpus for all four formats.
struct Corpus {
  std::vector<std::vector<std::uint8_t>> pcaps;
  std::vector<std::vector<std::uint8_t>> dns;
  std::vector<std::vector<std::uint8_t>> tls;
  std::vector<std::string> binary_models;
};

Corpus make_corpus(std::uint64_t seed, std::size_t per_kind);

}  // namespace behaviot::fuzz
