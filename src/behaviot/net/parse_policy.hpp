// Shared parse policy for every wire-format parser in the ingestion path
// (pcap records, DNS responses, TLS ClientHello, model files).
//
// Real gateway captures arrive damaged in predictable ways — snapped records,
// Ethernet trailer padding, byte-swapped headers, truncated tails — and the
// right reaction depends on the caller: an offline auditor wants to know the
// exact byte that is wrong, a long-running gateway wants to keep the pipeline
// fed and report what it dropped. ParsePolicy selects between the two;
// ParseStats is the lenient-mode report; ParseError is the strict-mode
// diagnosis (message + byte offset into the input).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace behaviot {

enum class ParsePolicy : std::uint8_t {
  kStrict,   ///< malformed input throws ParseError carrying a byte offset
  kLenient,  ///< malformed input is skipped and classified in ParseStats
};

/// Raised by strict-mode parsers. `offset()` is the byte position in the
/// input (file or payload) where the malformation was detected; the what()
/// string already includes it for logging convenience.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::uint64_t offset);
  [[nodiscard]] std::uint64_t offset() const { return offset_; }

 private:
  std::uint64_t offset_ = 0;
};

/// Counters a lenient parse accumulates instead of throwing. The pcap reader
/// fills the record-level fields; DNS/TLS/model parsing only touches
/// `malformed` / `sections_dropped`. All skip classes are disjoint.
struct ParseStats {
  std::size_t records = 0;   ///< pcap record headers consumed
  std::size_t packets = 0;   ///< records parsed into Packets
  std::size_t non_ip = 0;    ///< frames that are not Ethernet/IPv4 (ARP, v6…)
  std::size_t non_transport = 0;  ///< IPv4 but neither TCP nor UDP
  std::size_t malformed = 0;      ///< internally inconsistent structure
  std::size_t truncated = 0;      ///< input ended mid-record / mid-section
  /// Records whose captured payload is shorter than the IP-declared length
  /// (snap-length truncation). The packet is still produced, clamped.
  std::size_t snapped_payloads = 0;
  /// Model-file sections dropped by a lenient load_models_binary.
  std::size_t sections_dropped = 0;

  [[nodiscard]] std::size_t skipped() const {
    return non_ip + non_transport + malformed + truncated;
  }
  /// One-line human-readable rendering for CLI/example output.
  [[nodiscard]] std::string summary() const;
};

/// Bridges one parse's ParseStats into the global metrics registry: each
/// field adds onto the matching "ingest.*" counter, so successive captures
/// accumulate (a long-running gateway's totals). No-op when the registry is
/// disabled or the struct is all zeros.
void record_parse_stats(const ParseStats& stats);

}  // namespace behaviot
