// Classic pcap file reader/writer, implemented from the file-format
// specification (no libpcap dependency).
//
// The writer serializes our canonical Packet records as Ethernet/IPv4/TCP|UDP
// frames; the reader parses such files (including ones produced by tcpdump on
// a real gateway) back into Packets, re-canonicalizing flow orientation using
// the private-address heuristic.
//
// Reading is built on the streaming PcapReader, which pulls records from an
// std::istream through a fixed-size chunk buffer: peak memory is bounded by
// max(chunk size, one record) regardless of file size, so multi-GB gateway
// captures ingest without loading into memory. All four pcap magic variants
// are accepted — native/byte-swapped byte order × micro/nanosecond
// timestamps — with header fields swapped and timestamps scaled to µs.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "behaviot/net/packet.hpp"
#include "behaviot/net/parse_policy.hpp"

namespace behaviot {

class PcapWriter {
 public:
  /// Writes the global header immediately. Throws std::runtime_error if the
  /// file cannot be opened.
  explicit PcapWriter(const std::string& path);
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// Throws std::runtime_error for pre-epoch (negative) timestamps, which
  /// the classic pcap record header cannot represent.
  void write(const Packet& packet);
  /// Flushes and closes; implicit in the destructor.
  void close();

  [[nodiscard]] std::size_t packets_written() const { return count_; }

 private:
  struct Impl;
  Impl* impl_;
  std::size_t count_ = 0;
};

/// Streaming pcap record reader over any std::istream.
///
/// The constructor consumes and validates the 24-byte global header (bad
/// magic or a non-Ethernet link type throws ParseError regardless of
/// policy — the rest of the file cannot be interpreted). Each next() call
/// then yields one parsed Packet, refilling an internal bounded buffer from
/// the stream as needed. Per-record damage is handled according to the
/// policy: strict throws ParseError with the file offset, lenient classifies
/// the skip into stats() and keeps going where resynchronization is possible.
struct PcapReaderOptions {
  ParsePolicy policy = ParsePolicy::kLenient;
  /// Read granularity and buffer floor. The buffer grows past this only
  /// when a single record is larger, and never past the record-size cap.
  std::size_t chunk_size = 64 * 1024;
  /// Tail mode (`behaviot watch --follow`): invoked whenever the stream runs
  /// out of bytes mid-read. Return true to clear the stream state and retry
  /// the read — the capture file may have grown meanwhile (the callback
  /// typically sleeps a poll interval first) — or false to accept end of
  /// stream. Unset = plain EOF behavior.
  std::function<bool()> on_eof;
  /// Checkpoint resume: after validating the 24-byte global header, skip
  /// straight to this absolute file offset (a record boundary recorded by
  /// consumed_offset()) before yielding the first packet. Must be >= 24
  /// when non-zero; 0 = start at the first record. An offset beyond the end
  /// of the capture throws ParseError — unless `on_eof` is set, in which
  /// case the reader waits for the file to grow, exactly like a mid-record
  /// tail read.
  std::uint64_t resume_offset = 0;
};

class PcapReader {
 public:
  explicit PcapReader(std::istream& in, const PcapReaderOptions& options = {});

  /// Next Ethernet/IPv4/TCP|UDP packet, or nullopt at end of stream.
  std::optional<Packet> next();

  [[nodiscard]] const ParseStats& stats() const { return stats_; }
  /// File header properties, available after construction.
  [[nodiscard]] bool byte_swapped() const { return swapped_; }
  [[nodiscard]] bool nanosecond_timestamps() const { return nanos_; }
  [[nodiscard]] std::uint32_t snaplen() const { return snaplen_; }
  /// Current internal buffer footprint; bounded by max(chunk, one record).
  [[nodiscard]] std::size_t buffer_capacity() const { return buf_.capacity(); }
  /// Absolute file offset of the next unconsumed byte: every record before
  /// it has been fully yielded by next(). A checkpoint stores this value;
  /// resume passes it back as PcapReaderOptions::resume_offset.
  [[nodiscard]] std::uint64_t consumed_offset() const {
    return base_offset_ + pos_;
  }

 private:
  bool ensure(std::size_t need);
  [[nodiscard]] std::uint64_t offset_at(std::size_t buf_pos) const {
    return base_offset_ + buf_pos;
  }
  std::uint32_t u32(const std::uint8_t* p) const;

  std::istream* in_;
  ParsePolicy policy_;
  std::size_t chunk_;
  std::function<bool()> on_eof_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;           ///< next unconsumed byte in buf_
  std::size_t end_ = 0;           ///< valid bytes in buf_
  std::uint64_t base_offset_ = 0; ///< file offset of buf_[0]
  bool swapped_ = false;
  bool nanos_ = false;
  bool done_ = false;
  std::uint32_t snaplen_ = 0;
  ParseStats stats_;
};

struct PcapReadResult {
  std::vector<Packet> packets;
  ParseStats stats;
};

/// Reads a whole capture file through the streaming reader (bounded memory).
/// Throws std::runtime_error if the file cannot be opened and ParseError on
/// malformed global headers; per-record handling follows `policy`.
PcapReadResult read_pcap(const std::string& path,
                         ParsePolicy policy = ParsePolicy::kLenient);

/// In-memory round trip used by tests: serialize then parse a packet vector.
std::vector<std::uint8_t> serialize_pcap(const std::vector<Packet>& packets);
PcapReadResult parse_pcap(const std::vector<std::uint8_t>& bytes,
                          ParsePolicy policy = ParsePolicy::kLenient);

}  // namespace behaviot
