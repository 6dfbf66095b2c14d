#include "behaviot/net/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "behaviot/core/fuzz_corpus.hpp"

namespace behaviot {
namespace {

Packet make_packet(std::int64_t us, Transport proto, Direction dir,
                   std::uint32_t size, std::vector<std::uint8_t> payload = {}) {
  Packet p;
  p.ts = Timestamp(us);
  const std::uint16_t dst_port = proto == Transport::kUdp ? 53 : 443;
  p.tuple = {{Ipv4Addr(192, 168, 1, 20), 40000},
             {Ipv4Addr(54, 10, 20, 30), dst_port},
             proto};
  p.size = size;
  p.dir = dir;
  p.payload = std::move(payload);
  return p;
}

TEST(PcapRoundTrip, PreservesTimingSizesAndTuples) {
  std::vector<Packet> in;
  in.push_back(make_packet(1'000'000, Transport::kTcp, Direction::kOutbound, 120));
  in.push_back(make_packet(1'200'000, Transport::kTcp, Direction::kInbound, 90));
  in.push_back(make_packet(2'500'000, Transport::kUdp, Direction::kOutbound, 80));

  const auto bytes = serialize_pcap(in);
  const PcapReadResult out = parse_pcap(bytes);
  ASSERT_EQ(out.packets.size(), in.size());
  EXPECT_EQ(out.stats.skipped(), 0u);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out.packets[i].ts, in[i].ts) << i;
    EXPECT_EQ(out.packets[i].size, in[i].size) << i;
    EXPECT_EQ(out.packets[i].tuple, in[i].tuple) << i;
    EXPECT_EQ(out.packets[i].dir, in[i].dir) << i;
  }
}

TEST(PcapRoundTrip, PreservesPayloadBytes) {
  std::vector<std::uint8_t> payload{0xde, 0xad, 0xbe, 0xef, 0x01};
  auto p = make_packet(500, Transport::kUdp, Direction::kOutbound,
                       28 + 5, payload);
  const auto out = parse_pcap(serialize_pcap({p}));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].payload, payload);
}

TEST(PcapRoundTrip, InboundFramesRecanonicalize) {
  // An inbound packet is written with swapped src/dst on the wire; the
  // parser must restore device-side orientation via the private-IP rule.
  auto p = make_packet(100, Transport::kTcp, Direction::kInbound, 200);
  const auto out = parse_pcap(serialize_pcap({p}));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].dir, Direction::kInbound);
  EXPECT_EQ(out.packets[0].tuple.src.ip, Ipv4Addr(192, 168, 1, 20));
  EXPECT_EQ(out.packets[0].tuple.dst.ip, Ipv4Addr(54, 10, 20, 30));
}

TEST(PcapRoundTrip, LocalTrafficKeepsSenderAsSource) {
  Packet p;
  p.ts = Timestamp(100);
  p.tuple = {{Ipv4Addr(192, 168, 1, 20), 5000},
             {Ipv4Addr(192, 168, 1, 30), 6000},
             Transport::kUdp};
  p.size = 100;
  p.dir = Direction::kOutbound;
  const auto out = parse_pcap(serialize_pcap({p}));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].tuple.src.ip, Ipv4Addr(192, 168, 1, 20));
  EXPECT_EQ(out.packets[0].dir, Direction::kOutbound);
}

TEST(PcapParse, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes(24, 0);
  EXPECT_THROW(parse_pcap(bytes), std::runtime_error);
}

TEST(PcapParse, RejectsTruncatedHeader) {
  std::vector<std::uint8_t> bytes(10, 0);
  EXPECT_THROW(parse_pcap(bytes), std::runtime_error);
}

TEST(PcapParse, ToleratesTruncatedLastRecord) {
  auto bytes = serialize_pcap(
      {make_packet(1, Transport::kTcp, Direction::kOutbound, 100),
       make_packet(2, Transport::kTcp, Direction::kOutbound, 100)});
  bytes.resize(bytes.size() - 10);  // chop into the final record
  const auto out = parse_pcap(bytes);
  EXPECT_EQ(out.packets.size(), 1u);
}

TEST(PcapParse, MinimumSizeIsHeaderOverhead) {
  // A declared size below the header overhead is clamped up by the writer.
  auto p = make_packet(1, Transport::kTcp, Direction::kOutbound, 10);
  const auto out = parse_pcap(serialize_pcap({p}));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].size, header_overhead(Transport::kTcp));
}

TEST(PcapWriter, WritesReadableFile) {
  const std::string path = ::testing::TempDir() + "/behaviot_test.pcap";
  {
    PcapWriter writer(path);
    writer.write(make_packet(1'000, Transport::kTcp, Direction::kOutbound, 150));
    writer.write(make_packet(2'000, Transport::kUdp, Direction::kInbound, 80));
    EXPECT_EQ(writer.packets_written(), 2u);
  }
  const auto out = read_pcap(path);
  EXPECT_EQ(out.packets.size(), 2u);
  std::filesystem::remove(path);
}

TEST(PcapWriter, ThrowsOnUnopenablePath) {
  EXPECT_THROW(PcapWriter("/nonexistent_dir_xyz/file.pcap"),
               std::runtime_error);
}

TEST(PcapReader, ThrowsOnMissingFile) {
  EXPECT_THROW(read_pcap("/nonexistent_file.pcap"), std::runtime_error);
}

TEST(PcapParse, AcceptsAllFourMagicVariants) {
  // Native/byte-swapped × microsecond/nanosecond headers must all decode
  // to the same packets (nanosecond timestamps scaled down to µs).
  std::vector<Packet> in;
  in.push_back(make_packet(1'234'567, Transport::kTcp, Direction::kOutbound,
                           40 + 2, {0x41, 0x42}));
  in.push_back(make_packet(2'000'003, Transport::kUdp, Direction::kInbound,
                           28 + 1, {0x99}));
  const auto native = serialize_pcap(in);
  for (const bool swapped : {false, true}) {
    for (const bool nanos : {false, true}) {
      const auto variant = fuzz::pcap_variant(native, swapped, nanos);
      const auto out = parse_pcap(variant, ParsePolicy::kStrict);
      ASSERT_EQ(out.packets.size(), in.size())
          << "swapped=" << swapped << " nanos=" << nanos;
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out.packets[i].ts, in[i].ts)
            << "swapped=" << swapped << " nanos=" << nanos << " packet " << i;
        EXPECT_EQ(out.packets[i].tuple, in[i].tuple) << i;
        EXPECT_EQ(out.packets[i].payload, in[i].payload) << i;
      }
    }
  }
}

TEST(PcapParse, TrimsEthernetTrailerPadding) {
  // Frames shorter than the 60-byte Ethernet minimum are padded on the wire;
  // the padding sits after the IP datagram and must not leak into payload.
  auto bytes =
      serialize_pcap({make_packet(10, Transport::kUdp, Direction::kOutbound,
                                  28 + 4, {0x01, 0x02, 0x03, 0x04})});
  // Append 8 trailer bytes to the record and patch incl/orig lengths
  // (offsets 32/36: 24-byte global header + ts_sec + ts_frac).
  const std::size_t record_len = bytes.size() - 40;
  for (int i = 0; i < 8; ++i) bytes.push_back(0xEE);
  const auto patched = static_cast<std::uint32_t>(record_len + 8);
  for (const std::size_t off : {std::size_t{32}, std::size_t{36}}) {
    bytes[off + 0] = static_cast<std::uint8_t>(patched & 0xff);
    bytes[off + 1] = static_cast<std::uint8_t>((patched >> 8) & 0xff);
    bytes[off + 2] = static_cast<std::uint8_t>((patched >> 16) & 0xff);
    bytes[off + 3] = static_cast<std::uint8_t>((patched >> 24) & 0xff);
  }
  const auto out = parse_pcap(bytes, ParsePolicy::kStrict);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].payload,
            (std::vector<std::uint8_t>{0x01, 0x02, 0x03, 0x04}));
}

TEST(PcapRoundTrip, PreservesTrailingZeroPayloadBytes) {
  // Payloads that genuinely end in 0x00 (common in binary IoT protocols)
  // must survive the round trip — length comes from the IP header, so
  // trailing zeros are data, not padding.
  const std::vector<std::uint8_t> payload{0x17, 0x03, 0x00, 0x00, 0x00};
  const auto out = parse_pcap(serialize_pcap(
      {make_packet(5, Transport::kTcp, Direction::kOutbound, 40 + 5,
                   payload)}));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].payload, payload);
}

TEST(PcapWriter, RejectsNegativeTimestamps) {
  // ts_sec/ts_usec are unsigned on the wire; a pre-epoch timestamp would
  // serialize as garbage, so the writer refuses it outright.
  const auto p = make_packet(-1, Transport::kTcp, Direction::kOutbound, 100);
  EXPECT_THROW(serialize_pcap({p}), std::runtime_error);
}

TEST(PcapParse, StrictThrowsTypedErrorWithOffsetOnMalformedFrame) {
  auto bytes = serialize_pcap(
      {make_packet(1, Transport::kTcp, Direction::kOutbound, 100)});
  // Corrupt the IP version/IHL byte (offset 40+14: record header + Ethernet).
  bytes[40 + 14] = 0x41;  // IHL=1 → header shorter than the minimum 20
  try {
    parse_pcap(bytes, ParsePolicy::kStrict);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GE(e.offset(), 40u);
    EXPECT_LT(e.offset(), bytes.size());
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  // The same frame under kLenient is counted, not thrown.
  const auto out = parse_pcap(bytes, ParsePolicy::kLenient);
  EXPECT_EQ(out.packets.size(), 0u);
  EXPECT_EQ(out.stats.malformed, 1u);
}

TEST(PcapStreamingReader, MatchesBatchParserOnFiles) {
  const std::string path = ::testing::TempDir() + "/behaviot_stream.pcap";
  std::vector<Packet> in;
  for (int i = 0; i < 300; ++i) {
    in.push_back(make_packet(1'000 * (i + 1),
                             i % 3 == 0 ? Transport::kUdp : Transport::kTcp,
                             i % 2 == 0 ? Direction::kOutbound
                                        : Direction::kInbound,
                             60 + static_cast<std::uint32_t>(i % 200),
                             std::vector<std::uint8_t>(i % 32, 0xab)));
  }
  {
    PcapWriter writer(path);
    for (const Packet& p : in) writer.write(p);
  }
  const auto batch = read_pcap(path);

  std::ifstream file(path, std::ios::binary);
  PcapReader reader(file, {.chunk_size = 512});
  std::vector<Packet> streamed;
  while (auto p = reader.next()) streamed.push_back(std::move(*p));
  std::filesystem::remove(path);

  ASSERT_EQ(streamed.size(), batch.packets.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].ts, batch.packets[i].ts) << i;
    EXPECT_EQ(streamed[i].tuple, batch.packets[i].tuple) << i;
    EXPECT_EQ(streamed[i].payload, batch.packets[i].payload) << i;
  }
  // The chunk buffer grows to hold at most one record, not the file.
  EXPECT_LE(reader.buffer_capacity(), 512u + 16u + 65535u);
}

TEST(PcapStreamingReader, LenientStopsCleanlyOnMidRecordTruncation) {
  const auto bytes = serialize_pcap(
      {make_packet(1, Transport::kTcp, Direction::kOutbound, 100),
       make_packet(2, Transport::kTcp, Direction::kOutbound, 100)});
  const std::string text(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size() - 7);
  std::istringstream in(text);
  PcapReader reader(in, {.policy = ParsePolicy::kLenient});
  std::size_t n = 0;
  while (reader.next()) ++n;
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(reader.stats().truncated, 1u);

  std::istringstream strict_in(text);
  PcapReader strict_reader(strict_in, {.policy = ParsePolicy::kStrict});
  EXPECT_NO_THROW(strict_reader.next());          // first record is whole
  EXPECT_THROW(strict_reader.next(), ParseError);  // second is cut short
}

TEST(PcapStreamingReader, OnEofTailsAGrowingStream) {
  // `behaviot watch --follow` mode: the file runs dry mid-record, the on_eof
  // callback "waits" for the capture to grow (here: appends the remaining
  // bytes), and reading resumes where it stopped.
  const auto bytes = serialize_pcap(
      {make_packet(1'000, Transport::kTcp, Direction::kOutbound, 100),
       make_packet(2'000, Transport::kUdp, Direction::kInbound, 80),
       make_packet(3'000, Transport::kTcp, Direction::kOutbound, 120)});
  // First installment cuts into the middle of the second record.
  const std::size_t cut = bytes.size() - 50;
  std::stringstream stream;
  stream.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(cut));

  int grow_calls = 0;
  PcapReaderOptions options;
  options.on_eof = [&]() {
    if (grow_calls++ > 0) return false;  // second dry spell: real EOF
    stream.clear();
    stream.write(reinterpret_cast<const char*>(bytes.data() + cut),
                 static_cast<std::streamsize>(bytes.size() - cut));
    return true;
  };
  PcapReader reader(stream, options);
  std::vector<Packet> out;
  while (auto p = reader.next()) out.push_back(std::move(*p));

  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].ts, Timestamp(1'000));
  EXPECT_EQ(out[1].ts, Timestamp(2'000));
  EXPECT_EQ(out[2].ts, Timestamp(3'000));
  EXPECT_GE(grow_calls, 1);
  EXPECT_EQ(reader.stats().truncated, 0u);  // the dry spell is not damage
}

TEST(PcapStreamingReader, OnEofDecliningBehavesLikePlainEof) {
  const auto bytes = serialize_pcap(
      {make_packet(1'000, Transport::kTcp, Direction::kOutbound, 100)});
  const std::string text(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size());
  std::istringstream in(text);
  PcapReaderOptions options;
  options.on_eof = []() { return false; };
  PcapReader reader(in, options);
  std::size_t n = 0;
  while (reader.next()) ++n;
  EXPECT_EQ(n, 1u);
}

}  // namespace
}  // namespace behaviot
