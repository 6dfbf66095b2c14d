#include "behaviot/net/pcap.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <streambuf>

#include "behaviot/obs/span.hpp"

namespace behaviot {
namespace {

// The four classic-pcap magics, as read little-endian from the first four
// file bytes: native vs byte-swapped writer, µs vs ns timestamp resolution.
constexpr std::uint32_t kMagicMicro = 0xa1b2c3d4;
constexpr std::uint32_t kMagicMicroSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNano = 0xa1b23c4d;
constexpr std::uint32_t kMagicNanoSwapped = 0x4d3cb2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;
constexpr std::uint32_t kSnapLen = 65535;
// Upper bound on a single record's captured length. Anything larger than
// this cannot be a sane Ethernet record and means the framing is garbage
// (it also bounds the reader's buffer growth).
constexpr std::uint32_t kMaxRecordBytes = 1u << 20;
constexpr std::size_t kEthernetHeader = 14;
constexpr std::size_t kIpv4Header = 20;

void put_u16be(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put_u32be(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint16_t get_u16be(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t get_u32be(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

void append_global_header(std::vector<std::uint8_t>& out) {
  put_u32le(out, kMagicMicro);
  put_u32le(out, 0x00040002);  // version 2.4 (minor, major as LE u16 pair)
  put_u32le(out, 0);           // thiszone
  put_u32le(out, 0);           // sigfigs
  put_u32le(out, kSnapLen);
  put_u32le(out, kLinkTypeEthernet);
}

// Serializes one packet as record header + Ethernet/IPv4/transport frame.
// The frame's src/dst reflect the actual direction of travel, so captures
// look like real gateway taps.
void append_packet(std::vector<std::uint8_t>& out, const Packet& p) {
  const bool outbound = p.dir == Direction::kOutbound;
  const Endpoint& from = outbound ? p.tuple.src : p.tuple.dst;
  const Endpoint& to = outbound ? p.tuple.dst : p.tuple.src;

  const std::uint32_t overhead = header_overhead(p.tuple.proto);
  const std::uint32_t ip_len = std::max(p.size, overhead);
  const std::size_t payload_len = ip_len - overhead;

  std::vector<std::uint8_t> frame;
  frame.reserve(kEthernetHeader + ip_len);
  // Ethernet: synthetic MACs derived from the IPs, ethertype IPv4.
  for (int i = 0; i < 2; ++i) {
    const std::uint32_t ip = (i == 0 ? to : from).ip.value();
    frame.push_back(0x02);
    frame.push_back(0x00);
    frame.push_back(static_cast<std::uint8_t>(ip >> 24));
    frame.push_back(static_cast<std::uint8_t>(ip >> 16));
    frame.push_back(static_cast<std::uint8_t>(ip >> 8));
    frame.push_back(static_cast<std::uint8_t>(ip));
  }
  put_u16be(frame, 0x0800);
  // IPv4 header (no options, checksum left zero — tools tolerate it).
  frame.push_back(0x45);
  frame.push_back(0);
  put_u16be(frame, static_cast<std::uint16_t>(ip_len));
  put_u16be(frame, 0);       // identification
  put_u16be(frame, 0x4000);  // DF
  frame.push_back(64);       // TTL
  frame.push_back(static_cast<std::uint8_t>(p.tuple.proto));
  put_u16be(frame, 0);  // header checksum (unset)
  put_u32be(frame, from.ip.value());
  put_u32be(frame, to.ip.value());
  // Transport header.
  if (p.tuple.proto == Transport::kTcp) {
    put_u16be(frame, from.port);
    put_u16be(frame, to.port);
    put_u32be(frame, 0);  // seq
    put_u32be(frame, 0);  // ack
    frame.push_back(0x50);  // data offset 5
    frame.push_back(0x18);  // PSH|ACK
    put_u16be(frame, 65535);  // window
    put_u16be(frame, 0);      // checksum
    put_u16be(frame, 0);      // urgent
  } else {
    put_u16be(frame, from.port);
    put_u16be(frame, to.port);
    put_u16be(frame, static_cast<std::uint16_t>(8 + payload_len));
    put_u16be(frame, 0);  // checksum
  }
  // Payload: real bytes if present, zero padding to the declared size.
  const std::size_t have = std::min(p.payload.size(), payload_len);
  frame.insert(frame.end(), p.payload.begin(), p.payload.begin() + have);
  frame.insert(frame.end(), payload_len - have, 0);

  // Record header. ts_sec/ts_usec are unsigned in the classic format, so
  // pre-epoch timestamps are unrepresentable — reject rather than emit
  // wrapped garbage fields.
  const std::int64_t us = p.ts.micros();
  if (us < 0) {
    throw std::runtime_error(
        "pcap: cannot serialize pre-epoch (negative) timestamp " +
        std::to_string(us) + "us");
  }
  put_u32le(out, static_cast<std::uint32_t>(us / 1'000'000));
  put_u32le(out, static_cast<std::uint32_t>(us % 1'000'000));
  put_u32le(out, static_cast<std::uint32_t>(frame.size()));
  put_u32le(out, static_cast<std::uint32_t>(frame.size()));
  out.insert(out.end(), frame.begin(), frame.end());
}

// Parses one captured Ethernet frame into `out`. Returns true on success;
// on skip, classifies the reason in `stats` (throwing instead in strict mode
// when the frame is internally inconsistent rather than merely foreign).
// `frame_offset` is the file offset of the frame's first byte.
bool parse_frame(const std::uint8_t* frame, std::size_t incl,
                 std::uint64_t frame_offset, std::int64_t ts_us,
                 ParsePolicy policy, ParseStats& stats, Packet& out) {
  if (incl < kEthernetHeader + kIpv4Header ||
      get_u16be(frame + 12) != 0x0800) {
    ++stats.non_ip;  // ARP, IPv6, LLDP… — valid capture content, not ours
    return false;
  }
  const std::uint8_t* ip = frame + kEthernetHeader;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  if ((ip[0] >> 4) != 4) {
    ++stats.non_ip;
    return false;
  }
  if (ihl < 20) {
    ++stats.malformed;
    if (policy == ParsePolicy::kStrict) {
      throw ParseError("pcap: IPv4 header length " + std::to_string(ihl) +
                           " below minimum 20",
                       frame_offset + kEthernetHeader);
    }
    return false;
  }
  const std::uint8_t proto_num = ip[9];
  if (proto_num != 6 && proto_num != 17) {
    ++stats.non_transport;
    return false;
  }
  const Transport proto = proto_num == 6 ? Transport::kTcp : Transport::kUdp;
  const std::size_t min_transport = proto == Transport::kTcp ? 20u : 8u;
  if (incl < kEthernetHeader + ihl + min_transport) {
    // Snapped too short to even read ports — nothing to salvage.
    ++stats.truncated;
    return false;
  }
  const std::uint16_t ip_len = get_u16be(ip + 2);
  const std::uint8_t* transport = ip + ihl;
  const std::size_t transport_hdr =
      proto == Transport::kTcp
          ? static_cast<std::size_t>(transport[12] >> 4) * 4
          : 8;
  if (transport_hdr < min_transport ||
      incl < kEthernetHeader + ihl + transport_hdr) {
    ++stats.malformed;
    if (policy == ParsePolicy::kStrict) {
      throw ParseError("pcap: TCP data offset " +
                           std::to_string(transport_hdr) + " inconsistent",
                       frame_offset + kEthernetHeader + ihl + 12);
    }
    return false;
  }
  if (ip_len < ihl + transport_hdr) {
    ++stats.malformed;
    if (policy == ParsePolicy::kStrict) {
      throw ParseError("pcap: declared IP length " + std::to_string(ip_len) +
                           " smaller than headers",
                       frame_offset + kEthernetHeader + 2);
    }
    return false;
  }

  // Transport payload length comes from the IP header's declared total
  // length, NOT from the captured length: sub-60-byte frames carry Ethernet
  // trailer padding that would otherwise leak into DNS/TLS parsing. When the
  // capture was snapped (captured < declared), clamp to what is present.
  const std::size_t declared_payload = ip_len - ihl - transport_hdr;
  const std::size_t available =
      incl - kEthernetHeader - ihl - transport_hdr;
  const std::size_t take = std::min(declared_payload, available);
  if (take < declared_payload) ++stats.snapped_payloads;

  const Ipv4Addr from_ip(get_u32be(ip + 12));
  const Ipv4Addr to_ip(get_u32be(ip + 16));
  const std::uint16_t from_port = get_u16be(transport);
  const std::uint16_t to_port = get_u16be(transport + 2);
  const std::uint8_t* payload = transport + transport_hdr;

  out.ts = Timestamp(ts_us);
  out.size = ip_len;
  // Canonicalize: the device side is the private endpoint; if both are
  // private (local traffic) or both public, keep the sender as src.
  const bool from_private = from_ip.is_private();
  const bool to_private = to_ip.is_private();
  if (!from_private && to_private) {
    out.tuple = {{to_ip, to_port}, {from_ip, from_port}, proto};
    out.dir = Direction::kInbound;
  } else {
    out.tuple = {{from_ip, from_port}, {to_ip, to_port}, proto};
    out.dir = Direction::kOutbound;
  }
  out.payload.assign(payload, payload + take);
  return true;
}

// Read-only streambuf view over a byte span, so the in-memory parse_pcap
// entry point reuses the streaming reader without copying its input.
class MemBuf : public std::streambuf {
 public:
  MemBuf(const std::uint8_t* data, std::size_t size) {
    auto* p = const_cast<char*>(reinterpret_cast<const char*>(data));
    setg(p, p, p + size);
  }
};

PcapReadResult read_all(std::istream& in, ParsePolicy policy) {
  obs::StageSpan span("ingest.pcap");
  PcapReader reader(in, {.policy = policy});
  PcapReadResult result;
  while (auto p = reader.next()) result.packets.push_back(std::move(*p));
  result.stats = reader.stats();
  record_parse_stats(result.stats);
  return result;
}

}  // namespace

struct PcapWriter::Impl {
  std::ofstream file;
};

PcapWriter::PcapWriter(const std::string& path) : impl_(new Impl) {
  impl_->file.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->file) {
    delete impl_;
    throw std::runtime_error("PcapWriter: cannot open " + path);
  }
  std::vector<std::uint8_t> header;
  append_global_header(header);
  impl_->file.write(reinterpret_cast<const char*>(header.data()),
                    static_cast<std::streamsize>(header.size()));
}

PcapWriter::~PcapWriter() {
  close();
  delete impl_;
}

void PcapWriter::write(const Packet& packet) {
  std::vector<std::uint8_t> buf;
  append_packet(buf, packet);
  impl_->file.write(reinterpret_cast<const char*>(buf.data()),
                    static_cast<std::streamsize>(buf.size()));
  ++count_;
}

void PcapWriter::close() {
  if (impl_->file.is_open()) impl_->file.close();
}

std::vector<std::uint8_t> serialize_pcap(const std::vector<Packet>& packets) {
  std::vector<std::uint8_t> out;
  append_global_header(out);
  for (const Packet& p : packets) append_packet(out, p);
  return out;
}

std::uint32_t PcapReader::u32(const std::uint8_t* p) const {
  return swapped_ ? get_u32be(p) : get_u32le(p);
}

PcapReader::PcapReader(std::istream& in, const PcapReaderOptions& options)
    : in_(&in),
      policy_(options.policy),
      chunk_(std::max<std::size_t>(options.chunk_size, 64)),
      on_eof_(options.on_eof) {
  if (!ensure(24)) {
    throw ParseError("pcap: truncated header", offset_at(end_));
  }
  const std::uint8_t* h = buf_.data();
  switch (get_u32le(h)) {
    case kMagicMicro:
      break;
    case kMagicMicroSwapped:
      swapped_ = true;
      break;
    case kMagicNano:
      nanos_ = true;
      break;
    case kMagicNanoSwapped:
      swapped_ = true;
      nanos_ = true;
      break;
    default:
      throw ParseError("pcap: bad magic", 0);
  }
  snaplen_ = u32(h + 16);
  if (u32(h + 20) != kLinkTypeEthernet) {
    throw ParseError("pcap: unsupported link type", 20);
  }
  pos_ = 24;
  if (options.resume_offset > 0) {
    if (options.resume_offset < 24) {
      throw ParseError("pcap: resume offset inside the global header",
                       options.resume_offset);
    }
    const std::uint64_t target = options.resume_offset;
    if (target <= base_offset_ + end_) {
      pos_ = static_cast<std::size_t>(target - base_offset_);
    } else {
      // Drop the buffer and skip forward on the stream without reading the
      // skipped records into memory. In tail mode the target may lie past
      // the file's current end — wait for growth like any other tail read.
      base_offset_ += end_;
      pos_ = end_ = 0;
      while (base_offset_ < target) {
        if (!in_->good()) {
          if (!on_eof_ || !on_eof_()) {
            throw ParseError("pcap: resume offset beyond end of capture",
                             target);
          }
          in_->clear();
        }
        in_->ignore(static_cast<std::streamsize>(
            std::min<std::uint64_t>(target - base_offset_, 1u << 20)));
        const auto got = static_cast<std::uint64_t>(in_->gcount());
        base_offset_ += got;
        if (got == 0 && !on_eof_) {
          throw ParseError("pcap: resume offset beyond end of capture",
                           target);
        }
      }
    }
  }
}

bool PcapReader::ensure(std::size_t need) {
  if (end_ - pos_ >= need) return true;
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    base_offset_ += pos_;
    end_ -= pos_;
    pos_ = 0;
  }
  if (buf_.size() < std::max(need, chunk_)) {
    buf_.resize(std::max(need, chunk_));
  }
  while (end_ < need) {
    if (!in_->good()) {
      // Tail mode: the file may have grown since we hit EOF. The callback
      // decides whether to wait and retry (clearing eof/fail state so the
      // next read continues at the current offset) or to accept the end.
      if (!on_eof_ || !on_eof_()) break;
      in_->clear();
    }
    in_->read(reinterpret_cast<char*>(buf_.data() + end_),
              static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_->gcount());
    if (in_->gcount() == 0 && !on_eof_) break;
  }
  return end_ - pos_ >= need;
}

std::optional<Packet> PcapReader::next() {
  while (!done_) {
    if (!ensure(16)) {
      if (end_ - pos_ > 0) {  // partial record header at EOF
        ++stats_.truncated;
        if (policy_ == ParsePolicy::kStrict) {
          throw ParseError("pcap: truncated record header", offset_at(pos_));
        }
        pos_ = end_;
      }
      done_ = true;
      break;
    }
    const std::uint64_t rec_off = offset_at(pos_);
    const std::uint8_t* rec = buf_.data() + pos_;
    const std::uint32_t ts_sec = u32(rec);
    const std::uint32_t ts_frac = u32(rec + 4);
    const std::uint32_t incl = u32(rec + 8);
    if (incl > kMaxRecordBytes) {
      ++stats_.malformed;
      if (policy_ == ParsePolicy::kStrict) {
        throw ParseError("pcap: record length " + std::to_string(incl) +
                             " exceeds " + std::to_string(kMaxRecordBytes),
                         rec_off + 8);
      }
      done_ = true;  // framing is lost; no way to resynchronize
      break;
    }
    if (!ensure(16 + std::size_t{incl})) {
      ++stats_.truncated;
      if (policy_ == ParsePolicy::kStrict) {
        throw ParseError("pcap: truncated record body", rec_off);
      }
      pos_ = end_;
      done_ = true;
      break;
    }
    ++stats_.records;
    const std::uint8_t* frame = buf_.data() + pos_ + 16;
    pos_ += 16 + incl;
    const std::int64_t ts_us =
        static_cast<std::int64_t>(ts_sec) * 1'000'000 +
        (nanos_ ? ts_frac / 1'000 : ts_frac);
    Packet p;
    if (parse_frame(frame, incl, rec_off + 16, ts_us, policy_, stats_, p)) {
      ++stats_.packets;
      return p;
    }
  }
  return std::nullopt;
}

PcapReadResult parse_pcap(const std::vector<std::uint8_t>& bytes,
                          ParsePolicy policy) {
  MemBuf sb(bytes.data(), bytes.size());
  std::istream in(&sb);
  return read_all(in, policy);
}

PcapReadResult read_pcap(const std::string& path, ParsePolicy policy) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("read_pcap: cannot open " + path);
  return read_all(file, policy);
}

}  // namespace behaviot
