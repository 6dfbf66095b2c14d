#include "behaviot/flow/assembler.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "behaviot/net/dns.hpp"

namespace behaviot {
namespace {

Packet packet_at(std::int64_t us, std::uint16_t src_port = 40000,
                 std::uint16_t dst_port = 443,
                 Transport proto = Transport::kTcp) {
  Packet p;
  p.ts = Timestamp(us);
  p.tuple = {{Ipv4Addr(192, 168, 1, 7), src_port},
             {Ipv4Addr(54, 1, 2, 3), dst_port},
             proto};
  p.size = 100;
  p.dir = Direction::kOutbound;
  p.device = 7;
  return p;
}

TEST(FlowAssembler, GroupsSameTupleIntoOneFlow) {
  DomainResolver resolver;
  const FlowAssembler assembler;
  const std::vector<Packet> packets{packet_at(0), packet_at(100'000),
                                    packet_at(500'000)};
  const auto flows = assembler.assemble(packets, resolver);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets.size(), 3u);
  EXPECT_EQ(flows[0].device, 7);
  EXPECT_EQ(flows[0].start, Timestamp(0));
  EXPECT_EQ(flows[0].end, Timestamp(500'000));
}

TEST(FlowAssembler, SplitsAtBurstGap) {
  DomainResolver resolver;
  const FlowAssembler assembler;
  // Gap of exactly 1 s does NOT split (threshold is strict >).
  const std::vector<Packet> packets{packet_at(0), packet_at(1'000'000),
                                    packet_at(2'000'001), packet_at(2'900'000)};
  const auto flows = assembler.assemble(packets, resolver);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].packets.size(), 2u);
  EXPECT_EQ(flows[1].packets.size(), 2u);
}

TEST(FlowAssembler, DistinctTuplesSeparateFlows) {
  DomainResolver resolver;
  const FlowAssembler assembler;
  const std::vector<Packet> packets{packet_at(0, 40000), packet_at(10, 40001),
                                    packet_at(20, 40000)};
  const auto flows = assembler.assemble(packets, resolver);
  EXPECT_EQ(flows.size(), 2u);
}

TEST(FlowAssembler, UnsortedInputIsSorted) {
  DomainResolver resolver;
  const FlowAssembler assembler;
  const std::vector<Packet> packets{packet_at(2'500'000), packet_at(0),
                                    packet_at(400'000)};
  const auto flows = assembler.assemble(packets, resolver);
  ASSERT_EQ(flows.size(), 2u);  // 0 & 0.4s together, 2.5s separate
  EXPECT_EQ(flows[0].packets.size(), 2u);
  EXPECT_LT(flows[0].start, flows[1].start);
}

TEST(FlowAssembler, AnnotatesDomainFromDnsSeenEarlier) {
  DomainResolver resolver;
  const FlowAssembler assembler;
  Packet dns;
  dns.ts = Timestamp(0);
  dns.tuple = {{Ipv4Addr(192, 168, 1, 7), 39000},
               {Ipv4Addr(155, 33, 10, 53), 53},
               Transport::kUdp};
  dns.dir = Direction::kInbound;
  dns.payload = make_dns_response(1, "api.example.com", Ipv4Addr(54, 1, 2, 3));
  dns.size = 100;
  dns.device = 7;

  const std::vector<Packet> packets{dns, packet_at(2'000'000)};
  const auto flows = assembler.assemble(packets, resolver);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[1].domain, "api.example.com");
  EXPECT_EQ(flows[1].group_key(), "api.example.com|TLS");
}

TEST(FlowAssembler, BlankDomainGroupsFallBackToIp) {
  DomainResolver resolver;
  const FlowAssembler assembler;
  const std::vector<Packet> packets{packet_at(0)};
  const auto flows = assembler.assemble(packets, resolver);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].domain, "");
  // Unresolved flows carry a stable "unresolved:" prefix so a raw-IP group
  // can never collide with a domain named like an address.
  EXPECT_EQ(flows[0].group_key(), "unresolved:54.1.2.3|TLS");
}

TEST(FlowAssembler, DropInfrastructureFiltersDnsNtp) {
  DomainResolver resolver;
  AssemblerOptions options;
  options.drop_infrastructure = true;
  const FlowAssembler assembler(options);
  const std::vector<Packet> packets{
      packet_at(0, 40000, 53, Transport::kUdp),
      packet_at(10, 40001, 123, Transport::kUdp),
      packet_at(20, 40002, 443, Transport::kTcp)};
  const auto flows = assembler.assemble(packets, resolver);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].app, AppProtocol::kTls);
}

TEST(FlowAssembler, EmptyCapture) {
  DomainResolver resolver;
  const FlowAssembler assembler;
  const auto flows = assembler.assemble(std::vector<Packet>{}, resolver);
  EXPECT_TRUE(flows.empty());
}

// ---------------------------------------------------------------------------
// StreamingFlowAssembler: the incremental core behind `behaviot watch`.

constexpr Timestamp kDrainAll{std::numeric_limits<std::int64_t>::max()};

std::vector<FlowRecord> stream_assemble(const std::vector<Packet>& packets,
                                        std::size_t chunk,
                                        StreamingAssemblerOptions opts = {}) {
  DomainResolver resolver;
  StreamingFlowAssembler core(opts, resolver);
  const std::span<const Packet> all(packets);
  for (std::size_t i = 0; i < all.size(); i += chunk) {
    core.feed(all.subspan(i, std::min(chunk, all.size() - i)));
  }
  core.finish();
  return core.drain_sealed(kDrainAll);
}

void expect_same_flows(const std::vector<FlowRecord>& a,
                       const std::vector<FlowRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << "flow " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "flow " << i;
    EXPECT_EQ(a[i].tuple, b[i].tuple) << "flow " << i;
    EXPECT_EQ(a[i].domain, b[i].domain) << "flow " << i;
    ASSERT_EQ(a[i].packets.size(), b[i].packets.size()) << "flow " << i;
    for (std::size_t j = 0; j < a[i].packets.size(); ++j) {
      EXPECT_EQ(a[i].packets[j].ts, b[i].packets[j].ts) << i << "/" << j;
      EXPECT_EQ(a[i].packets[j].size, b[i].packets[j].size) << i << "/" << j;
    }
  }
}

TEST(StreamingFlowAssembler, AnyChunkingMatchesBatch) {
  // Deterministic mixed traffic: five tuples, jittered timing, mild
  // reordering within the horizon, and occasional >1 s lulls that split
  // bursts. Chunk boundaries must carry no meaning.
  std::vector<Packet> packets;
  std::int64_t t = 0;
  for (int i = 0; i < 400; ++i) {
    t += 137'000 + (i * i % 13) * 5'000;   // ~137 ms cadence, jittered
    if (i % 97 == 0) t += 2'500'000;       // occasional burst-splitting lull
    std::int64_t ts = t;
    if (i % 11 == 3) ts -= 40'000;         // in-horizon capture reordering
    packets.push_back(
        packet_at(ts, static_cast<std::uint16_t>(40000 + i * 7 % 5)));
  }
  DomainResolver batch_resolver;
  const auto batch =
      FlowAssembler().assemble(packets, batch_resolver);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{17}, std::size_t{1000}}) {
    SCOPED_TRACE(chunk);
    expect_same_flows(stream_assemble(packets, chunk), batch);
  }
}

TEST(StreamingFlowAssembler, MidStreamIsolatedRegressionIsClamped) {
  // One packet jumps back past the clamp threshold while its successor is
  // already back on the high timeline: a capture-clock fault, clamped.
  const std::vector<Packet> packets{packet_at(5'000'000), packet_at(4'000'000),
                                    packet_at(5'050'000)};
  DomainResolver resolver;
  StreamingFlowAssembler core({}, resolver);
  core.feed(packets);
  core.finish();
  const auto flows = core.drain_sealed(kDrainAll);
  EXPECT_EQ(core.stats().clamped_ts, 1u);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].start, Timestamp(5'000'000));  // not smeared to 4.0 s
  EXPECT_EQ(flows[0].packets.size(), 3u);
}

TEST(StreamingFlowAssembler, TailRegressionIsClamped) {
  // Regression fix: the final packet has no look-ahead successor, so the old
  // clamp could never fire on a batch tail. The tail rule clamps when the
  // regression starts at the tail (predecessor still on the high timeline).
  const std::vector<Packet> packets{packet_at(5'000'000), packet_at(5'050'000),
                                    packet_at(4'000'000)};
  DomainResolver resolver;
  StreamingFlowAssembler core({}, resolver);
  core.feed(packets);
  core.finish();
  const auto flows = core.drain_sealed(kDrainAll);
  EXPECT_EQ(core.stats().clamped_ts, 1u);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].start, Timestamp(5'000'000));
  EXPECT_EQ(flows[0].end, Timestamp(5'050'000));

  // The batch wrapper shares the core, so `score` sees the same fix.
  DomainResolver batch_resolver;
  const auto batch = FlowAssembler().assemble(packets, batch_resolver);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].start, Timestamp(5'000'000));
}

TEST(StreamingFlowAssembler, SustainedDropAtTailIsNotClamped) {
  // The predecessor already regressed too: block-unsorted input, which the
  // reorder stage sorts — no clamping. The displacement (1.05 s) exceeds the
  // default 1 s horizon, so widen it: this case is about the clamp rule, not
  // late-packet handling.
  const std::vector<Packet> packets{packet_at(5'000'000), packet_at(4'000'000),
                                    packet_at(3'950'000)};
  StreamingAssemblerOptions opts;
  opts.reorder_horizon_us = seconds(10.0);
  DomainResolver resolver;
  StreamingFlowAssembler core(opts, resolver);
  core.feed(packets);
  core.finish();
  const auto flows = core.drain_sealed(kDrainAll);
  EXPECT_EQ(core.stats().clamped_ts, 0u);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].start, Timestamp(3'950'000));
}

TEST(StreamingFlowAssembler, UnresolvedCountsOnlyEmittedFlows) {
  // Regression fix: infrastructure flows dropped from the output must not
  // inflate the unresolved-domain count — it is a statement about emitted
  // flows.
  StreamingAssemblerOptions opts;
  opts.base.drop_infrastructure = true;
  DomainResolver resolver;
  StreamingFlowAssembler core(opts, resolver);
  const std::vector<Packet> packets{
      packet_at(0, 40000, 53, Transport::kUdp),    // DNS: dropped, unresolved
      packet_at(10, 40001, 123, Transport::kUdp),  // NTP: dropped, unresolved
      packet_at(20, 40002, 443, Transport::kTcp)}; // TLS: emitted, unresolved
  core.feed(packets);
  core.finish();
  const auto flows = core.drain_sealed(kDrainAll);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(core.stats().infrastructure_dropped, 2u);
  EXPECT_EQ(core.stats().flows_emitted, 1u);
  EXPECT_EQ(core.stats().unresolved_emitted, 1u);
}

TEST(StreamingFlowAssembler, OpenFlowCapForceSealsLeastRecentlyActive) {
  StreamingAssemblerOptions opts;
  opts.max_open_flows = 4;
  DomainResolver resolver;
  StreamingFlowAssembler core(opts, resolver);
  // 50 distinct tuples, 100 ms apart: without the cap ~10 flows would be
  // open at once (burst gap 1 s).
  std::vector<Packet> packets;
  for (int i = 0; i < 50; ++i) {
    packets.push_back(packet_at(static_cast<std::int64_t>(i) * 100'000,
                                static_cast<std::uint16_t>(40000 + i)));
  }
  core.feed(packets);
  core.finish();
  const auto flows = core.drain_sealed(kDrainAll);
  EXPECT_LE(core.stats().peak_open_flows, 4u);
  EXPECT_GT(core.stats().force_sealed, 0u);
  // Every packet still comes out in exactly one flow.
  ASSERT_EQ(flows.size(), 50u);
  std::size_t total = 0;
  for (const auto& f : flows) total += f.packets.size();
  EXPECT_EQ(total, 50u);
}

TEST(StreamingFlowAssembler, BufferedPacketCapForcesProgress) {
  StreamingAssemblerOptions opts;
  opts.reorder_horizon_us = seconds(100.0);  // reorder stage would hold all
  opts.max_buffered_packets = 16;
  DomainResolver resolver;
  StreamingFlowAssembler core(opts, resolver);
  std::vector<Packet> packets;
  for (int i = 0; i < 1000; ++i) {
    packets.push_back(packet_at(i));
  }
  core.feed(packets);
  EXPECT_LE(core.buffered_packets(), 16u);
  core.finish();
  const auto flows = core.drain_sealed(kDrainAll);
  EXPECT_LE(core.stats().peak_buffered_packets, 16u);
  EXPECT_GT(core.stats().force_released, 0u);
  std::size_t total = 0;
  for (const auto& f : flows) total += f.packets.size();
  EXPECT_EQ(total, 1000u);
}

TEST(StreamingFlowAssembler, SealWatermarkClosesWindowsIncrementally) {
  DomainResolver resolver;
  StreamingFlowAssembler core({}, resolver);
  const std::vector<Packet> packets{packet_at(0), packet_at(5'000'000),
                                    packet_at(10'000'000)};
  core.feed(packets);
  // Stream clock at 5 s (the 10 s packet is still the clamp look-ahead):
  // everything before ~4 s is final — the 0 s burst is sealed and drainable.
  EXPECT_GE(core.seal_watermark(), Timestamp(seconds(4.0)));
  EXPECT_LT(core.seal_watermark(), Timestamp(seconds(5.0)));
  auto early = core.drain_sealed(Timestamp(seconds(4.0)));
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].start, Timestamp(0));

  core.finish();
  EXPECT_EQ(core.seal_watermark(), kDrainAll);
  const auto rest = core.drain_sealed(kDrainAll);
  EXPECT_EQ(rest.size(), 2u);  // 5 s and 10 s bursts
  EXPECT_EQ(core.first_release(), Timestamp(0));
}

TEST(StreamingFlowAssembler, DrainsByStartWhileCheckpointsKeepSealOrder) {
  // Port 40000 sends every 0.5 s from 0 s to 10 s; port 40001 sends once at
  // 1 s, so its flow seals first although it starts later.
  std::vector<Packet> packets;
  for (int i = 0; i <= 20; ++i) {
    packets.push_back(packet_at(static_cast<std::int64_t>(i) * 500'000));
    if (i == 2) packets.push_back(packet_at(1'000'000, 40001));
  }
  DomainResolver resolver;
  StreamingFlowAssembler core({}, resolver);
  core.feed(packets);
  core.finish();
  const auto ports = [](const std::vector<FlowRecord>& flows) {
    std::vector<std::uint16_t> out;
    for (const FlowRecord& f : flows) out.push_back(f.tuple.src.port);
    return out;
  };
  const std::vector<std::uint16_t> seal_order{40001, 40000};
  EXPECT_EQ(ports(core.export_state().sealed), seal_order);
  DomainResolver restored_resolver;
  StreamingFlowAssembler restored({}, restored_resolver);
  restored.import_state(core.export_state());
  EXPECT_EQ(ports(restored.export_state().sealed), seal_order);

  // The drain takes by start: the flow sealed last goes first.
  const auto first = core.drain_sealed(Timestamp(500'000));
  EXPECT_EQ(ports(first), std::vector<std::uint16_t>{40000});
  EXPECT_EQ(ports(core.export_state().sealed),
            std::vector<std::uint16_t>{40001});
  EXPECT_EQ(ports(core.drain_sealed(kDrainAll)),
            std::vector<std::uint16_t>{40001});
}

TEST(FlowRecord, TotalBytesAndDuration) {
  FlowRecord f;
  f.start = Timestamp(0);
  f.end = Timestamp(seconds(2.0));
  f.packets = {{Timestamp(0), 100, Direction::kOutbound, false},
               {Timestamp(seconds(2.0)), 200, Direction::kInbound, false}};
  EXPECT_EQ(f.total_bytes(), 300u);
  EXPECT_DOUBLE_EQ(f.duration_seconds(), 2.0);
}

TEST(EventKind, Names) {
  EXPECT_STREQ(to_string(EventKind::kPeriodic), "periodic");
  EXPECT_STREQ(to_string(EventKind::kUser), "user");
  EXPECT_STREQ(to_string(EventKind::kAperiodic), "aperiodic");
  EXPECT_STREQ(to_string(EventKind::kUnknown), "unknown");
}

}  // namespace
}  // namespace behaviot
