// pcap_roundtrip: export a simulated capture as a classic .pcap file and
// re-ingest it through the full pipeline — demonstrating that the library
// consumes real capture files (the deployment mode of the paper: a tap at
// the home gateway), not just in-memory simulations.
//
//   $ ./pcap_roundtrip [output.pcap]
#include <cstdio>
#include <fstream>
#include <string>

#include "behaviot/core/pipeline.hpp"
#include "behaviot/net/pcap.hpp"

using namespace behaviot;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/behaviot_demo.pcap";

  std::printf("=== pcap round trip ===\n");
  const auto capture = testbed::Datasets::idle(501, 0.1);
  std::printf("[1/3] writing %zu packets to %s ...\n", capture.packets.size(),
              path.c_str());
  {
    PcapWriter writer(path);
    for (const Packet& p : capture.packets) writer.write(p);
  }

  std::printf("[2/3] reading the capture back ...\n");
  // Stream the file record-by-record through a small fixed-size chunk
  // buffer — the gateway ingestion mode: peak memory stays bounded by one
  // record no matter how large the capture grows.
  PcapReadResult parsed;
  {
    std::ifstream file(path, std::ios::binary);
    PcapReader reader(file, {.policy = ParsePolicy::kLenient,
                             .chunk_size = 16 * 1024});
    while (auto p = reader.next()) parsed.packets.push_back(std::move(*p));
    parsed.stats = reader.stats();
    std::printf("      %s\n      streamed with a %zu-byte buffer\n",
                parsed.stats.summary().c_str(), reader.buffer_capacity());
  }

  // Re-attach device identity by source IP, as a gateway deployment would
  // (the catalog doubles as the DHCP lease table).
  const auto& catalog = testbed::Catalog::standard();
  auto packets = parsed.packets;
  std::size_t unknown = 0;
  for (Packet& p : packets) {
    const auto* device = catalog.by_ip(p.tuple.src.ip);
    if (device != nullptr) {
      p.device = device->id;
    } else {
      ++unknown;
    }
  }

  std::printf("[3/3] assembling flows from the re-ingested capture ...\n");
  DomainResolver resolver;
  testbed::configure_resolver(resolver, capture);
  FlowAssembler assembler;
  const auto flows = assembler.assemble(packets, resolver);

  std::size_t annotated = 0;
  for (const FlowRecord& f : flows) {
    if (!f.domain.empty()) ++annotated;
  }
  std::printf("\nflows: %zu, domain-annotated: %zu (%.1f%%), unknown-device "
              "packets: %zu\n",
              flows.size(), annotated,
              100.0 * static_cast<double>(annotated) /
                  static_cast<double>(flows.size()),
              unknown);
  std::printf("round trip %s\n",
              parsed.packets.size() == capture.packets.size() && unknown == 0
                  ? "OK"
                  : "MISMATCH");
  return parsed.packets.size() == capture.packets.size() ? 0 : 1;
}
