#include "behaviot/core/fuzz_corpus.hpp"

#include <algorithm>

#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/deviation/short_term_metric.hpp"
#include "behaviot/net/dns.hpp"
#include "behaviot/net/pcap.hpp"
#include "behaviot/net/tls.hpp"
#include "behaviot/pfsm/synoptic.hpp"

namespace behaviot::fuzz {
namespace {

constexpr const char* kDomains[] = {
    "hb.vendor.com", "ntp.pool.example.org", "api.iot-cloud.net",
    "telemetry.smarthome.io", "cdn.firmware-updates.com", "a.b",
};

constexpr const char* kLabels[] = {
    "cam:motion", "bulb:on", "bulb:off", "plug:on_off", "echo:voice",
    "lock:unlock",
};

std::uint32_t get_u32le(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

std::string random_domain(Rng& rng) {
  return kDomains[rng.uniform_index(std::size(kDomains))];
}

}  // namespace

std::vector<Packet> random_packets(Rng& rng, std::size_t count) {
  std::vector<Packet> packets;
  packets.reserve(count);
  std::int64_t ts = 0;
  for (std::size_t i = 0; i < count; ++i) {
    ts += static_cast<std::int64_t>(rng.exponential(250'000.0)) + 1;
    Packet p;
    p.ts = Timestamp(ts);
    p.dir = rng.chance(0.6) ? Direction::kOutbound : Direction::kInbound;
    const bool udp = rng.chance(0.4);
    const Transport proto = udp ? Transport::kUdp : Transport::kTcp;
    const Ipv4Addr device(192, 168, 1,
                          static_cast<std::uint8_t>(2 + rng.uniform_index(50)));
    const Ipv4Addr remote(
        rng.chance(0.15)
            ? Ipv4Addr(192, 168, 1,
                       static_cast<std::uint8_t>(2 + rng.uniform_index(50)))
            : Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64() | 0x08000000)));
    const auto src_port =
        static_cast<std::uint16_t>(32768 + rng.uniform_index(28000));
    const std::uint16_t dst_port =
        udp ? (rng.chance(0.5) ? 53 : 123) : (rng.chance(0.7) ? 443 : 80);
    p.tuple = {{device, src_port}, {remote, dst_port}, proto};

    const double roll = rng.uniform();
    if (udp && roll < 0.3) {
      p.payload = make_dns_response(
          static_cast<std::uint16_t>(rng.next_u64()), random_domain(rng),
          Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
          static_cast<std::uint32_t>(rng.uniform_index(3600)));
    } else if (!udp && roll < 0.3) {
      p.payload = make_tls_client_hello(random_domain(rng));
    } else if (roll < 0.45) {
      p.payload.resize(rng.uniform_index(200));
      for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.next_u64());
    }
    const std::uint32_t overhead = header_overhead(proto);
    // Mix of sizes: padded sub-minimum frames, payload-sized, and larger
    // records whose payload the writer zero-pads.
    p.size = static_cast<std::uint32_t>(
        rng.chance(0.2) ? rng.uniform_index(overhead + 4)
                        : overhead + p.payload.size() +
                              (rng.chance(0.3) ? rng.uniform_index(400) : 0));
    packets.push_back(std::move(p));
  }
  return packets;
}

BehaviorModelSet random_models(Rng& rng) {
  BehaviorModelSet models;

  std::vector<PeriodicModel> periodic;
  const std::size_t n = 1 + rng.uniform_index(6);
  for (std::size_t i = 0; i < n; ++i) {
    PeriodicModel m;
    m.device = static_cast<DeviceId>(rng.uniform_index(49));
    m.app = static_cast<AppProtocol>(rng.uniform_index(6));
    m.domain = rng.chance(0.8) ? random_domain(rng) : "";
    m.group = (m.domain.empty() ? "54.1.2.3" : m.domain) + "|" +
              std::to_string(i);
    m.period_seconds = rng.uniform(5.0, 86400.0);
    m.tolerance_seconds = rng.uniform(0.1, 60.0);
    m.autocorr_score = rng.uniform();
    m.support = 1 + rng.uniform_index(500);
    if (rng.chance(0.3)) m.absent_generations = 1 + rng.uniform_index(5);
    const std::size_t extra = rng.uniform_index(3);
    for (std::size_t k = 0; k < extra; ++k) {
      m.secondary_periods.push_back(rng.uniform(5.0, 86400.0));
    }
    periodic.push_back(std::move(m));
  }
  models.periodic = PeriodicModelSet::from_models(std::move(periodic));

  // Hand-built user-action forests (binary-format-only section): a mix of
  // single-leaf and one-split trees covers leaves, internal nodes, and
  // distribution arrays without paying for real training in a fuzz loop.
  UserActionModels::ClassifierMap classifiers;
  const std::size_t n_forest_devices = rng.uniform_index(3);
  for (std::size_t d = 0; d < n_forest_devices; ++d) {
    auto& list = classifiers[static_cast<DeviceId>(rng.uniform_index(49))];
    const std::size_t n_classifiers = 1 + rng.uniform_index(2);
    for (std::size_t k = 0; k < n_classifiers; ++k) {
      std::vector<DecisionTree> trees;
      const std::size_t n_trees = 1 + rng.uniform_index(3);
      for (std::size_t t = 0; t < n_trees; ++t) {
        std::vector<DecisionTree::Node> nodes;
        const double p = rng.uniform();
        if (rng.chance(0.5)) {
          nodes.push_back({-1, 0.0, -1, -1, {p, 1.0 - p}});
        } else {
          nodes.push_back({static_cast<int>(rng.uniform_index(6)),
                           rng.uniform(0.0, 1500.0), 1, 2, {}});
          nodes.push_back({-1, 0.0, -1, -1, {p, 1.0 - p}});
          nodes.push_back({-1, 0.0, -1, -1, {1.0 - p, p}});
        }
        trees.push_back(DecisionTree::from_nodes(2, std::move(nodes)));
      }
      list.push_back({kLabels[rng.uniform_index(std::size(kLabels))],
                      RandomForest::from_trees(2, std::move(trees))});
    }
  }
  models.user_actions = UserActionModels::from_classifiers(
      std::move(classifiers), rng.uniform(0.5, 0.9));

  std::vector<std::vector<std::string>> traces;
  const std::size_t n_traces = 2 + rng.uniform_index(4);
  for (std::size_t t = 0; t < n_traces; ++t) {
    std::vector<std::string> trace;
    const std::size_t len = 1 + rng.uniform_index(5);
    for (std::size_t i = 0; i < len; ++i) {
      trace.push_back(kLabels[rng.uniform_index(std::size(kLabels))]);
    }
    traces.push_back(std::move(trace));
  }
  models.pfsm = infer_pfsm(traces).pfsm;
  models.training_traces = traces;
  models.short_term = ShortTermThreshold::calibrate(models.pfsm, traces);
  models.thresholds.short_term = models.short_term.value();
  models.thresholds.periodic = rng.uniform(0.1, 2.0);
  models.thresholds.long_term_z = rng.uniform(1.0, 5.0);
  return models;
}

std::vector<std::uint8_t> pcap_variant(const std::vector<std::uint8_t>& bytes,
                                       bool swapped, bool nanos) {
  std::vector<std::uint8_t> out;
  out.reserve(bytes.size());
  const auto put32 = [&](std::uint32_t v) {
    if (swapped) {
      out.push_back(static_cast<std::uint8_t>(v >> 24));
      out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
      out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
      out.push_back(static_cast<std::uint8_t>(v & 0xff));
    } else {
      out.push_back(static_cast<std::uint8_t>(v & 0xff));
      out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
      out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
      out.push_back(static_cast<std::uint8_t>(v >> 24));
    }
  };
  const auto put16 = [&](std::uint16_t v) {
    if (swapped) {
      out.push_back(static_cast<std::uint8_t>(v >> 8));
      out.push_back(static_cast<std::uint8_t>(v & 0xff));
    } else {
      out.push_back(static_cast<std::uint8_t>(v & 0xff));
      out.push_back(static_cast<std::uint8_t>(v >> 8));
    }
  };

  put32(nanos ? 0xa1b23c4du : 0xa1b2c3d4u);
  put16(2);  // version major
  put16(4);  // version minor
  put32(get_u32le(bytes.data() + 8));    // thiszone
  put32(get_u32le(bytes.data() + 12));   // sigfigs
  put32(get_u32le(bytes.data() + 16));   // snaplen
  put32(get_u32le(bytes.data() + 20));   // linktype

  std::size_t off = 24;
  while (off + 16 <= bytes.size()) {
    const std::uint32_t sec = get_u32le(bytes.data() + off);
    const std::uint32_t frac = get_u32le(bytes.data() + off + 4);
    const std::uint32_t incl = get_u32le(bytes.data() + off + 8);
    const std::uint32_t orig = get_u32le(bytes.data() + off + 12);
    off += 16;
    put32(sec);
    put32(nanos ? frac * 1000u : frac);  // µs fraction < 1e6: no overflow
    put32(incl);
    put32(orig);
    const std::size_t take = std::min<std::size_t>(incl, bytes.size() - off);
    out.insert(out.end(), bytes.begin() + static_cast<long>(off),
               bytes.begin() + static_cast<long>(off + take));
    off += take;
  }
  return out;
}

void mutate(Rng& rng, std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) {
    bytes.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    return;
  }
  const std::size_t at = rng.uniform_index(bytes.size());
  switch (rng.uniform_index(7)) {
    case 0:  // bit flip
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      break;
    case 1:  // byte splat
      bytes[at] = static_cast<std::uint8_t>(rng.next_u64());
      break;
    case 2:  // truncate
      bytes.resize(at);
      break;
    case 3: {  // erase a short span
      const std::size_t len = std::min(bytes.size() - at,
                                       1 + rng.uniform_index(16));
      bytes.erase(bytes.begin() + static_cast<long>(at),
                  bytes.begin() + static_cast<long>(at + len));
      break;
    }
    case 4: {  // duplicate a short span
      const std::size_t len = std::min(bytes.size() - at,
                                       1 + rng.uniform_index(16));
      std::vector<std::uint8_t> span(bytes.begin() + static_cast<long>(at),
                                     bytes.begin() +
                                         static_cast<long>(at + len));
      bytes.insert(bytes.begin() + static_cast<long>(at), span.begin(),
                   span.end());
      break;
    }
    case 5: {  // zero a short span
      const std::size_t len = std::min(bytes.size() - at,
                                       1 + rng.uniform_index(16));
      std::fill(bytes.begin() + static_cast<long>(at),
                bytes.begin() + static_cast<long>(at + len), 0);
      break;
    }
    default: {  // insert a few random bytes
      std::vector<std::uint8_t> extra(1 + rng.uniform_index(8));
      for (auto& b : extra) b = static_cast<std::uint8_t>(rng.next_u64());
      bytes.insert(bytes.begin() + static_cast<long>(at), extra.begin(),
                   extra.end());
      break;
    }
  }
}

Corpus make_corpus(std::uint64_t seed, std::size_t per_kind) {
  Rng rng(seed);
  Corpus corpus;
  for (std::size_t i = 0; i < per_kind; ++i) {
    Rng fork = rng.fork(i);
    const auto packets = random_packets(fork, 1 + fork.uniform_index(40));
    auto bytes = serialize_pcap(packets);
    // Cycle through the four magic variants so every corpus covers them.
    switch (i % 4) {
      case 1: bytes = pcap_variant(bytes, /*swapped=*/true, /*nanos=*/false);
        break;
      case 2: bytes = pcap_variant(bytes, /*swapped=*/false, /*nanos=*/true);
        break;
      case 3: bytes = pcap_variant(bytes, /*swapped=*/true, /*nanos=*/true);
        break;
      default: break;
    }
    corpus.pcaps.push_back(std::move(bytes));

    corpus.dns.push_back(
        fork.chance(0.8)
            ? make_dns_response(static_cast<std::uint16_t>(fork.next_u64()),
                                random_domain(fork),
                                Ipv4Addr(static_cast<std::uint32_t>(
                                    fork.next_u64())),
                                static_cast<std::uint32_t>(
                                    fork.uniform_index(86400)))
            : make_dns_query(static_cast<std::uint16_t>(fork.next_u64()),
                             random_domain(fork)));
    corpus.tls.push_back(make_tls_client_hello(random_domain(fork)));

    corpus.binary_models.push_back(save_models_binary(random_models(fork)));
  }
  return corpus;
}

}  // namespace behaviot::fuzz
