#include "behaviot/core/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "behaviot/core/binary_io.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/obs/crash_point.hpp"
#include "behaviot/obs/snapshot.hpp"

namespace behaviot {
namespace {

using binio::Cursor;
using binio::ImageLayout;
using binio::SectionEntry;
using binio::put_i64;
using binio::put_str;
using binio::put_u16;
using binio::put_u32;
using binio::put_u64;
using binio::put_u8;

constexpr binio::ImageFormat kBbcFormat{kCheckpointMagic,
                                        kCheckpointFormatVersion, "bbc",
                                        "watch checkpoint"};

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kCkptSectionEngine: return "engine";
    case kCkptSectionAssembler: return "assembler";
    case kCkptSectionMonitor: return "monitor";
    case kCkptSectionResolver: return "resolver";
    case kCkptSectionModels: return "models";
    case kCkptSectionFrontend: return "frontend";
    case kCkptSectionRetrain: return "retrain";
    case kCkptSectionHealth: return "health";
    default: return "unknown";
  }
}

// ---------------------------------------------------------------------------
// Primitive writers/readers shared by several sections.

void put_ts(std::string& out, Timestamp t) { put_i64(out, t.micros()); }

Timestamp read_ts(Cursor& c, const char* what) {
  return Timestamp(c.i64(what));
}

void put_opt_ts(std::string& out, const std::optional<Timestamp>& t) {
  put_u8(out, t.has_value() ? 1 : 0);
  put_i64(out, t ? t->micros() : 0);
}

std::optional<Timestamp> read_opt_ts(Cursor& c, const char* what) {
  const std::uint8_t has = c.u8(what);
  if (has > 1) c.fail(std::string(what) + ": presence flag not 0/1");
  const std::int64_t us = c.i64(what);
  if (!has) return std::nullopt;
  return Timestamp(us);
}

bool read_bool(Cursor& c, const char* what) {
  const std::uint8_t v = c.u8(what);
  if (v > 1) c.fail(std::string(what) + ": flag not 0/1");
  return v != 0;
}

void put_tuple(std::string& out, const FiveTuple& t) {
  put_u32(out, t.src.ip.value());
  put_u16(out, t.src.port);
  put_u32(out, t.dst.ip.value());
  put_u16(out, t.dst.port);
  put_u8(out, static_cast<std::uint8_t>(t.proto));
}

FiveTuple read_tuple(Cursor& c) {
  FiveTuple t;
  t.src.ip = Ipv4Addr(c.u32("src ip"));
  t.src.port = c.u16("src port");
  t.dst.ip = Ipv4Addr(c.u32("dst ip"));
  t.dst.port = c.u16("dst port");
  const std::uint8_t proto = c.u8("transport");
  if (proto != static_cast<std::uint8_t>(Transport::kTcp) &&
      proto != static_cast<std::uint8_t>(Transport::kUdp)) {
    c.fail("transport is neither TCP nor UDP");
  }
  t.proto = static_cast<Transport>(proto);
  return t;
}

Direction read_dir(Cursor& c) {
  const std::uint8_t dir = c.u8("direction");
  if (dir > 1) c.fail("direction out of range");
  return static_cast<Direction>(dir);
}

void put_packet(std::string& out, const Packet& p) {
  put_ts(out, p.ts);
  put_tuple(out, p.tuple);
  put_u32(out, p.size);
  put_u8(out, static_cast<std::uint8_t>(p.dir));
  put_u16(out, p.device);
  put_str(out, std::string_view(reinterpret_cast<const char*>(p.payload.data()),
                                p.payload.size()));
}

Packet read_packet(Cursor& c) {
  Packet p;
  p.ts = read_ts(c, "packet ts");
  p.tuple = read_tuple(c);
  p.size = c.u32("packet size");
  p.dir = read_dir(c);
  p.device = c.u16("device");
  const std::string_view payload = c.str_view("payload");
  p.payload.assign(payload.begin(), payload.end());
  return p;
}

/// Every serialized PacketSummary occupies at least this many bytes — the
/// count-cap unit for per-flow packet lists.
constexpr std::size_t kMinPacketSummaryBytes = 8 + 4 + 1 + 1;

void put_flow(std::string& out, const FlowRecord& f) {
  put_u16(out, f.device);
  put_tuple(out, f.tuple);
  put_u8(out, static_cast<std::uint8_t>(f.app));
  put_str(out, f.domain);
  put_ts(out, f.start);
  put_ts(out, f.end);
  put_u64(out, f.packets.size());
  for (const PacketSummary& p : f.packets) {
    put_ts(out, p.ts);
    put_u32(out, p.size);
    put_u8(out, static_cast<std::uint8_t>(p.dir));
    put_u8(out, p.local ? 1 : 0);
  }
  put_u8(out, static_cast<std::uint8_t>(f.truth));
  put_str(out, f.truth_label);
}

FlowRecord read_flow(Cursor& c) {
  FlowRecord f;
  f.device = c.u16("flow device");
  f.tuple = read_tuple(c);
  const std::uint8_t app = c.u8("app protocol");
  if (app > static_cast<std::uint8_t>(AppProtocol::kOtherUdp)) {
    c.fail("app protocol out of range");
  }
  f.app = static_cast<AppProtocol>(app);
  f.domain = c.str("flow domain");
  f.start = read_ts(c, "flow start");
  f.end = read_ts(c, "flow end");
  const std::size_t n = c.count("flow packets", kMinPacketSummaryBytes);
  f.packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PacketSummary p;
    p.ts = read_ts(c, "summary ts");
    p.size = c.u32("summary size");
    p.dir = read_dir(c);
    p.local = read_bool(c, "summary local");
    f.packets.push_back(p);
  }
  const std::uint8_t truth = c.u8("truth kind");
  if (truth > static_cast<std::uint8_t>(EventKind::kAperiodic)) {
    c.fail("truth kind out of range");
  }
  f.truth = static_cast<EventKind>(truth);
  f.truth_label = c.str("truth label");
  return f;
}

/// Minimum serialized FlowRecord size (empty domain/label/packets) — the
/// count-cap unit for flow lists.
constexpr std::size_t kMinFlowBytes = 2 + 13 + 1 + 4 + 8 + 8 + 8 + 1 + 4;

void put_flows(std::string& out, const std::vector<FlowRecord>& flows) {
  put_u64(out, flows.size());
  for (const FlowRecord& f : flows) put_flow(out, f);
}

std::vector<FlowRecord> read_flows(Cursor& c, const char* what) {
  const std::size_t n = c.count(what, kMinFlowBytes);
  std::vector<FlowRecord> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) flows.push_back(read_flow(c));
  return flows;
}

// ---------------------------------------------------------------------------
// Section writers.

std::string write_engine(const WatchCheckpoint& cp) {
  std::string out;
  const CheckpointOptions& o = cp.options;
  put_i64(out, o.window_us);
  put_u64(out, o.retrain_every_windows);
  put_i64(out, o.burst_gap_us);
  put_u8(out, o.drop_infrastructure ? 1 : 0);
  put_i64(out, o.max_ts_regression_us);
  put_i64(out, o.reorder_horizon_us);
  put_u64(out, o.max_open_flows);
  put_u64(out, o.max_buffered_packets);
  const WatchEngineState& e = cp.engine;
  put_opt_ts(out, e.t0);
  put_opt_ts(out, e.last_watermark);
  put_u64(out, e.next_window);
  put_ts(out, e.max_end);
  put_u64(out, e.windows);
  put_u64(out, e.alerts);
  put_u64(out, e.model_version);
  put_u64(out, e.swaps);
  put_u8(out, e.swapped_pending_report ? 1 : 0);
  put_u8(out, e.done ? 1 : 0);
  put_u8(out, e.finished ? 1 : 0);
  put_u64(out, e.reported_force_sealed);
  put_u64(out, e.reported_late);
  return out;
}

void read_engine(Cursor& c, WatchCheckpoint& cp) {
  CheckpointOptions& o = cp.options;
  o.window_us = c.i64("window_us");
  if (o.window_us <= 0) c.fail("window_us not positive");
  o.retrain_every_windows = c.u64("retrain_every_windows");
  o.burst_gap_us = c.i64("burst_gap_us");
  o.drop_infrastructure = read_bool(c, "drop_infrastructure");
  o.max_ts_regression_us = c.i64("max_ts_regression_us");
  o.reorder_horizon_us = c.i64("reorder_horizon_us");
  o.max_open_flows = c.u64("max_open_flows");
  o.max_buffered_packets = c.u64("max_buffered_packets");
  WatchEngineState& e = cp.engine;
  e.t0 = read_opt_ts(c, "t0");
  e.last_watermark = read_opt_ts(c, "last_watermark");
  e.next_window = c.u64("next_window");
  e.max_end = read_ts(c, "max_end");
  e.windows = c.u64("windows");
  e.alerts = c.u64("alerts");
  e.model_version = c.u64("model_version");
  e.swaps = c.u64("swaps");
  e.swapped_pending_report = read_bool(c, "swapped_pending_report");
  e.done = read_bool(c, "done");
  e.finished = read_bool(c, "finished");
  e.reported_force_sealed = c.u64("reported_force_sealed");
  e.reported_late = c.u64("reported_late");
  if (!c.at_end()) c.fail("trailing bytes after engine state");
}

std::string write_assembler(const StreamingAssemblerState& a) {
  std::string out;
  put_u8(out, a.pending.has_value() ? 1 : 0);
  if (a.pending) put_packet(out, *a.pending);
  put_u64(out, a.decided);
  put_ts(out, a.running_max);
  put_ts(out, a.prev_effective);
  put_u64(out, a.reorder.size());
  for (const StreamingFlowAssembler::Buffered& b : a.reorder) {
    put_ts(out, b.effective);
    put_u64(out, b.seq);
    put_packet(out, b.packet);
  }
  put_u64(out, a.next_seq);
  put_ts(out, a.max_seen);
  put_ts(out, a.last_released);
  put_opt_ts(out, a.first_release);
  put_flows(out, a.open);
  put_flows(out, a.sealed);
  put_u8(out, a.finished ? 1 : 0);
  const StreamingAssemblerStats& st = a.stats;
  put_u64(out, st.packets_in);
  put_u64(out, st.flows_sealed);
  put_u64(out, st.flows_emitted);
  put_u64(out, st.infrastructure_dropped);
  put_u64(out, st.unresolved_emitted);
  put_u64(out, st.clamped_ts);
  put_u64(out, st.late_packets);
  put_u64(out, st.force_sealed);
  put_u64(out, st.force_released);
  put_u64(out, st.peak_open_flows);
  put_u64(out, st.peak_buffered_packets);
  return out;
}

/// Minimum serialized Packet (empty payload) — count-cap unit for the
/// reorder stage (each Buffered adds 16 bytes on top).
constexpr std::size_t kMinPacketBytes = 8 + 13 + 4 + 1 + 2 + 4;

void read_assembler(Cursor& c, StreamingAssemblerState& a) {
  if (read_bool(c, "pending flag")) a.pending = read_packet(c);
  a.decided = c.u64("decided");
  a.running_max = read_ts(c, "running_max");
  a.prev_effective = read_ts(c, "prev_effective");
  const std::size_t n_reorder = c.count("reorder stage", 16 + kMinPacketBytes);
  a.reorder.reserve(n_reorder);
  for (std::size_t i = 0; i < n_reorder; ++i) {
    StreamingFlowAssembler::Buffered b;
    b.effective = read_ts(c, "buffered effective");
    b.seq = c.u64("buffered seq");
    b.packet = read_packet(c);
    a.reorder.push_back(std::move(b));
  }
  a.next_seq = c.u64("next_seq");
  a.max_seen = read_ts(c, "max_seen");
  a.last_released = read_ts(c, "last_released");
  a.first_release = read_opt_ts(c, "first_release");
  a.open = read_flows(c, "open flows");
  a.sealed = read_flows(c, "sealed flows");
  a.finished = read_bool(c, "assembler finished");
  StreamingAssemblerStats& st = a.stats;
  st.packets_in = c.u64("packets_in");
  st.flows_sealed = c.u64("flows_sealed");
  st.flows_emitted = c.u64("flows_emitted");
  st.infrastructure_dropped = c.u64("infrastructure_dropped");
  st.unresolved_emitted = c.u64("unresolved_emitted");
  st.clamped_ts = c.u64("clamped_ts");
  st.late_packets = c.u64("late_packets");
  st.force_sealed = c.u64("force_sealed");
  st.force_released = c.u64("force_released");
  st.peak_open_flows = c.u64("peak_open_flows");
  st.peak_buffered_packets = c.u64("peak_buffered_packets");
  if (!c.at_end()) c.fail("trailing bytes after assembler state");
}

std::string write_monitor(const DeviationMonitorState& m) {
  std::string out;
  put_u64(out, m.last_seen.size());
  for (const auto& [device, group, ts] : m.last_seen) {
    put_u16(out, device);
    put_str(out, group);
    put_ts(out, ts);
  }
  put_u64(out, m.silence_reported.size());
  for (const auto& [device, group] : m.silence_reported) {
    put_u16(out, device);
    put_str(out, group);
  }
  put_u64(out, m.reported_sequences.size());
  for (const std::string& seq : m.reported_sequences) put_str(out, seq);
  put_u8(out, m.primed ? 1 : 0);
  return out;
}

void read_monitor(Cursor& c, DeviationMonitorState& m) {
  const std::size_t n_seen = c.count("last_seen", 2 + 4 + 8);
  m.last_seen.reserve(n_seen);
  for (std::size_t i = 0; i < n_seen; ++i) {
    const DeviceId device = c.u16("seen device");
    std::string group = c.str("seen group");
    m.last_seen.emplace_back(device, std::move(group),
                             read_ts(c, "seen ts"));
  }
  const std::size_t n_silence = c.count("silence_reported", 2 + 4);
  m.silence_reported.reserve(n_silence);
  for (std::size_t i = 0; i < n_silence; ++i) {
    const DeviceId device = c.u16("silence device");
    m.silence_reported.emplace_back(device, c.str("silence group"));
  }
  const std::size_t n_seq = c.count("reported_sequences", 4);
  m.reported_sequences.reserve(n_seq);
  for (std::size_t i = 0; i < n_seq; ++i) {
    m.reported_sequences.push_back(c.str("reported sequence"));
  }
  m.primed = read_bool(c, "primed");
  if (!c.at_end()) c.fail("trailing bytes after monitor state");
}

void put_bindings(std::string& out,
                  const std::vector<std::pair<std::uint32_t, std::string>>& b) {
  put_u64(out, b.size());
  for (const auto& [ip, domain] : b) {
    put_u32(out, ip);
    put_str(out, domain);
  }
}

std::vector<std::pair<std::uint32_t, std::string>> read_bindings(
    Cursor& c, const char* what) {
  const std::size_t n = c.count(what, 4 + 4);
  std::vector<std::pair<std::uint32_t, std::string>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t ip = c.u32("binding ip");
    out.emplace_back(ip, c.str("binding domain"));
  }
  return out;
}

std::string write_resolver(const DomainResolverState& r) {
  std::string out;
  put_bindings(out, r.dns);
  put_bindings(out, r.sni);
  put_bindings(out, r.reverse_dns);
  return out;
}

void read_resolver(Cursor& c, DomainResolverState& r) {
  r.dns = read_bindings(c, "dns bindings");
  r.sni = read_bindings(c, "sni bindings");
  r.reverse_dns = read_bindings(c, "reverse-dns bindings");
  if (!c.at_end()) c.fail("trailing bytes after resolver state");
}

std::string write_models(const WatchCheckpoint& cp) {
  std::string out;
  put_u64(out, cp.model_version);
  put_str(out, cp.models_image);
  return out;
}

void read_models(Cursor& c, WatchCheckpoint& cp) {
  cp.model_version = c.u64("model handle version");
  cp.models_image = c.str("embedded model image");
  if (!c.at_end()) c.fail("trailing bytes after models section");
}

std::string write_frontend(const WatchCheckpoint& cp) {
  std::string out;
  put_u64(out, cp.input_offset);
  put_str(out, cp.alerts_json);
  return out;
}

void read_frontend(Cursor& c, WatchCheckpoint& cp) {
  cp.input_offset = c.u64("input offset");
  cp.alerts_json = c.str("alerts json");
  if (!c.at_end()) c.fail("trailing bytes after frontend section");
}

std::string write_health(const obs::HealthSnapshot& snap) {
  std::string out;
  put_u64(out, snap.components.size());
  for (const obs::ComponentHealth& comp : snap.components) {
    put_str(out, comp.component);
    put_u8(out, static_cast<std::uint8_t>(comp.state));
    put_u64(out, comp.incidents);
    put_u64(out, comp.reasons.size());
    for (const std::string& r : comp.reasons) put_str(out, r);
    put_u64(out, comp.quarantined.size());
    for (const obs::QuarantineRecord& q : comp.quarantined) {
      put_str(out, q.key);
      put_str(out, q.reason);
    }
  }
  return out;
}

void read_health(Cursor& c, obs::HealthSnapshot& snap) {
  const std::size_t n = c.count("health components", 4 + 1 + 8 + 8 + 8);
  snap.components.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::ComponentHealth comp;
    comp.component = c.str("component name");
    const std::uint8_t state = c.u8("component state");
    if (state > static_cast<std::uint8_t>(obs::ComponentState::kQuarantined)) {
      c.fail("component state out of range");
    }
    comp.state = static_cast<obs::ComponentState>(state);
    comp.incidents = c.u64("incidents");
    const std::size_t n_reasons = c.count("reasons", 4);
    comp.reasons.reserve(n_reasons);
    for (std::size_t r = 0; r < n_reasons; ++r) {
      comp.reasons.push_back(c.str("reason"));
    }
    const std::size_t n_quar = c.count("quarantined", 4 + 4);
    comp.quarantined.reserve(n_quar);
    for (std::size_t q = 0; q < n_quar; ++q) {
      obs::QuarantineRecord rec;
      rec.key = c.str("quarantine key");
      rec.reason = c.str("quarantine reason");
      comp.quarantined.push_back(std::move(rec));
    }
    snap.components.push_back(std::move(comp));
  }
  if (!c.at_end()) c.fail("trailing bytes after health section");
}

/// The mapping between the pinned grid and WatchOptions: copies each pinned
/// field out of `opts` (`to_pinned`) or back into it.
void map_pinned(CheckpointOptions& pinned, WatchOptions& opts, bool to_pinned) {
  const auto copy = [to_pinned](auto& p, auto& o) {
    if (to_pinned) {
      p = o;
    } else {
      o = p;
    }
  };
  copy(pinned.window_us, opts.window_us);
  copy(pinned.retrain_every_windows, opts.retrain_every_windows);
  copy(pinned.burst_gap_us, opts.assembler.base.burst_gap_us);
  copy(pinned.drop_infrastructure, opts.assembler.base.drop_infrastructure);
  copy(pinned.max_ts_regression_us, opts.assembler.base.max_ts_regression_us);
  copy(pinned.reorder_horizon_us, opts.assembler.reorder_horizon_us);
  copy(pinned.max_open_flows, opts.assembler.max_open_flows);
  copy(pinned.max_buffered_packets, opts.assembler.max_buffered_packets);
}

}  // namespace

WatchCheckpoint compose_checkpoint(const WatchEngine& engine,
                                   const ModelHandle& models,
                                   std::uint64_t input_offset,
                                   std::string alerts_json,
                                   obs::HealthSnapshot health) {
  WatchCheckpoint cp;
  WatchOptions opts = engine.options();
  map_pinned(cp.options, opts, /*to_pinned=*/true);
  cp.engine = engine.export_state();
  cp.models_image = save_models_binary(*models.acquire());
  cp.model_version = models.version();
  cp.input_offset = input_offset;
  cp.alerts_json = std::move(alerts_json);
  cp.health = std::move(health);
  return cp;
}

std::unique_ptr<WatchEngine> resume_engine(WatchCheckpoint& cp,
                                           ModelHandle& models,
                                           DomainResolver resolver,
                                           WatchOptions opts) {
  models.restore(load_models_binary(binio::as_bytes(cp.models_image)),
                 cp.model_version);
  map_pinned(cp.options, opts, /*to_pinned=*/false);
  auto engine =
      std::make_unique<WatchEngine>(models, std::move(resolver), opts);
  engine->import_state(std::move(cp.engine));
  return engine;
}

std::string save_checkpoint(const WatchCheckpoint& cp) {
  const std::pair<std::uint32_t, std::string> sections[] = {
      {kCkptSectionEngine, write_engine(cp)},
      {kCkptSectionAssembler, write_assembler(cp.engine.assembler)},
      {kCkptSectionMonitor, write_monitor(cp.engine.monitor)},
      {kCkptSectionResolver, write_resolver(cp.engine.resolver)},
      {kCkptSectionModels, write_models(cp)},
      {kCkptSectionFrontend, write_frontend(cp)},
      {kCkptSectionRetrain,
       [&] {
         std::string out;
         put_flows(out, cp.engine.retrain_buffer);
         return out;
       }()},
      {kCkptSectionHealth, write_health(cp.health)},
  };
  return binio::build_image(kBbcFormat, sections);
}

WatchCheckpoint load_checkpoint(std::span<const std::uint8_t> bytes,
                                ParsePolicy policy, ParseStats* stats) {
  const ImageLayout layout = binio::parse_layout(bytes, kBbcFormat);
  if (!layout.crc_ok && policy == ParsePolicy::kStrict) {
    binio::throw_crc_mismatch(layout, kBbcFormat);
  }
  if (!layout.crc_ok && stats != nullptr) ++stats->malformed;

  WatchCheckpoint cp;
  bool seen[9] = {};
  for (const SectionEntry& entry : layout.sections) {
    Cursor c(bytes.subspan(entry.offset, entry.size), entry.offset,
             section_name(entry.id), kBbcFormat.tag);
    try {
      switch (entry.id) {
        case kCkptSectionEngine: read_engine(c, cp); break;
        case kCkptSectionAssembler:
          read_assembler(c, cp.engine.assembler);
          break;
        case kCkptSectionMonitor: read_monitor(c, cp.engine.monitor); break;
        case kCkptSectionResolver: read_resolver(c, cp.engine.resolver); break;
        case kCkptSectionModels: read_models(c, cp); break;
        case kCkptSectionFrontend: read_frontend(c, cp); break;
        case kCkptSectionRetrain:
          cp.engine.retrain_buffer = read_flows(c, "retrain buffer");
          if (!c.at_end()) c.fail("trailing bytes after retrain buffer");
          break;
        case kCkptSectionHealth: read_health(c, cp.health); break;
        default:
          // Unknown section from a newer minor revision: skip its bytes.
          break;
      }
    } catch (const SerializationError&) {
      // Only damage in state a resume can do without is droppable: the
      // health snapshot restores operator-facing context, not behavior.
      // Everything else is load-bearing — resuming from a guessed engine
      // state would break the byte-identity guarantee silently, which is
      // worse than failing over to FILE.prev loudly.
      if (policy == ParsePolicy::kStrict || entry.id != kCkptSectionHealth) {
        throw;
      }
      cp.health = {};
      if (stats != nullptr) ++stats->sections_dropped;
      continue;
    }
    if (entry.id >= 1 && entry.id <= 8) seen[entry.id] = true;
  }
  for (std::uint32_t id = kCkptSectionEngine; id <= kCkptSectionRetrain;
       ++id) {
    if (!seen[id]) {
      throw SerializationError(std::string("bbc: missing required section: ") +
                               section_name(id));
    }
  }
  return cp;
}

bool write_checkpoint_rotating(const std::string& path,
                               const WatchCheckpoint& cp, std::string* error) {
  const std::string image = save_checkpoint(cp);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    obs::crash_point("checkpoint.before_rotate");
    // rename(2) is atomic and replaces any stale .prev; after it, the
    // previous generation is intact under its new name even if we die
    // before (or while) writing the new one.
    std::filesystem::rename(path, path + ".prev", ec);
    if (ec) {
      if (error != nullptr) {
        *error = "rotate failed: " + path + ": " + ec.message();
      }
      return false;
    }
    obs::crash_point("checkpoint.after_rotate");
  }
  if (!obs::write_file_atomic(path, image, error)) return false;
  obs::crash_point("checkpoint.after_write");
  return true;
}

namespace {

WatchCheckpoint load_checkpoint_file(const std::string& path,
                                     ParsePolicy policy, ParseStats* stats) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw SerializationError("cannot open for read: " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw SerializationError("not a readable checkpoint file: " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 && !file.read(reinterpret_cast<char*>(bytes.data()),
                             static_cast<std::streamsize>(size))) {
    throw SerializationError("read failed: " + path);
  }
  try {
    return load_checkpoint(bytes, policy, stats);
  } catch (const SerializationError& e) {
    throw e.in_file(path);
  }
}

}  // namespace

WatchCheckpoint load_checkpoint_resilient(const std::string& path,
                                          std::string* source,
                                          ParseStats* stats) {
  try {
    WatchCheckpoint cp = load_checkpoint_file(path, ParsePolicy::kStrict,
                                              stats);
    if (source != nullptr) *source = path;
    return cp;
  } catch (const SerializationError& primary) {
    const std::string prev = path + ".prev";
    try {
      WatchCheckpoint cp =
          load_checkpoint_file(prev, ParsePolicy::kLenient, stats);
      if (source != nullptr) *source = prev;
      return cp;
    } catch (const SerializationError&) {
      // The fallback failing is secondary; report why the primary did.
      throw primary;
    }
  }
}

}  // namespace behaviot
