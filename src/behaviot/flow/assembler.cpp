#include "behaviot/flow/assembler.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/span.hpp"

namespace behaviot {
namespace {

constexpr std::int64_t kMinUs = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMaxUs = std::numeric_limits<std::int64_t>::max();

std::int64_t saturating_sub(std::int64_t a, std::int64_t b) {
  if (b > 0 && a < kMinUs + b) return kMinUs;
  if (b < 0 && a > kMaxUs + b) return kMaxUs;
  return a - b;
}

std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  if (b > 0 && a > kMaxUs - b) return kMaxUs;
  if (b < 0 && a < kMinUs - b) return kMinUs;
  return a + b;
}

}  // namespace

StreamingFlowAssembler::StreamingFlowAssembler(StreamingAssemblerOptions options,
                                               DomainResolver& resolver)
    : options_(options), resolver_(&resolver) {}

void StreamingFlowAssembler::feed(std::span<const Packet> packets) {
  if (finished_) return;
  for (const Packet& p : packets) accept(p);
}

void StreamingFlowAssembler::accept(const Packet& p) {
  ++stats_.packets_in;
  if (!pending_) {
    pending_ = p;
    note_peaks();
    return;
  }
  // Decide the held packet's effective timestamp now that its look-ahead
  // successor is known: an isolated regression (successor already back at
  // the running maximum) is a clock fault, clamped forward; everything else
  // keeps its raw timestamp and lets the reorder stage sort it.
  Packet q = std::move(*pending_);
  *pending_ = p;
  Timestamp eff = q.ts;
  if (decided_ > 0 &&
      (running_max_ - q.ts) > options_.base.max_ts_regression_us &&
      p.ts >= running_max_) {
    eff = running_max_;
    ++stats_.clamped_ts;
  }
  ++decided_;
  prev_effective_ = eff;
  running_max_ = std::max(running_max_, eff);
  enqueue(std::move(q), eff);
}

void StreamingFlowAssembler::enqueue(Packet p, Timestamp eff) {
  max_seen_ = std::max(max_seen_, eff);
  reorder_.push_back({eff, next_seq_++, std::move(p)});
  std::push_heap(reorder_.begin(), reorder_.end(), BufferedLater{});
  pump();
  enforce_caps();
  note_peaks();
}

StreamingFlowAssembler::Buffered StreamingFlowAssembler::pop_reorder() {
  std::pop_heap(reorder_.begin(), reorder_.end(), BufferedLater{});
  Buffered b = std::move(reorder_.back());
  reorder_.pop_back();
  return b;
}

void StreamingFlowAssembler::finish() {
  if (finished_) return;
  if (pending_) {
    // Tail rule: no successor exists, so clamp when the regression starts at
    // the tail — the predecessor was still within tolerance of the running
    // maximum. If the predecessor had already dropped too, this is the tail
    // of block-unsorted input and sorting handles it.
    Packet q = std::move(*pending_);
    pending_.reset();
    Timestamp eff = q.ts;
    if (decided_ > 0 &&
        (running_max_ - q.ts) > options_.base.max_ts_regression_us &&
        (running_max_ - prev_effective_) <= options_.base.max_ts_regression_us) {
      eff = running_max_;
      ++stats_.clamped_ts;
    }
    ++decided_;
    prev_effective_ = eff;
    running_max_ = std::max(running_max_, eff);
    enqueue(std::move(q), eff);
  }
  finished_ = true;
  pump();  // release_bound() is now +inf: empty the reorder stage
  while (!lru_.empty()) seal(open_.find(lru_.front()));
}

Timestamp StreamingFlowAssembler::release_bound() const {
  if (finished_) return Timestamp(kMaxUs);
  if (max_seen_ == Timestamp(kMinUs)) return Timestamp(kMinUs);
  return Timestamp(
      saturating_sub(max_seen_.micros(), options_.reorder_horizon_us));
}

void StreamingFlowAssembler::pump() {
  const Timestamp bound = release_bound();
  while (!reorder_.empty() && reorder_.front().effective <= bound) {
    const Buffered b = pop_reorder();
    release(b.packet, b.effective);
  }
}

void StreamingFlowAssembler::release(const Packet& p, Timestamp eff) {
  if (!first_release_) first_release_ = eff;
  if (last_released_ != Timestamp(kMinUs) && eff < last_released_) {
    ++stats_.late_packets;
  }
  last_released_ = std::max(last_released_, eff);

  // Amortized idle sweep: releases are non-decreasing (late packets aside),
  // so the least-recently-active flow has the oldest end; seal from the
  // front until one is still within the gap. drain_sealed() does the full
  // sweep that covers any flows a late packet pushed out of LRU order.
  while (!lru_.empty()) {
    auto front = open_.find(lru_.front());
    if ((eff - front->second.rec.end) > options_.base.burst_gap_us) {
      seal(front);
    } else {
      break;
    }
  }

  resolver_->observe(p);

  auto it = open_.find(p.tuple);
  if (it != open_.end() &&
      (eff - it->second.rec.end) > options_.base.burst_gap_us) {
    seal(it);
    it = open_.end();
  }
  if (it == open_.end()) {
    OpenFlow of;
    of.rec.device = p.device;
    of.rec.tuple = p.tuple;
    of.rec.app = classify_app_protocol(p.tuple.proto, p.tuple.dst.port);
    of.rec.start = of.rec.end = eff;
    lru_.push_back(p.tuple);
    of.lru = std::prev(lru_.end());
    open_starts_.insert(eff);
    it = open_.emplace(p.tuple, std::move(of)).first;
  } else {
    lru_.splice(lru_.end(), lru_, it->second.lru);  // mark most recently active
  }
  FlowRecord& rec = it->second.rec;
  rec.end = std::max(rec.end, eff);
  rec.packets.push_back({eff, p.size, p.dir, is_local_traffic(p)});
  ++open_packets_;
}

void StreamingFlowAssembler::seal(
    std::unordered_map<FiveTuple, OpenFlow, FiveTupleHash>::iterator it) {
  OpenFlow& of = it->second;
  open_packets_ -= of.rec.packets.size();
  open_starts_.erase(open_starts_.find(of.rec.start));
  lru_.erase(of.lru);
  push_sealed(std::move(of.rec));
  open_.erase(it);
  ++stats_.flows_sealed;
}

void StreamingFlowAssembler::push_sealed(FlowRecord rec) {
  // Insert after every flow that sorts no later, so equal (start, tuple)
  // pairs, which a cap can produce, stay in seal order. Most flows seal in
  // start order and go to the back.
  const auto earlier = [](const FlowRecord& a, const SealedFlow& b) {
    return std::tie(a.start, a.tuple) < std::tie(b.rec.start, b.rec.tuple);
  };
  auto pos = sealed_.end();
  if (!sealed_.empty() && earlier(rec, sealed_.back())) {
    pos = std::upper_bound(sealed_.begin(), sealed_.end(), rec, earlier);
  }
  sealed_.insert(pos, SealedFlow{next_seal_seq_++, std::move(rec)});
}

void StreamingFlowAssembler::sweep_idle(Timestamp now) {
  std::vector<FiveTuple> idle;
  for (const auto& [tuple, of] : open_) {
    if ((now - of.rec.end) > options_.base.burst_gap_us) idle.push_back(tuple);
  }
  for (const FiveTuple& t : idle) seal(open_.find(t));
}

void StreamingFlowAssembler::enforce_caps() {
  static auto& force_sealed_counter = obs::counter("flow.force_sealed");
  static auto& force_released_counter = obs::counter("flow.force_released");
  if (options_.max_open_flows > 0) {
    while (open_.size() > options_.max_open_flows) {
      seal(open_.find(lru_.front()));
      ++stats_.force_sealed;
      force_sealed_counter.inc();
    }
  }
  if (options_.max_buffered_packets > 0) {
    while (buffered_packets() > options_.max_buffered_packets) {
      if (!open_.empty()) {
        // Cheapest eviction: sealing moves a whole flow out of the buffer.
        seal(open_.find(lru_.front()));
        ++stats_.force_sealed;
        force_sealed_counter.inc();
      } else if (!reorder_.empty()) {
        // Releasing moves a packet from the reorder stage into an open flow
        // (buffer-neutral); the next iteration seals that flow.
        const Buffered b = pop_reorder();
        ++stats_.force_released;
        force_released_counter.inc();
        release(b.packet, b.effective);
      } else {
        break;  // only the clamp slot left; floor is one packet
      }
    }
  }
}

void StreamingFlowAssembler::note_peaks() {
  stats_.peak_open_flows = std::max(stats_.peak_open_flows, open_.size());
  stats_.peak_buffered_packets =
      std::max(stats_.peak_buffered_packets, buffered_packets());
  // Live ingest-backlog gauges for the telemetry endpoint; cached refs and
  // the registry's enabled gate keep this no-op cheap in library use.
  static auto& open_gauge = obs::gauge("flow.open_flows");
  static auto& buffered_gauge = obs::gauge("flow.buffered_packets");
  open_gauge.set(static_cast<double>(open_.size()));
  buffered_gauge.set(static_cast<double>(buffered_packets()));
}

std::size_t StreamingFlowAssembler::buffered_packets() const {
  return (pending_ ? 1u : 0u) + reorder_.size() + open_packets_;
}

Timestamp StreamingFlowAssembler::seal_watermark() {
  if (finished_) return Timestamp(kMaxUs);
  const Timestamp bound = release_bound();
  if (bound == Timestamp(kMinUs)) {
    // Nothing released yet (or a hold-all horizon): final only before the
    // earliest thing still buffered, i.e. nowhere.
    std::int64_t wm = kMinUs;
    return Timestamp(wm);
  }
  std::int64_t wm = saturating_add(bound.micros(), 1);
  sweep_idle(Timestamp(wm));
  if (pending_) wm = std::min(wm, pending_->ts.micros());
  if (!open_starts_.empty()) wm = std::min(wm, open_starts_.begin()->micros());
  return Timestamp(wm);
}

std::vector<FlowRecord> StreamingFlowAssembler::drain_sealed(Timestamp before) {
  if (!finished_) {
    const Timestamp bound = release_bound();
    if (bound != Timestamp(kMinUs)) sweep_idle(bound + 1);
  }
  const auto end = std::partition_point(
      sealed_.begin(), sealed_.end(),
      [before](const SealedFlow& s) { return s.rec.start < before; });
  std::vector<FlowRecord> out;
  out.reserve(static_cast<std::size_t>(end - sealed_.begin()));
  for (auto it = sealed_.begin(); it != end; ++it) {
    FlowRecord& rec = it->rec;
    rec.domain = resolver_->resolve(rec.tuple.dst.ip);
    if (options_.base.drop_infrastructure &&
        (rec.app == AppProtocol::kDns || rec.app == AppProtocol::kNtp)) {
      ++stats_.infrastructure_dropped;
      continue;
    }
    // Unresolved destinations are not an error — group_key() maps them to a
    // stable "unresolved:<ip>" group — but they do mean annotation lost
    // information, so count them. Only emitted flows count: dropped DNS/NTP
    // rarely has resolver bindings and would inflate the total.
    if (rec.domain.empty()) ++stats_.unresolved_emitted;
    ++stats_.flows_emitted;
    out.push_back(std::move(rec));
  }
  sealed_.erase(sealed_.begin(), end);
  return out;
}

StreamingAssemblerState StreamingFlowAssembler::export_state() const {
  StreamingAssemblerState s;
  s.pending = pending_;
  s.decided = decided_;
  s.running_max = running_max_;
  s.prev_effective = prev_effective_;
  s.reorder = reorder_;
  s.next_seq = next_seq_;
  s.max_seen = max_seen_;
  s.last_released = last_released_;
  s.first_release = first_release_;
  s.open.reserve(lru_.size());
  for (const FiveTuple& t : lru_) s.open.push_back(open_.at(t).rec);
  std::vector<SealedFlow> by_seal(sealed_.begin(), sealed_.end());
  std::sort(by_seal.begin(), by_seal.end(),
            [](const SealedFlow& a, const SealedFlow& b) {
              return a.seq < b.seq;
            });
  s.sealed.reserve(by_seal.size());
  for (SealedFlow& sealed : by_seal) s.sealed.push_back(std::move(sealed.rec));
  s.finished = finished_;
  s.stats = stats_;
  return s;
}

void StreamingFlowAssembler::import_state(StreamingAssemblerState s) {
  pending_ = std::move(s.pending);
  decided_ = s.decided;
  running_max_ = s.running_max;
  prev_effective_ = s.prev_effective;
  reorder_ = std::move(s.reorder);
  next_seq_ = s.next_seq;
  max_seen_ = s.max_seen;
  last_released_ = s.last_released;
  first_release_ = s.first_release;
  open_.clear();
  lru_.clear();
  open_starts_.clear();
  open_packets_ = 0;
  for (FlowRecord& rec : s.open) {
    const FiveTuple key = rec.tuple;
    lru_.push_back(key);
    OpenFlow of;
    of.lru = std::prev(lru_.end());
    open_starts_.insert(rec.start);
    open_packets_ += rec.packets.size();
    of.rec = std::move(rec);
    open_.emplace(key, std::move(of));
  }
  sealed_.clear();
  next_seal_seq_ = 0;
  for (FlowRecord& rec : s.sealed) push_sealed(std::move(rec));
  finished_ = s.finished;
  stats_ = s.stats;
  note_peaks();
}

FlowAssembler::FlowAssembler(AssemblerOptions options) : options_(options) {}

std::vector<FlowRecord> FlowAssembler::assemble(
    std::span<const Packet> packets, DomainResolver& resolver) const {
  obs::StageSpan span("flow.assemble");

  // Hold-all horizon: nothing is released until finish(), so the reorder
  // stage performs one global stable sort — identical to sorting the whole
  // capture up front, for any input order.
  StreamingAssemblerOptions sopts;
  sopts.base = options_;
  sopts.reorder_horizon_us = std::numeric_limits<std::int64_t>::max();
  StreamingFlowAssembler core(sopts, resolver);
  core.feed(packets);
  core.finish();
  std::vector<FlowRecord> out =
      core.drain_sealed(Timestamp(std::numeric_limits<std::int64_t>::max()));
  report_assembly(core.stats());
  return out;
}

void report_assembly(const StreamingAssemblerStats& st) {
  obs::health().heartbeat("flow.assembler");
  if (st.clamped_ts > 0) {
    obs::counter("ingest.nonmonotonic_ts").add(st.clamped_ts);
    obs::health().degrade("flow.assembler",
                          "nonmonotonic-ts:" + std::to_string(st.clamped_ts));
  }
  if (st.unresolved_emitted > 0) {
    obs::counter("ingest.unresolved_flows")
        .add(st.unresolved_emitted);
    obs::health().degrade(
        "flow.assembler",
        "unresolved-domains:" + std::to_string(st.unresolved_emitted));
  }
  static auto& packets_in = obs::counter("flow.packets_in");
  static auto& assembled = obs::counter("flow.assembled");
  static auto& dropped = obs::counter("flow.infrastructure_dropped");
  packets_in.add(st.packets_in);
  assembled.add(st.flows_emitted);
  dropped.add(st.infrastructure_dropped);
}

}  // namespace behaviot
