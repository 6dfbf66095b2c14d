// Packet → flow assembly with burst splitting (§4.1), in two modes sharing
// one incremental core:
//
//  - FlowAssembler::assemble — one-shot batch assembly of a complete
//    capture (the observation-phase workflow). Equivalent to feeding every
//    packet through the incremental core with an unbounded reorder horizon
//    and draining once at the end.
//  - StreamingFlowAssembler — the `behaviot watch` ingestion stage: packets
//    arrive in capture order across many feed() calls, flows are sealed as
//    their burst gap elapses, and hard caps on open flows / buffered packets
//    keep peak memory independent of capture length.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <list>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "behaviot/flow/flow.hpp"
#include "behaviot/net/domain_resolver.hpp"

namespace behaviot {

struct AssemblerOptions {
  /// Two consecutive packets of the same 5-tuple further apart than this
  /// start a new flow burst. The paper uses 1 second (following [66, 76]).
  std::int64_t burst_gap_us = seconds(1.0);
  /// Drop pure-DNS and pure-NTP infrastructure flows from the output. The
  /// paper keeps them (they become periodic models), so default off.
  bool drop_infrastructure = false;
  /// Isolated backwards timestamp jumps (in capture order) larger than this
  /// — one packet regresses while its successor is already back at the
  /// running maximum — are treated as capture-clock faults: the packet's
  /// timestamp is clamped forward to the running maximum and counted on the
  /// `ingest.nonmonotonic_ts` counter, instead of silently re-sorting the
  /// packet seconds into the past (which smears it into the wrong burst).
  /// At the end of a stream the successor test is impossible; a final packet
  /// is clamped when its *predecessor* was still on the high timeline (the
  /// regression starts at the tail), and left alone when the predecessor had
  /// already dropped too (a sustained drop, i.e. block-unsorted input).
  /// Jumps within the threshold are ordinary network reordering, and
  /// sustained drops are block-unsorted input; both are handled by sorting.
  std::int64_t max_ts_regression_us = milliseconds(100);
};

/// Configuration of the incremental mode. The defaults bound nothing — caps
/// are opt-in so library users choose their own memory budget.
struct StreamingAssemblerOptions {
  AssemblerOptions base;
  /// Packets are held in a reorder stage until the stream clock (max
  /// effective timestamp seen) has advanced this far past them, then
  /// released in timestamp order. Matches batch assembly's global stable
  /// sort for any displacement within the horizon; packets later than the
  /// horizon are processed on arrival (counted as `late_packets`).
  std::int64_t reorder_horizon_us = seconds(1.0);
  /// Hard cap on concurrently open flows; 0 = unbounded. On overflow the
  /// least-recently-active flow is force-sealed (counted, health-degraded).
  std::size_t max_open_flows = 0;
  /// Hard cap on buffered packets (reorder stage + packets held by open
  /// flows); 0 = unbounded. On overflow idle flows are swept, then
  /// least-recently-active flows force-sealed, then the oldest reorder-stage
  /// packets force-released.
  std::size_t max_buffered_packets = 0;
};

/// Counters the incremental core keeps about its own behavior. All totals
/// are cumulative since construction.
struct StreamingAssemblerStats {
  std::uint64_t packets_in = 0;
  std::uint64_t flows_sealed = 0;
  std::uint64_t flows_emitted = 0;        ///< after infrastructure dropping
  std::uint64_t infrastructure_dropped = 0;
  std::uint64_t unresolved_emitted = 0;   ///< emitted flows without a domain
  std::uint64_t clamped_ts = 0;           ///< isolated regressions clamped
  std::uint64_t late_packets = 0;         ///< released behind the stream clock
  std::uint64_t force_sealed = 0;         ///< flows sealed by a cap
  std::uint64_t force_released = 0;       ///< packets released by the cap
  std::size_t peak_open_flows = 0;
  std::size_t peak_buffered_packets = 0;
};

/// Incremental packet→flow core. Packets enter in capture order via feed();
/// sealed flows leave via drain_sealed(). The pipeline is:
///
///   feed ─→ clamp (1-packet look-ahead) ─→ reorder (horizon) ─→ open flows
///        ─→ sealed flows ─→ drain_sealed (resolve + filter + sort)
///
/// `seal_watermark()` tells the caller up to which instant the output is
/// final: every flow starting before the watermark has been sealed, and no
/// future packet can start or extend a flow before it. A deviation window
/// [ws, we) may be closed as soon as the watermark reaches `we`.
struct StreamingAssemblerState;

class StreamingFlowAssembler {
 public:
  /// One packet parked in the reorder stage: its decided effective
  /// timestamp plus an arrival sequence number (the release tiebreak).
  /// Public because checkpointing serializes the reorder stage verbatim.
  struct Buffered {
    Timestamp effective;
    std::uint64_t seq = 0;
    Packet packet;
  };

  /// `resolver` must outlive the assembler. Packets are offered to it in
  /// release (timestamp) order; flow domains are resolved at drain time.
  StreamingFlowAssembler(StreamingAssemblerOptions options,
                         DomainResolver& resolver);

  /// Feeds a chunk of packets in capture order. Chunk boundaries carry no
  /// meaning: any split of a capture into feed() calls yields the same flows.
  void feed(std::span<const Packet> packets);

  /// Marks end of stream: flushes the look-ahead and reorder stages and
  /// seals every open flow. Further feed() calls are ignored.
  void finish();
  [[nodiscard]] bool finished() const { return finished_; }

  /// Exclusive bound below which assembly is final (see class comment).
  /// Timestamp(INT64_MIN) until the first packet; INT64_MAX once finished.
  /// Seals flows that can no longer be extended, hence non-const.
  [[nodiscard]] Timestamp seal_watermark();

  /// Removes and returns sealed flows with start < `before`, annotated with
  /// the resolver's current knowledge, infrastructure-filtered per options,
  /// sorted by (start, tuple, seal order). Only final once
  /// seal_watermark() >= before.
  std::vector<FlowRecord> drain_sealed(Timestamp before);

  /// Timestamp of the first packet released from the reorder stage (origin
  /// of the caller's window grid); nullopt before any release.
  [[nodiscard]] std::optional<Timestamp> first_release() const {
    return first_release_;
  }
  [[nodiscard]] const StreamingAssemblerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t open_flows() const { return open_.size(); }
  /// Sealed flows awaiting drain_sealed().
  [[nodiscard]] std::size_t sealed_pending() const { return sealed_.size(); }
  /// Packets currently buffered: clamp slot + reorder stage + open flows.
  [[nodiscard]] std::size_t buffered_packets() const;

  /// Snapshot of the complete streaming state (checkpointing). The options
  /// and resolver are NOT part of the snapshot — a restored assembler must
  /// be constructed with the same options against an equivalently-restored
  /// resolver for the continuation to be byte-identical.
  [[nodiscard]] StreamingAssemblerState export_state() const;

  /// Restores a snapshot taken by export_state(), replacing all streaming
  /// state. The open-flow LRU order, reorder-heap layout and every counter
  /// round-trip exactly.
  void import_state(StreamingAssemblerState state);

 private:
  struct BufferedLater {
    bool operator()(const Buffered& a, const Buffered& b) const {
      if (a.effective != b.effective) return a.effective > b.effective;
      return a.seq > b.seq;
    }
  };
  struct OpenFlow {
    FlowRecord rec;
    std::list<FiveTuple>::iterator lru;
  };
  struct SealedFlow {
    std::uint64_t seq = 0;  ///< seal order, which checkpoints record
    FlowRecord rec;
  };

  void accept(const Packet& p);                 // clamp stage
  void enqueue(Packet p, Timestamp eff);        // into reorder stage
  Buffered pop_reorder();                       // heap-pop the earliest
  void pump();                                  // release up to horizon
  void release(const Packet& p, Timestamp eff); // flow update
  void seal(std::unordered_map<FiveTuple, OpenFlow, FiveTupleHash>::iterator
                it);
  void push_sealed(FlowRecord rec);
  void sweep_idle(Timestamp now);
  void enforce_caps();
  void note_peaks();
  [[nodiscard]] Timestamp release_bound() const;

  StreamingAssemblerOptions options_;
  DomainResolver* resolver_;

  // Clamp stage: one pending packet awaiting its look-ahead successor.
  std::optional<Packet> pending_;
  std::uint64_t decided_ = 0;  ///< packets whose effective ts is fixed
  Timestamp running_max_{std::numeric_limits<std::int64_t>::min()};
  Timestamp prev_effective_{std::numeric_limits<std::int64_t>::min()};

  // Reorder stage: a binary min-heap on (effective, seq) kept via
  // push_heap/pop_heap — a plain vector instead of std::priority_queue so
  // checkpointing can serialize the raw array (and restore it verbatim; the
  // heap layout is deterministic, and pop order is fully determined by the
  // strict (effective, seq) total order regardless of layout).
  std::vector<Buffered> reorder_;
  std::uint64_t next_seq_ = 0;
  Timestamp max_seen_{std::numeric_limits<std::int64_t>::min()};
  Timestamp last_released_{std::numeric_limits<std::int64_t>::min()};
  std::optional<Timestamp> first_release_;

  // Open flows, with least-recently-active ordering for eviction sweeps.
  std::unordered_map<FiveTuple, OpenFlow, FiveTupleHash> open_;
  std::list<FiveTuple> lru_;                 ///< front = least recently active
  std::multiset<Timestamp> open_starts_;     ///< min blocks the watermark
  std::size_t open_packets_ = 0;             ///< packets held by open flows

  /// Sealed flows in drain order, (start, tuple) then seal order, so a
  /// drain pops a prefix: a hold-all backlog drained window by window costs
  /// O(flows drained), not a pass over every pending flow.
  std::deque<SealedFlow> sealed_;
  std::uint64_t next_seal_seq_ = 0;
  bool finished_ = false;

  StreamingAssemblerStats stats_;
};

/// Serializable snapshot of a StreamingFlowAssembler — every member the
/// streaming core owns, in a shape the checkpoint format can walk. Open
/// flows are listed in LRU order (front = least recently active); the
/// derived indexes (tuple map, start multiset, packet tally) are rebuilt on
/// import. `reorder` is the raw heap array, restored verbatim.
struct StreamingAssemblerState {
  std::optional<Packet> pending;  ///< clamp-stage look-ahead slot
  std::uint64_t decided = 0;
  Timestamp running_max{std::numeric_limits<std::int64_t>::min()};
  Timestamp prev_effective{std::numeric_limits<std::int64_t>::min()};
  std::vector<StreamingFlowAssembler::Buffered> reorder;
  std::uint64_t next_seq = 0;
  Timestamp max_seen{std::numeric_limits<std::int64_t>::min()};
  Timestamp last_released{std::numeric_limits<std::int64_t>::min()};
  std::optional<Timestamp> first_release;
  std::vector<FlowRecord> open;  ///< LRU order, least recently active first
  std::vector<FlowRecord> sealed;
  bool finished = false;
  StreamingAssemblerStats stats;
};

/// Reports one whole-capture assembly: the `flow.assembler` heartbeat, its
/// degradation reasons (clamped timestamps, unresolved destinations) and the
/// `flow.*` / `ingest.*` counters. FlowAssembler::assemble calls it; so does
/// any caller that drives the streaming core over a whole capture and wants
/// the same account.
void report_assembly(const StreamingAssemblerStats& stats);

/// Assembles a capture into flow records.
///
/// Packets are processed in timestamp order. Each packet is first offered to
/// the resolver (so DNS/SNI seen earlier annotate later flows, mirroring an
/// online gateway); flow domains are resolved when the flow is sealed.
class FlowAssembler {
 public:
  explicit FlowAssembler(AssemblerOptions options = {});

  /// One-shot assembly of a full capture. The input need not be sorted.
  /// Implemented on the incremental core with an unbounded reorder horizon,
  /// so batch and streaming assembly cannot drift apart.
  std::vector<FlowRecord> assemble(std::span<const Packet> packets,
                                   DomainResolver& resolver) const;

 private:
  AssemblerOptions options_;
};

}  // namespace behaviot
