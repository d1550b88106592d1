// Router / network observability: per-router, per-port and per-VC counters,
// a constant-memory cycle-windowed time series, and a sampled packet event
// trace. This is the instrumentation that makes the paper's §2 mechanism
// visible: whether conflicting requests at one input port actually land in
// *different* virtual inputs (the case where a VIX crossbar moves two flits
// from one port in one cycle), or collapse onto the same output (the case
// no crossbar can help with — a VC-assignment policy miss).
//
// Overhead contract: the subsystem is dark by default. With no
// TelemetryCollector attached, the router/network hot paths pay exactly one
// null-pointer test per cycle (and per injected/ejected flit) and the
// simulation is bitwise identical to a build without the subsystem —
// telemetry only *reads* simulator state, never mutates it and never draws
// from any RNG stream. Attaching a collector may slow the simulation but
// must not change any simulated outcome.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "alloc/switch_allocator.hpp"
#include "common/types.hpp"

namespace vixnoc {

class SnapshotReader;
class SnapshotWriter;

/// Knobs carried by NetworkSimConfig. Default = disabled = zero cost.
struct TelemetryConfig {
  bool enabled = false;
  /// Initial width of the time-series windows, in cycles.
  Cycle window_cycles = 1'024;
  /// Reservoir capacity: when a run produces more than this many windows,
  /// adjacent pairs are merged (doubling the effective width), so memory
  /// stays constant for arbitrarily long runs.
  std::size_t max_windows = 64;
  /// Sample every packet whose id is a multiple of this period into the
  /// event trace. 0 disables the trace.
  std::uint64_t trace_sample_period = 0;
  /// Hard cap on buffered trace events (constant memory); sampling stops
  /// once reached.
  std::size_t max_trace_events = 65'536;
};

/// Classification of one input port's switch-allocation request set in one
/// cycle. "vin" counters only tick when at least two requesting VCs sit in
/// *different* virtual inputs of the port — exactly the situations the VIX
/// crossbar was built for (or fails to exploit).
struct PortConflictCounters {
  /// Cycles with two or more requesting VCs at this input port.
  std::uint64_t multi_request_cycles = 0;
  /// ... where VCs in distinct virtual inputs requested distinct outputs:
  /// the VIX win case — two flits can leave this port this cycle.
  std::uint64_t vin_distinct_output_cycles = 0;
  /// ... where distinct virtual inputs requested only one common output:
  /// the policy-miss case — the VC-assignment policy spent two crossbar
  /// inputs on a conflict no crossbar can resolve.
  std::uint64_t vin_same_output_cycles = 0;
  /// ... where all requesting VCs share one virtual input despite wanting
  /// distinct outputs: serialized head-of-line conflict (all of an IF
  /// port's conflicts land here; for VIX it is steering-policy clustering).
  std::uint64_t single_vin_serialized_cycles = 0;
};

/// Why an input VC did (not) move in a cycle.
struct VcStallCounters {
  std::uint64_t empty = 0;         ///< no buffered flit (incl. body bubbles)
  std::uint64_t va_stall = 0;      ///< head flit waiting for an output VC
  std::uint64_t credit_stall = 0;  ///< holds a VC, no downstream credit / link down
  std::uint64_t sa_stall = 0;      ///< ready but lost (or withheld from) SA
  std::uint64_t moving = 0;        ///< granted: a flit traversed the switch
};

/// One entry of the sampled packet event trace. Emitted as JSONL by
/// TelemetryCollector::WriteTraceJsonl with schema (one object per line):
///   {"packet": u64, "event": "inject"|"vc_alloc"|"sa_grant"|"eject",
///    "cycle": u64, "router": int (-1 for NI events), "src": int, "dst": int}
struct PacketTraceEvent {
  enum class Kind : std::uint8_t { kInject, kVcAlloc, kSaGrant, kEject };
  PacketId packet = 0;
  Kind kind = Kind::kInject;
  Cycle cycle = 0;
  RouterId router = -1;  ///< -1 for NI-side events (inject/eject)
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
};

const char* ToString(PacketTraceEvent::Kind kind);

/// Per-router counter block. The router drives it from its Step (between
/// switch allocation and grant commit, when requests, grants and buffer
/// state are all still visible).
class RouterTelemetry {
 public:
  void Init(const SwitchGeometry& geom, int buffer_depth);
  void Clear();

  /// Ingest one cycle's request matrix and grant set: classifies per-port
  /// virtual-input conflicts and tracks crossbar slot usage. Also rebuilds
  /// the per-(port, vc) granted mask consumed by WasGranted below.
  void RecordAllocationCycle(const std::vector<SaRequest>& requests,
                             const std::vector<SaGrant>& grants);

  /// Whether (in_port, vc) was granted in the cycle most recently passed to
  /// RecordAllocationCycle.
  bool WasGranted(PortId p, VcId c) const {
    return granted_[static_cast<std::size_t>(p) * geom_.num_vcs + c];
  }

  enum class VcState { kEmpty, kVaStall, kCreditStall, kSaStall, kMoving };
  void RecordVcState(PortId p, VcId c, VcState s);

  /// Total flits buffered at input port `p` this cycle (occupancy histogram
  /// sample; one sample per port per cycle).
  void RecordPortOccupancy(PortId /*port*/, int flits) {
    ++occupancy_counts_[static_cast<std::size_t>(flits)];
  }

  const SwitchGeometry& geometry() const { return geom_; }

  /// Checkpoint/restore of the counter block (per-cycle scratch excluded;
  /// it is rebuilt by the next RecordAllocationCycle).
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

  /// Per-arbiter counters, filled by the attached separable allocator.
  AllocTelemetry alloc;
  std::vector<PortConflictCounters> port_conflicts;  ///< per input port
  std::vector<VcStallCounters> vc_stalls;            ///< per (port, vc)
  std::vector<std::uint64_t> grants_per_out;         ///< per output port
  /// Occupancy histogram: occupancy_counts[k] = port-cycles with exactly k
  /// buffered flits (k <= num_vcs * buffer_depth).
  std::vector<std::uint64_t> occupancy_counts() const {
    return occupancy_counts_;
  }
  std::uint64_t cycles = 0;
  std::uint64_t sa_requests = 0;
  std::uint64_t sa_grants = 0;

 private:
  SwitchGeometry geom_;
  std::vector<bool> granted_;  // radix * num_vcs, rebuilt each cycle
  std::vector<std::uint64_t> occupancy_counts_;
  // Per-cycle classification scratch: request (vin, out) pairs per port.
  std::vector<std::int32_t> req_vin_;  // radix * num_vcs
  std::vector<std::int32_t> req_out_;  // radix * num_vcs
  std::vector<std::int32_t> req_count_;  // radix
};

/// One window of the time series. Windows are contiguous and cover the run
/// from cycle 0; after reservoir merges, widths grow but stay contiguous.
struct TelemetryWindow {
  Cycle start = 0;
  Cycle width = 0;
  std::uint64_t sa_requests = 0;
  std::uint64_t sa_grants = 0;  ///< == flits through crossbars
  std::uint64_t vin_conflicts_distinct = 0;
  std::uint64_t vin_conflicts_same = 0;
  std::uint64_t packets_ejected = 0;
};

/// Aggregates surfaced in NetworkSimResult (and the sweep JSON records).
/// Counter fields cover the measurement window; `windows` and `trace`
/// cover the whole run including warmup and drain.
struct TelemetrySummary {
  bool enabled = false;
  std::uint64_t cycles = 0;  ///< per-router telemetry cycles (summed)
  std::uint64_t sa_requests = 0;
  std::uint64_t sa_grants = 0;
  std::uint64_t input_arbiter_requests = 0;
  std::uint64_t input_arbiter_grants = 0;
  std::uint64_t output_arbiter_requests = 0;
  std::uint64_t output_arbiter_grants = 0;
  std::uint64_t output_conflict_cycles = 0;
  std::uint64_t port_multi_request_cycles = 0;
  std::uint64_t vin_conflict_distinct_output = 0;
  std::uint64_t vin_conflict_same_output = 0;
  std::uint64_t single_vin_serialized = 0;
  std::uint64_t stall_empty = 0;
  std::uint64_t stall_va = 0;
  std::uint64_t stall_credit = 0;
  std::uint64_t stall_sa = 0;
  std::uint64_t vc_moving = 0;
  /// Granted crossbar slots / (cycles * output ports): the fraction of the
  /// switch's peak bandwidth actually used.
  double crossbar_utilization = 0.0;
  /// Among port-cycles where distinct virtual inputs held conflicting
  /// requests: fraction that targeted one common output (policy misses).
  double same_output_conflict_rate = 0.0;
  /// Among multi-request port-cycles: fraction VIX can exploit (distinct
  /// vins, distinct outputs).
  double distinct_output_conflict_rate = 0.0;
  double mean_port_occupancy = 0.0;
  double p99_port_occupancy = 0.0;
  std::vector<TelemetryWindow> windows;
  std::vector<PacketTraceEvent> trace;
};

/// The one encoding of the window list and of the event trace, shared by
/// the collector's checkpoint state and by encoded results (`.res` store
/// entries and wire replies): a u32 count, then the records. The loads
/// bound the count by the bytes left, so a hostile count throws SimError
/// before anything is reserved.
void SaveTelemetryWindows(SnapshotWriter& w,
                          const std::vector<TelemetryWindow>& windows);
std::vector<TelemetryWindow> LoadTelemetryWindows(SnapshotReader& r);
void SavePacketTraceEvents(SnapshotWriter& w,
                           const std::vector<PacketTraceEvent>& events);
std::vector<PacketTraceEvent> LoadPacketTraceEvents(SnapshotReader& r);

/// Owns every router's counter block, the window reservoir and the trace
/// buffer for one simulation. Single-threaded like the Network it observes;
/// sweeps give each point its own collector.
class TelemetryCollector {
 public:
  explicit TelemetryCollector(const TelemetryConfig& config);

  const TelemetryConfig& config() const { return config_; }

  /// Sizes per-router state; called by the Network during construction.
  void AttachRouters(int num_routers, const SwitchGeometry& geom,
                     int buffer_depth);
  RouterTelemetry& router(RouterId r) { return routers_[r]; }
  const RouterTelemetry& router(RouterId r) const { return routers_[r]; }
  int num_routers() const { return static_cast<int>(routers_.size()); }

  /// Zeroes all counters (measurement-window start). The time series and
  /// the trace keep running: windows record deltas against their own
  /// snapshot, which is reset consistently here.
  void ResetCounters();

  /// Window bookkeeping; the Network calls this once per cycle after every
  /// router has stepped.
  void Tick(Cycle now);
  /// Feeds the per-window delivery count; called per delivered packet.
  void OnPacketEjected() { ++packets_ejected_; }

  bool tracing() const { return config_.trace_sample_period > 0; }
  /// Whether `id` is sampled into the event trace (and the buffer has room).
  bool SampleTrace(PacketId id) const {
    return tracing() && id % config_.trace_sample_period == 0 &&
           trace_.size() < config_.max_trace_events;
  }
  void RecordTraceEvent(const PacketTraceEvent& ev) { trace_.push_back(ev); }
  const std::vector<PacketTraceEvent>& trace_events() const { return trace_; }

  const std::vector<TelemetryWindow>& windows() const { return windows_; }
  Cycle window_width() const { return window_width_; }

  /// Aggregates current counter state (plus windows and trace so far).
  TelemetrySummary Summarize() const;

  /// Checkpoint/restore of every router block, the window reservoir and the
  /// trace buffer. Only called for a collector whose AttachRouters geometry
  /// matches the saved one; the checkpoint's own config (window width,
  /// trace sampling) may legitimately differ on a replay run — windows and
  /// trace are restored as recorded and continue under the new config.
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

  /// Emits the packet event trace as JSONL (schema: see PacketTraceEvent).
  void WriteTraceJsonl(std::FILE* f) const;

 private:
  struct WindowTotals {
    std::uint64_t sa_requests = 0;
    std::uint64_t sa_grants = 0;
    std::uint64_t conflicts_distinct = 0;
    std::uint64_t conflicts_same = 0;
    std::uint64_t packets_ejected = 0;
  };
  WindowTotals CurrentTotals() const;

  TelemetryConfig config_;
  std::vector<RouterTelemetry> routers_;
  std::vector<TelemetryWindow> windows_;
  Cycle window_width_ = 0;
  Cycle window_start_ = 0;
  WindowTotals last_totals_;
  std::uint64_t packets_ejected_ = 0;
  std::vector<PacketTraceEvent> trace_;
};

/// Writes one trace event as a JSONL line (exposed for tests).
void WriteTraceEventJson(std::FILE* f, const PacketTraceEvent& ev);

}  // namespace vixnoc
