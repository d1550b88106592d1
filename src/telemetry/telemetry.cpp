#include "telemetry/telemetry.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/error.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {

const char* ToString(PacketTraceEvent::Kind kind) {
  switch (kind) {
    case PacketTraceEvent::Kind::kInject:
      return "inject";
    case PacketTraceEvent::Kind::kVcAlloc:
      return "vc_alloc";
    case PacketTraceEvent::Kind::kSaGrant:
      return "sa_grant";
    case PacketTraceEvent::Kind::kEject:
      return "eject";
  }
  return "?";
}

void RouterTelemetry::Init(const SwitchGeometry& geom, int buffer_depth) {
  VIXNOC_CHECK(geom.Valid());
  VIXNOC_CHECK(buffer_depth >= 1);
  geom_ = geom;
  alloc.Resize(geom);
  port_conflicts.assign(geom.num_inports, PortConflictCounters{});
  vc_stalls.assign(static_cast<std::size_t>(geom.num_inports) * geom.num_vcs,
                   VcStallCounters{});
  grants_per_out.assign(geom.num_outports, 0);
  occupancy_counts_.assign(
      static_cast<std::size_t>(geom.num_vcs) * buffer_depth + 1, 0);
  granted_.assign(static_cast<std::size_t>(geom.num_inports) * geom.num_vcs,
                  false);
  req_vin_.resize(static_cast<std::size_t>(geom.num_inports) * geom.num_vcs);
  req_out_.resize(static_cast<std::size_t>(geom.num_inports) * geom.num_vcs);
  req_count_.resize(geom.num_inports);
  cycles = sa_requests = sa_grants = 0;
}

void RouterTelemetry::Clear() {
  alloc.Clear();
  std::fill(port_conflicts.begin(), port_conflicts.end(),
            PortConflictCounters{});
  std::fill(vc_stalls.begin(), vc_stalls.end(), VcStallCounters{});
  std::fill(grants_per_out.begin(), grants_per_out.end(), 0);
  std::fill(occupancy_counts_.begin(), occupancy_counts_.end(), 0);
  cycles = sa_requests = sa_grants = 0;
}

void RouterTelemetry::RecordAllocationCycle(
    const std::vector<SaRequest>& requests,
    const std::vector<SaGrant>& grants) {
  ++cycles;
  sa_requests += requests.size();
  sa_grants += grants.size();

  std::fill(granted_.begin(), granted_.end(), false);
  for (const SaGrant& g : grants) {
    granted_[static_cast<std::size_t>(g.in_port) * geom_.num_vcs + g.vc] =
        true;
    ++grants_per_out[g.out_port];
  }

  // Group this cycle's requests by input port, keeping each one's
  // (virtual input, output) pair, then classify every multi-request port.
  std::fill(req_count_.begin(), req_count_.end(), 0);
  for (const SaRequest& r : requests) {
    const std::size_t slot = static_cast<std::size_t>(r.in_port) *
                                 geom_.num_vcs +
                             req_count_[r.in_port];
    req_vin_[slot] = geom_.VinOfVc(r.vc);
    req_out_[slot] = r.out_port;
    ++req_count_[r.in_port];
  }
  for (PortId p = 0; p < geom_.num_inports; ++p) {
    const int n = req_count_[p];
    if (n < 2) continue;
    PortConflictCounters& pc = port_conflicts[p];
    ++pc.multi_request_cycles;
    const std::size_t base = static_cast<std::size_t>(p) * geom_.num_vcs;
    bool vins_differ = false;
    bool outs_differ = false;
    for (int i = 1; i < n && !(vins_differ && outs_differ); ++i) {
      vins_differ |= req_vin_[base + i] != req_vin_[base];
      outs_differ |= req_out_[base + i] != req_out_[base];
    }
    if (vins_differ) {
      // With >= 2 distinct virtual inputs and >= 2 distinct outputs, some
      // pair of requests differs in both, so two flits can leave this port
      // this cycle; with one common output, the crossbar's extra input is
      // wasted on an output-port conflict.
      if (outs_differ) {
        ++pc.vin_distinct_output_cycles;
      } else {
        ++pc.vin_same_output_cycles;
      }
    } else if (outs_differ) {
      ++pc.single_vin_serialized_cycles;
    }
  }
}

void RouterTelemetry::RecordVcState(PortId p, VcId c, VcState s) {
  VcStallCounters& vs =
      vc_stalls[static_cast<std::size_t>(p) * geom_.num_vcs + c];
  switch (s) {
    case VcState::kEmpty:
      ++vs.empty;
      break;
    case VcState::kVaStall:
      ++vs.va_stall;
      break;
    case VcState::kCreditStall:
      ++vs.credit_stall;
      break;
    case VcState::kSaStall:
      ++vs.sa_stall;
      break;
    case VcState::kMoving:
      ++vs.moving;
      break;
  }
}

TelemetryCollector::TelemetryCollector(const TelemetryConfig& config)
    : config_(config) {
  VIXNOC_REQUIRE(config_.window_cycles >= 1,
                 "telemetry window_cycles must be >= 1, got %llu",
                 static_cast<unsigned long long>(config_.window_cycles));
  VIXNOC_REQUIRE(config_.max_windows >= 2,
                 "telemetry max_windows must be >= 2, got %zu",
                 config_.max_windows);
  window_width_ = config_.window_cycles;
  windows_.reserve(config_.max_windows);
  trace_.reserve(std::min<std::size_t>(config_.max_trace_events, 4'096));
}

void TelemetryCollector::AttachRouters(int num_routers,
                                       const SwitchGeometry& geom,
                                       int buffer_depth) {
  routers_.resize(num_routers);
  for (RouterTelemetry& rt : routers_) rt.Init(geom, buffer_depth);
}

void TelemetryCollector::ResetCounters() {
  for (RouterTelemetry& rt : routers_) rt.Clear();
  packets_ejected_ = 0;
  // Windows measure deltas against this snapshot; re-basing it to the
  // freshly zeroed totals keeps the open window consistent (it simply loses
  // the pre-reset part of its span).
  last_totals_ = WindowTotals{};
}

TelemetryCollector::WindowTotals TelemetryCollector::CurrentTotals() const {
  WindowTotals t;
  for (const RouterTelemetry& rt : routers_) {
    t.sa_requests += rt.sa_requests;
    t.sa_grants += rt.sa_grants;
    for (const PortConflictCounters& pc : rt.port_conflicts) {
      t.conflicts_distinct += pc.vin_distinct_output_cycles;
      t.conflicts_same += pc.vin_same_output_cycles;
    }
  }
  t.packets_ejected = packets_ejected_;
  return t;
}

void TelemetryCollector::Tick(Cycle now) {
  // Called once per simulated cycle; the window [start, start + width)
  // closes after its last cycle has been processed.
  while (now + 1 >= window_start_ + window_width_) {
    const WindowTotals totals = CurrentTotals();
    TelemetryWindow w;
    w.start = window_start_;
    w.width = window_width_;
    w.sa_requests = totals.sa_requests - last_totals_.sa_requests;
    w.sa_grants = totals.sa_grants - last_totals_.sa_grants;
    w.vin_conflicts_distinct =
        totals.conflicts_distinct - last_totals_.conflicts_distinct;
    w.vin_conflicts_same = totals.conflicts_same - last_totals_.conflicts_same;
    w.packets_ejected = totals.packets_ejected - last_totals_.packets_ejected;
    windows_.push_back(w);
    last_totals_ = totals;
    window_start_ += window_width_;

    if (windows_.size() >= config_.max_windows) {
      // Reservoir full: merge adjacent pairs (halving the count, keeping
      // coverage contiguous) and double the width of future windows.
      std::size_t out = 0;
      for (std::size_t i = 0; i < windows_.size(); i += 2) {
        TelemetryWindow merged = windows_[i];
        if (i + 1 < windows_.size()) {
          const TelemetryWindow& b = windows_[i + 1];
          merged.width += b.width;
          merged.sa_requests += b.sa_requests;
          merged.sa_grants += b.sa_grants;
          merged.vin_conflicts_distinct += b.vin_conflicts_distinct;
          merged.vin_conflicts_same += b.vin_conflicts_same;
          merged.packets_ejected += b.packets_ejected;
        }
        windows_[out++] = merged;
      }
      windows_.resize(out);
      window_width_ *= 2;
    }
  }
}

TelemetrySummary TelemetryCollector::Summarize() const {
  TelemetrySummary s;
  s.enabled = true;
  std::uint64_t multi = 0, distinct = 0, same = 0, serialized = 0;
  std::uint64_t occ_total = 0;
  std::uint64_t occ_weighted = 0;
  std::size_t occ_size = 0;
  for (const RouterTelemetry& rt : routers_) {
    s.cycles += rt.cycles;
    s.sa_requests += rt.sa_requests;
    s.sa_grants += rt.sa_grants;
    for (std::uint64_t v : rt.alloc.input_requests) {
      s.input_arbiter_requests += v;
    }
    for (std::uint64_t v : rt.alloc.input_grants) s.input_arbiter_grants += v;
    for (std::uint64_t v : rt.alloc.output_requests) {
      s.output_arbiter_requests += v;
    }
    for (std::uint64_t v : rt.alloc.output_grants) {
      s.output_arbiter_grants += v;
    }
    s.output_conflict_cycles += rt.alloc.output_conflict_cycles;
    for (const PortConflictCounters& pc : rt.port_conflicts) {
      multi += pc.multi_request_cycles;
      distinct += pc.vin_distinct_output_cycles;
      same += pc.vin_same_output_cycles;
      serialized += pc.single_vin_serialized_cycles;
    }
    for (const VcStallCounters& vs : rt.vc_stalls) {
      s.stall_empty += vs.empty;
      s.stall_va += vs.va_stall;
      s.stall_credit += vs.credit_stall;
      s.stall_sa += vs.sa_stall;
      s.vc_moving += vs.moving;
    }
    const std::vector<std::uint64_t> occ = rt.occupancy_counts();
    occ_size = std::max(occ_size, occ.size());
    for (std::size_t k = 0; k < occ.size(); ++k) {
      occ_total += occ[k];
      occ_weighted += occ[k] * k;
    }
  }
  s.port_multi_request_cycles = multi;
  s.vin_conflict_distinct_output = distinct;
  s.vin_conflict_same_output = same;
  s.single_vin_serialized = serialized;

  const std::uint64_t vin_conflicts = distinct + same;
  if (vin_conflicts > 0) {
    s.same_output_conflict_rate =
        static_cast<double>(same) / static_cast<double>(vin_conflicts);
  }
  if (multi > 0) {
    s.distinct_output_conflict_rate =
        static_cast<double>(distinct) / static_cast<double>(multi);
  }
  if (!routers_.empty() && routers_[0].cycles > 0) {
    std::uint64_t slots = 0;
    for (const RouterTelemetry& rt : routers_) {
      slots += rt.cycles *
               static_cast<std::uint64_t>(rt.geometry().num_outports);
    }
    s.crossbar_utilization =
        static_cast<double>(s.sa_grants) / static_cast<double>(slots);
  }
  if (occ_total > 0) {
    s.mean_port_occupancy =
        static_cast<double>(occ_weighted) / static_cast<double>(occ_total);
    // p99 over the pooled per-port-per-cycle occupancy samples.
    std::vector<std::uint64_t> pooled(occ_size, 0);
    for (const RouterTelemetry& rt : routers_) {
      const std::vector<std::uint64_t> occ = rt.occupancy_counts();
      for (std::size_t k = 0; k < occ.size(); ++k) pooled[k] += occ[k];
    }
    const auto target = static_cast<std::uint64_t>(
        0.99 * static_cast<double>(occ_total));
    std::uint64_t cum = 0;
    for (std::size_t k = 0; k < pooled.size(); ++k) {
      cum += pooled[k];
      if (cum > target) {
        s.p99_port_occupancy = static_cast<double>(k);
        break;
      }
    }
  }
  s.windows = windows_;
  s.trace = trace_;
  return s;
}

void WriteTraceEventJson(std::FILE* f, const PacketTraceEvent& ev) {
  std::fprintf(f,
               "{\"packet\": %llu, \"event\": \"%s\", \"cycle\": %llu, "
               "\"router\": %d, \"src\": %d, \"dst\": %d}\n",
               static_cast<unsigned long long>(ev.packet), ToString(ev.kind),
               static_cast<unsigned long long>(ev.cycle),
               static_cast<int>(ev.router), static_cast<int>(ev.src),
               static_cast<int>(ev.dst));
}

void TelemetryCollector::WriteTraceJsonl(std::FILE* f) const {
  for (const PacketTraceEvent& ev : trace_) WriteTraceEventJson(f, ev);
}

namespace {

void SavePortConflicts(SnapshotWriter& w, const PortConflictCounters& c) {
  w.U64(c.multi_request_cycles);
  w.U64(c.vin_distinct_output_cycles);
  w.U64(c.vin_same_output_cycles);
  w.U64(c.single_vin_serialized_cycles);
}

PortConflictCounters LoadPortConflicts(SnapshotReader& r) {
  PortConflictCounters c;
  c.multi_request_cycles = r.U64();
  c.vin_distinct_output_cycles = r.U64();
  c.vin_same_output_cycles = r.U64();
  c.single_vin_serialized_cycles = r.U64();
  return c;
}

void SaveVcStalls(SnapshotWriter& w, const VcStallCounters& c) {
  w.U64(c.empty);
  w.U64(c.va_stall);
  w.U64(c.credit_stall);
  w.U64(c.sa_stall);
  w.U64(c.moving);
}

VcStallCounters LoadVcStalls(SnapshotReader& r) {
  VcStallCounters c;
  c.empty = r.U64();
  c.va_stall = r.U64();
  c.credit_stall = r.U64();
  c.sa_stall = r.U64();
  c.moving = r.U64();
  return c;
}

void CheckSameSize(std::size_t got, std::size_t expected, const char* what) {
  VIXNOC_REQUIRE(got == expected,
                 "restored telemetry %s has %zu entries, expected %zu", what,
                 got, expected);
}

}  // namespace

void RouterTelemetry::SaveState(SnapshotWriter& w) const {
  w.VecU64(alloc.input_requests);
  w.VecU64(alloc.input_grants);
  w.VecU64(alloc.output_requests);
  w.VecU64(alloc.output_grants);
  w.U64(alloc.output_conflict_cycles);
  w.U32(static_cast<std::uint32_t>(port_conflicts.size()));
  for (const PortConflictCounters& c : port_conflicts) SavePortConflicts(w, c);
  w.U32(static_cast<std::uint32_t>(vc_stalls.size()));
  for (const VcStallCounters& c : vc_stalls) SaveVcStalls(w, c);
  w.VecU64(grants_per_out);
  w.VecU64(occupancy_counts_);
  w.U64(cycles);
  w.U64(sa_requests);
  w.U64(sa_grants);
}

void RouterTelemetry::LoadState(SnapshotReader& r) {
  std::vector<std::uint64_t> v = r.VecU64();
  CheckSameSize(v.size(), alloc.input_requests.size(), "input_requests");
  alloc.input_requests = std::move(v);
  v = r.VecU64();
  CheckSameSize(v.size(), alloc.input_grants.size(), "input_grants");
  alloc.input_grants = std::move(v);
  v = r.VecU64();
  CheckSameSize(v.size(), alloc.output_requests.size(), "output_requests");
  alloc.output_requests = std::move(v);
  v = r.VecU64();
  CheckSameSize(v.size(), alloc.output_grants.size(), "output_grants");
  alloc.output_grants = std::move(v);
  alloc.output_conflict_cycles = r.U64();
  const std::uint32_t npc = r.U32();
  CheckSameSize(npc, port_conflicts.size(), "port_conflicts");
  for (auto& c : port_conflicts) c = LoadPortConflicts(r);
  const std::uint32_t nvs = r.U32();
  CheckSameSize(nvs, vc_stalls.size(), "vc_stalls");
  for (auto& c : vc_stalls) c = LoadVcStalls(r);
  v = r.VecU64();
  CheckSameSize(v.size(), grants_per_out.size(), "grants_per_out");
  grants_per_out = std::move(v);
  v = r.VecU64();
  CheckSameSize(v.size(), occupancy_counts_.size(), "occupancy histogram");
  occupancy_counts_ = std::move(v);
  cycles = r.U64();
  sa_requests = r.U64();
  sa_grants = r.U64();
}

void SaveTelemetryWindows(SnapshotWriter& w,
                          const std::vector<TelemetryWindow>& windows) {
  w.U32(static_cast<std::uint32_t>(windows.size()));
  for (const TelemetryWindow& win : windows) {
    w.U64(win.start);
    w.U64(win.width);
    w.U64(win.sa_requests);
    w.U64(win.sa_grants);
    w.U64(win.vin_conflicts_distinct);
    w.U64(win.vin_conflicts_same);
    w.U64(win.packets_ejected);
  }
}

std::vector<TelemetryWindow> LoadTelemetryWindows(SnapshotReader& r) {
  const std::size_t n = r.CountU32(7 * 8);  // seven u64 fields
  std::vector<TelemetryWindow> windows;
  windows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TelemetryWindow win;
    win.start = r.U64();
    win.width = r.U64();
    win.sa_requests = r.U64();
    win.sa_grants = r.U64();
    win.vin_conflicts_distinct = r.U64();
    win.vin_conflicts_same = r.U64();
    win.packets_ejected = r.U64();
    windows.push_back(win);
  }
  return windows;
}

void SavePacketTraceEvents(SnapshotWriter& w,
                           const std::vector<PacketTraceEvent>& events) {
  w.U32(static_cast<std::uint32_t>(events.size()));
  for (const PacketTraceEvent& ev : events) {
    w.U64(ev.packet);
    w.U8(static_cast<std::uint8_t>(ev.kind));
    w.U64(ev.cycle);
    w.I32(ev.router);
    w.I32(ev.src);
    w.I32(ev.dst);
  }
}

std::vector<PacketTraceEvent> LoadPacketTraceEvents(SnapshotReader& r) {
  // packet u64, kind u8, cycle u64, router/src/dst i32
  const std::size_t n = r.CountU32(8 + 1 + 8 + 3 * 4);
  std::vector<PacketTraceEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PacketTraceEvent ev;
    ev.packet = r.U64();
    const std::uint8_t kind = r.U8();
    VIXNOC_REQUIRE(kind <= static_cast<std::uint8_t>(
                               PacketTraceEvent::Kind::kEject),
                   "restored trace event has invalid kind %u", kind);
    ev.kind = static_cast<PacketTraceEvent::Kind>(kind);
    ev.cycle = r.U64();
    ev.router = r.I32();
    ev.src = r.I32();
    ev.dst = r.I32();
    events.push_back(ev);
  }
  return events;
}

void TelemetryCollector::SaveState(SnapshotWriter& w) const {
  w.U32(static_cast<std::uint32_t>(routers_.size()));
  for (const RouterTelemetry& rt : routers_) rt.SaveState(w);
  SaveTelemetryWindows(w, windows_);
  w.U64(window_width_);
  w.U64(window_start_);
  w.U64(last_totals_.sa_requests);
  w.U64(last_totals_.sa_grants);
  w.U64(last_totals_.conflicts_distinct);
  w.U64(last_totals_.conflicts_same);
  w.U64(last_totals_.packets_ejected);
  w.U64(packets_ejected_);
  SavePacketTraceEvents(w, trace_);
}

void TelemetryCollector::LoadState(SnapshotReader& r) {
  const std::uint32_t nr = r.U32();
  CheckSameSize(nr, routers_.size(), "router blocks");
  for (RouterTelemetry& rt : routers_) rt.LoadState(r);
  windows_ = LoadTelemetryWindows(r);
  window_width_ = r.U64();
  window_start_ = r.U64();
  last_totals_.sa_requests = r.U64();
  last_totals_.sa_grants = r.U64();
  last_totals_.conflicts_distinct = r.U64();
  last_totals_.conflicts_same = r.U64();
  last_totals_.packets_ejected = r.U64();
  packets_ejected_ = r.U64();
  trace_ = LoadPacketTraceEvents(r);
}

}  // namespace vixnoc
