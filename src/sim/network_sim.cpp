#include "sim/network_sim.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "routing/registry.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_io.hpp"
#include "traffic/injection.hpp"
#include "traffic/trace.hpp"

namespace vixnoc {

namespace {

/// The one encoding of the sample timeline, shared by checkpoints and
/// encoded results: a u32 count, then four 8-byte fields per sample.
void SaveTimeline(SnapshotWriter& w,
                  const std::vector<IntervalSample>& timeline) {
  w.U32(static_cast<std::uint32_t>(timeline.size()));
  for (const IntervalSample& s : timeline) {
    w.U64(s.start);
    w.F64(s.accepted_ppc);
    w.F64(s.avg_latency);
    w.U64(s.packets);
  }
}

std::vector<IntervalSample> LoadTimeline(SnapshotReader& r) {
  const std::size_t n = r.CountU32(4 * 8);
  std::vector<IntervalSample> timeline;
  timeline.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    IntervalSample s;
    s.start = r.U64();
    s.accepted_ppc = r.F64();
    s.avg_latency = r.F64();
    s.packets = r.U64();
    timeline.push_back(s);
  }
  return timeline;
}

/// Scalar aggregates of a TelemetrySummary (windows and trace are handled
/// by the callers: the checkpoint stores the collector's live state, the
/// result cache stores them verbatim).
void SaveTelemetryScalars(SnapshotWriter& w, const TelemetrySummary& s) {
  w.B(s.enabled);
  w.U64(s.cycles);
  w.U64(s.sa_requests);
  w.U64(s.sa_grants);
  w.U64(s.input_arbiter_requests);
  w.U64(s.input_arbiter_grants);
  w.U64(s.output_arbiter_requests);
  w.U64(s.output_arbiter_grants);
  w.U64(s.output_conflict_cycles);
  w.U64(s.port_multi_request_cycles);
  w.U64(s.vin_conflict_distinct_output);
  w.U64(s.vin_conflict_same_output);
  w.U64(s.single_vin_serialized);
  w.U64(s.stall_empty);
  w.U64(s.stall_va);
  w.U64(s.stall_credit);
  w.U64(s.stall_sa);
  w.U64(s.vc_moving);
  w.F64(s.crossbar_utilization);
  w.F64(s.same_output_conflict_rate);
  w.F64(s.distinct_output_conflict_rate);
  w.F64(s.mean_port_occupancy);
  w.F64(s.p99_port_occupancy);
}

void LoadTelemetryScalars(SnapshotReader& r, TelemetrySummary* s) {
  s->enabled = r.B();
  s->cycles = r.U64();
  s->sa_requests = r.U64();
  s->sa_grants = r.U64();
  s->input_arbiter_requests = r.U64();
  s->input_arbiter_grants = r.U64();
  s->output_arbiter_requests = r.U64();
  s->output_arbiter_grants = r.U64();
  s->output_conflict_cycles = r.U64();
  s->port_multi_request_cycles = r.U64();
  s->vin_conflict_distinct_output = r.U64();
  s->vin_conflict_same_output = r.U64();
  s->single_vin_serialized = r.U64();
  s->stall_empty = r.U64();
  s->stall_va = r.U64();
  s->stall_credit = r.U64();
  s->stall_sa = r.U64();
  s->vc_moving = r.U64();
  s->crossbar_utilization = r.F64();
  s->same_output_conflict_rate = r.F64();
  s->distinct_output_conflict_rate = r.F64();
  s->mean_port_occupancy = r.F64();
  s->p99_port_occupancy = r.F64();
}

void SaveSimOutcome(SnapshotWriter& w, const SimOutcome& o) {
  w.U8(static_cast<std::uint8_t>(o.status));
  w.Str(o.message);
  w.U64(o.cycle);
  w.VecU32(o.router_occupancy);
  w.U64(o.unreachable_packets);
  w.Str(o.checkpoint_path);
}

SimOutcome LoadSimOutcome(SnapshotReader& r) {
  SimOutcome o;
  const std::uint8_t status = r.U8();
  VIXNOC_REQUIRE(
      status <= static_cast<std::uint8_t>(SimStatus::kExecFailure),
      "restored outcome has invalid status %u", status);
  o.status = static_cast<SimStatus>(status);
  o.message = r.Str();
  o.cycle = r.U64();
  o.router_occupancy = r.VecU32();
  o.unreachable_packets = r.U64();
  o.checkpoint_path = r.Str();
  return o;
}

}  // namespace

std::string ToString(SimStatus status) {
  switch (status) {
    case SimStatus::kOk:
      return "ok";
    case SimStatus::kDeadlock:
      return "deadlock";
    case SimStatus::kUndeliverable:
      return "undeliverable";
    case SimStatus::kInvariantViolation:
      return "invariant-violation";
    case SimStatus::kExecFailure:
      return "exec-failure";
  }
  return "unknown";
}

void ValidateNetworkSimConfig(const NetworkSimConfig& config) {
  VIXNOC_REQUIRE(
      config.injection_rate >= 0.0 && config.injection_rate <= 1.0,
      "injection_rate must be in [0, 1], got %g", config.injection_rate);
  VIXNOC_REQUIRE(config.num_vcs >= 1, "num_vcs must be >= 1, got %d",
                 config.num_vcs);
  VIXNOC_REQUIRE(config.buffer_depth >= 1, "buffer_depth must be >= 1, got %d",
                 config.buffer_depth);
  VIXNOC_REQUIRE(config.packet_size >= 1, "packet_size must be >= 1, got %d",
                 config.packet_size);
  VIXNOC_REQUIRE(config.pipeline_stages == 3 || config.pipeline_stages == 5,
                 "pipeline_stages must be 3 or 5, got %d",
                 config.pipeline_stages);
  VIXNOC_REQUIRE(config.hotspot_node >= kInvalidNode,
                 "hotspot_node must be a node index or kInvalidNode, got %d",
                 config.hotspot_node);
  if (config.hotspot_node != kInvalidNode) {
    VIXNOC_REQUIRE(config.pattern == PatternKind::kHotspot ||
                       config.pattern == PatternKind::kIncast,
                   "hotspot_node is only meaningful for pattern=hotspot or "
                   "pattern=incast");
  }
  if (config.incast_fanin > 0) {
    VIXNOC_REQUIRE(config.pattern == PatternKind::kIncast,
                   "incast_fanin is only meaningful for pattern=incast");
  }
  if (config.scheme == AllocScheme::kVix) {
    const int vins =
        config.vix_virtual_inputs > 0 ? config.vix_virtual_inputs : 2;
    VIXNOC_REQUIRE(vins >= 2 && vins <= config.num_vcs,
                   "VIX virtual inputs must be in [2, num_vcs=%d], got %d",
                   config.num_vcs, vins);
    VIXNOC_REQUIRE(config.num_vcs % vins == 0,
                   "num_vcs (%d) must be divisible by VIX virtual inputs (%d)",
                   config.num_vcs, vins);
  }
  if (config.bursty) {
    VIXNOC_REQUIRE(config.burst_on_rate > 0.0 && config.burst_on_rate <= 1.0,
                   "burst_on_rate must be in (0, 1], got %g",
                   config.burst_on_rate);
    VIXNOC_REQUIRE(
        config.burst_on_rate >= config.injection_rate,
        "burst_on_rate (%g) must be >= the average injection_rate (%g)",
        config.burst_on_rate, config.injection_rate);
    VIXNOC_REQUIRE(config.mean_burst_cycles >= 1.0,
                   "mean_burst_cycles must be >= 1, got %g",
                   config.mean_burst_cycles);
  }

  const FaultConfig& f = config.faults;
  VIXNOC_REQUIRE(f.link_down_rate >= 0.0 && f.link_down_rate <= 1.0,
                 "faults.link_down_rate must be in [0, 1], got %g",
                 f.link_down_rate);
  VIXNOC_REQUIRE(f.transient_rate >= 0.0 && f.transient_rate <= 1.0,
                 "faults.transient_rate must be in [0, 1], got %g",
                 f.transient_rate);
  VIXNOC_REQUIRE(f.router_stall_rate >= 0.0 && f.router_stall_rate <= 1.0,
                 "faults.router_stall_rate must be in [0, 1], got %g",
                 f.router_stall_rate);
  VIXNOC_REQUIRE(f.corruption_rate >= 0.0 && f.corruption_rate <= 1.0,
                 "faults.corruption_rate must be in [0, 1], got %g",
                 f.corruption_rate);
  const bool permanent_faults =
      f.link_down_rate > 0.0 || !f.forced_link_down.empty();
  if (permanent_faults && !config.topology_factory) {
    VIXNOC_REQUIRE(config.topology != TopologyKind::kTorus,
                   "permanent link faults are unsupported on the torus: "
                   "detour routing breaks the dateline VC deadlock-freedom "
                   "argument");
  }
  if (!config.routing_factory) {
    VIXNOC_REQUIRE(IsRegisteredRouting(config.routing),
                   "unknown routing algorithm '%s' (registered: %s)",
                   config.routing.c_str(),
                   RegisteredRoutingNamesJoined().c_str());
    if (config.routing == "adaptive_min") {
      VIXNOC_REQUIRE(!permanent_faults,
                     "routing=adaptive_min does not support permanent link "
                     "faults (the DOR escape path could be severed); use "
                     "routing=fault_aware");
      const bool torus = !config.topology_factory &&
                         config.topology == TopologyKind::kTorus;
      // One escape VC (two on the torus: the dateline pair) plus at least
      // one adaptively shared VC per message class.
      const int min_vcs = torus ? 3 : 2;
      VIXNOC_REQUIRE(config.num_vcs >= min_vcs,
                     "routing=adaptive_min needs num_vcs >= %d on this "
                     "topology (escape VCs + one adaptive VC), got %d",
                     min_vcs, config.num_vcs);
    }
  }
  if (config.telemetry.enabled) {
    VIXNOC_REQUIRE(config.telemetry.window_cycles >= 1,
                   "telemetry.window_cycles must be >= 1, got %llu",
                   static_cast<unsigned long long>(
                       config.telemetry.window_cycles));
    VIXNOC_REQUIRE(config.telemetry.max_windows >= 2,
                   "telemetry.max_windows must be >= 2, got %zu",
                   config.telemetry.max_windows);
    if (config.telemetry.trace_sample_period > 0) {
      VIXNOC_REQUIRE(config.telemetry.max_trace_events >= 1,
                     "telemetry.max_trace_events must be >= 1 when tracing, "
                     "got %zu",
                     config.telemetry.max_trace_events);
    }
  }

  VIXNOC_REQUIRE(config.checkpoint_every == 0 ||
                     !config.checkpoint_path.empty(),
                 "checkpoint_every=%llu needs a checkpoint_path",
                 static_cast<unsigned long long>(config.checkpoint_every));
  VIXNOC_REQUIRE(config.deadlock_checkpoint_path.empty() ||
                     config.watchdog_cycles > 0,
                 "deadlock_checkpoint_path needs the watchdog enabled "
                 "(watchdog_cycles > 0)");

  // A transient outage or stall window parks all affected traffic for its
  // whole duration; the watchdog must outlast it or a healthy run is
  // misreported as deadlocked.
  if (config.watchdog_cycles > 0) {
    if (f.transient_rate > 0.0) {
      VIXNOC_REQUIRE(config.watchdog_cycles > f.transient_duration,
                     "watchdog_cycles (%lld) must exceed "
                     "faults.transient_duration (%lld)",
                     static_cast<long long>(config.watchdog_cycles),
                     static_cast<long long>(f.transient_duration));
    }
    if (f.router_stall_rate > 0.0) {
      VIXNOC_REQUIRE(config.watchdog_cycles > f.stall_duration,
                     "watchdog_cycles (%lld) must exceed "
                     "faults.stall_duration (%lld)",
                     static_cast<long long>(config.watchdog_cycles),
                     static_cast<long long>(f.stall_duration));
    }
  }
}

NetworkSimResult RunNetworkSim(const NetworkSimConfig& config,
                               const PacketTrace* trace) {
  // Attributes any abort or SimError below to the offending sim point.
  ScopedSimContext sim_ctx(
      "scheme=%s topology=%s rate=%g seed=%llu",
      ToString(config.scheme).c_str(), ToString(config.topology).c_str(),
      config.injection_rate,
      static_cast<unsigned long long>(config.seed));
  ValidateNetworkSimConfig(config);

  std::shared_ptr<Topology> topology =
      config.topology_factory ? config.topology_factory()
                              : MakeTopology64(config.topology);
  NetworkParams params;
  params.router.radix = topology->Radix();
  params.router.num_vcs = config.num_vcs;
  params.router.buffer_depth = config.buffer_depth;
  params.router.scheme = config.scheme;
  params.router.arbiter_kind = config.arbiter;
  params.router.vc_policy =
      config.vc_policy.value_or(RouterConfig::DefaultPolicyFor(config.scheme));
  params.router.ap_rotate_vcs = config.ap_rotate_vcs;
  params.router.vix_virtual_inputs = config.vix_virtual_inputs;
  params.router.interleaved_vins = config.interleaved_vins;
  params.router.atomic_vc_alloc = config.atomic_vc_alloc;
  params.router.prioritize_nonspeculative = config.prioritize_nonspeculative;
  params.router.va_organization = config.va_organization;
  // Only kRandomFree ever draws from the VA RNG, so seeding it is free for
  // every deterministic policy.
  params.router.vc_rng_seed = config.seed;
  if (config.pipeline_stages == 5) {
    params.router.speculative_sa = false;  // VA and SA in separate stages
    params.flit_delay = 4;                 // ST + LT + RC at the next hop
  }

  // Fault schedule and the routing plugin are pure functions of the config,
  // so results are identical regardless of how a sweep is threaded. The
  // routing algorithm must outlive the network (raw pointer in params).
  RoutingBuildContext routing_ctx;
  if (config.faults.Enabled()) {
    const std::uint64_t fault_seed =
        config.faults.seed != 0 ? config.faults.seed : config.seed;
    auto faults =
        std::make_shared<const FaultModel>(*topology, config.faults,
                                           fault_seed);
    routing_ctx.dead_links = faults->permanent_down();
    params.faults = std::move(faults);
  }
  std::string routing_name = config.routing;
  if (routing_name == "dor" && !routing_ctx.dead_links.empty()) {
    // The default routing detours around permanent faults (legacy
    // behavior); an *explicit* non-default plugin must be fault-compatible
    // or the registry rejects it.
    routing_name = "fault_aware";
  }
  const std::unique_ptr<RoutingAlgorithm> routing_algo =
      config.routing_factory
          ? config.routing_factory(*topology)
          : MakeRoutingAlgorithm(routing_name, *topology, routing_ctx);
  VIXNOC_CHECK(routing_algo != nullptr);
  params.routing = routing_algo.get();

  std::unique_ptr<TelemetryCollector> telemetry;
  if (config.telemetry.enabled) {
    telemetry = std::make_unique<TelemetryCollector>(config.telemetry);
    params.telemetry = telemetry.get();
  }

  Network net(topology, params);
  const int num_nodes = net.NumNodes();

  // Traffic source: the trace's records when replaying one, else the
  // injection process drawing sources and the pattern drawing destinations.
  PatternOptions pattern_opts;
  pattern_opts.hotspot_node = config.hotspot_node;
  pattern_opts.incast_fanin = config.incast_fanin;
  auto pattern = MakePattern(config.pattern, pattern_opts);
  Rng rng(config.seed);
  std::unique_ptr<InjectionProcess> injector;
  std::optional<TraceReplayer> replayer;
  if (trace != nullptr) {
    for (const TraceRecord& rec : trace->records()) {
      VIXNOC_REQUIRE(rec.src >= 0 && rec.src < num_nodes && rec.dst >= 0 &&
                         rec.dst < num_nodes,
                     "trace record at cycle %llu names node %d -> %d, "
                     "outside this network's %d nodes",
                     static_cast<unsigned long long>(rec.cycle), rec.src,
                     rec.dst, num_nodes);
    }
    replayer.emplace(*trace);
  } else if (config.bursty) {
    injector = std::make_unique<OnOffInjection>(
        num_nodes, config.injection_rate, config.burst_on_rate,
        config.mean_burst_cycles);
  } else {
    injector = std::make_unique<BernoulliInjection>(config.injection_rate);
  }
  const std::string source_name = replayer ? "trace" : injector->Name();

  const Cycle measure_start = config.warmup;
  const Cycle measure_end = config.warmup + config.measure;
  // A trace run ends `drain` cycles after its last record, or as soon as
  // the trace is spent and the network empty.
  const Cycle sim_end = replayer ? trace->LastCycle() + config.drain + 1
                                 : measure_end + config.drain;

  RunningStat latency;
  RunningStat net_latency;
  Histogram latency_hist(/*bucket_width=*/4.0, /*num_buckets=*/4096);
  RunningStat interval_latency;  // latency of packets ejected this interval
  std::uint64_t interval_packets = 0;
  std::uint64_t packets_corrupted = 0;
  Cycle last_delivery = 0;
  net.SetEjectCallback([&](const PacketRecord& rec) {
    last_delivery = rec.ejected;
    if (rec.corrupted) ++packets_corrupted;
    if (rec.created >= measure_start && rec.created < measure_end) {
      latency.Add(static_cast<double>(rec.ejected - rec.created));
      net_latency.Add(static_cast<double>(rec.ejected - rec.injected));
      latency_hist.Add(static_cast<double>(rec.ejected - rec.created));
    }
    if (config.sample_interval > 0) {
      interval_latency.Add(static_cast<double>(rec.ejected - rec.created));
      ++interval_packets;
    }
  });

  std::vector<NodeCounters> at_measure_start(num_nodes);
  std::vector<NodeCounters> at_measure_end(num_nodes);
  bool measure_window_closed = false;
  RouterActivity activity_snapshot;
  std::uint64_t offered_packets = 0;

  NetworkSimResult result;
  SimOutcome outcome;

  const auto close_measure_window = [&] {
    for (NodeId n = 0; n < num_nodes; ++n) {
      at_measure_end[n] = net.counters(n);
    }
    activity_snapshot = net.TotalActivity();
    measure_window_closed = true;
    // Counter aggregates are frozen here; windows and trace (snapshotted
    // again after the loop) keep running through the drain.
    if (telemetry != nullptr) result.telemetry = telemetry->Summarize();
  };

  // Trace records and drawn packets pass the same fault-reachability gate.
  const auto offer = [&](Cycle t, NodeId src, NodeId dst, int size_flits) {
    if (routing_algo->MayBeUnreachable() &&
        !routing_algo->Reachable(net.topology().RouterOfNode(src), dst)) {
      ++outcome.unreachable_packets;
      return;
    }
    net.EnqueuePacket(src, dst, size_flits);
    if (t >= measure_start && t < measure_end) ++offered_packets;
  };

  // Rolling pre-deadlock snapshots: two alternating in-memory blobs, so
  // that when the watchdog fires the older one is guaranteed to predate
  // the detection point by at least one full watchdog window.
  const bool rolling_enabled = config.watchdog_cycles > 0 &&
                               !config.deadlock_checkpoint_path.empty();
  std::string rolling_prev;
  std::string rolling_cur;

  // --- Checkpoint/restore (snapshot/) ------------------------------------
  // A checkpoint captures the state *before* any work of cycle `next`, so
  // a restored run re-executes iteration `next` in full and every
  // downstream decision — sampling, measurement snapshots, injection draws,
  // router arbitration — replays bitwise identically. Serialization only
  // reads state (no RNG draws), so saving never perturbs the run. A trace
  // is the injection process of its run, so its text is folded into the
  // fingerprint: restoring against different records is refused.
  std::uint64_t config_fp = NetworkSimConfigFingerprint(config);
  if (replayer && (config.checkpoint_every > 0 ||
                   !config.restore_path.empty() || rolling_enabled)) {
    const std::string text = trace->ToText();
    config_fp = Fnv1a64(text.data(), text.size(), config_fp);
  }
  const auto serialize_sim = [&](Cycle next) {
    SnapshotWriter w;
    w.BeginSection("sim");
    w.U64(next);
    SaveRng(w, rng);
    w.Str(source_name);
    if (replayer) {
      w.U64(replayer->position());
    } else {
      injector->SaveState(w);
    }
    SaveRunningStat(w, latency);
    SaveRunningStat(w, net_latency);
    SaveHistogram(w, latency_hist);
    SaveRunningStat(w, interval_latency);
    w.U64(interval_packets);
    w.U64(packets_corrupted);
    w.U64(last_delivery);
    w.U64(offered_packets);
    w.B(measure_window_closed);
    for (const NodeCounters& c : at_measure_start) SaveNodeCounters(w, c);
    for (const NodeCounters& c : at_measure_end) SaveNodeCounters(w, c);
    SaveRouterActivity(w, activity_snapshot);
    SaveTimeline(w, result.timeline);
    w.U64(outcome.unreachable_packets);
    // The counter aggregates frozen at measure_end (windows and trace are
    // re-read from the collector after the loop).
    const bool frozen = measure_window_closed && telemetry != nullptr;
    w.B(frozen);
    if (frozen) SaveTelemetryScalars(w, result.telemetry);
    w.EndSection();
    w.BeginSection("network");
    net.SaveState(w);
    w.EndSection();
    if (telemetry != nullptr) {
      w.BeginSection("telemetry");
      telemetry->SaveState(w);
      w.EndSection();
    }
    return w.Finish(config_fp);
  };

  Cycle start_cycle = 0;
  if (!config.restore_path.empty()) {
    SnapshotReader r(ReadSnapshotFile(config.restore_path));
    VIXNOC_REQUIRE(r.fingerprint() == config_fp,
                   "checkpoint '%s' was taken under a different simulation "
                   "config%s (fingerprint %016llx, this run is %016llx)",
                   config.restore_path.c_str(), replayer ? " or trace" : "",
                   static_cast<unsigned long long>(r.fingerprint()),
                   static_cast<unsigned long long>(config_fp));
    r.OpenSection("sim");
    start_cycle = r.U64();
    VIXNOC_REQUIRE(start_cycle <= sim_end,
                   "checkpoint resumes at cycle %llu, past the end of this "
                   "run (%llu)",
                   static_cast<unsigned long long>(start_cycle),
                   static_cast<unsigned long long>(sim_end));
    LoadRng(r, &rng);
    const std::string checkpoint_source = r.Str();
    VIXNOC_REQUIRE(checkpoint_source == source_name,
                   "checkpoint used traffic source '%s', this config "
                   "builds '%s'",
                   checkpoint_source.c_str(), source_name.c_str());
    if (replayer) {
      replayer->set_position(r.U64());
    } else {
      injector->LoadState(r);
    }
    LoadRunningStat(r, &latency);
    LoadRunningStat(r, &net_latency);
    LoadHistogram(r, &latency_hist);
    LoadRunningStat(r, &interval_latency);
    interval_packets = r.U64();
    packets_corrupted = r.U64();
    last_delivery = r.U64();
    offered_packets = r.U64();
    measure_window_closed = r.B();
    for (NodeCounters& c : at_measure_start) LoadNodeCounters(r, &c);
    for (NodeCounters& c : at_measure_end) LoadNodeCounters(r, &c);
    activity_snapshot = LoadRouterActivity(r);
    result.timeline = LoadTimeline(r);
    outcome.unreachable_packets = r.U64();
    if (r.B()) LoadTelemetryScalars(r, &result.telemetry);
    r.CloseSection();
    r.OpenSection("network");
    net.LoadState(r);
    r.CloseSection();
    if (telemetry != nullptr && r.HasSection("telemetry")) {
      r.OpenSection("telemetry");
      telemetry->LoadState(r);
      r.CloseSection();
    }
  }

  for (Cycle t = start_cycle; t < sim_end; ++t) {
    if (config.checkpoint_every > 0 && t > 0 && t != start_cycle &&
        t % config.checkpoint_every == 0) {
      WriteSnapshotFile(config.checkpoint_path, serialize_sim(t));
    }
    if (rolling_enabled && t % config.watchdog_cycles == 0) {
      rolling_prev = std::move(rolling_cur);
      rolling_cur = serialize_sim(t);
    }
    if (config.sample_interval > 0 && t > 0 &&
        t % config.sample_interval == 0) {
      IntervalSample sample;
      sample.start = t - config.sample_interval;
      sample.packets = interval_packets;
      sample.accepted_ppc =
          static_cast<double>(interval_packets) /
          (static_cast<double>(config.sample_interval) * num_nodes);
      sample.avg_latency = interval_latency.Mean();
      result.timeline.push_back(sample);
      interval_latency.Reset();
      interval_packets = 0;
    }
    if (t == measure_start) {
      for (NodeId n = 0; n < num_nodes; ++n) {
        at_measure_start[n] = net.counters(n);
      }
      net.ClearActivity();
      if (telemetry != nullptr) telemetry->ResetCounters();
    }
    if (t == measure_end) close_measure_window();
    if (replayer) {
      for (const TraceRecord& rec : replayer->TakeDue(t)) {
        offer(t, rec.src, rec.dst, rec.size_flits);
      }
    } else {
      // Injection at every node, including during drain (holding the load
      // keeps measured packets under realistic contention).
      for (NodeId n = 0; n < num_nodes; ++n) {
        if (injector->ShouldInject(n, rng)) {
          // Draw the destination before the reachability gate so the RNG
          // stream — and therefore every reachable packet — is identical to
          // the fault-free run.
          offer(t, n, pattern->Dest(n, num_nodes, rng), config.packet_size);
        }
      }
    }
    net.Step();
    if (config.watchdog_cycles > 0 &&
        net.SuspectedDeadlock(config.watchdog_cycles)) {
      outcome.status = SimStatus::kDeadlock;
      outcome.cycle = net.now();
      outcome.router_occupancy = net.OccupancySnapshot();
      outcome.message = "no flit movement for " +
                        std::to_string(config.watchdog_cycles) +
                        " cycles with flits in flight (detected at cycle " +
                        std::to_string(net.now()) + ")";
      if (rolling_enabled) {
        // Persist the pre-deadlock state for post-mortem replay (restore it
        // with tracing enabled to watch the final cycles wedge).
        const std::string& blob =
            rolling_prev.empty() ? rolling_cur : rolling_prev;
        if (!blob.empty()) {
          WriteSnapshotFile(config.deadlock_checkpoint_path, blob);
          outcome.checkpoint_path = config.deadlock_checkpoint_path;
        }
      }
      break;
    }
    if (replayer && replayer->Exhausted() && net.Quiescent()) break;
  }
  // A run whose loop stopped at or before measure_end closes the window
  // where it stopped: a statistical run with drain=0 (the loop ends just as
  // t reaches measure_end), or a trace that with its drain ended inside it.
  if (!measure_window_closed && outcome.ok()) {
    close_measure_window();
  }

  const double offered_meas =
      static_cast<double>(offered_packets) /
      (static_cast<double>(config.measure) * num_nodes);
  result.num_nodes = num_nodes;
  result.measure_cycles = config.measure;
  result.offered_ppc = replayer ? offered_meas : config.injection_rate;
  result.packets_corrupted = packets_corrupted;

  if (telemetry != nullptr) {
    // A run that ended before measure_end has no frozen counter snapshot;
    // fall back to end-of-run aggregates so the telemetry is never silently
    // empty (outcome.status already marks the metrics untrustworthy).
    if (!measure_window_closed) result.telemetry = telemetry->Summarize();
    result.telemetry.windows = telemetry->windows();
    result.telemetry.trace = telemetry->trace_events();
  }

  // A deadlock before the measurement window closes leaves the end-of-window
  // snapshot unset; report the structured outcome and keep the metrics zero
  // rather than publishing garbage.
  if (measure_window_closed) {
    std::uint64_t delivered_total = 0;
    std::uint64_t flits_total = 0;
    double min_node = 1e300, max_node = 0.0;
    for (NodeId n = 0; n < num_nodes; ++n) {
      const std::uint64_t delivered = at_measure_end[n].packets_delivered -
                                      at_measure_start[n].packets_delivered;
      const std::uint64_t flits =
          at_measure_end[n].flits_ejected - at_measure_start[n].flits_ejected;
      delivered_total += delivered;
      flits_total += flits;
      const double node_ppc =
          static_cast<double>(delivered) / static_cast<double>(config.measure);
      min_node = std::min(min_node, node_ppc);
      max_node = std::max(max_node, node_ppc);
    }
    result.accepted_ppc =
        static_cast<double>(delivered_total) /
        (static_cast<double>(config.measure) * num_nodes);
    result.accepted_fpc =
        static_cast<double>(flits_total) / static_cast<double>(config.measure);
    result.min_node_ppc = min_node;
    result.max_node_ppc = max_node;
    result.max_min_ratio = min_node > 0.0 ? max_node / min_node : 0.0;
    result.avg_latency = latency.Mean();
    result.avg_net_latency = net_latency.Mean();
    result.p99_latency = latency_hist.Quantile(0.99);
    result.packets_measured = latency.Count();
    result.saturated = result.accepted_ppc < 0.95 * offered_meas;
    result.activity = activity_snapshot;
  }

  if (outcome.status == SimStatus::kOk && config.faults.Enabled()) {
    if (outcome.unreachable_packets > 0) {
      outcome.status = SimStatus::kUndeliverable;
      outcome.cycle = net.now();
      outcome.router_occupancy = net.OccupancySnapshot();
      outcome.message = std::to_string(outcome.unreachable_packets) +
                        " packets had no surviving path to their destination";
    } else if (config.watchdog_cycles > 0 && !net.Quiescent() &&
               !result.saturated &&
               net.now() - last_delivery > config.watchdog_cycles) {
      // Flits are in flight but nothing has been *delivered* for a whole
      // watchdog window — livelock, or traffic wedged short of the full
      // no-movement deadlock criterion. (Injection continues through the
      // drain by design, so mere non-quiescence at the end is normal.)
      outcome.status = SimStatus::kUndeliverable;
      outcome.cycle = net.now();
      outcome.router_occupancy = net.OccupancySnapshot();
      outcome.message = "no packet delivered since cycle " +
                        std::to_string(last_delivery) +
                        " with flits still in flight at end of drain";
    }
  }
  result.outcome = std::move(outcome);
  return result;
}

std::uint64_t NetworkSimConfigFingerprint(const NetworkSimConfig& c) {
  const auto dbl = [](double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  };
  std::vector<std::uint64_t> fields = {
      static_cast<std::uint64_t>(c.topology),
      static_cast<std::uint64_t>(c.scheme),
      static_cast<std::uint64_t>(c.num_vcs),
      static_cast<std::uint64_t>(c.buffer_depth),
      static_cast<std::uint64_t>(c.packet_size),
      dbl(c.injection_rate),
      static_cast<std::uint64_t>(c.pattern),
      static_cast<std::uint64_t>(c.arbiter),
      static_cast<std::uint64_t>(c.vc_policy.has_value()),
      static_cast<std::uint64_t>(
          c.vc_policy.value_or(VcAssignPolicy::kMaxCredits)),
      static_cast<std::uint64_t>(c.ap_rotate_vcs),
      static_cast<std::uint64_t>(c.pipeline_stages),
      static_cast<std::uint64_t>(c.vix_virtual_inputs),
      static_cast<std::uint64_t>(c.interleaved_vins),
      static_cast<std::uint64_t>(c.prioritize_nonspeculative),
      static_cast<std::uint64_t>(c.va_organization),
      static_cast<std::uint64_t>(c.atomic_vc_alloc),
      static_cast<std::uint64_t>(c.bursty),
      dbl(c.burst_on_rate),
      dbl(c.mean_burst_cycles),
      static_cast<std::uint64_t>(static_cast<bool>(c.topology_factory)),
      Fnv1a64(c.routing.data(), c.routing.size()),
      static_cast<std::uint64_t>(static_cast<bool>(c.routing_factory)),
      static_cast<std::uint64_t>(c.sample_interval),
      dbl(c.faults.link_down_rate),
      dbl(c.faults.transient_rate),
      static_cast<std::uint64_t>(c.faults.transient_period),
      static_cast<std::uint64_t>(c.faults.transient_duration),
      dbl(c.faults.router_stall_rate),
      static_cast<std::uint64_t>(c.faults.stall_period),
      static_cast<std::uint64_t>(c.faults.stall_duration),
      dbl(c.faults.corruption_rate),
      c.faults.seed,
      static_cast<std::uint64_t>(c.watchdog_cycles),
      c.seed,
      static_cast<std::uint64_t>(c.warmup),
      static_cast<std::uint64_t>(c.measure),
      static_cast<std::uint64_t>(c.drain),
      static_cast<std::uint64_t>(
          static_cast<std::int64_t>(c.hotspot_node)),
      static_cast<std::uint64_t>(
          static_cast<std::int64_t>(c.incast_fanin)),
  };
  for (const auto& [router, port] : c.faults.forced_link_down) {
    fields.push_back(static_cast<std::uint64_t>(router));
    fields.push_back(static_cast<std::uint64_t>(port));
  }
  return Fnv1a64(fields.data(), fields.size() * sizeof(std::uint64_t));
}

std::uint64_t NetworkSimResultKey(const NetworkSimConfig& c) {
  const std::uint64_t fields[] = {
      NetworkSimConfigFingerprint(c),
      static_cast<std::uint64_t>(c.telemetry.enabled),
      static_cast<std::uint64_t>(c.telemetry.window_cycles),
      static_cast<std::uint64_t>(c.telemetry.max_windows),
      c.telemetry.trace_sample_period,
      static_cast<std::uint64_t>(c.telemetry.max_trace_events),
      Fnv1a64(c.deadlock_checkpoint_path.data(),
              c.deadlock_checkpoint_path.size()),
  };
  return Fnv1a64(fields, sizeof(fields));
}

void SaveNetworkSimResult(SnapshotWriter& w, const NetworkSimResult& r) {
  w.F64(r.offered_ppc);
  w.F64(r.accepted_ppc);
  w.F64(r.accepted_fpc);
  w.F64(r.avg_latency);
  w.F64(r.avg_net_latency);
  w.F64(r.p99_latency);
  w.F64(r.min_node_ppc);
  w.F64(r.max_node_ppc);
  w.F64(r.max_min_ratio);
  w.U64(r.packets_measured);
  w.B(r.saturated);
  SaveRouterActivity(w, r.activity);
  w.U64(r.measure_cycles);
  w.I32(r.num_nodes);
  w.U64(r.packets_corrupted);
  SaveSimOutcome(w, r.outcome);
  SaveTimeline(w, r.timeline);
  SaveTelemetryScalars(w, r.telemetry);
  SaveTelemetryWindows(w, r.telemetry.windows);
  SavePacketTraceEvents(w, r.telemetry.trace);
}

NetworkSimResult LoadNetworkSimResult(SnapshotReader& r) {
  NetworkSimResult out;
  out.offered_ppc = r.F64();
  out.accepted_ppc = r.F64();
  out.accepted_fpc = r.F64();
  out.avg_latency = r.F64();
  out.avg_net_latency = r.F64();
  out.p99_latency = r.F64();
  out.min_node_ppc = r.F64();
  out.max_node_ppc = r.F64();
  out.max_min_ratio = r.F64();
  out.packets_measured = r.U64();
  out.saturated = r.B();
  out.activity = LoadRouterActivity(r);
  out.measure_cycles = r.U64();
  out.num_nodes = r.I32();
  out.packets_corrupted = r.U64();
  out.outcome = LoadSimOutcome(r);
  out.timeline = LoadTimeline(r);
  LoadTelemetryScalars(r, &out.telemetry);
  out.telemetry.windows = LoadTelemetryWindows(r);
  out.telemetry.trace = LoadPacketTraceEvents(r);
  return out;
}

}  // namespace vixnoc
