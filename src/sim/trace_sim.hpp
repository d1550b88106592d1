// Trace-driven network simulation: replay an exact packet schedule instead
// of drawing from a statistical process. Using one trace across allocator
// schemes removes injection-process noise from comparisons entirely —
// every scheme sees the same packets at the same cycles.
//
// There is one simulation loop: a trace run is RunNetworkSim with the
// trace as its traffic source, so every config field that shapes the
// network or observes it — router knobs, pipeline depth, routing plugins,
// faults, telemetry, watchdog, checkpoints, sample_interval — applies to
// trace runs exactly as to statistical ones, and the config is validated
// the same way.
#pragma once

#include "sim/network_sim.hpp"
#include "traffic/trace.hpp"

namespace vixnoc {

/// Build a trace by sampling a statistical pattern: Bernoulli(rate) per
/// node per cycle for `cycles` cycles, fixed `packet_size`.
PacketTrace GeneratePatternTrace(PatternKind pattern, double rate,
                                 int num_nodes, Cycle cycles,
                                 int packet_size, std::uint64_t seed);

/// Replay `trace` under `config`. The trace replaces the injection process:
/// injection_rate, pattern, hotspot/incast and the bursty knobs are
/// validated but unused, and offered_ppc reports the trace's own offered
/// load over the measurement window. Records pass the same fault
/// reachability gate as drawn packets. Measurement uses config.warmup /
/// measure as in RunNetworkSim; the run ends config.drain cycles after the
/// last record, or earlier once the trace is spent and the network empty,
/// and a run that ends inside the measurement window closes it there.
///
/// Checkpoints share RunNetworkSim's "sim" section layout, with the replay
/// cursor where a statistical run stores its injection process. They are
/// stamped with the config fingerprint folded with a hash of the trace
/// text, so restoring under a different config *or a different trace*
/// throws SimError.
NetworkSimResult RunTraceSim(const NetworkSimConfig& config,
                             const PacketTrace& trace);

}  // namespace vixnoc
