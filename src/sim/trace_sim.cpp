#include "sim/trace_sim.hpp"

namespace vixnoc {

PacketTrace GeneratePatternTrace(PatternKind pattern, double rate,
                                 int num_nodes, Cycle cycles,
                                 int packet_size, std::uint64_t seed) {
  auto pat = MakePattern(pattern);
  Rng rng(seed);
  PacketTrace trace;
  for (Cycle t = 0; t < cycles; ++t) {
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (rng.NextBool(rate)) {
        trace.Add(TraceRecord{t, n, pat->Dest(n, num_nodes, rng),
                              packet_size});
      }
    }
  }
  return trace;
}

NetworkSimResult RunTraceSim(const NetworkSimConfig& config,
                             const PacketTrace& trace) {
  return RunNetworkSim(config, &trace);
}

}  // namespace vixnoc
