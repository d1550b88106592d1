// noc_explorer: a general-purpose command-line driver over the whole
// library — the tool a downstream user reaches for first.
//
//   $ ./build/examples/noc_explorer topology=mesh scheme=vix rate=0.1
//   $ ./build/examples/noc_explorer scheme=wf pattern=transpose vcs=4 \
//         depth=3 packet=4 warmup=5000 measure=20000 csv=out.csv
//   $ ./build/examples/noc_explorer sweep=1 scheme=vix csv=sweep.csv
//
// Keys (all optional): topology=mesh|cmesh|fbfly scheme=if|wf|ap|vix|
// ideal|pc|islip|sparoflo|serenade pattern=uniform|transpose|bitcomp|
// bitrev|tornado|hotspot|incast routing=dor|adaptive_min|fault_aware
// hotspot=<node> (hot node for pattern=hotspot, receiver for
// pattern=incast; default derives an off-center node from the topology)
// fanin=<M> (pattern=incast sender count; default all nodes but the
// receiver)
// rate=<packets/cycle/node> vcs= depth= packet= seed= warmup= measure=
// drain= pipeline=3|5 sweep=0|1 csv=<path> threads=<N>
// checkpoint=<path> checkpoint_every=<N> restore=<path>
// isolate=thread|process point_timeout=<seconds> retries=<N>
// server=<socket>
//
// The execution keys threads= checkpoint= isolate= point_timeout=
// retries= server= are the same as the benches' (app/sim_config_args.hpp):
//
// server=SOCK sends every point to a running vixnocd daemon instead of
// simulating locally: hits in the daemon's content-addressed store come
// back without any computation, misses are computed once daemon-side no
// matter how many clients ask. Mutually exclusive with checkpoint= and
// isolate=process (the daemon owns the cache and the compute pool).
//
// threads=N sets the worker count for sweep=1 (default 0 =
// $VIXNOC_THREADS if set, else all cores); results are identical to a
// serial sweep regardless of thread count.
//
// isolate=process runs each sweep point in a vixnoc_sweep_worker
// subprocess: a point that segfaults, aborts, or hangs past
// point_timeout= seconds is killed, classified, and retried up to
// retries= times with exponential backoff; the rest of the sweep always
// completes, and surviving points stay bitwise identical to the
// in-process path.
//
// Checkpointing: in single-run mode, checkpoint=path checkpoint_every=N
// saves the full simulation state every N cycles (atomic overwrite), and
// restore=path resumes a run from such a file — the resumed run's output
// is bitwise identical to an uninterrupted one. In sweep mode,
// checkpoint=dir is a content-addressed result store, so re-running the
// same command after an interruption only simulates the missing points.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "app/sim_config_args.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"

using namespace vixnoc;

namespace {

void PrintResult(const NetworkSimConfig& config,
                 const NetworkSimResult& r) {
  std::printf(
      "%-6s %-9s %-10s rate=%.3f | accepted=%.4f ppc (%.1f flits/cyc) "
      "lat=%.1f p99=%.0f maxmin=%.2f%s\n",
      ToString(config.topology).c_str(), ToString(config.scheme).c_str(),
      MakePattern(config.pattern)->Name().c_str(), config.injection_rate,
      r.accepted_ppc, r.accepted_fpc, r.avg_latency, r.p99_latency,
      r.max_min_ratio, r.saturated ? "  [saturated]" : "");
}

std::vector<std::string> CsvRow(const NetworkSimConfig& config,
                                const NetworkSimResult& r) {
  return {ToString(config.topology),
          ToString(config.scheme),
          MakePattern(config.pattern)->Name(),
          std::to_string(config.injection_rate),
          std::to_string(r.accepted_ppc),
          std::to_string(r.accepted_fpc),
          std::to_string(r.avg_latency),
          std::to_string(r.p99_latency),
          std::to_string(r.max_min_ratio),
          std::to_string(r.saturated ? 1 : 0)};
}

/// How the batch was executed, when there is something to say.
void PrintExecSummary(const SweepOptions& options, const SweepExecResult& e) {
  const std::uint64_t n = e.results.size();
  if (!options.server.empty()) {
    std::printf("served by %s: %" PRIu64 " store hits, %" PRIu64
                " computed, %" PRIu64 " coalesced\n",
                options.server.c_str(), e.cached_points,
                n - e.cached_points - e.deduped_points - e.exhausted_points,
                e.deduped_points);
    return;
  }
  if (e.cached_points > 0) {
    std::printf("resumed %" PRIu64 "/%" PRIu64 " points from %s\n",
                e.cached_points, n, options.checkpoint.c_str());
  }
  if (e.defective_cache_points > 0) {
    std::printf("re-ran %" PRIu64
                " point(s) whose cache entries were defective\n",
                e.defective_cache_points);
  }
  if (e.crashes + e.timeouts + e.bad_frames + e.spawn_failures > 0) {
    std::printf("exec: %" PRIu64 " crash(es), %" PRIu64 " timeout(s), %" PRIu64
                " bad frame(s), %" PRIu64 " spawn failure(s); %" PRIu64
                " retr%s, %" PRIu64 " point(s) exhausted, %" PRIu64
                " ran in-process\n",
                e.crashes, e.timeouts, e.bad_frames, e.spawn_failures,
                e.retries, e.retries == 1 ? "y" : "ies", e.exhausted_points,
                e.fallback_points);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgMap cli = ArgMap::Parse(argc, argv);
  ArgMap args;
  // Optional config file; command-line keys override file keys.
  if (cli.Has("config")) {
    args = ArgMap::FromFile(cli.GetString("config", ""));
  }
  args.Merge(cli);
  (void)args.GetString("config", "");  // consumed above

  NetworkSimConfig config;
  if (!SimConfigFromArgs(args, &config)) return 2;
  const bool sweep = args.GetBool("sweep", false);
  const std::string csv_path = args.GetString("csv", "");
  SweepOptions options;
  if (!SweepOptionsFromArgs(args, &options)) return 2;
  config.checkpoint_every =
      static_cast<Cycle>(args.GetInt("checkpoint_every", 0));
  config.restore_path = args.GetString("restore", "");
  if (!sweep) config.checkpoint_path = options.checkpoint;
  if (!config.checkpoint_path.empty() && config.checkpoint_every == 0) {
    config.checkpoint_every = 1'000;  // a sensible default cadence
  }
  args.CheckAllConsumed();

  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        csv_path, std::vector<std::string>{
                      "topology", "scheme", "pattern", "offered_ppc",
                      "accepted_ppc", "accepted_fpc", "avg_latency",
                      "p99_latency", "max_min_ratio", "saturated"});
  }

  if (sweep || !options.server.empty()) {
    // A sweep, or a single point served by a daemon: one batch through
    // the executor the options select.
    const std::vector<NetworkSimConfig> points =
        sweep ? RateGrid(config) : std::vector<NetworkSimConfig>{config};
    SweepExecResult exec;
    try {
      exec = SweepExecutor(options).Run(points);
    } catch (const SimError& e) {
      std::fprintf(stderr, "noc_explorer: %s\n", e.what());
      return 1;
    }
    PrintExecSummary(options, exec);
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!options.server.empty() &&
          exec.results[i].outcome.status == SimStatus::kExecFailure) {
        std::fprintf(stderr, "point %zu failed daemon-side: %s\n", i,
                     exec.points[i].failure_detail.c_str());
        if (!sweep) return 1;
      }
      PrintResult(points[i], exec.results[i]);
      if (csv) csv->AddRow(CsvRow(points[i], exec.results[i]));
    }
  } else {
    const auto r = RunNetworkSim(config);
    PrintResult(config, r);
    if (csv) csv->AddRow(CsvRow(config, r));
  }
  if (csv) std::printf("wrote %s\n", csv->path().c_str());
  return 0;
}
