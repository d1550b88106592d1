// Shared key=value front-end for the CLI surfaces (the sweep-shaped
// benches, examples/noc_explorer and src/app/vixnoc_client):
//
//  * SimConfigFromArgs and RateGrid, so "scheme=vix rate=0.1" means
//    byte-for-byte the same simulation points everywhere — which is what
//    makes content-addressed result sharing between the tools actually
//    hit;
//  * SweepOptionsFromArgs and SweepExecutor, so every tool parses the
//    execution keys, enforces their rules and runs a batch on the
//    selected backend the same way, and reports one SweepExecResult.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "exec/coordinator.hpp"
#include "server/client.hpp"
#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"

namespace vixnoc {

/// Consumes the simulation-point keys from `args` into `*config`:
///
///   topology=mesh|cmesh|fbfly scheme=if|wf|ap|vix|ideal|pc|islip|
///   sparoflo|serenade pattern=uniform|transpose|bitcomp|bitrev|tornado|
///   hotspot|incast routing=<registered plugin> hotspot=<node> fanin=<M>
///   vcs= depth= packet= rate= seed= warmup= measure= drain= pipeline=3|5
///
/// Defaults match the historical noc_explorer ones (mesh/vix/uniform/dor,
/// rate=0.1, vcs=6, depth=5, packet=4, seed=1, warmup=5000, measure=15000,
/// drain=2000, pipeline=3). Returns false after printing a diagnostic to
/// stderr when a name is unrecognized (caller exits 2); deeper validation
/// stays with ValidateNetworkSimConfig at run time.
bool SimConfigFromArgs(const ArgMap& args, NetworkSimConfig* config);

/// The standard load sweep over `config`: injection_rate = 0.02, 0.03, ...
/// up to config.MaxInjectionRate(). Every tool builds its grid here, so the
/// same keys give byte-identical points and therefore the same store keys.
std::vector<NetworkSimConfig> RateGrid(NetworkSimConfig config);

struct SweepOptions {
  int threads = 0;               ///< threads=N (ResolveThreadCount, 0 = auto)
  std::string checkpoint;        ///< checkpoint=DIR result store root
  bool isolate_process = false;  ///< isolate=process
  double point_timeout = 0.0;    ///< point_timeout=S (0 disables)
  int retries = 2;               ///< retries=N process-level retries
  std::string server;            ///< server=SOCK vixnocd socket
};

/// Consumes `threads= checkpoint= isolate=thread|process point_timeout=
/// retries= server=` from `args`. Returns false after printing one
/// diagnostic to stderr (caller exits 2) on an unknown isolate= mode, a
/// negative count or timeout, or server= combined with checkpoint= or
/// isolate=process — the daemon owns its own store and compute pool.
bool SweepOptionsFromArgs(ArgMap& args, SweepOptions* options);

/// Runs batches on the backend SweepOptions selects:
///
///   default          in-process SweepRunner;
///   isolate=process  SweepCoordinator worker subprocesses;
///   server=SOCK      a vixnocd daemon: one Batch request, then every
///                    retry-after slot re-asked with the daemon's hint.
///
/// checkpoint=DIR mounts a ResultStore under either local backend.
/// Whatever the backend, Run returns one SweepExecResult with results in
/// submission order. In server mode ExecStatus::from_cache marks a daemon
/// store hit, ExecStatus::deduped a point coalesced onto an in-flight
/// computation, `retries` counts re-asks and `exhausted_points` the slots
/// the daemon refused (those results carry SimStatus::kExecFailure).
class SweepExecutor {
 public:
  /// Throws SimError when the store directory is unusable or the daemon
  /// cannot be reached within `connect_timeout_seconds`.
  explicit SweepExecutor(const SweepOptions& options,
                         double connect_timeout_seconds = 10.0);

  const SweepOptions& options() const { return options_; }

  /// Local threads or worker processes; in server mode, which has no
  /// local pool, the requested threads= value.
  int threads() const;

  SweepExecResult Run(const std::vector<NetworkSimConfig>& points);

 private:
  SweepOptions options_;
  std::unique_ptr<SweepRunner> runner_;
  std::unique_ptr<SweepCoordinator> coordinator_;
  std::unique_ptr<SimClient> client_;
};

}  // namespace vixnoc
