// SweepCoordinator: crash-isolated multi-process execution of sweeps.
//
// SweepRunner (sim/sweep.hpp) already survives *exceptions* in a point,
// but a hard crash — a segfault, an abort, an OOM kill — or a runaway
// simulation still takes down the whole orchestrating process. The
// coordinator runs points in vixnoc_sweep_worker subprocesses
// (exec/exec_protocol.hpp wire format), yet it is not a second batch
// loop: each Run hands the batch to a SweepRunner of num_workers threads
// it owns for that Run (cache probe against ExecPolicy::cache,
// within-batch dedup, submission-order merge) with a per-point function
// that
//
//  * sends the point to the worker of the runner thread calling it, so
//    each worker has one point in flight;
//  * enforces a per-point wall-clock deadline — an overrunning worker is
//    SIGKILLed and the point classified kTimeout;
//  * classifies worker failure (nonzero exit, death by signal, a
//    malformed, short or mismatched point reply, deadline, spawn failure)
//    into the point's ExecStatus and retries on a respawned worker, up to
//    ExecPolicy::max_retries times, after an exponential backoff that
//    parks the calling runner thread;
//  * runs a point a worker cannot take (a live factory callback, no
//    worker binary, spawning broken) in-process on the same thread, and
//    gives a point that exhausts its retries a final error slot
//    (SimStatus::kExecFailure) instead of wedging the batch.
//
// Determinism contract: every point that completes — in a worker, from
// cache, or in-process — is the output of the same deterministic
// RunNetworkSim, so a batch's surviving results are bitwise identical to
// a serial in-process sweep at any worker count. exec_test.cpp pins this,
// with injected crashes and hangs in the mix.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"

namespace vixnoc {

/// Classification of the most recent subprocess-level failure of a point.
enum class ExecFailure : std::uint8_t {
  kNone,      ///< never failed at the process level
  kExit,      ///< worker exited with a nonzero status
  kSignal,    ///< worker died by signal (segfault, abort, OOM kill)
  kBadFrame,  ///< worker produced a malformed, short or mismatched frame
  kTimeout,   ///< point exceeded its wall-clock deadline (worker killed)
  kSpawn,     ///< a worker subprocess could not be spawned at all
};

std::string ToString(ExecFailure failure);

/// Per-point execution record, parallel to the results vector. This is
/// provenance the SimOutcome cannot carry: *how* the point was executed,
/// how many process-level attempts it took, and what the last failure was.
struct ExecStatus {
  bool isolated = false;     ///< completed inside a worker subprocess
  bool from_cache = false;   ///< served from the point cache / result store
  bool in_process_fallback = false;  ///< ran on the in-process path
  /// Within-batch duplicate of an earlier point (same NetworkSimResultKey):
  /// its slot was fanned out from the canonical point's result. From a
  /// daemon: coalesced onto an in-flight computation.
  bool deduped = false;
  int attempts = 0;          ///< subprocess attempts dispatched
  ExecFailure last_failure = ExecFailure::kNone;
  std::string failure_detail;       ///< e.g. "signal 11 (Segmentation fault)"
  double backoff_seconds = 0.0;     ///< total retry backoff scheduled
};

/// Worker lifecycle event, recorded for provenance (bench_results.json).
struct WorkerEvent {
  enum class Kind : std::uint8_t {
    kSpawn,  ///< a worker subprocess started
    kExit,   ///< a worker was reaped after dying on its own
    kKill,   ///< the coordinator killed a worker (timeout / bad frame)
  };
  Kind kind = Kind::kSpawn;
  int slot = 0;       ///< worker slot (0..num_workers-1)
  long pid = 0;
  std::string detail; ///< cause ("point 3 timeout after 0.5s", exit status)
};

std::string ToString(WorkerEvent::Kind kind);

struct ExecPolicy {
  /// Worker subprocess count; ResolveThreadCount convention (0 = auto).
  int num_workers = 0;
  /// Worker binary; empty = DefaultWorkerPath() resolution.
  std::string worker_path;
  /// Per-attempt wall-clock deadline for one point; 0 disables.
  double point_timeout_seconds = 0.0;
  /// Process-level retries after the first attempt before the point is
  /// given a final error slot.
  int max_retries = 2;
  /// Exponential backoff before retry k: initial * multiplier^k, capped.
  double backoff_initial_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 2.0;
  /// Per-point result cache shared with SweepRunner (normally a
  /// content-addressed ResultStore, store/result_store.hpp). Probed before
  /// a point is dispatched; completed points are written back
  /// best-effort. Null disables caching.
  std::shared_ptr<PointCache> cache;
};

struct SweepExecResult {
  std::vector<NetworkSimResult> results;  ///< submission order
  std::vector<ExecStatus> points;         ///< parallel to results
  std::vector<WorkerEvent> events;

  // Batch-level tallies (sums over points/events).
  std::uint64_t crashes = 0;        ///< kExit + kSignal failures observed
  std::uint64_t timeouts = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t spawn_failures = 0;
  std::uint64_t retries = 0;        ///< re-dispatches after a failure
  std::uint64_t workers_spawned = 0;
  std::uint64_t exhausted_points = 0;  ///< final kExecFailure error slots
  std::uint64_t fallback_points = 0;   ///< completed in-process
  std::uint64_t cached_points = 0;     ///< served from the point cache
  std::uint64_t defective_cache_points = 0;
  std::uint64_t deduped_points = 0;    ///< within-batch duplicate slots
};

/// Copies the provenance of `runner`'s most recent Run into `out`:
/// points[i].from_cache / deduped (points is sized to the batch) and the
/// cache and dedup tallies.
void RecordRunnerSources(const SweepRunner& runner, SweepExecResult* out);

/// Resolves the worker binary: $VIXNOC_SWEEP_WORKER if set, else a
/// vixnoc_sweep_worker next to the current executable or in the build
/// tree's src/app/ relative to it. Returns "" when nothing executable is
/// found (the coordinator then degrades to the in-process path).
std::string DefaultWorkerPath();

class SweepCoordinator {
 public:
  explicit SweepCoordinator(ExecPolicy policy);

  /// Resolved policy (worker count and worker path filled in).
  const ExecPolicy& policy() const { return policy_; }

  /// Runs every point and blocks until all have a result slot. Never
  /// throws for per-point or per-worker failures; only for coordinator
  /// bugs (VIXNOC_CHECK).
  SweepExecResult Run(const std::vector<NetworkSimConfig>& configs);

 private:
  ExecPolicy policy_;
};

}  // namespace vixnoc
