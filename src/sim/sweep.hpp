// SweepRunner: multi-threaded execution of independent simulation points.
//
// Every figure in the paper is a sweep over (scheme x rate x topology)
// points, and each point is one self-contained RunNetworkSim call: the
// config carries its own seed, the simulation builds its own Network, and
// nothing escapes but the returned NetworkSimResult. That makes sweeps
// embarrassingly parallel — SweepRunner runs them on a fixed-size thread
// pool and returns results in submission order.
//
// Determinism: results are bitwise identical to calling RunNetworkSim
// serially on each point, regardless of thread count or completion order.
// This holds because (a) each point's RNG is seeded only from its config,
// (b) the simulation core keeps no shared mutable state (allocator and
// router scratch are per-instance members), and (c) results are written
// into a preallocated slot indexed by submission position. sweep_test.cpp
// and the TSAN build (-DVIXNOC_SANITIZE=thread) enforce this.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/network_sim.hpp"

namespace vixnoc {

/// Largest worker count ResolveThreadCount will ever return: a fat-finger
/// guard (VIXNOC_THREADS=80000 would fork-bomb the host with threads or
/// worker subprocesses, not speed anything up).
inline constexpr int kMaxThreadCount = 1024;

/// Resolves a requested worker count to an actual one:
///  * requested >= 1: use exactly that many workers (capped, with a
///    warning, at kMaxThreadCount);
///  * requested == 0: use $VIXNOC_THREADS if set to a positive integer,
///    else std::thread::hardware_concurrency() (at least 1).
/// A malformed $VIXNOC_THREADS — trailing garbage, overflow, zero or
/// negative — is rejected with a warning on stderr naming the bad value
/// (never silently honored or silently ignored) before falling back to
/// hardware concurrency; values above kMaxThreadCount are capped with a
/// warning.
int ResolveThreadCount(int requested = 0);

/// Calls `run` (RunNetworkSim or a stand-in for it) and turns an exception
/// into an error result: outcome.status == SimStatus::kInvariantViolation
/// with the message. A throwing point reads the same in a SweepRunner pool
/// and in a worker subprocess.
NetworkSimResult ResultOrErrorSlot(
    const std::function<NetworkSimResult()>& run);

/// Outcome of probing a per-point result cache.
enum class PointCacheStatus {
  kMiss,       ///< no cache entry: run the point
  kHit,        ///< *out holds the cached result
  kDefective,  ///< entry exists but is unreadable, corrupt, or was written
               ///< under a different result key — re-run the point
};

/// Abstract per-point result cache consulted by SweepRunner and the
/// process-isolation SweepCoordinator (exec/coordinator.hpp). The one
/// production implementation is the content-addressed ResultStore
/// (store/result_store.hpp); the interface lives here so the sim layer
/// does not depend on the store library.
///
/// Contract: Load returns kHit only when the cached result is the exact
/// result `config` would produce (implementations key on
/// NetworkSimResultKey and must validate on read — a defective entry
/// warns and reports kDefective, never poisons). Put must not throw: a
/// cache is an accelerator, and a full disk must not fail a sweep.
/// Implementations must be safe for concurrent calls from many threads.
class PointCache {
 public:
  virtual ~PointCache() = default;
  virtual PointCacheStatus Load(const NetworkSimConfig& config,
                                NetworkSimResult* out) = 0;
  virtual void Put(const NetworkSimConfig& config,
                   const NetworkSimResult& result) = 0;
};

class SweepRunner {
 public:
  /// Starts the worker pool. `num_threads` follows ResolveThreadCount's
  /// convention (0 = auto).
  explicit SweepRunner(int num_threads = 0);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Called after each point completes, with the number of finished points
  /// and the batch size. Invoked from worker threads under the runner's
  /// lock: keep it cheap (progress printing is fine). A deduplicated
  /// group of identical points reports all its slots the moment its one
  /// simulation completes.
  using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;
  void SetProgress(ProgressFn fn) { progress_ = std::move(fn); }

  /// Per-point result caching, making a killed sweep resumable and letting
  /// independent sweeps share work. Set before Run (not thread-safe against
  /// a batch in flight). Every completed point stores its NetworkSimResult
  /// under its content key; a later Run over any batch containing the same
  /// point — same batch re-run, reordered grid, a different bench entirely
  /// — loads it instead of re-simulating. Because cached results were
  /// produced by the same deterministic RunNetworkSim, a resumed sweep's
  /// results are bitwise identical to an uninterrupted one. A defective
  /// cache entry falls back to running the point, with a warning and a
  /// tick of defective_cache_points().
  void SetCache(std::shared_ptr<PointCache> cache);

  /// Where a slot of the most recent Run got its result.
  enum class Source : std::uint8_t {
    kRan,      ///< the point function ran it
    kCache,    ///< loaded from the cache
    kDeduped,  ///< copied from an identical earlier point of the batch
  };
  /// Per-slot provenance of the most recent Run, parallel to its results.
  const std::vector<Source>& sources() const { return sources_; }

  /// Points of the most recent Run that were satisfied from the cache
  /// instead of being simulated.
  std::size_t resumed_points() const { return Count(Source::kCache); }

  /// Points of the most recent Run whose cache entry existed but was
  /// defective (unreadable, corrupt, or key-mismatched) and was therefore
  /// ignored. A nonzero count means the cache is stale or damaged —
  /// results are still correct (the points re-ran), but the resume was
  /// not as cheap as it looked.
  std::size_t defective_cache_points() const { return defective_; }

  /// Points of the most recent Run that were within-batch duplicates of an
  /// earlier point (same NetworkSimResultKey): simulated once, with the
  /// result fanned out to every duplicate slot. Configs carrying live
  /// factory callbacks never dedupe (the key only records factory
  /// presence, not identity).
  std::size_t deduped_points() const { return Count(Source::kDeduped); }

  /// Computes one point of a batch: `index` is its slot in the batch and
  /// `thread` the pool thread running it (0..num_threads()-1), so a caller
  /// can keep one resource per thread. The default is a direct
  /// RunNetworkSim call; the process-isolation SweepCoordinator passes one
  /// that ships the point to a worker subprocess. Called concurrently from
  /// the pool threads, at most once per slot.
  using PointFn = std::function<NetworkSimResult(
      int thread, std::size_t index, const NetworkSimConfig& config)>;

  /// Runs every point and blocks until all complete. results[i] is the
  /// point configs[i] would produce through `run_point` (RunNetworkSim by
  /// default). Cache probes, within-batch dedup and the submission-order
  /// merge happen here, around `run_point`. A point that throws (SimError
  /// from an invalid config, or any other std::exception) does not kill
  /// the worker or wedge the batch: its slot comes back with
  /// outcome.status == SimStatus::kInvariantViolation and the exception
  /// message, the remaining points run normally, and the pool accepts
  /// further batches. Only one Run may be in flight at a time; async
  /// Submit jobs interleave freely with a running batch.
  std::vector<NetworkSimResult> Run(
      const std::vector<NetworkSimConfig>& configs,
      const PointFn& run_point = nullptr);

  /// Asynchronous single-point execution on the same pool, for callers
  /// (the vixnocd daemon) that schedule points one at a time rather than
  /// in batches. `done` is invoked exactly once from a worker thread with
  /// the point's result (error slots follow Run's convention); it must not
  /// block the worker for long and must not re-enter Run on the same
  /// thread. Submitted jobs do not consult the cache — single-point
  /// callers manage their own store probe (the daemon serves hits without
  /// touching the pool). Jobs still pending at destruction are drained,
  /// not dropped: the destructor completes all submitted work first.
  void Submit(NetworkSimConfig config,
              std::function<void(NetworkSimResult)> done);

 private:
  struct Job {
    NetworkSimConfig config;
    std::function<void(NetworkSimResult)> done;
  };

  void WorkerLoop(int thread);
  std::size_t Count(Source source) const;

  std::vector<std::thread> workers_;
  std::shared_ptr<PointCache> cache_;
  std::vector<Source> sources_;
  std::size_t defective_ = 0;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for work / shutdown
  std::condition_variable done_cv_;  // Run waits for batch completion
  bool stop_ = false;

  // Current batch (valid while batch_ != nullptr). work_ holds the indices
  // actually simulated (one per dedup group, in submission order);
  // satisfies_[i] is how many batch slots point i stands for.
  const std::vector<NetworkSimConfig>* batch_ = nullptr;
  const PointFn* run_point_ = nullptr;
  std::vector<NetworkSimResult>* results_ = nullptr;
  std::vector<std::size_t> work_;
  std::vector<std::size_t> satisfies_;
  std::size_t next_ = 0;         // next unclaimed position in work_
  std::size_t done_ = 0;         // completed work items
  std::size_t done_points_ = 0;  // batch slots satisfied (for progress)

  std::deque<Job> jobs_;  // pending async Submit work

  ProgressFn progress_;
};

/// One-shot convenience: runs the batch on a dedicated pool of
/// `num_threads` workers (ResolveThreadCount convention).
std::vector<NetworkSimResult> RunSweep(
    const std::vector<NetworkSimConfig>& configs, int num_threads);

}  // namespace vixnoc
