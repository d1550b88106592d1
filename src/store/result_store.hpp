// Content-addressed simulation result store.
//
// Every finished NetworkSimResult is filed under its NetworkSimResultKey —
// a semantic content key derived from the config, not from where the point
// sat in some batch. That one change is what turns per-sweep checkpointing
// into a shared cache: a popular design point computed by any bench, any
// batch shape, any grid ordering, or any machine sharing the directory is
// a hit for every later consumer. The vixnocd daemon serves its hits
// straight from here.
//
// Layout: `<dir>/<key[0:2]>/<key>.res` where `key` is the 16-lowercase-hex
// result key — two-level sharding keeps directory fan-out bounded at 256.
// Entries are snapshot containers (section "result", container fingerprint
// = the key) written atomically via unique-tmp+rename, so concurrent
// writers racing the same key — even from different processes — each stage
// a complete file and the last rename wins with identical bytes (results
// are deterministic functions of the key).
//
// Trust model: the store is an accelerator, never a correctness input.
// A Load from disk re-validates the container key and checksums; a
// defective entry (truncated, corrupted, wrong key) warns on stderr, ticks
// a counter, and reports kDefective so the caller recomputes. Put never
// throws — a full disk degrades performance, not results.
//
// Each entry is validated once per process. A Load that read and validated
// the file keeps the decoded result in an in-process memory tier, and later
// Loads of that key are served from it with no file-system call. Put never
// fills the tier, so a freshly written entry is still checked on its first
// read. The tier holds at most kResultStoreMemoryBytes of encoded entry
// bytes, evicting least-recently used entries; an evicted entry is read
// (and validated) from disk again. A memory hit refreshes the file's mtime
// at most once per kResultStoreMtimeRefresh, which keeps the GC's recency
// signal without a syscall on every hit. Once validated, a result is
// served from memory even if its file is later corrupted, or removed by
// this or another process's GC: results are deterministic functions of
// the key, so the validated copy is the right answer either way.
#pragma once

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"

namespace vixnoc {

/// Byte budget of a ResultStore's in-process memory tier, in encoded entry
/// bytes. An entry larger than the budget is never kept in memory.
inline constexpr std::uint64_t kResultStoreMemoryBytes = 16ull << 20;

/// How often a memory hit may refresh its entry file's mtime.
inline constexpr std::chrono::seconds kResultStoreMtimeRefresh{60};

struct ResultStoreConfig {
  /// Root directory; created (with parents) by the constructor.
  std::string dir;
  /// When > 0, a Put that pushes the store's approximate on-disk size over
  /// this bound triggers a garbage collection that evicts least-recently
  /// used entries (by file mtime; hits refresh it) until under the bound.
  /// 0 disables GC.
  std::uint64_t max_bytes = 0;
};

/// Monotonic counters over the store's lifetime (this process only; the
/// directory itself may be shared with other processes), plus the memory
/// tier's current size.
struct ResultStoreStats {
  std::uint64_t hits = 0;
  /// Hits served from the memory tier (a subset of `hits`).
  std::uint64_t memory_hits = 0;
  /// Encoded bytes of the entries resident in the memory tier now; never
  /// above kResultStoreMemoryBytes.
  std::uint64_t memory_bytes = 0;
  std::uint64_t misses = 0;
  /// Entries that existed but failed validation and were recomputed.
  std::uint64_t defective = 0;
  std::uint64_t writes = 0;
  /// Puts skipped by policy: error-slot results (kInvariantViolation /
  /// kExecFailure), factory-built configs, or an entry already present.
  std::uint64_t writes_skipped = 0;
  /// Puts that failed on I/O; the result was still returned to the caller.
  std::uint64_t write_failures = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_evicted_entries = 0;
  std::uint64_t gc_evicted_bytes = 0;
};

class ResultStore : public PointCache {
 public:
  /// Creates `config.dir` (with parents) and sums any existing entries
  /// into the approximate size. Throws SimError when the directory cannot
  /// be created — an unusable store path is a caller error, unlike the
  /// per-entry I/O failures tolerated afterwards.
  explicit ResultStore(ResultStoreConfig config);
  explicit ResultStore(std::string dir)
      : ResultStore(ResultStoreConfig{std::move(dir), 0}) {}

  const ResultStoreConfig& config() const { return config_; }

  /// Absolute path the entry for `config` lives at (whether or not it
  /// exists yet). Exposed for tests and tooling that corrupt or count
  /// entries directly.
  std::string EntryPath(const NetworkSimConfig& config) const;
  std::string EntryPath(std::uint64_t key) const;

  // PointCache interface. Load serves a key it has validated before from
  // the memory tier; otherwise it validates the container key + checksums
  // of the file and keeps the result in the tier. Either way a hit
  // refreshes the entry's mtime (the GC's recency signal; from memory, at
  // most once per kResultStoreMtimeRefresh). Put is non-throwing and skips
  // error slots and factory configs (the key only records factory
  // presence — caching those would let two different factories collide).
  PointCacheStatus Load(const NetworkSimConfig& config,
                        NetworkSimResult* out) override;
  void Put(const NetworkSimConfig& config,
           const NetworkSimResult& result) override;

  ResultStoreStats stats() const;

  /// Running estimate of the entry bytes on disk: seeded by a scan at
  /// construction, bumped by writes. Other processes' writes are only
  /// folded in when a GC rescans.
  std::uint64_t approximate_bytes() const;

  /// Forces a collection pass: rescans the directory, evicts oldest-mtime
  /// entries until under max_bytes (no-op when max_bytes == 0 or already
  /// under), and sweeps stale orphaned tmp files. Returns entries evicted.
  std::uint64_t GarbageCollect();

 private:
  using SteadyTime = std::chrono::steady_clock::time_point;
  struct MemoryEntry {
    std::shared_ptr<const NetworkSimResult> result;
    std::uint64_t bytes = 0;  ///< encoded size, charged against the budget
    SteadyTime touched;       ///< last mtime refresh of the entry file
    std::list<std::uint64_t>::iterator lru_pos;
  };

  std::uint64_t GarbageCollectLocked();
  /// Serves `key` from the memory tier into *out; false when not resident.
  bool LoadFromMemory(std::uint64_t key, NetworkSimResult* out);
  /// Adds a validated entry, evicting least-recently used ones to stay
  /// within kResultStoreMemoryBytes. Requires mu_.
  void RememberLocked(std::uint64_t key,
                      std::shared_ptr<const NetworkSimResult> result,
                      std::uint64_t bytes);

  ResultStoreConfig config_;
  mutable std::mutex mu_;
  ResultStoreStats stats_;
  std::uint64_t approx_bytes_ = 0;
  std::unordered_map<std::uint64_t, MemoryEntry> memory_;
  std::list<std::uint64_t> lru_;  ///< memory_ keys, most recently used first
};

/// Relative entry path for a result key: "ab/abcdef0123456789.res".
std::string StoreEntryRelPath(std::uint64_t key);

}  // namespace vixnoc
