// Content-addressed result store: correctness of the cache the sweep
// machinery and the vixnocd daemon are built on.
//
// The contracts under test: entries round-trip bitwise; the result key
// distinguishes observation knobs (telemetry) on top of the evolution
// fingerprint; every possible truncation or corruption of an entry is
// detected (never served as data); concurrent same-key writers — across
// real process boundaries — leave a valid entry; GC evicts oldest-first
// and respects max_bytes; the in-process memory tier serves exactly the
// validated bytes, stays within its budget and is race-free; and the
// SweepRunner/SweepCoordinator resume + dedup behavior layered on the
// store is exact.
#include "store/result_store.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "vixnoc_store_" + tag + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

NetworkSimConfig ShortConfig(double rate = 0.10, std::uint64_t seed = 1) {
  NetworkSimConfig c;
  c.scheme = AllocScheme::kVix;
  c.injection_rate = rate;
  c.seed = seed;
  c.warmup = 300;
  c.measure = 900;
  c.drain = 300;
  c.sample_interval = 0;
  return c;
}

std::string Bytes(const NetworkSimResult& r) {
  SnapshotWriter w;
  w.BeginSection("r");
  SaveNetworkSimResult(w, r);
  w.EndSection();
  return w.Finish(0);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ResultStoreTest, RoundTripIsBitwiseIdentical) {
  const std::string dir = FreshDir("roundtrip");
  ResultStore store(dir);
  const NetworkSimConfig config = ShortConfig();
  const NetworkSimResult fresh = RunNetworkSim(config);

  NetworkSimResult out;
  EXPECT_EQ(store.Load(config, &out), PointCacheStatus::kMiss);
  store.Put(config, fresh);
  EXPECT_TRUE(fs::exists(store.EntryPath(config)));
  ASSERT_EQ(store.Load(config, &out), PointCacheStatus::kHit);
  EXPECT_EQ(Bytes(out), Bytes(fresh));

  const ResultStoreStats s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.defective, 0u);
  EXPECT_GT(store.approximate_bytes(), 0u);

  // The entry lives in its two-hex-char shard under the key filename.
  const std::uint64_t key = NetworkSimResultKey(config);
  EXPECT_EQ(store.EntryPath(config), dir + "/" + StoreEntryRelPath(key));
  fs::remove_all(dir);
}

TEST(ResultStoreTest, ResultKeySeparatesObservationKnobs) {
  NetworkSimConfig base = ShortConfig();
  NetworkSimConfig with_telemetry = base;
  with_telemetry.telemetry.enabled = true;
  // Same evolution fingerprint — telemetry does not perturb the simulation —
  // but different result keys: the stored payloads differ.
  EXPECT_EQ(NetworkSimConfigFingerprint(base),
            NetworkSimConfigFingerprint(with_telemetry));
  EXPECT_NE(NetworkSimResultKey(base), NetworkSimResultKey(with_telemetry));

  // Checkpoint plumbing is excluded: restoring is bitwise-equivalent, so
  // a checkpointing run and a plain run share one entry.
  NetworkSimConfig with_ckpt = base;
  with_ckpt.checkpoint_path = "/tmp/somewhere.ckpt";
  with_ckpt.checkpoint_every = 1'000;
  EXPECT_EQ(NetworkSimResultKey(base), NetworkSimResultKey(with_ckpt));
}

TEST(ResultStoreTest, EveryTruncationAndCorruptionIsDetected) {
  const std::string dir = FreshDir("trunc");
  ResultStore store(dir);
  const NetworkSimConfig config = ShortConfig();
  store.Put(config, RunNetworkSim(config));
  const std::string path = store.EntryPath(config);
  const std::string good = Slurp(path);
  ASSERT_FALSE(good.empty());

  NetworkSimResult out;
  for (std::size_t len = 0; len < good.size(); ++len) {
    Spit(path, good.substr(0, len));
    // kDefective (validation caught it), never kHit with garbage. A
    // defective entry is also unlinked so a later Put can repair it.
    EXPECT_EQ(store.Load(config, &out), PointCacheStatus::kDefective)
        << "truncation at " << len << " of " << good.size();
    EXPECT_FALSE(fs::exists(path)) << "defective entry not unlinked";
  }
  // Single-byte corruption anywhere is caught by the section checksums /
  // container fingerprint. (Sampled stride keeps the test fast.)
  for (std::size_t i = 0; i < good.size(); i += 7) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    Spit(path, bad);
    EXPECT_EQ(store.Load(config, &out), PointCacheStatus::kDefective)
        << "corruption at byte " << i;
  }
  EXPECT_GE(store.stats().defective, good.size());
  fs::remove_all(dir);
}

TEST(ResultStoreTest, CrossProcessConcurrentWritersLeaveAValidEntry) {
  const std::string dir = FreshDir("race");
  const NetworkSimConfig config = ShortConfig();
  const NetworkSimResult fresh = RunNetworkSim(config);

  // Fork real processes all Putting the same key at once: unique tmp
  // names + atomic rename mean the survivors' bytes are identical and the
  // final entry always validates.
  constexpr int kWriters = 8;
  std::vector<pid_t> pids;
  for (int i = 0; i < kWriters; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ResultStore child_store(dir);
      child_store.Put(config, fresh);
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  ResultStore store(dir);
  NetworkSimResult out;
  ASSERT_EQ(store.Load(config, &out), PointCacheStatus::kHit);
  EXPECT_EQ(Bytes(out), Bytes(fresh));
  // No staged tmp files left behind by the race.
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) {
      EXPECT_EQ(e.path().extension(), ".res") << e.path();
    }
  }
  fs::remove_all(dir);
}

TEST(ResultStoreTest, PutSkipsErrorSlotsAndExistingEntries) {
  const std::string dir = FreshDir("skip");
  ResultStore store(dir);
  const NetworkSimConfig config = ShortConfig();

  NetworkSimResult broken;
  broken.outcome.status = SimStatus::kInvariantViolation;
  store.Put(config, broken);
  EXPECT_FALSE(fs::exists(store.EntryPath(config)));
  NetworkSimResult exec_failed;
  exec_failed.outcome.status = SimStatus::kExecFailure;
  store.Put(config, exec_failed);
  EXPECT_FALSE(fs::exists(store.EntryPath(config)));
  EXPECT_EQ(store.stats().writes_skipped, 2u);

  // A real result lands; an identical re-Put is skipped (determinism
  // makes the rewrite pointless).
  const NetworkSimResult fresh = RunNetworkSim(config);
  store.Put(config, fresh);
  store.Put(config, fresh);
  EXPECT_EQ(store.stats().writes, 1u);
  EXPECT_EQ(store.stats().writes_skipped, 3u);
  fs::remove_all(dir);
}

TEST(ResultStoreTest, GarbageCollectionEvictsOldestUntilUnderBound) {
  const std::string dir = FreshDir("gc");
  std::vector<NetworkSimConfig> configs;
  std::uint64_t entry_bytes = 0;
  {
    ResultStore store(dir);
    for (int i = 0; i < 4; ++i) {
      NetworkSimConfig c = ShortConfig(0.05 + 0.01 * i);
      configs.push_back(c);
      store.Put(c, RunNetworkSim(c));
    }
    entry_bytes = store.approximate_bytes() / 4;
    ASSERT_GT(entry_bytes, 0u);
  }
  // Age the first two entries far into the past; the GC must pick them.
  const auto old_time =
      fs::file_time_type::clock::now() - std::chrono::hours(24);
  {
    ResultStore store(dir);
    fs::last_write_time(store.EntryPath(configs[0]), old_time);
    fs::last_write_time(store.EntryPath(configs[1]), old_time);
  }

  // Bound fits two entries (plus slack below three): the two aged ones go.
  ResultStore bounded(
      ResultStoreConfig{dir, entry_bytes * 2 + entry_bytes / 2});
  EXPECT_EQ(bounded.GarbageCollect(), 2u);
  EXPECT_FALSE(fs::exists(bounded.EntryPath(configs[0])));
  EXPECT_FALSE(fs::exists(bounded.EntryPath(configs[1])));
  EXPECT_TRUE(fs::exists(bounded.EntryPath(configs[2])));
  EXPECT_TRUE(fs::exists(bounded.EntryPath(configs[3])));
  EXPECT_LE(bounded.approximate_bytes(), entry_bytes * 2 + entry_bytes / 2);
  EXPECT_EQ(bounded.stats().gc_evicted_entries, 2u);

  // A Put that crosses the bound triggers collection by itself.
  NetworkSimConfig extra = ShortConfig(0.11);
  bounded.Put(extra, RunNetworkSim(extra));
  EXPECT_LE(bounded.approximate_bytes(), entry_bytes * 2 + entry_bytes / 2);
  fs::remove_all(dir);
}

TEST(ResultStoreTest, MemoryHitServesTheValidatedBytes) {
  const std::string dir = FreshDir("memhit");
  ResultStore store(dir);
  // A timeline and telemetry give the result its variable-length parts.
  NetworkSimConfig config = ShortConfig();
  config.sample_interval = 100;
  config.telemetry.enabled = true;
  const NetworkSimResult fresh = RunNetworkSim(config);
  ASSERT_FALSE(fresh.timeline.empty());
  store.Put(config, fresh);
  // Put never fills the memory tier: the first Load reads the file.
  EXPECT_EQ(store.stats().memory_bytes, 0u);

  NetworkSimResult from_disk, from_memory;
  ASSERT_EQ(store.Load(config, &from_disk), PointCacheStatus::kHit);
  EXPECT_EQ(store.stats().memory_hits, 0u);
  EXPECT_EQ(store.stats().memory_bytes, fs::file_size(store.EntryPath(config)));
  ASSERT_EQ(store.Load(config, &from_memory), PointCacheStatus::kHit);
  EXPECT_EQ(store.stats().hits, 2u);
  EXPECT_EQ(store.stats().memory_hits, 1u);
  EXPECT_EQ(Bytes(from_memory), Bytes(from_disk));
  EXPECT_EQ(Bytes(from_memory), Bytes(fresh));
  fs::remove_all(dir);
}

TEST(ResultStoreTest, MemoryHitOutlivesLaterDamageToTheFile) {
  const std::string dir = FreshDir("memdamage");
  ResultStore store(dir);
  const NetworkSimConfig config = ShortConfig();
  const NetworkSimResult fresh = RunNetworkSim(config);
  store.Put(config, fresh);
  NetworkSimResult out;
  ASSERT_EQ(store.Load(config, &out), PointCacheStatus::kHit);

  // Once validated, the result is served from memory: a corrupted or
  // removed file changes nothing, and is never decoded.
  const std::string path = store.EntryPath(config);
  std::string bad = Slurp(path);
  for (std::size_t i = 0; i < bad.size(); i += 5) {
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
  }
  Spit(path, bad);
  for (int rep = 0; rep < 3; ++rep) {
    NetworkSimResult again;
    ASSERT_EQ(store.Load(config, &again), PointCacheStatus::kHit);
    EXPECT_EQ(Bytes(again), Bytes(fresh));
  }
  fs::remove(path);
  ASSERT_EQ(store.Load(config, &out), PointCacheStatus::kHit);
  EXPECT_EQ(Bytes(out), Bytes(fresh));
  EXPECT_EQ(store.stats().memory_hits, 4u);
  EXPECT_EQ(store.stats().defective, 0u);

  // A second store on the same directory has validated nothing: it sees
  // the file as it is now.
  ResultStore other(dir);
  EXPECT_EQ(other.Load(config, &out), PointCacheStatus::kMiss);
  fs::remove_all(dir);
}

TEST(ResultStoreTest, MemoryTierStaysWithinItsByteBudget) {
  // Synthetic results sized so that three entries fit the budget and the
  // fourth evicts the least recently used one. Put writes any result, so
  // no simulation is needed; the timeline's 32-byte samples set the size.
  const std::string dir = FreshDir("membudget");
  ResultStore store(dir);
  const auto config_for = [](int i) {
    return ShortConfig(0.10, 100 + static_cast<std::uint64_t>(i));
  };
  const auto result_for = [](int i) {
    NetworkSimResult r;
    r.timeline.resize(kResultStoreMemoryBytes / 3 / 32 - 1024);
    for (std::size_t k = 0; k < r.timeline.size(); ++k) {
      r.timeline[k].start = k;
      r.timeline[k].packets = static_cast<std::uint64_t>(i);
    }
    return r;
  };
  std::vector<std::string> expected;
  for (int i = 0; i < 5; ++i) {
    const NetworkSimResult r = result_for(i);
    store.Put(config_for(i), r);
    expected.push_back(Bytes(r));
  }
  NetworkSimResult out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(store.Load(config_for(i), &out), PointCacheStatus::kHit);
  }
  const std::uint64_t three = store.stats().memory_bytes;
  EXPECT_GT(three, kResultStoreMemoryBytes / 2);
  EXPECT_LE(three, kResultStoreMemoryBytes);
  // Touch entry 0, so entry 1 is the least recently used.
  ASSERT_EQ(store.Load(config_for(0), &out), PointCacheStatus::kHit);
  EXPECT_EQ(store.stats().memory_hits, 1u);

  for (int i = 3; i < 5; ++i) {
    ASSERT_EQ(store.Load(config_for(i), &out), PointCacheStatus::kHit);
    EXPECT_EQ(Bytes(out), expected[i]);
    EXPECT_LE(store.stats().memory_bytes, kResultStoreMemoryBytes);
  }
  // Entries 1 and 2 made room; entry 0, used after them, stayed. An
  // evicted entry is a disk hit again, with the same bytes.
  std::uint64_t memory_hits = store.stats().memory_hits;
  ASSERT_EQ(store.Load(config_for(0), &out), PointCacheStatus::kHit);
  EXPECT_EQ(store.stats().memory_hits, ++memory_hits);
  EXPECT_EQ(Bytes(out), expected[0]);
  ASSERT_EQ(store.Load(config_for(1), &out), PointCacheStatus::kHit);
  EXPECT_EQ(store.stats().memory_hits, memory_hits);
  EXPECT_EQ(Bytes(out), expected[1]);
  ASSERT_EQ(store.Load(config_for(1), &out), PointCacheStatus::kHit);
  EXPECT_EQ(store.stats().memory_hits, memory_hits + 1);
  EXPECT_EQ(Bytes(out), expected[1]);
  EXPECT_LE(store.stats().memory_bytes, kResultStoreMemoryBytes);
  EXPECT_EQ(store.stats().hits, 9u);
  fs::remove_all(dir);
}

TEST(ResultStoreTest, ConcurrentLoadsOfOverlappingKeys) {
  const std::string dir = FreshDir("memrace");
  auto store = std::make_shared<ResultStore>(dir);
  std::vector<NetworkSimConfig> configs;
  std::vector<std::string> expected;
  for (int i = 0; i < 4; ++i) {
    configs.push_back(ShortConfig(0.05 + 0.02 * i));
    const NetworkSimResult r = RunNetworkSim(configs.back());
    store->Put(configs.back(), r);
    expected.push_back(Bytes(r));
  }
  // Every thread walks all keys from its own starting point, so first
  // reads (disk, then tier fill) race with memory hits on the same keys.
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < configs.size(); ++k) {
          const std::size_t i = (k + static_cast<std::size_t>(t)) % 4;
          NetworkSimResult out;
          if (store->Load(configs[i], &out) != PointCacheStatus::kHit ||
              Bytes(out) != expected[i]) {
            ++wrong[t];
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  const ResultStoreStats s = store->stats();
  const std::uint64_t loads = kThreads * kRounds * configs.size();
  EXPECT_EQ(s.hits, loads);
  // At most one disk read per key per thread before the tier has it.
  EXPECT_GE(s.memory_hits, loads - kThreads * configs.size());
  EXPECT_EQ(s.defective, 0u);
  EXPECT_LE(s.memory_bytes, kResultStoreMemoryBytes);
  fs::remove_all(dir);
}

TEST(ResultStoreTest, SweepRunnerResumesAcrossReorderedGrids) {
  const std::string dir = FreshDir("reorder");
  std::vector<NetworkSimConfig> grid;
  for (int i = 0; i < 5; ++i) grid.push_back(ShortConfig(0.04 + 0.02 * i));

  auto store = std::make_shared<ResultStore>(dir);
  SweepRunner first(2);
  first.SetCache(store);
  const std::vector<NetworkSimResult> r1 = first.Run(grid);
  EXPECT_EQ(first.resumed_points(), 0u);

  // Content addressing means order and batch shape are irrelevant: the
  // reversed grid (a different "batch" entirely) is a full resume.
  std::vector<NetworkSimConfig> reversed(grid.rbegin(), grid.rend());
  SweepRunner second(2);
  second.SetCache(std::make_shared<ResultStore>(dir));
  const std::vector<NetworkSimResult> r2 = second.Run(reversed);
  EXPECT_EQ(second.resumed_points(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(Bytes(r2[i]), Bytes(r1[grid.size() - 1 - i])) << i;
  }
  fs::remove_all(dir);
}

TEST(SweepRunnerTest, WithinBatchDuplicatesAreDeduplicated) {
  // The same point three times plus two distinct ones: two slots are
  // satisfied by copying the canonical result, and with a store attached
  // only the distinct points are ever written.
  const std::string dir = FreshDir("dedup");
  const NetworkSimConfig a = ShortConfig(0.06);
  const NetworkSimConfig b = ShortConfig(0.08);
  const std::vector<NetworkSimConfig> batch = {a, b, a, a, ShortConfig(0.10)};

  auto store = std::make_shared<ResultStore>(dir);
  SweepRunner runner(2);
  runner.SetCache(store);
  const std::vector<NetworkSimResult> results = runner.Run(batch);
  EXPECT_EQ(runner.deduped_points(), 2u);
  EXPECT_EQ(store->stats().writes, 3u);
  EXPECT_EQ(Bytes(results[0]), Bytes(results[2]));
  EXPECT_EQ(Bytes(results[0]), Bytes(results[3]));
  EXPECT_EQ(Bytes(results[0]), Bytes(RunNetworkSim(a)));
  EXPECT_EQ(Bytes(results[1]), Bytes(RunNetworkSim(b)));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vixnoc
