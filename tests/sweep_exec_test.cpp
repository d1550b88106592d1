// The sweep execution front-end (app/sim_config_args.hpp): one option
// parser and one executor over the in-process, process-isolated and
// daemon backends. The contract under test: the same grid gives
// bitwise-equal results in every mode, with the same per-point
// provenance, and the parser refuses the combinations the backends
// cannot honour.
#include "app/sim_config_args.hpp"

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "server/daemon.hpp"
#include "sim/network_sim.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {
namespace {

namespace fs = std::filesystem;

std::string Bytes(const NetworkSimResult& r) {
  SnapshotWriter w;
  w.BeginSection("result");
  SaveNetworkSimResult(w, r);
  w.EndSection();
  return w.Finish(0);
}

/// Parses `keys` the way a CLI would; returns SweepOptionsFromArgs' verdict.
bool Parse(std::vector<std::string> keys, SweepOptions* options) {
  std::vector<char*> argv = {const_cast<char*>("test")};
  for (std::string& k : keys) argv.push_back(k.data());
  ArgMap args = ArgMap::Parse(static_cast<int>(argv.size()), argv.data());
  return SweepOptionsFromArgs(args, options);
}

/// Six short points; slot 5 repeats slot 1, so every mode has one
/// within-batch duplicate to report.
std::vector<NetworkSimConfig> Grid() {
  std::vector<NetworkSimConfig> points;
  for (int i = 0; i < 5; ++i) {
    NetworkSimConfig c;
    c.scheme = i % 2 == 0 ? AllocScheme::kVix : AllocScheme::kInputFirst;
    c.injection_rate = 0.03 + 0.02 * i;
    c.warmup = 200;
    c.measure = 600;
    c.drain = 200;
    c.seed = 5 + i;
    points.push_back(c);
  }
  points.push_back(points[1]);
  return points;
}

TEST(SweepFrontEnd, ThreadProcessAndServerModesAgree) {
  ASSERT_EQ(setenv("VIXNOC_SWEEP_WORKER", VIXNOC_SWEEP_WORKER_PATH, 1), 0);
  const std::string root = testing::TempDir() + "vixnoc_front_" +
                           std::to_string(::getpid());
  fs::remove_all(root);
  fs::create_directories(root);

  DaemonConfig dc;
  dc.socket_path = root + "/d.sock";
  dc.store_dir = root + "/daemon_store";
  dc.threads = 2;
  // Keeps the duplicate's computation in flight while the batch's other
  // slots begin, so slot 5 deterministically coalesces onto slot 1.
  dc.test_compute_delay_ms = 50;
  SimDaemon daemon(dc);
  daemon.Start();

  SweepOptions thread_opts, process_opts, server_opts;
  ASSERT_TRUE(Parse({"threads=2"}, &thread_opts));
  ASSERT_TRUE(Parse({"threads=2", "isolate=process",
                     "checkpoint=" + root + "/store"},
                    &process_opts));
  ASSERT_TRUE(Parse({"server=" + dc.socket_path}, &server_opts));
  EXPECT_TRUE(process_opts.isolate_process);

  const std::vector<NetworkSimConfig> points = Grid();
  const SweepExecResult thread = SweepExecutor(thread_opts).Run(points);
  SweepExecutor process_exec(process_opts);
  SweepExecutor server_exec(server_opts);
  const SweepExecResult process = process_exec.Run(points);
  const SweepExecResult server = server_exec.Run(points);
  EXPECT_EQ(process.fallback_points, 0u);
  EXPECT_EQ(server.exhausted_points, 0u);

  // Cold runs: bitwise-equal results and identical provenance.
  for (const SweepExecResult* mode : {&thread, &process, &server}) {
    ASSERT_EQ(mode->results.size(), points.size());
    ASSERT_EQ(mode->points.size(), points.size());
    EXPECT_EQ(mode->cached_points, 0u);
    EXPECT_EQ(mode->deduped_points, 1u);
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(Bytes(mode->results[i]), Bytes(thread.results[i]))
          << "point " << i;
      EXPECT_FALSE(mode->points[i].from_cache) << "point " << i;
      EXPECT_EQ(mode->points[i].deduped, i == 5) << "point " << i;
    }
  }
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(process.points[i].isolated);

  // Warm runs: the checkpoint store and the daemon's store answer every
  // slot that is not a duplicate, with the same bytes.
  for (SweepExecutor* exec : {&process_exec, &server_exec}) {
    const SweepExecResult warm = exec->Run(points);
    EXPECT_EQ(warm.workers_spawned, 0u);
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(Bytes(warm.results[i]), Bytes(thread.results[i]))
          << "point " << i;
      EXPECT_TRUE(warm.points[i].from_cache || warm.points[i].deduped)
          << "point " << i;
      EXPECT_FALSE(warm.points[i].from_cache && warm.points[i].deduped);
    }
  }

  daemon.Stop();
  unsetenv("VIXNOC_SWEEP_WORKER");
  fs::remove_all(root);
}

TEST(SweepFrontEnd, OptionsRejectBadModeAndServerCombinations) {
  SweepOptions options;
  EXPECT_FALSE(Parse({"isolate=bogus"}, &options));
  EXPECT_FALSE(Parse({"threads=-1"}, &options));
  EXPECT_FALSE(Parse({"retries=-2"}, &options));
  EXPECT_FALSE(Parse({"point_timeout=-0.5"}, &options));
  EXPECT_FALSE(Parse({"server=/tmp/x.sock", "isolate=process"}, &options));
  EXPECT_FALSE(Parse({"server=/tmp/x.sock", "checkpoint=/tmp/store"},
                     &options));
  ASSERT_TRUE(Parse({"threads=3", "isolate=thread", "point_timeout=1.5",
                     "retries=4"},
                    &options));
  EXPECT_EQ(options.threads, 3);
  EXPECT_FALSE(options.isolate_process);
  EXPECT_DOUBLE_EQ(options.point_timeout, 1.5);
  EXPECT_EQ(options.retries, 4);
}

TEST(SweepFrontEnd, RateGridStepsFromLowLoadToSaturation) {
  NetworkSimConfig config;
  const std::vector<NetworkSimConfig> grid = RateGrid(config);
  ASSERT_GE(grid.size(), 2u);
  EXPECT_DOUBLE_EQ(grid.front().injection_rate, 0.02);
  EXPECT_NEAR(grid[1].injection_rate - grid[0].injection_rate, 0.01, 1e-12);
  EXPECT_LE(grid.back().injection_rate, config.MaxInjectionRate() + 1e-9);
  EXPECT_GT(grid.back().injection_rate + 0.01,
            config.MaxInjectionRate() + 1e-9);
}

}  // namespace
}  // namespace vixnoc
