// Shared harness for the sweep-shaped paper benches.
//
// Wraps the common lifecycle: parse the execution keys (SweepOptionsFromArgs,
// app/sim_config_args.hpp) plus `json=` / `help=`, run batches of
// NetworkSimConfig points on the selected backend, keep wall-clock and
// simulated-cycle totals, and emit a machine-readable results file
// (default bench_results.json) alongside the human-readable tables.
//
//   bench::SweepHarness sweep(argc, argv, "fig8_mesh_latency");
//   std::vector<NetworkSimResult> results = sweep.Run(points);
//   ...print tables / claims...
//   sweep.Finish();   // summary line + JSON
//
// Execution backends (SweepExecutor; server= excludes the other two):
//   default            in-process SweepRunner thread pool
//   checkpoint=DIR     backed by the content-addressed result store at DIR
//                      — interrupted benches resume, and any bench pointed
//                      at the same DIR shares completed points
//   isolate=process    crash-isolated subprocess execution
//   server=SOCK        points are served by a running vixnocd daemon over
//                      its Unix socket (the daemon owns its own store)
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/sim_config_args.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "traffic/patterns.hpp"

namespace vixnoc::bench {

class SweepHarness {
 public:
  SweepHarness(int argc, char** argv, std::string bench_name,
               std::string default_json = "bench_results.json")
      : bench_name_(std::move(bench_name)) {
    ArgMap args = ArgMap::Parse(argc, argv);
    Init(args, default_json, /*extra_usage=*/"");
    args.CheckAllConsumed();
  }

  /// For benches with their own flags: the caller parses an ArgMap, passes
  /// it here (the harness consumes `threads=` / `json=` / `help=`, printing
  /// `extra_usage` after the standard lines on help=), then reads its own
  /// keys and calls args.CheckAllConsumed() itself.
  SweepHarness(ArgMap& args, std::string bench_name,
               std::string default_json = "bench_results.json",
               const std::string& extra_usage = "")
      : bench_name_(std::move(bench_name)) {
    Init(args, default_json, extra_usage);
  }

  int threads() const { return exec_->threads(); }

  /// Runs one batch of points in parallel; may be called repeatedly. Wall
  /// clock and per-point records accumulate across calls. With
  /// `checkpoint=DIR`, completed points land in the content-addressed
  /// result store at DIR (keyed by config fingerprint, not batch index) —
  /// re-running an interrupted bench resumes from the store and produces
  /// results bitwise identical to a straight run.
  std::vector<NetworkSimResult> Run(
      const std::vector<NetworkSimConfig>& points) {
    const auto start = std::chrono::steady_clock::now();
    SweepExecResult batch = exec_->Run(points);
    wall_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    for (const NetworkSimConfig& c : points) {
      sim_cycles_ += static_cast<std::uint64_t>(c.warmup) + c.measure +
                     c.drain;
      configs_.push_back(c);
    }
    total_.results.insert(total_.results.end(), batch.results.begin(),
                          batch.results.end());
    total_.points.insert(total_.points.end(), batch.points.begin(),
                         batch.points.end());
    total_.events.insert(total_.events.end(), batch.events.begin(),
                         batch.events.end());
    using R = SweepExecResult;
    for (std::uint64_t R::*tally :
         {&R::crashes, &R::timeouts, &R::bad_frames, &R::spawn_failures,
          &R::retries, &R::workers_spawned, &R::exhausted_points,
          &R::fallback_points, &R::cached_points, &R::defective_cache_points,
          &R::deduped_points}) {
      total_.*tally += batch.*tally;
    }
    return std::move(batch.results);
  }

  /// Prints the sweep summary and writes the JSON results file. Returns a
  /// process exit code (non-zero if the JSON file could not be written),
  /// so benches can end with `return sweep.Finish();`.
  int Finish() const {
    std::printf(
        "\nsweep: %zu points on %d thread(s) in %.2fs "
        "(%.0f network-cycles/s)\n",
        configs_.size(), threads(), wall_seconds_,
        wall_seconds_ > 0 ? static_cast<double>(sim_cycles_) / wall_seconds_
                          : 0.0);
    if (json_path_.empty()) return 0;
    std::FILE* f = std::fopen(json_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
      return 1;
    }
    // Checkpoint provenance: whether this file was produced with a point
    // cache, how many points came from it rather than fresh runs, how
    // many cache entries were found defective and re-run, and how many
    // duplicate in-batch points were satisfied by copying a canonical
    // slot's result instead of re-simulating.
    const SweepOptions& opt = exec_->options();
    std::string provenance = "  \"deduped_points\": " +
                             std::to_string(total_.deduped_points) + ",\n";
    if (!opt.checkpoint.empty()) {
      provenance += "  \"checkpoint_dir\": \"" + EscapeJson(opt.checkpoint) +
                    "\",\n  \"resumed_points\": " +
                    std::to_string(total_.cached_points) +
                    ",\n  \"defective_cache_points\": " +
                    std::to_string(total_.defective_cache_points) + ",\n";
    }
    if (!opt.server.empty()) {
      // Service provenance: which vixnocd daemon served the sweep and how
      // each point was satisfied (store hit / fresh compute / coalesced
      // onto another client's in-flight computation).
      const std::uint64_t computed =
          total_.results.size() - total_.cached_points -
          total_.deduped_points - total_.exhausted_points;
      provenance += "  \"server\": {\"socket\": \"" +
                    EscapeJson(opt.server) +
                    "\", \"store_hits\": " +
                    std::to_string(total_.cached_points) +
                    ", \"computed\": " + std::to_string(computed) +
                    ", \"coalesced\": " +
                    std::to_string(total_.deduped_points) +
                    ", \"retries\": " + std::to_string(total_.retries) +
                    "},\n";
    }
    if (opt.isolate_process) {
      // Process-isolation provenance: how the batch was executed at the
      // subprocess level — retry/crash/timeout tallies plus the worker
      // lifecycle event log — so a results file records not just the
      // numbers but how reliably they were produced.
      provenance += "  \"exec\": {\"isolate\": \"process\", "
                    "\"point_timeout\": " + Num(opt.point_timeout) +
                    ", \"retries\": " + std::to_string(opt.retries) +
                    ", \"workers_spawned\": " +
                    std::to_string(total_.workers_spawned) +
                    ", \"crashes\": " + std::to_string(total_.crashes) +
                    ", \"timeouts\": " + std::to_string(total_.timeouts) +
                    ", \"bad_frames\": " + std::to_string(total_.bad_frames) +
                    ", \"spawn_failures\": " +
                    std::to_string(total_.spawn_failures) +
                    ", \"retries_performed\": " +
                    std::to_string(total_.retries) +
                    ", \"exhausted_points\": " +
                    std::to_string(total_.exhausted_points) +
                    ", \"fallback_points\": " +
                    std::to_string(total_.fallback_points) +
                    ", \"cached_points\": " +
                    std::to_string(total_.cached_points) +
                    ",\n    \"worker_events\": [";
      for (std::size_t i = 0; i < total_.events.size(); ++i) {
        const WorkerEvent& ev = total_.events[i];
        provenance += std::string(i ? ", \"" : "\"") +
                      EscapeJson(ToString(ev.kind) + " slot " +
                                 std::to_string(ev.slot) + " pid " +
                                 std::to_string(ev.pid) +
                                 (ev.detail.empty() ? "" : ": " + ev.detail)) +
                      "\"";
      }
      provenance += "]},\n";
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"build\": %s,\n"
                 "  \"threads\": %d,\n"
                 "  \"points\": %zu,\n"
                 "%s"
                 "  \"wall_seconds\": %s,\n"
                 "  \"sim_cycles\": %llu,\n"
                 "  \"sim_cycles_per_second\": %s,\n"
                 "  \"results\": [\n",
                 bench_name_.c_str(), BuildFlagsJson().c_str(), threads(),
                 configs_.size(),
                 provenance.c_str(), Num(wall_seconds_).c_str(),
                 static_cast<unsigned long long>(sim_cycles_),
                 Num(wall_seconds_ > 0
                         ? static_cast<double>(sim_cycles_) / wall_seconds_
                         : 0.0)
                     .c_str());
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const NetworkSimConfig& c = configs_[i];
      const NetworkSimResult& r = total_.results[i];
      // Failed points (invalid config, deadlock, undeliverable traffic)
      // keep their slot with a status and message instead of silently
      // vanishing or poisoning the table with zeros.
      std::string outcome_json =
          "\"status\": \"" + ToString(r.outcome.status) + "\"";
      if (!r.outcome.ok()) {
        outcome_json +=
            ", \"message\": \"" + EscapeJson(r.outcome.message) + "\"";
      }
      if (opt.isolate_process) {
        // Per-point execution provenance in process-isolation mode:
        // subprocess attempts and, when the point ever failed at the
        // process level, the classified cause.
        const ExecStatus& es = total_.points[i];
        outcome_json += ", \"attempts\": " + std::to_string(es.attempts);
        if (es.from_cache) outcome_json += ", \"from_cache\": true";
        if (es.in_process_fallback) {
          outcome_json += ", \"in_process_fallback\": true";
        }
        if (es.last_failure != ExecFailure::kNone) {
          outcome_json += ", \"exec_failure\": \"" +
                          ToString(es.last_failure) + "\", " +
                          "\"exec_detail\": \"" +
                          EscapeJson(es.failure_detail) + "\"";
        }
      }
      if (r.telemetry.enabled) {
        // Telemetry aggregates ride along per point when the config enabled
        // the collector (measurement-window scope, like the core metrics).
        const TelemetrySummary& t = r.telemetry;
        char tele[512];
        std::snprintf(
            tele, sizeof tele,
            ", \"telemetry\": {\"sa_requests\": %llu, \"sa_grants\": %llu, "
            "\"crossbar_utilization\": %s, "
            "\"vin_conflict_distinct_output\": %llu, "
            "\"vin_conflict_same_output\": %llu, "
            "\"same_output_conflict_rate\": %s, "
            "\"distinct_output_conflict_rate\": %s, "
            "\"output_conflict_cycles\": %llu}",
            static_cast<unsigned long long>(t.sa_requests),
            static_cast<unsigned long long>(t.sa_grants),
            Num(t.crossbar_utilization).c_str(),
            static_cast<unsigned long long>(t.vin_conflict_distinct_output),
            static_cast<unsigned long long>(t.vin_conflict_same_output),
            Num(t.same_output_conflict_rate).c_str(),
            Num(t.distinct_output_conflict_rate).c_str(),
            static_cast<unsigned long long>(t.output_conflict_cycles));
        outcome_json += tele;
      }
      std::fprintf(
          f,
          "    {\"topology\": \"%s\", \"scheme\": \"%s\", "
          "\"pattern\": \"%s\", \"injection_rate\": %s, \"num_vcs\": %d, "
          "\"seed\": %llu, \"accepted_ppc\": %s, \"avg_latency\": %s, "
          "\"p99_latency\": %s, \"max_min_ratio\": %s, \"saturated\": %s, "
          "%s}%s\n",
          ToString(c.topology).c_str(), ToString(c.scheme).c_str(),
          MakePattern(c.pattern)->Name().c_str(), Num(c.injection_rate).c_str(),
          c.num_vcs, static_cast<unsigned long long>(c.seed),
          Num(r.accepted_ppc).c_str(), Num(r.avg_latency).c_str(),
          Num(r.p99_latency).c_str(), Num(r.max_min_ratio).c_str(),
          r.saturated ? "true" : "false", outcome_json.c_str(),
          i + 1 < configs_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path_.c_str());
    return 0;
  }

 private:
  void Init(ArgMap& args, const std::string& default_json,
            const std::string& extra_usage) {
    if (args.GetBool("help", false)) {
      std::printf(
          "usage: bench_%s [threads=N] [json=PATH] [checkpoint=DIR]\n"
          "       [server=SOCK] [isolate=thread|process] [point_timeout=S] "
          "[retries=N]%s\n"
          "  threads=N       worker threads (or subprocesses) for the sweep\n"
          "                  (default 0 = $VIXNOC_THREADS if set, else all "
          "cores)\n"
          "  json=PATH       machine-readable results file\n"
          "                  (default %s; json= disables)\n"
          "  checkpoint=DIR  content-addressed result store at DIR;\n"
          "                  re-running after an interruption resumes, and\n"
          "                  benches sharing DIR share completed points\n"
          "  server=SOCK     send every point to the vixnocd daemon at\n"
          "                  SOCK instead of simulating locally (exclusive\n"
          "                  with checkpoint= and isolate=process)\n"
          "  isolate=MODE    'thread' (default) runs points in-process;\n"
          "                  'process' runs each point in a\n"
          "                  vixnoc_sweep_worker subprocess so a crashing\n"
          "                  or hanging point cannot take down the sweep\n"
          "  point_timeout=S kill a worker stuck on one point for more\n"
          "                  than S seconds (isolate=process; 0 disables)\n"
          "  retries=N       process-level retries per failed point\n"
          "                  (isolate=process; default 2)\n%s",
          bench_name_.c_str(), extra_usage.empty() ? "" : " [...]",
          default_json.c_str(), extra_usage.c_str());
      std::exit(0);
    }
    json_path_ = args.GetString("json", default_json);
    SweepOptions options;
    if (!SweepOptionsFromArgs(args, &options)) std::exit(2);
    try {
      exec_ = std::make_unique<SweepExecutor>(options);
    } catch (const SimError& e) {
      std::fprintf(stderr, "bench_%s: %s\n", bench_name_.c_str(), e.what());
      std::exit(1);
    }
    WarnIfDebugBuild(bench_name_);
  }

  std::string bench_name_;
  std::string json_path_;
  std::unique_ptr<SweepExecutor> exec_;
  double wall_seconds_ = 0.0;
  std::uint64_t sim_cycles_ = 0;
  // Every batch so far: configs_ and total_.results / total_.points are
  // parallel, total_'s tallies are sums over the batches.
  std::vector<NetworkSimConfig> configs_;
  SweepExecResult total_;
};

}  // namespace vixnoc::bench
