#include "exec/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include <fcntl.h>
#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "exec/exec_protocol.hpp"
#include "sim/sweep.hpp"

namespace vixnoc {

std::string ToString(ExecFailure failure) {
  switch (failure) {
    case ExecFailure::kNone:
      return "none";
    case ExecFailure::kExit:
      return "exit";
    case ExecFailure::kSignal:
      return "signal";
    case ExecFailure::kBadFrame:
      return "bad-frame";
    case ExecFailure::kTimeout:
      return "timeout";
    case ExecFailure::kSpawn:
      return "spawn";
  }
  return "unknown";
}

std::string ToString(WorkerEvent::Kind kind) {
  switch (kind) {
    case WorkerEvent::Kind::kSpawn:
      return "spawn";
    case WorkerEvent::Kind::kExit:
      return "exit";
    case WorkerEvent::Kind::kKill:
      return "kill";
  }
  return "unknown";
}

namespace {

/// One worker subprocess owned by a coordinator slot thread.
struct Worker {
  pid_t pid = -1;
  int in_fd = -1;   ///< coordinator writes point frames (worker stdin)
  int out_fd = -1;  ///< coordinator reads result frames (worker stdout)
  bool alive() const { return pid > 0; }
};

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

std::string DescribeWaitStatus(int status) {
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "unknown") + ")";
  }
  return "unrecognized wait status " + std::to_string(status);
}

/// Reaps a (dead or dying) worker and returns its wait-status description.
std::string ReapWorker(Worker* w) {
  CloseFd(&w->in_fd);
  CloseFd(&w->out_fd);
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(w->pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  w->pid = -1;
  if (r < 0) return std::string("waitpid: ") + std::strerror(errno);
  return DescribeWaitStatus(status);
}

/// SIGKILLs and reaps a live worker (deadline overrun or untrusted state).
std::string KillWorker(Worker* w) {
  ::kill(w->pid, SIGKILL);
  return ReapWorker(w);
}

/// fork/execs one worker with stdin/stdout pipes. An exec failure in the
/// child (bad path, not executable) is reported through a CLOEXEC status
/// pipe, so the caller can distinguish "could not spawn" from a worker
/// that launched and then died. All pipe fds are O_CLOEXEC so workers do
/// not inherit each other's channel ends (a leaked write end would defeat
/// EOF-based shutdown).
bool SpawnWorker(const std::string& path, Worker* w, std::string* error) {
  int in_pipe[2] = {-1, -1}, out_pipe[2] = {-1, -1}, st_pipe[2] = {-1, -1};
  const auto fail = [&](const char* op) {
    *error = std::string(op) + ": " + std::strerror(errno);
    for (int* fd : {&in_pipe[0], &in_pipe[1], &out_pipe[0], &out_pipe[1],
                    &st_pipe[0], &st_pipe[1]}) {
      CloseFd(fd);
    }
    return false;
  };
  if (::pipe2(in_pipe, O_CLOEXEC) < 0 || ::pipe2(out_pipe, O_CLOEXEC) < 0 ||
      ::pipe2(st_pipe, O_CLOEXEC) < 0) {
    return fail("pipe2");
  }
  const pid_t pid = ::fork();
  if (pid < 0) return fail("fork");
  if (pid == 0) {
    // Child: wire the protocol pipes to stdin/stdout (dup2 clears
    // O_CLOEXEC on the duplicates) and exec the worker.
    if (::dup2(in_pipe[0], STDIN_FILENO) < 0 ||
        ::dup2(out_pipe[1], STDOUT_FILENO) < 0) {
      _exit(127);
    }
    ::execl(path.c_str(), path.c_str(), static_cast<char*>(nullptr));
    const int err = errno;
    [[maybe_unused]] ssize_t n = ::write(st_pipe[1], &err, sizeof err);
    _exit(127);
  }
  // Parent.
  CloseFd(&in_pipe[0]);
  CloseFd(&out_pipe[1]);
  CloseFd(&st_pipe[1]);
  int exec_errno = 0;
  ssize_t n;
  do {
    n = ::read(st_pipe[0], &exec_errno, sizeof exec_errno);
  } while (n < 0 && errno == EINTR);
  CloseFd(&st_pipe[0]);
  if (n > 0) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    CloseFd(&in_pipe[1]);
    CloseFd(&out_pipe[0]);
    *error = "exec '" + path + "': " + std::strerror(exec_errno);
    return false;
  }
  w->pid = pid;
  w->in_fd = in_pipe[1];
  w->out_fd = out_pipe[0];
  return true;
}

/// Outcome of one subprocess attempt at a point.
struct Attempt {
  ExecFailure failure = ExecFailure::kNone;
  std::string detail;
  /// How the worker ended when the attempt failed.
  WorkerEvent::Kind event = WorkerEvent::Kind::kExit;
  NetworkSimResult result;
};

/// Sends point `index` to the live worker `w` and reads its result back.
/// On failure the worker is reaped — or killed, when its stream can no
/// longer be trusted — and the failure classified; the caller respawns.
Attempt Dispatch(Worker* w, std::size_t index, int attempt,
                 const NetworkSimConfig& config, double timeout_seconds) {
  // A dead peer must surface as EPIPE from write(), not SIGPIPE.
  sigset_t sigpipe;
  sigemptyset(&sigpipe);
  sigaddset(&sigpipe, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &sigpipe, nullptr);

  PointFrame pf;
  pf.index = index;
  pf.attempt = static_cast<std::uint32_t>(attempt);
  pf.config = config;
  const std::uint64_t fp = NetworkSimConfigFingerprint(pf.config);

  Attempt out;
  std::string werr;
  if (!WriteFrame(w->in_fd, EncodePointFrame(pf), &werr)) {
    // The worker died before (or while) reading the point.
    out.detail = ReapWorker(w) + " before accepting the point";
    out.failure = out.detail.rfind("signal", 0) == 0 ? ExecFailure::kSignal
                                                     : ExecFailure::kExit;
    return out;
  }
  const FrameRead rr =
      ReadFrame(w->out_fd, timeout_seconds > 0 ? timeout_seconds : -1.0);
  switch (rr.status) {
    case FrameRead::Status::kOk:
      try {
        ResultFrame rf = DecodeResultFrame(rr.payload);
        if (rf.index != index || rf.config_fingerprint != fp) {
          out.failure = ExecFailure::kBadFrame;
          out.detail = "result frame for point " + std::to_string(rf.index) +
                       " (expected " + std::to_string(index) +
                       ") or mismatched fingerprint; " + KillWorker(w);
          out.event = WorkerEvent::Kind::kKill;
        } else {
          out.result = std::move(rf.result);
        }
      } catch (const SimError& e) {
        // Right length, rotten bytes: the worker's stream state is
        // untrustworthy, so it is replaced.
        out.failure = ExecFailure::kBadFrame;
        out.detail = std::string("undecodable result frame: ") + e.what() +
                     "; " + KillWorker(w);
        out.event = WorkerEvent::Kind::kKill;
      }
      break;
    case FrameRead::Status::kTimeout: {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "point exceeded its %.3fs deadline; worker killed",
                    timeout_seconds);
      out.failure = ExecFailure::kTimeout;
      out.detail = std::string(buf) + " (" + KillWorker(w) + ")";
      out.event = WorkerEvent::Kind::kKill;
      break;
    }
    case FrameRead::Status::kEof:
    case FrameRead::Status::kShort: {
      const std::string wait = ReapWorker(w);
      if (wait.rfind("signal", 0) == 0) {
        out.failure = ExecFailure::kSignal;
        out.detail = wait;
      } else if (wait == "exit status 0") {
        out.failure = ExecFailure::kBadFrame;
        out.detail = "worker exited cleanly mid-point";
        if (rr.status == FrameRead::Status::kShort) {
          out.detail += " (" + rr.detail + ")";
        }
      } else {
        out.failure = ExecFailure::kExit;
        out.detail = wait;
      }
      break;
    }
    case FrameRead::Status::kError:
      out.failure = ExecFailure::kBadFrame;
      out.detail = "frame read failed: " + rr.detail + "; " + KillWorker(w);
      out.event = WorkerEvent::Kind::kKill;
      break;
  }
  return out;
}

}  // namespace

void RecordRunnerSources(const SweepRunner& runner, SweepExecResult* out) {
  const std::vector<SweepRunner::Source>& sources = runner.sources();
  out->points.resize(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out->points[i].from_cache = sources[i] == SweepRunner::Source::kCache;
    out->points[i].deduped = sources[i] == SweepRunner::Source::kDeduped;
  }
  out->cached_points = runner.resumed_points();
  out->defective_cache_points = runner.defective_cache_points();
  out->deduped_points = runner.deduped_points();
}

std::string DefaultWorkerPath() {
  if (const char* env = std::getenv("VIXNOC_SWEEP_WORKER")) {
    // An explicit setting is honored verbatim: if it is wrong, the spawn
    // failure is classified and surfaced rather than silently replaced.
    if (*env != '\0') return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  const std::string dir =
      std::filesystem::path(buf).parent_path().string();
  for (const std::string& candidate :
       {dir + "/vixnoc_sweep_worker", dir + "/../src/app/vixnoc_sweep_worker",
        dir + "/../../src/app/vixnoc_sweep_worker"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return {};
}

SweepCoordinator::SweepCoordinator(ExecPolicy policy)
    : policy_(std::move(policy)) {
  policy_.num_workers = ResolveThreadCount(policy_.num_workers);
  if (policy_.worker_path.empty()) policy_.worker_path = DefaultWorkerPath();
  policy_.max_retries = std::max(policy_.max_retries, 0);
  policy_.backoff_initial_seconds =
      std::max(policy_.backoff_initial_seconds, 0.0);
  policy_.backoff_multiplier = std::max(policy_.backoff_multiplier, 1.0);
  policy_.backoff_max_seconds =
      std::max(policy_.backoff_max_seconds, policy_.backoff_initial_seconds);
}

SweepExecResult SweepCoordinator::Run(
    const std::vector<NetworkSimConfig>& configs) {
  SweepExecResult out;
  out.points.resize(configs.size());
  if (policy_.worker_path.empty() && !configs.empty()) {
    std::fprintf(stderr,
                 "vixnoc: warning: no vixnoc_sweep_worker binary found "
                 "(set VIXNOC_SWEEP_WORKER); running sweep in-process "
                 "without crash isolation\n");
  }

  // The runner lives for one Run, like the workers: its threads exit with
  // the batch, so an idle coordinator holds no threads or processes.
  SweepRunner runner(policy_.num_workers);
  runner.SetCache(policy_.cache);

  // One worker per runner thread, so one point in flight per worker.
  // out.points[i] belongs to the thread running point i; `mu` guards the
  // batch tallies and the event log.
  std::mutex mu;
  std::vector<Worker> workers(runner.num_threads());
  std::atomic<bool> spawn_broken{false};
  // Attempt failures per ExecFailure kind (kSpawn is the last one),
  // folded into the batch tallies at the end.
  std::uint64_t failures[static_cast<int>(ExecFailure::kSpawn) + 1] = {};

  // Runs point `index` on the thread's worker, retrying after each
  // failure; nullopt when no worker can be spawned.
  const auto run_isolated =
      [&](int slot, std::size_t index,
          const NetworkSimConfig& config) -> std::optional<NetworkSimResult> {
    ExecStatus& st = out.points[index];
    Worker& w = workers[slot];
    for (int attempt = 0;; ++attempt) {
      if (!w.alive()) {
        std::string err;
        const bool spawned = SpawnWorker(policy_.worker_path, &w, &err);
        std::lock_guard<std::mutex> lock(mu);
        if (!spawned) {
          // This and every later point run in-process, unattempted.
          spawn_broken = true;
          ++failures[static_cast<int>(ExecFailure::kSpawn)];
          st.last_failure = ExecFailure::kSpawn;
          st.failure_detail = err;
          return std::nullopt;
        }
        ++out.workers_spawned;
        out.events.push_back(WorkerEvent{WorkerEvent::Kind::kSpawn, slot,
                                         static_cast<long>(w.pid), ""});
      }
      const pid_t pid = w.pid;
      Attempt a = Dispatch(&w, index, attempt, config,
                           policy_.point_timeout_seconds);
      st.attempts = attempt + 1;
      if (a.failure == ExecFailure::kNone) {
        st.isolated = true;
        return std::move(a.result);
      }

      // Classified failure; the worker is dead and the next attempt
      // respawns one.
      st.last_failure = a.failure;
      st.failure_detail = a.detail;
      std::unique_lock<std::mutex> lock(mu);
      ++failures[static_cast<int>(a.failure)];
      out.events.push_back(
          WorkerEvent{a.event, slot, static_cast<long>(pid),
                      "point " + std::to_string(index) + ": " + a.detail});
      if (attempt >= policy_.max_retries) {
        ++out.exhausted_points;
        NetworkSimResult failed;
        failed.outcome.status = SimStatus::kExecFailure;
        failed.outcome.message =
            "worker " + ToString(a.failure) + " failure: " + a.detail + " (" +
            std::to_string(attempt + 1) + " attempts)";
        return failed;
      }
      const double backoff =
          std::min(policy_.backoff_initial_seconds *
                       std::pow(policy_.backoff_multiplier, attempt),
                   policy_.backoff_max_seconds);
      st.backoff_seconds += backoff;
      ++out.retries;
      lock.unlock();  // the backoff parks this runner thread, not the lock
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  };

  const auto run_point = [&](int slot, std::size_t index,
                             const NetworkSimConfig& config) {
    ExecStatus& st = out.points[index];
    if (config.topology_factory || config.routing_factory) {
      st.failure_detail = "a factory callback cannot cross a process boundary";
    } else if (policy_.worker_path.empty() || spawn_broken) {
      st.last_failure = ExecFailure::kSpawn;
      st.failure_detail = policy_.worker_path.empty()
                              ? "no worker binary found"
                              : "subprocess spawning unavailable";
    } else if (std::optional<NetworkSimResult> result =
                   run_isolated(slot, index, config)) {
      return std::move(*result);
    }
    // Graceful degradation: the point runs right here, in-process (the
    // runner turns exceptions into error slots, as for any sweep).
    st.in_process_fallback = true;
    return RunNetworkSim(config);
  };

  out.results = runner.Run(configs, run_point);

  // Batch complete: shut the workers down by closing their stdin (they
  // exit on EOF) and reap them.
  for (std::size_t s = 0; s < workers.size(); ++s) {
    if (!workers[s].alive()) continue;
    const pid_t pid = workers[s].pid;
    out.events.push_back(WorkerEvent{WorkerEvent::Kind::kExit,
                                     static_cast<int>(s),
                                     static_cast<long>(pid),
                                     "shutdown: " + ReapWorker(&workers[s])});
  }
  const auto failed = [&](ExecFailure kind) {
    return failures[static_cast<int>(kind)];
  };
  out.crashes = failed(ExecFailure::kExit) + failed(ExecFailure::kSignal);
  out.timeouts = failed(ExecFailure::kTimeout);
  out.bad_frames = failed(ExecFailure::kBadFrame);
  out.spawn_failures = failed(ExecFailure::kSpawn);
  for (const ExecStatus& st : out.points) {
    out.fallback_points += st.in_process_fallback;
  }
  RecordRunnerSources(runner, &out);
  return out;
}

}  // namespace vixnoc
