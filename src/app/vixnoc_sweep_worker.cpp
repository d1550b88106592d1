// vixnoc_sweep_worker: the subprocess half of crash-isolated sweeps.
//
// Speaks the point protocol of exec/exec_protocol.hpp, the same frames
// the vixnocd daemon serves: reads length-prefixed "vixd_point" requests
// on stdin, runs each point through the same deterministic RunNetworkSim
// the in-process path uses, and writes one "vixd_reply" frame per point
// on stdout (status ok, source computed, the point's result key and its
// result). Exits 0 on clean EOF. stdout carries nothing but replies — all
// diagnostics go to stderr.
//
// The coordinator (exec/coordinator.hpp) treats any deviation — nonzero
// exit, death by signal, a short or undecodable frame, or silence past
// the per-point deadline — as a classified failure of the *point*, never
// of the batch. A SimError inside the simulation is not a process
// failure: like SweepRunner, the worker converts it into a result slot
// with SimStatus::kInvariantViolation and keeps serving points.
//
// Deterministic failure injection for tests (exec_test.cpp, tier1.sh):
//
//   VIXNOC_TEST_CRASH_POINT=<i>[:<n>]     abort() on point i
//   VIXNOC_TEST_HANG_POINT=<i>[:<n>]      hang forever on point i
//   VIXNOC_TEST_EXIT_POINT=<i>[:<n>]      _exit(41) on point i
//   VIXNOC_TEST_BADFRAME_POINT=<i>[:<n>]  write a truncated reply frame
//                                         for point i, then exit 0
//
// i is the submission index from the request's "exec" section. With the
// ":<n>" suffix the hook only fires while that section's attempt counter
// is below n, so a "crash twice, then succeed" retry path is a
// one-variable setup. Without it the hook fires on every attempt.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include <unistd.h>

#include "common/error.hpp"
#include "exec/exec_protocol.hpp"
#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {
namespace {

/// Parses "<index>[:<max_attempt>]" hooks; fires when `index` matches and
/// attempt < max_attempt (max_attempt defaults to "always").
bool HookFires(const char* env_name, std::uint64_t index,
               std::uint32_t attempt) {
  const char* env = std::getenv(env_name);
  if (env == nullptr || *env == '\0') return false;
  char* end = nullptr;
  const unsigned long long hook_index = std::strtoull(env, &end, 10);
  if (end == env) return false;
  unsigned long long max_attempt = ~0ull;
  if (*end == ':') {
    max_attempt = std::strtoull(end + 1, nullptr, 10);
  } else if (*end != '\0') {
    return false;
  }
  return hook_index == index && attempt < max_attempt;
}

void ApplyTestHooks(const ExecTag& tag) {
  const auto fires = [&](const char* env_name, const char* what) {
    if (!HookFires(env_name, tag.index, tag.attempt)) return false;
    std::fprintf(stderr,
                 "vixnoc_sweep_worker: injected %s on point %llu "
                 "(attempt %u)\n",
                 what, static_cast<unsigned long long>(tag.index),
                 tag.attempt);
    return true;
  };
  if (fires("VIXNOC_TEST_CRASH_POINT", "crash")) std::abort();
  if (fires("VIXNOC_TEST_HANG_POINT", "hang")) {
    for (;;) ::pause();  // no CPU burn; the coordinator's watchdog kills us
  }
  if (fires("VIXNOC_TEST_EXIT_POINT", "exit(41)")) std::_Exit(41);
  if (fires("VIXNOC_TEST_BADFRAME_POINT", "short frame")) {
    // A length prefix promising 64 bytes, followed by only 8: the
    // coordinator sees the stream end mid-frame with exit status 0.
    const unsigned char bytes[16] = {64, 0, 0, 0, 0, 0, 0, 0,
                                     'g', 'a', 'r', 'b', 'a', 'g', 'e', '!'};
    [[maybe_unused]] ssize_t n = ::write(STDOUT_FILENO, bytes, sizeof bytes);
    std::_Exit(0);
  }
}

int WorkerMain() {
  for (;;) {
    const FrameRead in = ReadFrame(STDIN_FILENO, -1.0);
    if (in.status == FrameRead::Status::kEof) return 0;  // clean shutdown
    if (in.status != FrameRead::Status::kOk) {
      std::fprintf(stderr, "vixnoc_sweep_worker: bad input frame: %s\n",
                   in.detail.c_str());
      return 3;
    }
    ExecTag tag;
    std::optional<NetworkSimConfig> config;
    try {
      SnapshotReader r(in.payload);
      config = LoadPointRequest(r, &tag);
      VIXNOC_REQUIRE(config.has_value(), "frame is not a point request");
    } catch (const SimError& e) {
      std::fprintf(stderr, "vixnoc_sweep_worker: undecodable point: %s\n",
                   e.what());
      return 4;
    }
    ApplyTestHooks(tag);

    // Same per-point error contract as SweepRunner's worker threads: a
    // recoverable simulation error becomes a failed result slot, and the
    // worker stays alive for the next point.
    PointReply reply;
    reply.status = ServeStatus::kOk;
    reply.source = ServeSource::kComputed;
    reply.result_key = NetworkSimResultKey(*config);
    reply.result = ResultOrErrorSlot([&] { return RunNetworkSim(*config); });

    std::string error;
    if (!WriteFrame(STDOUT_FILENO, EncodePointReply(reply), &error)) {
      std::fprintf(stderr, "vixnoc_sweep_worker: cannot write reply: %s\n",
                   error.c_str());
      return 5;
    }
  }
}

}  // namespace
}  // namespace vixnoc

int main() { return vixnoc::WorkerMain(); }
