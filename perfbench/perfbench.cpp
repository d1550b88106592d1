// vixnoc_perfbench: the benchmark program behind BENCHMARK.json.
//
// One process runs one workload. A workload is a traffic regime — a sweep
// batch plus a seeded generator of short distinct points — driven through
// every execution path vixnoc offers:
//
//   1. the in-process SweepRunner              -> sweep_wall_s
//   2. the process-isolated SweepCoordinator   -> process_sweep_wall_s
//   3. an in-process SimDaemon on a fresh store, served to closed-loop
//      SimClients: stored batch points       -> requests_per_s
//                  distinct new points       -> miss_p50_ms
//
// and finally re-runs points directly through RunNetworkSim. The correctness
// gate requires every path to return bitwise the same result for a point,
// and every simulated point to match the digest pinned in
// pinned_digests.txt. --seed picks the request streams, never a point's
// simulation seed, so the pins hold at every seed.
//
// Usage (normally through run.py, which builds this binary first):
//
//   vixnoc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//       [--tiny] [--inject-fault] [--worker PATH] [--out-dir DIR]
//       [--digests FILE] [--pin-out FILE] [--commit STR]
//
// The last stdout line is the result record
//   {"correct":..,"attempted":..,"failed":..,
//    "metrics":{NAME:{"value":..,"unit":..}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// derived from the spans of a traced run (--trace 1). The line before it
// is the provenance record. README.md lists every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc/switch_allocator.hpp"
#include "common/rng.hpp"
#include "exec/coordinator.hpp"
#include "network/network.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "server/server_protocol.hpp"
#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"
#include "snapshot/snapshot.hpp"
#include "store/result_store.hpp"
#include "topology/topology.hpp"
#include "traffic/patterns.hpp"

namespace fs = std::filesystem;
using namespace vixnoc;

namespace {

using Clock = std::chrono::steady_clock;

// The simulation seed of every point (bench_fig8_mesh_latency's too), and
// the default --seed.
constexpr std::uint64_t kDefaultSeed = 1;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
  }
  return total;
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull));
  return sm.Next();
}

/// Linear-interpolated quantile; NaN on an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into each layer's public API.
// Kept in memory, written out when the run ends, and the only source of the
// per-layer metrics.

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<const char*, double>> attrs;

  double Ns() const { return static_cast<double>(end_ns - start_ns); }
  double Attr(std::string_view key) const {
    for (const auto& [k, v] : attrs) {
      if (key == k) return v;
    }
    return std::nan("");
  }
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  std::uint64_t NextId() { return next_id_.fetch_add(1); }
  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  /// Call the accessors only once every traced thread has finished.
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<const Span*> Named(std::string_view name) const {
    std::vector<const Span*> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(&s);
    }
    return out;
  }
  std::vector<double> DurationsNs(std::string_view name) const {
    std::vector<double> out;
    for (const Span* s : Named(name)) out.push_back(s->Ns());
    return out;
  }
  void Write(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    out << header << "\n";
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns;
      for (const auto& [k, v] : s.attrs) out << ",\"" << k << "\":" << v;
      out << "}\n";
    }
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;
thread_local std::uint64_t t_current_span = 0;

/// Records one span when tracing is on; a single branch when it is off.
/// The parent is the enclosing span on this thread unless given.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t parent = 0) {
    if (!g_tracer.enabled()) return;
    active_ = true;
    span_.name = name;
    span_.id = g_tracer.NextId();
    span_.parent = parent != 0 ? parent : t_current_span;
    saved_ = t_current_span;
    t_current_span = span_.id;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = NowNs();
    t_current_span = saved_;
    g_tracer.Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Attr(const char* key, double value) {
    if (active_) span_.attrs.emplace_back(key, value);
  }
  std::uint64_t id() const { return active_ ? span_.id : 0; }

 private:
  bool active_ = false;
  Span span_;
  std::uint64_t saved_ = 0;
};

// ---------------------------------------------------------------------------
// Correctness gate.

/// Digest pinned per point: accepted throughput, average and p99 latency,
/// the activity counters and the outcome.
std::uint64_t ResultDigest(const NetworkSimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto u64 = [&](std::uint64_t v) { h = Fnv1a64(&v, sizeof v, h); };
  const auto f64 = [&](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  };
  f64(r.accepted_ppc);
  f64(r.avg_latency);
  f64(r.p99_latency);
  const RouterActivity& a = r.activity;
  for (std::uint64_t v :
       {a.buffer_writes, a.buffer_reads, a.xbar_traversals, a.link_flits,
        a.sa_requests, a.sa_grants, a.va_requests, a.va_grants, a.cycles,
        a.cycles_with_requests}) {
    u64(v);
  }
  u64(static_cast<std::uint64_t>(r.outcome.status));
  u64(r.outcome.cycle);
  h = Fnv1a64(r.outcome.message.data(), r.outcome.message.size(), h);
  return h;
}

/// Every serialized field of a result, for bitwise cross-path comparison.
std::string ResultBytes(const NetworkSimResult& r) {
  SnapshotWriter w;
  w.BeginSection("result");
  SaveNetworkSimResult(w, r);
  w.EndSection();
  return w.Finish(0);
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Label(const NetworkSimConfig& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s/%s/pattern%d/%s/rate%g/seed%llu/cycles%llu",
                ToString(c.topology).c_str(), ToString(c.scheme).c_str(),
                static_cast<int>(c.pattern), c.routing.c_str(),
                c.injection_rate, static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(c.warmup + c.measure +
                                                c.drain));
  return buf;
}

enum class PinPolicy { kNone, kIfPinned, kRequired };

/// Counts operations and failures. A failed operation is never measured:
/// callers drop its timing sample.
class Gate {
 public:
  Gate(std::map<std::uint64_t, std::uint64_t> pins, bool inject_fault)
      : pins_(std::move(pins)), inject_fault_(inject_fault) {}

  /// One result of `path` for `config`. Fails on an error slot, on any byte
  /// differing from the first path's result for the same point, and on a
  /// pinned-digest mismatch. Returns whether the operation passed.
  bool Check(const char* path, const NetworkSimConfig& config,
             const NetworkSimResult& result,
             PinPolicy pin = PinPolicy::kNone) {
    if (!result.outcome.ok()) {
      return Fail(std::string(path) + ": " + Label(config) + " ended " +
                  ToString(result.outcome.status) + ": " +
                  result.outcome.message);
    }
    const std::uint64_t key = NetworkSimResultKey(config);
    std::string bytes = ResultBytes(result);
    const std::uint64_t digest = ResultDigest(result);
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    const auto it = first_.find(key);
    if (it == first_.end()) {
      first_.emplace(key, std::make_pair(std::string(path), std::move(bytes)));
    } else if (it->second.second != bytes) {
      return FailLocked(std::string(path) + ": " + Label(config) +
                        " differs bitwise from the " + it->second.first +
                        " result");
    }
    if (pin == PinPolicy::kNone) return true;
    verified_[key] = digest;
    std::uint64_t expected = digest;
    const auto p = pins_.find(key);
    if (p != pins_.end()) {
      expected = p->second;
    } else if (pin == PinPolicy::kRequired) {
      return FailLocked(std::string(path) + ": " + Label(config) +
                        " has no pinned digest (key " + Hex(key) + ")");
    }
    if (inject_fault_) {
      inject_fault_ = false;
      expected ^= 1;  // the self-test's deliberate digest mismatch
    }
    if (expected != digest) {
      return FailLocked(std::string(path) + ": " + Label(config) +
                        " digest " + Hex(digest) + " != pinned " +
                        Hex(expected));
    }
    return true;
  }

  /// A reply for a stored point, against the bytes of the pinned result
  /// that was stored. Cheaper than Check and lock-free on success, for the
  /// timed loop of store reads.
  bool CheckStored(const NetworkSimConfig& config, const std::string& stored,
                   const NetworkSimResult& result) {
    if (ResultBytes(result) == stored) {
      ++attempted_;
      return true;
    }
    return Fail("daemon: " + Label(config) +
                " differs bitwise from the stored result");
  }

  /// An operation that failed outright (transport error, retry-after,
  /// non-kOk reply, in-process fallback of an isolated point).
  bool Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    return FailLocked(why);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Key -> digest of every point checked against the pins.
  const std::map<std::uint64_t, std::uint64_t>& verified() const {
    return verified_;
  }

 private:
  bool FailLocked(const std::string& why) {
    if (++failed_ <= 20) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
    }
    return false;
  }

  std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> pins_;
  bool inject_fault_;
  std::map<std::uint64_t, std::pair<std::string, std::string>> first_;
  std::map<std::uint64_t, std::uint64_t> verified_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

std::map<std::uint64_t, std::uint64_t> LoadPins(const std::string& path) {
  std::map<std::uint64_t, std::uint64_t> pins;
  std::ifstream in(path);
  std::string key, digest;
  while (in >> key >> digest) {
    pins[std::stoull(key, nullptr, 16)] = std::stoull(digest, nullptr, 16);
  }
  return pins;
}

// ---------------------------------------------------------------------------
// Workloads.

constexpr AllocScheme kFig8Schemes[] = {
    AllocScheme::kInputFirst, AllocScheme::kWavefront,
    AllocScheme::kAugmentingPath, AllocScheme::kVix};

/// Distinct short points a workload can ask the daemon to compute. A run
/// draws its misses from this pool in a seeded order, so every miss is a
/// pinned point; a run that exhausts the pool stops requesting misses.
constexpr std::size_t kMissPool = 1024;

struct Workload {
  std::vector<NetworkSimConfig> batch;
  /// The pool of distinct short points clients request as misses.
  std::vector<NetworkSimConfig> misses;
  /// Share of the measuring time spent serving requests (the rest sweeps).
  double service_share = 0.0;
};

/// Fig 8's methodology: 5k warmup, 20k measured, 3k drain cycles.
NetworkSimConfig Fig8Point(AllocScheme scheme, double rate, bool tiny) {
  NetworkSimConfig c;
  c.scheme = scheme;
  c.injection_rate = rate;
  c.seed = kDefaultSeed;
  c.warmup = tiny ? 200 : 5'000;
  c.measure = tiny ? 800 : 20'000;
  c.drain = tiny ? 200 : 3'000;
  return c;
}

/// A service-sized point: 3k cycles in all.
NetworkSimConfig ShortPoint(TopologyKind topo, AllocScheme scheme, double rate,
                            std::uint64_t seed, bool tiny) {
  NetworkSimConfig c;
  c.topology = topo;
  c.scheme = scheme;
  c.injection_rate = rate;
  c.seed = seed;
  c.warmup = tiny ? 100 : 500;
  c.measure = tiny ? 300 : 2'000;
  c.drain = tiny ? 100 : 500;
  return c;
}

bool MakeWorkload(const std::string& name, bool tiny, Workload* w) {
  const auto scheme_of = [](std::uint64_t i) { return kFig8Schemes[i % 4]; };
  std::function<NetworkSimConfig(std::uint64_t)> miss;
  if (name == "sweep_lowload") {
    // Fig 8's mesh points below the knee, heaviest rate first so the pool
    // does not end on a long straggler.
    for (double rate : {0.08, 0.06, 0.04, 0.02}) {
      for (AllocScheme s : kFig8Schemes) {
        w->batch.push_back(Fig8Point(s, rate, tiny));
      }
    }
    miss = [&](std::uint64_t i) {
      const double rates[] = {0.02, 0.04, 0.06, 0.08};
      return ShortPoint(TopologyKind::kMesh, scheme_of(i), rates[(i / 4) % 4],
                        Mix(kDefaultSeed, i), tiny);
    };
    w->service_share = 0.45;
  } else if (name == "sweep_saturated") {
    // Off-mesh saturation points first (longest), then Fig 8's points past
    // the knee (the accuracy metrics' inputs).
    NetworkSimConfig cmesh = Fig8Point(AllocScheme::kVix, 0.25, tiny);
    cmesh.topology = TopologyKind::kCMesh;
    NetworkSimConfig fbfly = cmesh;
    fbfly.topology = TopologyKind::kFBfly;
    NetworkSimConfig transpose = Fig8Point(AllocScheme::kVix, 0.12, tiny);
    transpose.pattern = PatternKind::kTranspose;
    transpose.routing = "adaptive_min";
    w->batch = {cmesh, fbfly, transpose};
    for (double rate : {0.12, 0.11, 0.10}) {
      for (AllocScheme s : kFig8Schemes) {
        w->batch.push_back(Fig8Point(s, rate, tiny));
      }
    }
    miss = [&](std::uint64_t i) {
      const double rates[] = {0.10, 0.11, 0.12};
      return ShortPoint(TopologyKind::kMesh, scheme_of(i), rates[(i / 4) % 3],
                        Mix(kDefaultSeed, i), tiny);
    };
    w->service_share = 0.25;
  } else if (name == "service_mixed") {
    // The stored set clients re-read: short points over two topologies,
    // the four schemes and three loads.
    std::uint64_t i = 0;
    for (TopologyKind topo : {TopologyKind::kMesh, TopologyKind::kCMesh}) {
      for (double rate : {0.09, 0.06, 0.03}) {
        for (AllocScheme s : kFig8Schemes) {
          w->batch.push_back(
              ShortPoint(topo, s, rate, Mix(kDefaultSeed, 1000 + i++), tiny));
        }
      }
    }
    miss = [&](std::uint64_t i) {
      const double rates[] = {0.03, 0.06, 0.09};
      return ShortPoint(i % 2 == 0 ? TopologyKind::kMesh : TopologyKind::kCMesh,
                        scheme_of(i / 2), rates[(i / 8) % 3],
                        Mix(kDefaultSeed, i), tiny);
    };
    w->service_share = 0.7;
  } else {
    return false;
  }
  for (std::uint64_t i = 0; i < kMissPool; ++i) w->misses.push_back(miss(i));
  if (tiny) w->batch.resize(4);
  return true;
}

int RadixOf(TopologyKind topo) {
  switch (topo) {
    case TopologyKind::kCMesh: return 8;
    case TopologyKind::kFBfly: return 10;
    default: return 5;
  }
}

/// Router-cycles simulated by a whole point (the activity counters cover the
/// measurement window only).
double RouterCycles(const NetworkSimConfig& c, const NetworkSimResult& r) {
  if (c.measure == 0) return 0.0;
  return static_cast<double>(r.activity.cycles) *
         static_cast<double>(c.warmup + c.measure + c.drain) /
         static_cast<double>(c.measure);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool inject_fault = false;
  std::string worker;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string digests;
  std::string pin_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") { a->tiny = true; continue; }
    if (k == "--inject-fault") { a->inject_fault = true; continue; }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--worker") a->worker = v;
    else if (k == "--out-dir") a->out_dir = v;
    else if (k == "--digests") a->digests = v;
    else if (k == "--pin-out") a->pin_out = v;
    else if (k == "--commit") a->commit = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

// ---------------------------------------------------------------------------
// The run.

struct Rig {
  std::unique_ptr<SweepRunner> runner;
  std::unique_ptr<SweepCoordinator> coordinator;
  std::unique_ptr<SimDaemon> daemon;
  std::vector<std::unique_ptr<SimClient>> clients;

  void Stop() {
    clients.clear();
    if (daemon) daemon->Stop();
    daemon.reset();
    coordinator.reset();
    runner.reset();
  }
};

/// Starts the pool, the coordinator, the daemon on a fresh store and the
/// clients' connections, then has each path serve its first points: one
/// per pool thread and worker process, one per client.
Rig StartRig(int threads, const ExecPolicy& policy, const std::string& dir,
             int daemon_threads, int clients,
             const std::vector<NetworkSimConfig>& first_points, PinPolicy pin,
             Gate* gate) {
  ScopedSpan span("setup.Start");
  Rig rig;
  rig.runner = std::make_unique<SweepRunner>(threads);
  rig.coordinator = std::make_unique<SweepCoordinator>(policy);
  DaemonConfig dc;
  dc.socket_path = dir + "/d.sock";
  dc.store_dir = dir + "/store";
  dc.threads = daemon_threads;
  rig.daemon = std::make_unique<SimDaemon>(dc);
  rig.daemon->Start();
  for (int c = 0; c < clients; ++c) {
    rig.clients.push_back(std::make_unique<SimClient>(dc.socket_path, 10.0));
  }
  const std::vector<NetworkSimResult> pooled = rig.runner->Run(first_points);
  const SweepExecResult isolated = rig.coordinator->Run(first_points);
  for (std::size_t i = 0; i < first_points.size(); ++i) {
    gate->Check("thread", first_points[i], pooled[i], pin);
    if (isolated.points[i].in_process_fallback) {
      gate->Fail("process: " + Label(first_points[i]) +
                 " fell back to the in-process path");
    } else {
      gate->Check("process", first_points[i], isolated.results[i]);
    }
  }
  for (int c = 0; c < clients; ++c) {
    const NetworkSimConfig& p = first_points[c % first_points.size()];
    const PointReply reply = rig.clients[c]->Point(p);
    if (reply.status != ServeStatus::kOk) {
      gate->Fail("daemon: first point replied " + ToString(reply.status));
    } else {
      gate->Check("daemon", p, reply.result);
    }
  }
  return rig;
}

struct ActivitySum {
  double sa_requests = 0, sa_grants = 0, va_requests = 0, va_grants = 0;
  double cycles = 0, cycles_with_requests = 0;
  double input_vc_cycles = 0;  ///< router-cycles x input ports x VCs

  void Add(const RouterActivity& a, const NetworkSimConfig& c) {
    input_vc_cycles += static_cast<double>(a.cycles) * RadixOf(c.topology) *
                       c.num_vcs;
    sa_requests += static_cast<double>(a.sa_requests);
    sa_grants += static_cast<double>(a.sa_grants);
    va_requests += static_cast<double>(a.va_requests);
    va_grants += static_cast<double>(a.va_grants);
    cycles += static_cast<double>(a.cycles);
    cycles_with_requests += static_cast<double>(a.cycles_with_requests);
  }
};

/// Runs `configs` directly through RunNetworkSim on `threads` benchmark
/// threads, one span per point.
std::vector<NetworkSimResult> RunDirect(
    const std::vector<NetworkSimConfig>& configs, int threads) {
  ScopedSpan span("sim.DirectPass");
  const std::uint64_t parent = span.id();
  std::vector<NetworkSimResult> results(configs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < configs.size(); i = next++) {
        ScopedSpan point("sim.RunNetworkSim", parent);
        try {
          results[i] = RunNetworkSim(configs[i]);
        } catch (const std::exception& e) {
          results[i].outcome.status = SimStatus::kInvariantViolation;
          results[i].outcome.message = e.what();
        }
        point.Attr("index", static_cast<double>(i));
        point.Attr("router_cycles", RouterCycles(configs[i], results[i]));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return results;
}

/// Host ns per Allocate call at request density `density` (the share of
/// (input port, VC) pairs requesting in a router-cycle).
void ProbeAllocate(const char* span_name, AllocScheme scheme, int radix,
                   double density, std::uint64_t seed, bool tiny) {
  constexpr int kVcs = 6;
  SwitchGeometry geom;
  geom.num_inports = radix;
  geom.num_outports = radix;
  geom.num_vcs = kVcs;
  geom.num_vins = VirtualInputsForScheme(scheme, kVcs);
  auto alloc = MakeSwitchAllocator(scheme, geom);
  Rng rng(Mix(seed, static_cast<std::uint64_t>(radix) * 16 +
                        static_cast<std::uint64_t>(scheme)));
  std::vector<std::vector<SaRequest>> pool(256);
  for (auto& reqs : pool) {
    for (PortId in = 0; in < radix; ++in) {
      for (VcId vc = 0; vc < kVcs; ++vc) {
        if (rng.NextBool(density)) {
          reqs.push_back({in, vc, static_cast<PortId>(rng.NextBounded(radix))});
        }
      }
    }
  }
  std::vector<SaGrant> grants;
  for (int i = 0; i < 4096; ++i) {
    alloc->Allocate(pool[i % pool.size()], &grants);
  }
  const int calls = tiny ? 20'000 : 200'000;
  std::size_t granted = 0;
  ScopedSpan span(span_name);
  for (int i = 0; i < calls; ++i) {
    alloc->Allocate(pool[i % pool.size()], &grants);
    granted += grants.size();
  }
  span.Attr("calls", calls);
  span.Attr("density", density);
  span.Attr("grants", static_cast<double>(granted));
}

/// Times Network::Step on a benchmark-driven network shaped like `c`,
/// injecting Bernoulli(c.injection_rate) uniform traffic itself.
void ProbeNetworkStep(const NetworkSimConfig& c, bool tiny) {
  std::shared_ptr<Topology> topo = MakeTopology64(c.topology);
  NetworkParams params;
  params.router.radix = topo->Radix();
  params.router.num_vcs = c.num_vcs;
  params.router.buffer_depth = c.buffer_depth;
  params.router.scheme = c.scheme;
  params.router.arbiter_kind = c.arbiter;
  params.router.vc_policy = RouterConfig::DefaultPolicyFor(c.scheme);
  params.router.vc_rng_seed = c.seed;
  Network net(topo, params);
  auto pattern = MakePattern(PatternKind::kUniform);
  Rng rng(c.seed);
  const int nodes = net.NumNodes();
  const int warm = tiny ? 200 : 2'000;
  const int timed = tiny ? 300 : 4'000;
  ScopedSpan drive("network.Drive");
  drive.Attr("routers", net.NumRouters());
  for (int t = 0; t < warm + timed; ++t) {
    for (NodeId n = 0; n < nodes; ++n) {
      if (rng.NextBool(c.injection_rate)) {
        net.EnqueuePacket(n, pattern->Dest(n, nodes, rng), c.packet_size);
      }
    }
    if (t < warm) {
      net.Step();
    } else {
      ScopedSpan step("network.Step");
      net.Step();
    }
  }
}

int Run(const Args& args) {
  Workload w;
  if (!MakeWorkload(args.workload, args.tiny, &w)) {
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (sweep_lowload, "
                 "sweep_saturated, service_mixed)\n",
                 args.workload.c_str());
    return 2;
  }
  const int threads = ResolveThreadCount(0);
  const int clients = std::clamp(threads / 2, 1, 4);
  const int daemon_threads = clients;
  // Tiny runs change every point's cycle counts, so nothing is pinned.
  const PinPolicy pinned = args.tiny ? PinPolicy::kIfPinned
                                     : PinPolicy::kRequired;
  Gate gate(LoadPins(args.digests), args.inject_fault);
  g_tracer.set_enabled(args.trace);

  // The seed orders the miss pool; the k-th miss of the run is
  // w.misses[miss_order[k]].
  std::vector<std::size_t> miss_order(w.misses.size());
  for (std::size_t i = 0; i < miss_order.size(); ++i) miss_order[i] = i;
  {
    Rng rng(Mix(args.seed, 99));
    for (std::size_t i = miss_order.size(); i > 1; --i) {
      std::swap(miss_order[i - 1], miss_order[rng.NextBounded(i)]);
    }
  }

  const std::string run_dir =
      args.out_dir + "/run-" + std::to_string(::getpid());
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);

  ExecPolicy policy;
  policy.num_workers = threads;
  policy.worker_path = args.worker;

  // --- Set-up. The first rig serves the run; more are started and stopped
  // between the sweep steps, so the set-up samples span the run as the
  // other metrics' samples do. Every rig serves the same first points,
  // 100-cycle cuts of the first pool points.
  constexpr std::size_t kSetupPoints = 16;
  const auto setup_point = [&](std::size_t i) {
    NetworkSimConfig c = w.misses[i % kSetupPoints];
    c.warmup = 20;
    c.measure = 60;
    c.drain = 20;
    return c;
  };
  std::vector<NetworkSimConfig> first_points;
  for (int i = 0; i < threads; ++i) {
    first_points.push_back(setup_point(static_cast<std::size_t>(i)));
  }
  const std::size_t setup_reps = args.tiny ? 2 : 21;
  std::vector<double> setup_s;
  const auto start_rig = [&] {
    const std::string dir = run_dir + "/rig" + std::to_string(setup_s.size());
    fs::create_directories(dir);
    const auto t0 = Clock::now();
    Rig started = StartRig(threads, policy, dir, daemon_threads, clients,
                           first_points, pinned, &gate);
    setup_s.push_back(SecondsSince(t0));
    return started;
  };
  const auto sample_setup = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) start_rig().Stop();
  };
  Rig rig = start_rig();

  const auto measure_t0 = Clock::now();
  const double cpu_t0 = CpuSeconds();
  std::optional<ScopedSpan> measure_span;
  measure_span.emplace("run.Measure");

  // --- Service: closed-loop clients against the daemon. -------------------
  // Served in slices between the sweep steps, so that the sweep and the
  // service metrics both sample the whole run. A slice is two phases of
  // equal length, after the warm-cache recipe in EXPERIMENTS.md: clients
  // re-run the stored batch (hits, requests_per_s), then ask for points
  // never computed before (misses, miss_p50_ms). In the miss phase every
  // 4th round opens with one point all clients ask for at once: one
  // computes it, the others join the in-flight computation.
  constexpr std::uint64_t kPairEvery = 4;
  // The bytes of every stored batch point, as the pinned first batch
  // returned them.
  std::vector<std::string> stored_bytes;
  // Stored points served per second in every window of every hit phase. A
  // phase runs in windows of about kHitWindowS; requests_per_s is the
  // median window's rate, so a host stall shorter than a window moves it
  // little.
  constexpr double kHitWindowS = 0.1;
  std::vector<double> hit_rates;
  // Each client re-runs the stored grid as one Batch request, the way a
  // bench or vixnoc_client re-runs a sweep against the daemon (the
  // warm-cache recipe in EXPERIMENTS.md), in an order its seeded stream
  // shuffles once. In a traced run the phase is recorded as a span whether
  // or not the requests inside it are traced.
  std::vector<std::vector<std::size_t>> client_order(clients);
  std::vector<std::vector<NetworkSimConfig>> client_grid(clients);
  for (int c = 0; c < clients; ++c) {
    Rng rng(Mix(args.seed, 500 + static_cast<std::uint64_t>(c)));
    for (std::size_t i = 0; i < w.batch.size(); ++i) {
      client_order[c].push_back(i);
    }
    for (std::size_t i = w.batch.size(); i > 1; --i) {
      std::swap(client_order[c][i - 1], client_order[c][rng.NextBounded(i)]);
    }
    for (std::size_t i : client_order[c]) client_grid[c].push_back(w.batch[i]);
  }
  const auto hit_phase = [&](double seconds, bool traced) {
    ScopedSpan span("server.HitPhase");
    if (!traced) g_tracer.set_enabled(false);
    const std::uint64_t parent = t_current_span;
    const int windows = std::max(1, static_cast<int>(seconds / kHitWindowS));
    std::uint64_t phase_ok = 0;
    for (int win = 0; win < windows; ++win) {
      std::atomic<std::uint64_t> ok{0};
      const auto t0 = Clock::now();
      std::vector<std::thread> pool;
      for (int c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
          t_current_span = parent;
          const std::vector<NetworkSimConfig>& grid = client_grid[c];
          do {
            std::vector<PointReply> replies;
            {
              ScopedSpan rt("server.Batch");
              rt.Attr("points", static_cast<double>(grid.size()));
              try {
                replies = rig.clients[c]->Batch(grid);
              } catch (const std::exception& e) {
                gate.Fail(std::string("daemon: batch: ") + e.what());
                continue;
              }
            }
            for (std::size_t k = 0; k < replies.size(); ++k) {
              const std::size_t i = client_order[c][k];
              const PointReply& reply = replies[k];
              if (reply.status != ServeStatus::kOk) {
                gate.Fail("daemon: " + Label(w.batch[i]) + " replied " +
                          ToString(reply.status) + ": " + reply.message);
              } else if (reply.source != ServeSource::kStore) {
                gate.Fail("daemon: stored point " + Label(w.batch[i]) +
                          " was " + ToString(reply.source) +
                          ", not read from the store");
              } else if (gate.CheckStored(w.batch[i], stored_bytes[i],
                                          reply.result)) {
                ++ok;
              }
            }
          } while (SecondsSince(t0) < seconds / windows);
        });
      }
      for (std::thread& t : pool) t.join();
      hit_rates.push_back(static_cast<double>(ok) / SecondsSince(t0));
      phase_ok += ok;
    }
    g_tracer.set_enabled(args.trace);
    span.Attr("traced", traced ? 1 : 0);
    span.Attr("requests", static_cast<double>(phase_ok));
  };

  std::vector<double> miss_ms;
  std::uint64_t next_round = 0;
  // Round r takes pool slots r*(clients+1) .. r*(clients+1)+clients: one per
  // client, and the last for the shared point.
  const auto rounds_left = [&](std::uint64_t round) {
    return (round + 1) * static_cast<std::uint64_t>(clients + 1) <=
           miss_order.size();
  };
  const auto miss_phase = [&](double seconds) {
    if (!rounds_left(next_round)) return;
    ScopedSpan span("server.MissPhase");
    span.Attr("first_round", static_cast<double>(next_round));
    const auto t0 = Clock::now();
    std::atomic<bool> stop{false};
    std::uint64_t round = next_round;
    bool first = true;
    std::barrier round_barrier(clients, [&]() noexcept {
      if (!first) ++round;
      first = false;
      if ((round > next_round && SecondsSince(t0) >= seconds) ||
          !rounds_left(round)) {
        stop = true;
      }
    });
    const std::uint64_t parent = t_current_span;
    std::mutex mu;
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        t_current_span = parent;
        std::vector<double> local_ms;
        const auto ask = [&](std::uint64_t slot) {
          const NetworkSimConfig& config = w.misses[miss_order[slot]];
          PointReply reply;
          double ms = 0.0;
          {
            ScopedSpan span("server.Point");
            const auto start = Clock::now();
            try {
              reply = rig.clients[c]->Point(config);
            } catch (const std::exception& e) {
              gate.Fail("daemon: " + Label(config) + ": " + e.what());
              return;
            }
            ms = 1e3 * SecondsSince(start);
            span.Attr("source", static_cast<double>(reply.source));
          }
          if (reply.status != ServeStatus::kOk) {
            gate.Fail("daemon: " + Label(config) + " replied " +
                      ToString(reply.status) + ": " + reply.message);
          } else if (gate.Check("daemon", config, reply.result, pinned) &&
                     reply.source != ServeSource::kStore) {
            local_ms.push_back(ms);
          }
        };
        for (;;) {
          round_barrier.arrive_and_wait();
          if (stop) break;
          const std::uint64_t base =
              round * static_cast<std::uint64_t>(clients + 1);
          if (round % kPairEvery == 0) ask(base + clients);
          ask(base + c);
        }
        std::lock_guard<std::mutex> lock(mu);
        miss_ms.insert(miss_ms.end(), local_ms.begin(), local_ms.end());
      });
    }
    for (std::thread& t : pool) t.join();
    next_round = round;
  };

  // In a traced run each hit phase is split into a traced and an untraced
  // half, in alternating order, for trace.overhead_ratio.
  const auto serve = [&](double seconds, int step) {
    if (!args.trace) {
      hit_phase(0.5 * seconds, false);
    } else {
      hit_phase(0.25 * seconds, step % 2 == 0);
      hit_phase(0.25 * seconds, step % 2 != 0);
    }
    miss_phase(0.5 * seconds);
  };

  // --- Sweeps: in-process and process-isolated batches, alternating. ------
  // A step runs the batch once on one path, then serves a slice sized so the
  // service gets its share of the time. A step starts only while it would
  // end nearer to --seconds than it started, judged by the time its path
  // and slice took last.
  const double slice_ratio = w.service_share / (1.0 - w.service_share);
  std::vector<double> thread_wall, process_wall;
  std::vector<NetworkSimResult> batch_results;
  ActivitySum activity;
  std::map<std::pair<AllocScheme, int>, ActivitySum> activity_by_alloc;
  double last_wall[2] = {0.0, 0.0};
  for (int step = 0;; ++step) {
    const int path = step % 2;  // 0: SweepRunner, 1: SweepCoordinator
    const double next_step_s = last_wall[path] * (1.0 + slice_ratio);
    if (step >= 2 &&
        SecondsSince(measure_t0) + 0.5 * next_step_s > args.seconds) {
      break;
    }
    const auto t0 = Clock::now();
    if (path == 0) {
      ScopedSpan span("sim.SweepRunner.Run");
      span.Attr("points", static_cast<double>(w.batch.size()));
      std::vector<NetworkSimResult> results = rig.runner->Run(w.batch);
      last_wall[0] = SecondsSince(t0);
      // The first batch is checked against the pins, point by point.
      const PinPolicy pin = step > 0 ? PinPolicy::kNone : pinned;
      bool ok = true;
      for (std::size_t i = 0; i < w.batch.size(); ++i) {
        ok &= gate.Check("thread", w.batch[i], results[i], pin);
      }
      if (ok) thread_wall.push_back(last_wall[0]);
      if (step == 0) {
        // The daemon's stored set is the batch; warming it is not timed.
        for (std::size_t i = 0; i < w.batch.size(); ++i) {
          const NetworkSimConfig& c = w.batch[i];
          activity.Add(results[i].activity, c);
          activity_by_alloc[{c.scheme, RadixOf(c.topology)}].Add(
              results[i].activity, c);
          rig.daemon->store().Put(c, results[i]);
          stored_bytes.push_back(ResultBytes(results[i]));
        }
        batch_results = std::move(results);
        span.Attr("cycles", activity.cycles);
        span.Attr("cycles_with_requests", activity.cycles_with_requests);
        span.Attr("sa_requests", activity.sa_requests);
        span.Attr("sa_grants", activity.sa_grants);
        span.Attr("va_requests", activity.va_requests);
        span.Attr("va_grants", activity.va_grants);
      }
    } else {
      ScopedSpan span("exec.SweepCoordinator.Run");
      const SweepExecResult er = rig.coordinator->Run(w.batch);
      last_wall[1] = SecondsSince(t0);
      span.Attr("points", static_cast<double>(w.batch.size()));
      span.Attr("workers_spawned", static_cast<double>(er.workers_spawned));
      span.Attr("retries", static_cast<double>(er.retries));
      span.Attr("fallback_points", static_cast<double>(er.fallback_points));
      bool ok = true;
      for (std::size_t i = 0; i < w.batch.size(); ++i) {
        if (er.points[i].in_process_fallback) {
          ok = gate.Fail("process: " + Label(w.batch[i]) +
                         " fell back to the in-process path");
        } else {
          ok &= gate.Check("process", w.batch[i], er.results[i]);
        }
      }
      if (ok) process_wall.push_back(last_wall[1]);
    }
    serve(last_wall[path] * slice_ratio, step);
    if (!args.tiny) sample_setup(2);
  }
  if (setup_s.size() < setup_reps) sample_setup(setup_reps - setup_s.size());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  DaemonStats dstats;
  ResultStoreStats sstats;
  {
    ScopedSpan span("server.Stats");
    dstats = rig.daemon->stats();
    sstats = rig.daemon->store().stats();
    span.Attr("requests", static_cast<double>(dstats.requests));
    span.Attr("computed", static_cast<double>(dstats.computed_points));
    span.Attr("coalesced", static_cast<double>(dstats.coalesced_points));
    span.Attr("retry_after", static_cast<double>(dstats.retry_after_replies));
    span.Attr("store_hits", static_cast<double>(sstats.hits));
    span.Attr("store_misses", static_cast<double>(sstats.misses));
    span.Attr("store_defective", static_cast<double>(sstats.defective));
    span.Attr("store_bytes_written", static_cast<double>(sstats.bytes_written));
  }
  const double measure_s = SecondsSince(measure_t0);
  measure_span->Attr("cpu_s", CpuSeconds() - cpu_t0);
  measure_span->Attr("wall_s", measure_s);
  rig.Stop();

  // --- Direct re-runs: cross-path agreement and pinned digests. ----------
  // Batch points (all in a traced run, else four drawn from the seed), the
  // first miss round's points (served by the daemon too) and Fig 8's
  // headline points. Pinning re-runs the whole miss pool and every set-up
  // point as well, whatever this host's thread count.
  std::vector<NetworkSimConfig> direct = w.batch;
  if (!args.trace && args.pin_out.empty()) {
    Rng rng(Mix(args.seed, 77));
    for (std::size_t i = 0; i < 4 && i + 1 < direct.size(); ++i) {
      std::swap(direct[i], direct[i + rng.NextBounded(direct.size() - i)]);
    }
    direct.resize(std::min<std::size_t>(4, direct.size()));
  }
  if (args.pin_out.empty()) {
    for (int i = 0; i <= clients; ++i) {
      direct.push_back(w.misses[miss_order[static_cast<std::size_t>(i)]]);
    }
  } else {
    direct.insert(direct.end(), w.misses.begin(), w.misses.end());
    for (std::size_t i = 0; i < kSetupPoints; ++i) {
      direct.push_back(setup_point(i));
    }
  }
  const std::size_t fig8_at = direct.size();
  for (AllocScheme s : {AllocScheme::kInputFirst, AllocScheme::kAugmentingPath,
                        AllocScheme::kVix}) {
    direct.push_back(Fig8Point(s, 0.12, args.tiny));
  }
  const std::vector<NetworkSimResult> direct_results =
      RunDirect(direct, threads);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    gate.Check("direct", direct[i], direct_results[i], pinned);
  }
  const double t_if = direct_results[fig8_at].accepted_ppc;
  const double t_ap = direct_results[fig8_at + 1].accepted_ppc;
  const double t_vix = direct_results[fig8_at + 2].accepted_ppc;
  const double if_err = std::fabs(100.0 * (t_vix / t_if - 1.0) - 16.2);
  const double ap_err = std::fabs(100.0 * (t_vix / t_ap - 1.0) - 15.9);

  // --- Per-layer probes (traced run only). --------------------------------
  if (args.trace) {
    // Requests per input VC per router-cycle, as the batch measured it for
    // this scheme and radix, else as the whole batch measured it.
    const auto density = [&](AllocScheme s, int radix) {
      const auto it = activity_by_alloc.find({s, radix});
      const ActivitySum& a =
          it != activity_by_alloc.end() ? it->second : activity;
      return a.sa_requests / a.input_vc_cycles;
    };
    ProbeAllocate("alloc.Allocate.if_r5", AllocScheme::kInputFirst, 5,
                  density(AllocScheme::kInputFirst, 5), args.seed, args.tiny);
    ProbeAllocate("alloc.Allocate.wf_r5", AllocScheme::kWavefront, 5,
                  density(AllocScheme::kWavefront, 5), args.seed, args.tiny);
    ProbeAllocate("alloc.Allocate.ap_r5", AllocScheme::kAugmentingPath, 5,
                  density(AllocScheme::kAugmentingPath, 5), args.seed,
                  args.tiny);
    ProbeAllocate("alloc.Allocate.vix_r5", AllocScheme::kVix, 5,
                  density(AllocScheme::kVix, 5), args.seed, args.tiny);
    ProbeAllocate("alloc.Allocate.vix_r8", AllocScheme::kVix, 8,
                  density(AllocScheme::kVix, 8), args.seed, args.tiny);
    ProbeAllocate("alloc.Allocate.vix_r10", AllocScheme::kVix, 10,
                  density(AllocScheme::kVix, 10), args.seed, args.tiny);
    for (const NetworkSimConfig& c : w.batch) {
      if (c.scheme == AllocScheme::kVix && c.topology == TopologyKind::kMesh) {
        ProbeNetworkStep(c, args.tiny);
        break;
      }
    }
    const int reps = args.tiny ? 2 : 10;
    ResultStore probe_store(run_dir + "/probe-store");
    for (std::size_t i = 0; i < w.batch.size(); ++i) {
      const NetworkSimConfig& c = w.batch[i];
      const NetworkSimResult& r = batch_results[i];
      for (int rep = 0; rep < reps; ++rep) {
        std::string bytes;
        {
          ScopedSpan span("snapshot.EncodeResult");
          SnapshotWriter sw;
          sw.BeginSection("result");
          SaveNetworkSimResult(sw, r);
          sw.EndSection();
          bytes = sw.Finish(NetworkSimResultKey(c));
          span.Attr("bytes", static_cast<double>(bytes.size()));
        }
        {
          ScopedSpan span("snapshot.DecodeResult");
          SnapshotReader sr(bytes);
          sr.OpenSection("result");
          const NetworkSimResult back = LoadNetworkSimResult(sr);
          sr.CloseSection();
          span.Attr("packets", static_cast<double>(back.packets_measured));
        }
        {
          ScopedSpan span("server.Codec");
          const Request req = DecodeRequest(EncodePointRequest(c));
          PointReply reply;
          reply.status = ServeStatus::kOk;
          reply.source = ServeSource::kStore;
          reply.result_key = NetworkSimResultKey(req.configs.at(0));
          reply.result = r;
          const PointReply back = DecodePointReply(EncodePointReply(reply));
          span.Attr("ok", back.result_key == reply.result_key ? 1 : 0);
        }
      }
      {
        ScopedSpan span("store.Put");
        probe_store.Put(c, r);
      }
      for (int rep = 0; rep < reps; ++rep) {
        ScopedSpan span("store.LoadHit");
        NetworkSimResult out;
        span.Attr("status", static_cast<double>(probe_store.Load(c, &out)));
      }
      {
        ScopedSpan span("store.LoadMiss");
        NetworkSimResult out;
        span.Attr("status", static_cast<double>(
                                probe_store.Load(w.misses[i], &out)));
      }
    }
  }
  measure_span.reset();
  g_tracer.set_enabled(false);

  // --- Provenance and the result record. ----------------------------------
  char prov[1024];
  std::snprintf(
      prov, sizeof prov,
      "{\"provenance\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"tiny\":%d,\"cpu_model\":\"%s\",\"nproc\":%u,"
      "\"threads\":%d,\"clients\":%d,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"ndebug\":true,\"commit\":\"%s\"}}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace ? 1 : 0, args.tiny ? 1 : 0,
      JsonEscape(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      threads, clients, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      JsonEscape(args.commit).c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"sweep_wall_s", Median(thread_wall), "s"},
        {"process_sweep_wall_s", Median(process_wall), "s"},
        {"requests_per_s", Median(hit_rates), "1/s"},
        {"miss_p50_ms", Median(miss_ms), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"fig8_vix_if_gain_err_pp", if_err, "pp"},
        {"fig8_vix_ap_gain_err_pp", ap_err, "pp"},
    };
  } else {
    // Every per-layer metric is derived from the spans.
    const auto us = [](std::vector<double> ns) { return Median(ns) / 1e3; };
    std::map<std::string, double> alloc_ns;
    constexpr std::string_view kAllocPrefix = "alloc.Allocate.";
    for (const Span& s : g_tracer.spans()) {
      const std::string_view name = s.name;
      if (name.substr(0, kAllocPrefix.size()) == kAllocPrefix) {
        alloc_ns[std::string(name.substr(kAllocPrefix.size()))] =
            s.Ns() / s.Attr("calls");
      }
    }
    // Allocation's estimated share of point time: every router calls
    // Allocate once per cycle.
    const auto probe_key = [](const NetworkSimConfig& c) {
      const int r = RadixOf(c.topology);
      std::string k = c.scheme == AllocScheme::kInputFirst   ? "if"
                      : c.scheme == AllocScheme::kWavefront ? "wf"
                      : c.scheme == AllocScheme::kAugmentingPath ? "ap"
                                                                 : "vix";
      return k + "_r" + std::to_string(r);
    };
    // A traced run's direct list starts with the whole batch, in order.
    std::vector<double> point_s;
    double point_ns = 0, router_cycles = 0, alloc_ns_est = 0;
    for (const Span* s : g_tracer.Named("sim.RunNetworkSim")) {
      const auto i = static_cast<std::size_t>(s->Attr("index"));
      if (i >= w.batch.size()) continue;
      point_s.push_back(s->Ns() / 1e9);
      point_ns += s->Ns();
      router_cycles += s->Attr("router_cycles");
      const auto k = alloc_ns.find(probe_key(w.batch[i]));
      if (k != alloc_ns.end()) {
        alloc_ns_est += s->Attr("router_cycles") * k->second;
      }
    }
    const Span* sweep = g_tracer.Named("sim.SweepRunner.Run").at(0);
    const std::vector<double> step_ns = g_tracer.DurationsNs("network.Step");
    double routers = 0;
    for (const Span* s : g_tracer.Named("network.Drive")) {
      routers = s->Attr("routers");
    }
    double step_mean = 0;
    for (double v : step_ns) {
      step_mean += v / static_cast<double>(step_ns.size());
    }

    std::vector<double> runner_wall, coord_wall, workers, retries, fallbacks;
    for (const Span* s : g_tracer.Named("sim.SweepRunner.Run")) {
      runner_wall.push_back(s->Ns() / 1e9);
    }
    for (const Span* s : g_tracer.Named("exec.SweepCoordinator.Run")) {
      coord_wall.push_back(s->Ns() / 1e9);
      workers.push_back(s->Attr("workers_spawned"));
      retries.push_back(s->Attr("retries"));
      fallbacks.push_back(s->Attr("fallback_points"));
    }
    const double batch_n = static_cast<double>(w.batch.size());

    std::vector<double> enc_us, dec_us, bytes, codec_us;
    for (const Span* s : g_tracer.Named("snapshot.EncodeResult")) {
      enc_us.push_back(s->Ns() / 1e3);
      bytes.push_back(s->Attr("bytes"));
    }
    for (const Span* s : g_tracer.Named("snapshot.DecodeResult")) {
      dec_us.push_back(s->Ns() / 1e3);
    }
    for (const Span* s : g_tracer.Named("server.Codec")) {
      codec_us.push_back(s->Ns() / 1e3);
    }
    const double load_hit_us = us(g_tracer.DurationsNs("store.LoadHit"));
    // Round trip of a stored-grid Batch request, per point in it.
    std::vector<double> hit_rt_us;
    for (const Span* s : g_tracer.Named("server.Batch")) {
      hit_rt_us.push_back(s->Ns() / 1e3 / s->Attr("points"));
    }
    // Host seconds per stored point served, traced halves over untraced.
    double phase_ns[2] = {0, 0}, phase_requests[2] = {0, 0};
    for (const Span* s : g_tracer.Named("server.HitPhase")) {
      const int traced = s->Attr("traced") != 0 ? 1 : 0;
      phase_ns[traced] += s->Ns();
      phase_requests[traced] += s->Attr("requests");
    }
    const Span* stats = g_tracer.Named("server.Stats").at(0);
    // Share of the misses that joined an in-flight computation.
    const double missed =
        std::max(1.0, stats->Attr("computed") + stats->Attr("coalesced"));
    const double requests = std::max(1.0, stats->Attr("requests"));
    const Span* measure = g_tracer.Named("run.Measure").at(0);

    metrics = {
        {"alloc.ns_per_allocate.if_r5", alloc_ns["if_r5"], "ns"},
        {"alloc.ns_per_allocate.wf_r5", alloc_ns["wf_r5"], "ns"},
        {"alloc.ns_per_allocate.ap_r5", alloc_ns["ap_r5"], "ns"},
        {"alloc.ns_per_allocate.vix_r5", alloc_ns["vix_r5"], "ns"},
        {"alloc.ns_per_allocate.vix_r8", alloc_ns["vix_r8"], "ns"},
        {"alloc.ns_per_allocate.vix_r10", alloc_ns["vix_r10"], "ns"},
        {"alloc.est_share", alloc_ns_est / point_ns, "ratio"},
        {"router.busy_frac",
         sweep->Attr("cycles_with_requests") / sweep->Attr("cycles"), "ratio"},
        {"router.sa_grant_ratio",
         sweep->Attr("sa_grants") / sweep->Attr("sa_requests"), "ratio"},
        {"router.va_grant_ratio",
         sweep->Attr("va_grants") / sweep->Attr("va_requests"), "ratio"},
        {"network.step_ns.p50", Median(step_ns), "ns"},
        {"network.ns_per_router_cycle", step_mean / routers, "ns"},
        {"sim.point_s.p50", Median(point_s), "s"},
        {"sim.point_s.max", Quantile(point_s, 1.0), "s"},
        {"sim.router_cycles_per_s", router_cycles / (point_ns / 1e9), "1/s"},
        {"exec.overhead_ms_per_point",
         (Median(coord_wall) - Median(runner_wall)) * 1e3 / batch_n, "ms"},
        {"exec.workers_spawned", Median(workers), "count"},
        {"exec.retries", Median(retries), "count"},
        {"exec.fallback_points", Median(fallbacks), "count"},
        {"snapshot.result_encode_us", Median(enc_us), "us"},
        {"snapshot.result_decode_us", Median(dec_us), "us"},
        {"snapshot.result_bytes", Median(bytes), "bytes"},
        {"store.load_hit_us", load_hit_us, "us"},
        {"store.load_miss_us", us(g_tracer.DurationsNs("store.LoadMiss")),
         "us"},
        {"store.put_us", us(g_tracer.DurationsNs("store.Put")), "us"},
        {"server.codec_us", Median(codec_us), "us"},
        {"server.hit_wait_us",
         Median(hit_rt_us) - load_hit_us - Median(codec_us), "us"},
        {"server.hit_p50_us", Median(hit_rt_us), "us"},
        {"server.hit_p99_us", Quantile(hit_rt_us, 0.99), "us"},
        {"server.computed", stats->Attr("computed"), "count"},
        {"server.coalesced_frac", stats->Attr("coalesced") / missed, "ratio"},
        {"server.retry_after_frac", stats->Attr("retry_after") / requests,
         "ratio"},
        {"store.hits", stats->Attr("store_hits"), "count"},
        {"store.misses", stats->Attr("store_misses"), "count"},
        {"store.defective", stats->Attr("store_defective"), "count"},
        {"store.bytes_written", stats->Attr("store_bytes_written"), "bytes"},
        {"host.wall_over_cpu",
         measure->Attr("wall_s") / measure->Attr("cpu_s"), "ratio"},
        {"trace.overhead_ratio",
         (phase_ns[1] / phase_requests[1]) / (phase_ns[0] / phase_requests[0]),
         "ratio"},
    };
    g_tracer.Write(args.out_dir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".spans.jsonl",
                   prov);
  }

  if (!args.pin_out.empty()) {
    std::ofstream out(args.pin_out, std::ios::app);
    for (const auto& [key, digest] : gate.verified()) {
      out << Hex(key) << " " << Hex(digest) << "\n";
    }
  }
  fs::remove_all(run_dir);

  std::string line = "{\"correct\":";
  line += gate.failed() == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(gate.attempted());
  line += ",\"failed\":" + std::to_string(gate.failed());
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ",";
    line += "\"" + metrics[i].name + "\":{\"value\":" + Num(metrics[i].value) +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n%s\n", prov, line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to measure a build with asserts on "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) {
      std::fprintf(stderr,
                   "usage: vixnoc_perfbench --workload NAME --seed N "
                   "--seconds S --trace 0|1 [--tiny] [--inject-fault] "
                   "[--worker PATH] [--out-dir DIR] [--digests FILE] "
                   "[--pin-out FILE] [--commit STR]\n");
      return 2;
    }
    return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
