// vixnocd service layer: wire protocol, daemon serving semantics, and the
// real binary's signal-driven drain.
//
// The contracts under test: protocol frames round-trip and authenticate
// their content; a point served from the store is bitwise identical to
// the fresh computation (and to a local RunNetworkSim); N concurrent
// clients asking for one missing point trigger exactly one simulation
// (single-flight); a saturated daemon answers retry-after instead of
// queueing unboundedly; malformed frames get structured error replies;
// and SIGTERM on the real vixnocd process drains in-flight points —
// their replies still arrive — before a clean exit 0.
#include "server/daemon.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "exec/exec_protocol.hpp"
#include "routing/routing_algorithm.hpp"
#include "server/client.hpp"
#include "server/server_protocol.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

namespace fs = std::filesystem;

struct TempService {
  std::string root;
  std::string socket;
  std::string store;

  explicit TempService(const std::string& tag) {
    root = testing::TempDir() + "vixnoc_srv_" + tag + "_" +
           std::to_string(::getpid());
    fs::remove_all(root);
    fs::create_directories(root);
    socket = root + "/d.sock";
    store = root + "/store";
  }
  ~TempService() { fs::remove_all(root); }

  DaemonConfig Config() const {
    DaemonConfig c;
    c.socket_path = socket;
    c.store_dir = store;
    c.threads = 2;
    return c;
  }
};

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

// ---------------------------------------------------------------------------
// Protocol round-trips (no daemon).

/// A config that moves every wire field group off its default: forced link
/// faults, an explicit vc_policy, telemetry, bursts and pipeline knobs.
NetworkSimConfig NonDefaultConfig() {
  NetworkSimConfig c;
  c.topology = TopologyKind::kFBfly;
  c.scheme = AllocScheme::kVix;
  c.num_vcs = 4;
  c.buffer_depth = 3;
  c.packet_size = 2;
  c.injection_rate = 0.17;
  c.pattern = PatternKind::kTranspose;
  c.arbiter = ArbiterKind::kMatrix;
  c.vc_policy = VcAssignPolicy::kVixBalance;
  c.ap_rotate_vcs = false;
  c.pipeline_stages = 5;
  c.vix_virtual_inputs = 2;
  c.interleaved_vins = true;
  c.prioritize_nonspeculative = true;
  c.va_organization = VaOrganization::kSeparableArbitrated;
  c.atomic_vc_alloc = true;
  c.bursty = true;
  c.burst_on_rate = 0.4;
  c.mean_burst_cycles = 17.5;
  c.sample_interval = 123;
  c.faults.link_down_rate = 0.01;
  c.faults.forced_link_down = {{3, 1}, {7, 2}};
  c.faults.seed = 99;
  c.watchdog_cycles = 7'777;
  c.telemetry.enabled = true;
  c.telemetry.trace_sample_period = 5;
  c.seed = 42;
  c.warmup = 111;
  c.measure = 222;
  c.drain = 33;
  return c;
}

/// The SERENADE arm's incast point with its pattern knobs set.
NetworkSimConfig SerenadeIncastConfig() {
  NetworkSimConfig c = ShortConfig(0.05, 7);
  c.scheme = AllocScheme::kSerenade;
  c.pattern = PatternKind::kIncast;
  c.hotspot_node = 9;
  c.incast_fanin = 5;
  return c;
}

void ExpectSameWireConfig(const NetworkSimConfig& got,
                          const NetworkSimConfig& want) {
  // The fingerprint covers every evolution-relevant field and the result
  // key adds the observation knobs, so equal keys mean an equal
  // wire-visible config; the rest spells out the fields most likely to
  // drift.
  EXPECT_EQ(NetworkSimConfigFingerprint(got),
            NetworkSimConfigFingerprint(want));
  EXPECT_EQ(NetworkSimResultKey(got), NetworkSimResultKey(want));
  EXPECT_EQ(got.faults.forced_link_down, want.faults.forced_link_down);
  EXPECT_EQ(got.telemetry.enabled, want.telemetry.enabled);
  EXPECT_EQ(got.vc_policy, want.vc_policy);
  EXPECT_EQ(got.scheme, want.scheme);
  EXPECT_EQ(got.pattern, want.pattern);
  EXPECT_EQ(got.hotspot_node, want.hotspot_node);
  EXPECT_EQ(got.incast_fanin, want.incast_fanin);
}

/// Any corrupted byte must fail decode, not deliver a different record.
/// Flips every byte of the container header (magic, version, fingerprint,
/// section count: 24 bytes) and every 11th byte after it.
template <typename Decode>
void ExpectEveryFlipThrows(const std::string& payload, Decode decode) {
  for (std::size_t i = 0; i < payload.size(); i += i < 24 ? 1 : 11) {
    std::string bad = payload;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    EXPECT_THROW(decode(bad), SimError) << "byte " << i;
  }
}

/// A hand-built frame: `words` u64s in `section`, stamped with `fp`.
std::string HandFrame(const char* section, int words, std::uint64_t fp) {
  SnapshotWriter w;
  w.BeginSection(section);
  for (int i = 0; i < words; ++i) w.U64(static_cast<std::uint64_t>(i));
  w.EndSection();
  return w.Finish(fp);
}

TEST(ServerProtocolTest, PointRequestRoundTripsAndAuthenticates) {
  const ExecTag tag{17, 3};
  for (const NetworkSimConfig& config :
       {ShortConfig(0.07, 42), NonDefaultConfig(), SerenadeIncastConfig()}) {
    for (const ExecTag* sent : {static_cast<const ExecTag*>(nullptr), &tag}) {
      const std::string payload = EncodePointRequest(config, sent);
      // The daemon's view: the "exec" section rides along unread.
      const Request req = DecodeRequest(payload);
      EXPECT_EQ(req.kind, RequestKind::kPoint);
      ASSERT_EQ(req.configs.size(), 1u);
      ExpectSameWireConfig(req.configs[0], config);
      // The worker's view, through the same decoder: config plus tag.
      SnapshotReader r(payload);
      ExecTag got{99, 99};
      const std::optional<NetworkSimConfig> worker = LoadPointRequest(r, &got);
      ASSERT_TRUE(worker.has_value());
      ExpectSameWireConfig(*worker, config);
      EXPECT_EQ(got.index, sent != nullptr ? 17u : 0u);
      EXPECT_EQ(got.attempt, sent != nullptr ? 3u : 0u);
    }
  }

  // Live factory callbacks have no serialized form: refused at encode.
  NetworkSimConfig topology = ShortConfig();
  topology.topology_factory = [] { return MakeMesh(4, 4); };
  EXPECT_THROW((void)EncodePointRequest(topology), SimError);
  NetworkSimConfig routing = ShortConfig();
  routing.routing_factory =
      [](const Topology&) -> std::unique_ptr<RoutingAlgorithm> {
    return nullptr;
  };
  EXPECT_THROW((void)EncodePointRequest(routing), SimError);

  ExpectEveryFlipThrows(EncodePointRequest(ShortConfig(0.07, 42)),
                        [](const std::string& b) { (void)DecodeRequest(b); });
}

TEST(ServerProtocolTest, BatchAndControlFramesRoundTrip) {
  std::vector<NetworkSimConfig> configs = {ShortConfig(0.05),
                                           ShortConfig(0.06),
                                           ShortConfig(0.05)};
  const Request batch = DecodeRequest(EncodeBatchRequest(configs));
  EXPECT_EQ(batch.kind, RequestKind::kBatch);
  ASSERT_EQ(batch.configs.size(), 3u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(NetworkSimResultKey(batch.configs[i]),
              NetworkSimResultKey(configs[i]));
  }
  EXPECT_EQ(DecodeRequest(EncodeStatsRequest()).kind, RequestKind::kStats);
  EXPECT_EQ(DecodeRequest(EncodeShutdownRequest()).kind,
            RequestKind::kShutdown);

  // Control requests are authenticated: an empty section under the
  // control fingerprint decodes; a foreign fingerprint or a payload byte
  // in the section is refused.
  const std::uint64_t control = ControlFrameFingerprint();
  EXPECT_EQ(DecodeRequest(HandFrame("vixd_stats", 0, control)).kind,
            RequestKind::kStats);
  for (const char* section : {"vixd_stats", "vixd_shutdown"}) {
    EXPECT_THROW(DecodeRequest(HandFrame(section, 0, control ^ 1)), SimError)
        << section;
    EXPECT_THROW(DecodeRequest(HandFrame(section, 1, control)), SimError)
        << section;
  }

  // A checksum-valid frame whose count claims UINT32_MAX points with no
  // bytes behind it is refused before anything is reserved for it.
  SnapshotWriter hostile;
  hostile.BeginSection("vixd_batch");
  hostile.U64(UINT32_MAX);
  hostile.EndSection();
  EXPECT_THROW(DecodeRequest(hostile.Finish(0)), SimError);
}

TEST(ServerProtocolTest, PointReplyRoundTripsWithAndWithoutResult) {
  const NetworkSimConfig config = ShortConfig();
  PointReply ok;
  ok.status = ServeStatus::kOk;
  ok.result_key = NetworkSimResultKey(config);
  ok.result = RunNetworkSim(config);
  // kStore is a daemon hit; kComputed is also the sweep worker's reply.
  for (const ServeSource source : {ServeSource::kStore, ServeSource::kComputed}) {
    ok.source = source;
    const PointReply ok2 = DecodePointReply(EncodePointReply(ok));
    EXPECT_EQ(ok2.status, ServeStatus::kOk);
    EXPECT_EQ(ok2.source, source);
    EXPECT_EQ(ok2.result_key, ok.result_key);
    EXPECT_EQ(Bytes(ok2.result), Bytes(ok.result));
  }

  PointReply retry;
  retry.status = ServeStatus::kRetryAfter;
  retry.retry_after_seconds = 0.25;
  retry.message = "at capacity";
  const PointReply retry2 = DecodePointReply(EncodePointReply(retry));
  EXPECT_EQ(retry2.status, ServeStatus::kRetryAfter);
  EXPECT_DOUBLE_EQ(retry2.retry_after_seconds, 0.25);
  EXPECT_EQ(retry2.message, "at capacity");
  EXPECT_TRUE(IsPointReply(EncodePointReply(retry)));
  EXPECT_FALSE(IsPointReply(EncodeStatsReply(DaemonStats{})));

  const std::vector<PointReply> both =
      DecodeBatchReply(EncodeBatchReply({ok, retry}));
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(Bytes(both[0].result), Bytes(ok.result));
  EXPECT_EQ(both[1].message, "at capacity");

  ExpectEveryFlipThrows(EncodePointReply(ok), [](const std::string& b) {
    (void)DecodePointReply(b);
  });
  ExpectEveryFlipThrows(EncodeBatchReply({ok, retry}),
                        [](const std::string& b) { (void)DecodeBatchReply(b); });
}

TEST(ServerProtocolTest, StatsReplyRoundTrips) {
  DaemonStats s;
  s.requests = 7;
  s.point_requests = 3;
  s.batch_requests = 2;
  s.points_served = 40;
  s.store_hits = 30;
  s.computed_points = 8;
  s.coalesced_points = 2;
  s.inflight = 1;
  s.store_bytes_written = 12'345;
  const DaemonStats d = DecodeStatsReply(EncodeStatsReply(s));
  EXPECT_EQ(d.requests, 7u);
  EXPECT_EQ(d.points_served, 40u);
  EXPECT_EQ(d.store_hits, 30u);
  EXPECT_EQ(d.computed_points, 8u);
  EXPECT_EQ(d.coalesced_points, 2u);
  EXPECT_EQ(d.store_bytes_written, 12'345u);

  // Control replies are authenticated like control requests: the 16
  // counters under the control fingerprint decode; a foreign fingerprint
  // or a trailing payload word is refused. Same for the shutdown reply.
  const std::uint64_t control = ControlFrameFingerprint();
  EXPECT_EQ(DecodeStatsReply(HandFrame("vixd_dstats", 16, control)).store_gc_evicted,
            15u);
  EXPECT_THROW(DecodeStatsReply(HandFrame("vixd_dstats", 16, control ^ 1)),
               SimError);
  EXPECT_THROW(DecodeStatsReply(HandFrame("vixd_dstats", 17, control)),
               SimError);
  EXPECT_NO_THROW(DecodeShutdownReply(EncodeShutdownReply()));
  EXPECT_THROW(DecodeShutdownReply(HandFrame("vixd_bye", 0, control ^ 1)),
               SimError);
  EXPECT_THROW(DecodeShutdownReply(HandFrame("vixd_bye", 1, control)),
               SimError);
}

// ---------------------------------------------------------------------------
// Live daemon semantics (in-process SimDaemon + SimClient).

TEST(SimDaemonTest, StoreHitIsBitwiseIdenticalToFreshComputation) {
  TempService svc("identity");
  SimDaemon daemon(svc.Config());
  daemon.Start();
  SimClient client(svc.socket, 10.0);

  const NetworkSimConfig config = ShortConfig();
  const PointReply first = client.Point(config);
  ASSERT_EQ(first.status, ServeStatus::kOk);
  EXPECT_EQ(first.source, ServeSource::kComputed);

  const PointReply second = client.Point(config);
  ASSERT_EQ(second.status, ServeStatus::kOk);
  EXPECT_EQ(second.source, ServeSource::kStore);

  const std::string local = Bytes(RunNetworkSim(config));
  EXPECT_EQ(Bytes(first.result), local);
  EXPECT_EQ(Bytes(second.result), local);

  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.computed_points, 1u);
  EXPECT_EQ(s.store_hits, 1u);
  daemon.Stop();
}

TEST(SimDaemonTest, BatchIsAnsweredPositionallyWithDedupThroughTheStore) {
  TempService svc("batch");
  SimDaemon daemon(svc.Config());
  daemon.Start();
  SimClient client(svc.socket, 10.0);

  const NetworkSimConfig a = ShortConfig(0.05);
  const NetworkSimConfig b = ShortConfig(0.07);
  const std::vector<NetworkSimConfig> batch = {a, b, a};
  const std::vector<PointReply> replies = client.Batch(batch);
  ASSERT_EQ(replies.size(), 3u);
  for (const PointReply& r : replies) {
    ASSERT_EQ(r.status, ServeStatus::kOk);
  }
  EXPECT_EQ(Bytes(replies[0].result), Bytes(replies[2].result));
  // The duplicate slot never triggered a second simulation: it was a
  // store hit or coalesced join of the first slot's computation.
  EXPECT_EQ(daemon.stats().computed_points, 2u);
  daemon.Stop();
}

TEST(SimDaemonTest, NConcurrentClientsOneMissingPointOneSimulation) {
  TempService svc("singleflight");
  DaemonConfig dc = svc.Config();
  // Hold each computation's publish open so every client below arrives
  // while the point is still in flight.
  dc.test_compute_delay_ms = 400;
  SimDaemon daemon(dc);
  daemon.Start();

  const NetworkSimConfig missing = ShortConfig();
  constexpr int kClients = 6;
  std::vector<std::string> results(kClients);
  std::atomic<int> ok_count{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < kClients; ++i) {
    pool.emplace_back([&, i] {
      SimClient c(svc.socket, 10.0);
      const PointReply r = c.PointWithRetry(missing);
      if (r.status == ServeStatus::kOk) {
        results[static_cast<std::size_t>(i)] = Bytes(r.result);
        ++ok_count;
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(ok_count.load(), kClients);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], results[0]);
  }
  // The acceptance bar: N requests, exactly one simulation.
  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.computed_points, 1u);
  EXPECT_EQ(s.coalesced_points + s.store_hits,
            static_cast<std::uint64_t>(kClients - 1));
  daemon.Stop();
}

TEST(SimDaemonTest, SaturatedQueueAnswersRetryAfterThenRecovers) {
  TempService svc("backpressure");
  DaemonConfig dc = svc.Config();
  dc.max_queue = 1;
  dc.test_compute_delay_ms = 500;
  dc.retry_after_seconds = 0.02;
  SimDaemon daemon(dc);
  daemon.Start();

  const NetworkSimConfig x = ShortConfig(0.05);
  const NetworkSimConfig y = ShortConfig(0.09);

  std::thread occupant([&] {
    SimClient c(svc.socket, 10.0);
    const PointReply r = c.Point(x);
    EXPECT_EQ(r.status, ServeStatus::kOk);
  });
  // Let x land in the (size-1) in-flight table, then ask for a different
  // missing point: the daemon must refuse with a positive retry hint
  // rather than queue it.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  SimClient client(svc.socket, 10.0);
  const PointReply refused = client.Point(y);
  EXPECT_EQ(refused.status, ServeStatus::kRetryAfter);
  EXPECT_GT(refused.retry_after_seconds, 0.0);
  // Joining the already-in-flight x is still allowed — it adds no work.
  const PointReply joined = client.Point(x);
  EXPECT_NE(joined.status, ServeStatus::kRetryAfter);

  // Once the pipe drains, the refused point goes through via the retry
  // helper.
  const PointReply eventually = client.PointWithRetry(y);
  EXPECT_EQ(eventually.status, ServeStatus::kOk);
  occupant.join();
  EXPECT_GE(daemon.stats().retry_after_replies, 1u);
  daemon.Stop();
}

TEST(SimDaemonTest, MalformedFrameGetsStructuredErrorReply) {
  TempService svc("malformed");
  SimDaemon daemon(svc.Config());
  daemon.Start();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, svc.socket.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string error;
  ASSERT_TRUE(WriteFrame(fd, "not a snapshot container", &error)) << error;
  const FrameRead reply = ReadFrame(fd, 10.0);
  ASSERT_EQ(reply.status, FrameRead::Status::kOk);
  ASSERT_TRUE(IsPointReply(reply.payload));
  const PointReply decoded = DecodePointReply(reply.payload);
  EXPECT_EQ(decoded.status, ServeStatus::kError);
  EXPECT_FALSE(decoded.message.empty());
  ::close(fd);
  EXPECT_GE(daemon.stats().error_replies, 1u);
  daemon.Stop();
}

TEST(SimDaemonTest, ShutdownFrameDrainsWaitAndUnlinksSocket) {
  TempService svc("shutdown");
  SimDaemon daemon(svc.Config());
  daemon.Start();

  std::thread waiter([&] { EXPECT_EQ(daemon.Wait(), 0); });
  {
    SimClient client(svc.socket, 10.0);
    // Seed one computed point so the drain has something to have finished.
    EXPECT_EQ(client.Point(ShortConfig()).status, ServeStatus::kOk);
    client.Shutdown();
  }
  waiter.join();
  EXPECT_FALSE(fs::exists(svc.socket));
}

// ---------------------------------------------------------------------------
// The real binary: SIGTERM mid-computation drains before exit 0.

#ifdef VIXNOC_VIXNOCD_PATH
TEST(VixnocdProcessTest, SigtermDrainsInflightPointsThenExitsZero) {
  TempService svc("sigterm");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string socket_arg = "socket=" + svc.socket;
    const std::string store_arg = "store=" + svc.store;
    ::execl(VIXNOC_VIXNOCD_PATH, "vixnocd", socket_arg.c_str(),
            store_arg.c_str(), "threads=2", "test_compute_delay_ms=600",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Fire a point whose publish is held open for 600 ms, then SIGTERM the
  // daemon mid-flight. The reply must still arrive, computed, before the
  // process exits cleanly.
  const NetworkSimConfig config = ShortConfig();
  // Connect before starting the kill timer so a slow daemon startup
  // cannot turn this into a "SIGTERM before the request" race.
  SimClient client(svc.socket, 10.0);
  PointReply reply;
  std::thread requester([&] { reply = client.PointWithRetry(config); });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  requester.join();

  ASSERT_EQ(reply.status, ServeStatus::kOk);
  EXPECT_EQ(reply.source, ServeSource::kComputed);
  EXPECT_EQ(Bytes(reply.result), Bytes(RunNetworkSim(config)));

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_FALSE(fs::exists(svc.socket));
  // The drained point made it into the store on disk.
  bool has_entry = false;
  for (const auto& e : fs::recursive_directory_iterator(svc.store)) {
    has_entry = has_entry || e.path().extension() == ".res";
  }
  EXPECT_TRUE(has_entry);
}
#endif  // VIXNOC_VIXNOCD_PATH

}  // namespace
}  // namespace vixnoc
