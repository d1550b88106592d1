#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/trace_sim.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/topology.hpp"
#include "traffic/trace.hpp"

namespace vixnoc {
namespace {

TEST(Trace, AddKeepsOrderAndContents) {
  PacketTrace trace;
  trace.Add({0, 1, 2, 4});
  trace.Add({0, 3, 4, 1});
  trace.Add({5, 0, 63, 4});
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.LastCycle(), 5u);
  EXPECT_EQ(trace.records()[1], (TraceRecord{0, 3, 4, 1}));
}

TEST(Trace, TextRoundTrip) {
  PacketTrace trace;
  trace.Add({0, 1, 2, 4});
  trace.Add({7, 3, 4, 1});
  trace.Add({7, 5, 6, 8});
  const PacketTrace parsed = PacketTrace::FromText(trace.ToText(), 64);
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed.records()[i], trace.records()[i]);
  }
}

TEST(Trace, FromTextSkipsCommentsAndBlanks) {
  const PacketTrace trace = PacketTrace::FromText(
      "# header\n\n3 1 2 4\n# mid comment\n5 0 1 1\n", 8);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.records()[0].cycle, 3u);
  EXPECT_EQ(trace.records()[1].src, 0);
}

TEST(Trace, FileRoundTrip) {
  PacketTrace trace;
  for (Cycle t = 0; t < 50; ++t) {
    trace.Add({t, static_cast<NodeId>(t % 8),
               static_cast<NodeId>((t + 3) % 8), 1 + static_cast<int>(t % 4)});
  }
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.txt";
  trace.Save(path);
  const PacketTrace loaded = PacketTrace::Load(path, 8);
  ASSERT_EQ(loaded.size(), trace.size());
  EXPECT_EQ(loaded.records().back(), trace.records().back());
  std::remove(path.c_str());
}

TEST(Trace, ReplayerDeliversPerCycle) {
  PacketTrace trace;
  trace.Add({1, 0, 1, 1});
  trace.Add({1, 2, 3, 1});
  trace.Add({4, 4, 5, 1});
  TraceReplayer replayer(trace);
  EXPECT_TRUE(replayer.TakeDue(0).empty());
  EXPECT_EQ(replayer.TakeDue(1).size(), 2u);
  EXPECT_TRUE(replayer.TakeDue(2).empty());
  EXPECT_TRUE(replayer.TakeDue(3).empty());
  EXPECT_EQ(replayer.TakeDue(4).size(), 1u);
  EXPECT_TRUE(replayer.Exhausted());
  replayer.Reset();
  EXPECT_FALSE(replayer.Exhausted());
}

TEST(TraceGen, MatchesRequestedRateApproximately) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.1, 64, 10'000, 4, /*seed=*/3);
  const double rate =
      static_cast<double>(trace.size()) / (64.0 * 10'000.0);
  EXPECT_NEAR(rate, 0.1, 0.005);
  for (const TraceRecord& r : trace.records()) {
    EXPECT_NE(r.src, r.dst);
    EXPECT_EQ(r.size_flits, 4);
  }
}

TEST(TraceSim, DeterministicReplay) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 8'000, 4, 9);
  NetworkSimConfig config;
  config.scheme = AllocScheme::kVix;
  config.warmup = 2'000;
  config.measure = 5'000;
  config.drain = 2'000;
  const auto a = RunTraceSim(config, trace);
  const auto b = RunTraceSim(config, trace);
  EXPECT_EQ(a.accepted_ppc, b.accepted_ppc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
}

TEST(TraceSim, MatchesBernoulliSimStatistically) {
  // A replayed Bernoulli trace should land near the live Bernoulli sim.
  NetworkSimConfig config;
  config.scheme = AllocScheme::kInputFirst;
  config.injection_rate = 0.05;
  config.warmup = 2'000;
  config.measure = 6'000;
  config.drain = 2'000;
  const auto live = RunNetworkSim(config);
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 10'000, 4, config.seed);
  const auto replay = RunTraceSim(config, trace);
  EXPECT_NEAR(replay.accepted_ppc, live.accepted_ppc, 0.004);
  EXPECT_NEAR(replay.avg_latency, live.avg_latency, live.avg_latency * 0.1);
}

void ExpectTraceBitwiseEqual(const NetworkSimResult& a,
                             const NetworkSimResult& b) {
  EXPECT_EQ(a.accepted_ppc, b.accepted_ppc);
  EXPECT_EQ(a.accepted_fpc, b.accepted_fpc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.avg_net_latency, b.avg_net_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.activity.xbar_traversals, b.activity.xbar_traversals);
  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes);
}

TEST(TraceSim, CheckpointRestoreMidRunIsBitwiseEquivalent) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 4'000, 4, 13);
  NetworkSimConfig config;
  // SERENADE makes this the strongest restore test available: the
  // allocator RNG cursor must ride through the snapshot too.
  config.scheme = AllocScheme::kSerenade;
  config.warmup = 1'000;
  config.measure = 2'500;
  config.drain = 1'500;
  const auto uninterrupted = RunTraceSim(config, trace);
  ASSERT_GT(uninterrupted.packets_measured, 0u);

  const std::string path = ::testing::TempDir() + "/trace_midrun.ckpt";
  NetworkSimConfig writing = config;
  writing.checkpoint_path = path;
  writing.checkpoint_every = 1'000;
  const auto checkpointed = RunTraceSim(writing, trace);
  ExpectTraceBitwiseEqual(uninterrupted, checkpointed);

  NetworkSimConfig resumed = config;
  resumed.restore_path = path;
  const auto restored = RunTraceSim(resumed, trace);
  ExpectTraceBitwiseEqual(uninterrupted, restored);
  std::remove(path.c_str());
}

TEST(TraceSim, RestoreRejectsADifferentTrace) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 4'000, 4, 13);
  NetworkSimConfig config;
  config.warmup = 1'000;
  config.measure = 2'500;
  config.drain = 1'500;
  const std::string path = ::testing::TempDir() + "/trace_reject.ckpt";
  NetworkSimConfig writing = config;
  writing.checkpoint_path = path;
  writing.checkpoint_every = 1'000;
  RunTraceSim(writing, trace);

  // Same config, different records: the trace hash in the fingerprint
  // must refuse the resume instead of silently replaying wrong traffic.
  const PacketTrace other = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 4'000, 4, 14);
  NetworkSimConfig resumed = config;
  resumed.restore_path = path;
  EXPECT_THROW(RunTraceSim(resumed, other), SimError);
  std::remove(path.c_str());
}

TEST(TraceSim, CheckpointEveryWithoutPathThrows) {
  PacketTrace trace;
  trace.Add({0, 0, 1, 1});
  NetworkSimConfig config;
  config.checkpoint_every = 100;  // no checkpoint_path
  EXPECT_THROW(RunTraceSim(config, trace), SimError);
}

TEST(TraceSim, SchemesComparedOnIdenticalTraffic) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.12, 64, 12'000, 4, 21);
  NetworkSimConfig config;
  config.warmup = 3'000;
  config.measure = 8'000;
  config.drain = 3'000;
  config.scheme = AllocScheme::kInputFirst;
  const auto base = RunTraceSim(config, trace);
  config.scheme = AllocScheme::kVix;
  const auto vix = RunTraceSim(config, trace);
  // Same offered traffic by construction.
  EXPECT_DOUBLE_EQ(base.offered_ppc, vix.offered_ppc);
  EXPECT_GT(vix.accepted_ppc, base.accepted_ppc * 1.05);
}

// ---------------------------------------------------------------------------
// A trace run is RunNetworkSim with the trace as its traffic source, so every
// router knob, routing plugin, validation rule and telemetry applies to it.

PacketTrace KnobTrace() {
  return GeneratePatternTrace(PatternKind::kUniform, 0.10, 64, 5'000, 4, 7);
}

NetworkSimConfig KnobConfig() {
  NetworkSimConfig config;
  config.scheme = AllocScheme::kVix;
  config.warmup = 1'000;
  config.measure = 3'500;
  config.drain = 1'500;
  return config;
}

void ExpectKnobChangesResult(const NetworkSimConfig& changed) {
  const PacketTrace trace = KnobTrace();
  const NetworkSimResult base = RunTraceSim(KnobConfig(), trace);
  const NetworkSimResult other = RunTraceSim(changed, trace);
  ASSERT_GT(base.packets_measured, 0u);
  // offered_ppc is the trace's own load, whatever the config's rate says.
  EXPECT_NEAR(base.offered_ppc, 0.10, 0.005);
  EXPECT_EQ(base.offered_ppc, other.offered_ppc);
  EXPECT_NE(base.avg_latency, other.avg_latency);
}

TEST(TraceSim, PipelineStagesApply) {
  NetworkSimConfig config = KnobConfig();
  config.pipeline_stages = 5;
  ExpectKnobChangesResult(config);
}

TEST(TraceSim, VixVirtualInputsApply) {
  NetworkSimConfig config = KnobConfig();
  config.vix_virtual_inputs = 3;
  ExpectKnobChangesResult(config);
}

TEST(TraceSim, VaOrganizationApplies) {
  NetworkSimConfig config = KnobConfig();
  config.va_organization = VaOrganization::kSeparableArbitrated;
  ExpectKnobChangesResult(config);
}

TEST(TraceSim, RoutingPluginApplies) {
  NetworkSimConfig config = KnobConfig();
  config.routing = "adaptive_min";
  ExpectKnobChangesResult(config);
}

TEST(TraceSim, TelemetryApplies) {
  NetworkSimConfig config = KnobConfig();
  config.telemetry.enabled = true;
  const NetworkSimResult r = RunTraceSim(config, KnobTrace());
  EXPECT_TRUE(r.telemetry.enabled);
  EXPECT_GT(r.telemetry.sa_grants, 0u);
  EXPECT_FALSE(r.telemetry.windows.empty());
}

TEST(TraceSim, InvalidConfigIsRejected) {
  PacketTrace trace;
  trace.Add({0, 0, 1, 1});
  NetworkSimConfig config;
  config.scheme = AllocScheme::kVix;
  config.num_vcs = 6;
  config.vix_virtual_inputs = 4;  // does not divide 6 VCs
  EXPECT_THROW(RunTraceSim(config, trace), SimError);
}

TEST(TraceSim, RunEndingInsideTheMeasurementWindowClosesItThere) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 2'000, 4, 5);
  NetworkSimConfig config;
  config.warmup = 500;
  config.measure = 10'000;  // far past the trace's last record
  config.drain = 500;
  const NetworkSimResult r = RunTraceSim(config, trace);
  EXPECT_TRUE(r.outcome.ok());
  EXPECT_GT(r.packets_measured, 0u);
  EXPECT_GT(r.accepted_ppc, 0.0);
  EXPECT_GT(r.activity.xbar_traversals, 0u);
}

TEST(TraceSim, RecordNamingANodeOutsideTheNetworkThrows) {
  // With a dead link, records pass the fault-reachability gate, which
  // indexes its route table by the destination's router: a node outside
  // the network must be refused before that lookup.
  PacketTrace trace;
  trace.Add({0, 0, 64, 1});  // the mesh has nodes 0..63
  NetworkSimConfig config;
  const auto mesh = MakeMesh(8, 8);
  for (PortId p = 0; p < mesh->Radix(); ++p) {
    if (mesh->LinksFor(9)[p].neighbor >= 0) {
      config.faults.forced_link_down.emplace_back(9, p);
      break;
    }
  }
  ASSERT_TRUE(config.faults.Enabled());
  EXPECT_THROW(RunTraceSim(config, trace), SimError);
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void SpitFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Overwrites the u64 at `offset` in section `name` of a snapshot container
/// and re-finishes it: the section checksum is recomputed and the
/// fingerprint kept, so only the patched value is wrong (container layout:
/// snapshot/snapshot.hpp).
std::string PatchSectionU64(std::string bytes, const std::string& name,
                            std::size_t offset, std::uint64_t value) {
  const auto get = [&](std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int i = width - 1; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
    }
    return static_cast<std::size_t>(v);
  };
  const auto put = [&](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
  };
  std::size_t pos = 8 + 4 + 8;  // magic, version, fingerprint
  const std::size_t sections = get(pos, 4);
  pos += 4;
  for (std::size_t s = 0; s < sections; ++s) {
    const std::size_t name_len = get(pos, 4);
    const std::string section = bytes.substr(pos + 4, name_len);
    pos += 4 + name_len;
    const std::size_t payload_len = get(pos, 8);
    pos += 8;
    if (section == name) {
      put(pos + offset, value);
      put(pos + payload_len, Fnv1a64(bytes.data() + pos, payload_len));
      return bytes;
    }
    pos += payload_len + 8;
  }
  ADD_FAILURE() << "snapshot has no section " << name;
  return bytes;
}

TEST(TraceSim, RestoreRejectsACursorPastTheTraceEnd) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 3'000, 4, 13);
  NetworkSimConfig config;
  config.warmup = 500;
  config.measure = 2'000;
  config.drain = 1'000;
  const std::string path = ::testing::TempDir() + "/trace_cursor.ckpt";
  NetworkSimConfig writing = config;
  writing.checkpoint_path = path;
  writing.checkpoint_every = 1'000;
  RunTraceSim(writing, trace);

  // The "sim" section starts: next cycle u64, RNG state, the traffic
  // source's name ("trace") as a length-prefixed string, replay cursor u64.
  const std::string bytes = SlurpFile(path);
  SnapshotReader reader(bytes);
  reader.OpenSection("sim");
  reader.U64();
  for (std::size_t i = 0; i < Rng::State{}.size(); ++i) reader.U64();
  ASSERT_EQ(reader.Str(), "trace");
  const std::uint64_t cursor = reader.U64();
  ASSERT_GT(cursor, 0u);
  ASSERT_LE(cursor, trace.size());
  const std::size_t cursor_offset =
      8 + sizeof(Rng::State) + 8 + std::string("trace").size();
  ASSERT_EQ(PatchSectionU64(bytes, "sim", cursor_offset, cursor), bytes);

  SpitFile(path, PatchSectionU64(bytes, "sim", cursor_offset,
                                 trace.size() + 1));
  NetworkSimConfig resumed = config;
  resumed.restore_path = path;
  EXPECT_THROW(RunTraceSim(resumed, trace), SimError);
  std::remove(path.c_str());
}

TEST(TraceSim, CheckpointWithTheOldTraceSectionIsRefused) {
  // Trace checkpoints once had their own "trace_sim" section layout; they
  // are refused with a SimError, not migrated.
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 2'000, 4, 13);
  NetworkSimConfig config;
  config.warmup = 500;
  config.measure = 1'000;
  config.drain = 500;
  const std::string text = trace.ToText();
  SnapshotWriter w;
  w.BeginSection("trace_sim");
  w.U64(1'000);  // next cycle
  w.U64(40);     // replay cursor
  w.EndSection();
  w.BeginSection("network");
  w.EndSection();
  const std::string path = ::testing::TempDir() + "/trace_legacy.ckpt";
  WriteSnapshotFile(path, w.Finish(Fnv1a64(text.data(), text.size(),
                                           NetworkSimConfigFingerprint(config))));
  NetworkSimConfig resumed = config;
  resumed.restore_path = path;
  EXPECT_THROW(RunTraceSim(resumed, trace), SimError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vixnoc
