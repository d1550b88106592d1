#include <gtest/gtest.h>

#include "sim/network_sim.hpp"
#include "sim/single_router.hpp"

namespace vixnoc {
namespace {

NetworkSimConfig QuickConfig(AllocScheme scheme, double rate) {
  NetworkSimConfig c;
  c.scheme = scheme;
  c.injection_rate = rate;
  c.warmup = 2000;
  c.measure = 5000;
  c.drain = 2000;
  return c;
}

TEST(NetworkSim, LowLoadAcceptsOfferedTraffic) {
  const auto r = RunNetworkSim(QuickConfig(AllocScheme::kInputFirst, 0.02));
  EXPECT_NEAR(r.accepted_ppc, 0.02, 0.003);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.packets_measured, 1000u);
}

TEST(NetworkSim, LowLoadLatencyNearZeroLoadBound) {
  const auto r = RunNetworkSim(QuickConfig(AllocScheme::kInputFirst, 0.01));
  // 8x8 mesh uniform: mean ~6.33 routers on the path; head latency about
  // 1 + 6.33*3 = 20 plus 3 serialization cycles -> lower bound ~23.
  EXPECT_GT(r.avg_latency, 20.0);
  EXPECT_LT(r.avg_latency, 32.0);
  EXPECT_LT(r.avg_net_latency, r.avg_latency + 1e-9);
}

TEST(NetworkSim, SaturatesAtExcessLoad) {
  const auto r = RunNetworkSim(QuickConfig(AllocScheme::kInputFirst, 0.25));
  EXPECT_TRUE(r.saturated);
  EXPECT_LT(r.accepted_ppc, 0.25);
  EXPECT_GT(r.accepted_ppc, 0.05);
}

TEST(NetworkSim, DeterministicForSameSeed) {
  const auto a = RunNetworkSim(QuickConfig(AllocScheme::kVix, 0.1));
  const auto b = RunNetworkSim(QuickConfig(AllocScheme::kVix, 0.1));
  EXPECT_EQ(a.accepted_ppc, b.accepted_ppc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
}

TEST(NetworkSim, DrainZeroClosesTheMeasurementWindow) {
  // The window's counters are frozen at measure_end whether the loop runs
  // on through a drain or stops right there. (Latency is not compared: it
  // counts only packets ejected before the loop ends.)
  NetworkSimConfig c = QuickConfig(AllocScheme::kVix, 0.1);
  c.warmup = 500;
  c.measure = 1500;
  c.drain = 0;
  const auto cut = RunNetworkSim(c);
  c.drain = 3000;
  const auto drained = RunNetworkSim(c);
  ASSERT_TRUE(cut.outcome.ok());
  EXPECT_GT(cut.accepted_ppc, 0.05);
  EXPECT_EQ(cut.accepted_ppc, drained.accepted_ppc);
  EXPECT_EQ(cut.accepted_fpc, drained.accepted_fpc);
  EXPECT_EQ(cut.min_node_ppc, drained.min_node_ppc);
  EXPECT_EQ(cut.max_node_ppc, drained.max_node_ppc);
  const RouterActivity& a = cut.activity;
  const RouterActivity& b = drained.activity;
  EXPECT_GT(a.xbar_traversals, 0u);
  EXPECT_EQ(a.buffer_writes, b.buffer_writes);
  EXPECT_EQ(a.buffer_reads, b.buffer_reads);
  EXPECT_EQ(a.xbar_traversals, b.xbar_traversals);
  EXPECT_EQ(a.link_flits, b.link_flits);
  EXPECT_EQ(a.sa_requests, b.sa_requests);
  EXPECT_EQ(a.sa_grants, b.sa_grants);
  EXPECT_EQ(a.va_requests, b.va_requests);
  EXPECT_EQ(a.va_grants, b.va_grants);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.cycles_with_requests, b.cycles_with_requests);
}

TEST(NetworkSim, DifferentSeedsAgreeStatistically) {
  auto c1 = QuickConfig(AllocScheme::kInputFirst, 0.05);
  auto c2 = c1;
  c2.seed = 999;
  const auto a = RunNetworkSim(c1);
  const auto b = RunNetworkSim(c2);
  EXPECT_NE(a.avg_latency, b.avg_latency);  // genuinely different streams
  EXPECT_NEAR(a.avg_latency, b.avg_latency, a.avg_latency * 0.1);
  EXPECT_NEAR(a.accepted_ppc, b.accepted_ppc, 0.005);
}

TEST(NetworkSim, FairnessNearOneAtLowLoad) {
  const auto r = RunNetworkSim(QuickConfig(AllocScheme::kInputFirst, 0.02));
  EXPECT_GT(r.max_min_ratio, 0.99);
  EXPECT_LT(r.max_min_ratio, 1.6);
}

TEST(NetworkSim, ActivityScalesWithLoad) {
  const auto lo = RunNetworkSim(QuickConfig(AllocScheme::kInputFirst, 0.02));
  const auto hi = RunNetworkSim(QuickConfig(AllocScheme::kInputFirst, 0.08));
  EXPECT_GT(hi.activity.xbar_traversals, 2 * lo.activity.xbar_traversals);
  EXPECT_GT(hi.activity.link_flits, 2 * lo.activity.link_flits);
}

TEST(NetworkSim, AllTopologiesRun) {
  for (auto kind : {TopologyKind::kMesh, TopologyKind::kCMesh,
                    TopologyKind::kFBfly}) {
    auto c = QuickConfig(AllocScheme::kVix, 0.05);
    c.topology = kind;
    const auto r = RunNetworkSim(c);
    EXPECT_GT(r.accepted_ppc, 0.03) << ToString(kind);
    EXPECT_GT(r.packets_measured, 100u) << ToString(kind);
  }
}

TEST(NetworkSim, MaxInjectionRateMatchesPacketSize) {
  NetworkSimConfig c;
  c.packet_size = 4;
  EXPECT_DOUBLE_EQ(c.MaxInjectionRate(), 0.25);
  c.packet_size = 1;
  EXPECT_DOUBLE_EQ(c.MaxInjectionRate(), 1.0);
}

TEST(NetworkSim, VixBeatsBaselineAtSaturationMesh) {
  // The headline claim (Fig 8), verified with a short run: VIX improves
  // saturation throughput substantially over separable IF.
  auto base_cfg = QuickConfig(AllocScheme::kInputFirst, 0.25);
  auto vix_cfg = QuickConfig(AllocScheme::kVix, 0.25);
  const auto base = RunNetworkSim(base_cfg);
  const auto vix = RunNetworkSim(vix_cfg);
  EXPECT_GT(vix.accepted_ppc, base.accepted_ppc * 1.05);
}

// ---------------------------------------------------------------------------
// Single-router harness (Fig 7)
// ---------------------------------------------------------------------------

SingleRouterResult RunSr(AllocScheme scheme, int radix, int vcs = 6) {
  SingleRouterConfig c;
  c.scheme = scheme;
  c.radix = radix;
  c.num_vcs = vcs;
  c.cycles = 20'000;
  return RunSingleRouter(c);
}

TEST(SingleRouter, ThroughputBoundedByRadix) {
  for (int radix : {5, 8, 10}) {
    const auto r = RunSr(AllocScheme::kVixIdeal, radix);
    EXPECT_LE(r.flits_per_cycle, radix);
    EXPECT_GT(r.flits_per_cycle, radix * 0.5);
  }
}

TEST(SingleRouter, IdealAllocationAchievesUnitEfficiency) {
  const auto r = RunSr(AllocScheme::kVixIdeal, 5);
  EXPECT_NEAR(r.matching_efficiency, 1.0, 1e-9);
}

TEST(SingleRouter, ApAchievesNearIdealMatching) {
  const auto r = RunSr(AllocScheme::kAugmentingPath, 5);
  EXPECT_GT(r.matching_efficiency, 0.97);
}

TEST(SingleRouter, PaperFig7OrderingHolds) {
  for (int radix : {5, 8, 10}) {
    const auto base = RunSr(AllocScheme::kInputFirst, radix);
    const auto wf = RunSr(AllocScheme::kWavefront, radix);
    const auto vix = RunSr(AllocScheme::kVix, radix);
    const auto ap = RunSr(AllocScheme::kAugmentingPath, radix);
    const auto ideal = RunSr(AllocScheme::kVixIdeal, radix);
    // Fig 7: AP > 30% over IF; VIX > 25% over IF; both near ideal; WF
    // between IF and AP.
    EXPECT_GT(ap.flits_per_cycle, base.flits_per_cycle * 1.25) << radix;
    EXPECT_GT(vix.flits_per_cycle, base.flits_per_cycle * 1.2) << radix;
    EXPECT_GT(wf.flits_per_cycle, base.flits_per_cycle) << radix;
    EXPECT_GE(ideal.flits_per_cycle * 1.001, ap.flits_per_cycle) << radix;
    EXPECT_GE(ideal.flits_per_cycle * 1.05, vix.flits_per_cycle) << radix;
  }
}

TEST(SingleRouter, DeterministicForSeed) {
  const auto a = RunSr(AllocScheme::kVix, 5);
  const auto b = RunSr(AllocScheme::kVix, 5);
  EXPECT_EQ(a.total_grants, b.total_grants);
}

TEST(SingleRouter, MultiFlitPacketsSupported) {
  SingleRouterConfig c;
  c.scheme = AllocScheme::kInputFirst;
  c.packet_size = 4;
  c.cycles = 10'000;
  const auto r = RunSingleRouter(c);
  EXPECT_GT(r.flits_per_cycle, 1.0);
}

}  // namespace
}  // namespace vixnoc
