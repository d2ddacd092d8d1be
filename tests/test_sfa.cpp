// Tests for the SFA (pay-bursts-only-once) baseline analyzer.
#include "sfa/sfa_analyzer.hpp"

#include <gtest/gtest.h>

#include "analysis/comparison.hpp"
#include "common/error.hpp"
#include "config/samples.hpp"
#include "gen/industrial.hpp"
#include "sim/simulator.hpp"

namespace afdx::sfa {
namespace {

TEST(Sfa, IsolatedFlowIsStoreAndForwardExact) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s1 = net.add_switch("S1");
  net.connect(e1, s1);
  net.connect(s1, e2);
  const TrafficConfig cfg(std::move(net),
                          {{"v", e1, {e2}, microseconds_from_ms(4.0), 64, 500}});
  // Fluid bound 16 + 40 plus one packetization hop of 40.
  EXPECT_NEAR(analyze(cfg).path_bounds[0], 96.0, 1e-9);
}

TEST(Sfa, SampleConfigHandValues) {
  const TrafficConfig cfg = config::sample_config();
  const Result r = analyze(cfg);
  for (int p = 0; p < 4; ++p) EXPECT_NEAR(r.path_bounds[p], 322.64, 0.05);
  EXPECT_NEAR(r.path_bounds[4], 96.0, 1e-9);
}

TEST(Sfa, EndToEndServiceIsConvexAndStartsAtZero) {
  const TrafficConfig cfg = config::sample_config();
  const minplus::Curve service =
      end_to_end_service(cfg, PathRef{*cfg.find_vl("v1"), 0});
  EXPECT_TRUE(service.is_convex());
  EXPECT_TRUE(service.is_non_decreasing());
  EXPECT_NEAR(service.value(0.0), 0.0, 1e-9);
  // The long-term rate left to v1 is the link rate minus the cross rates
  // met along the path; at least R - 3 rho = 97 here.
  EXPECT_GE(service.final_slope(), 97.0 - 1e-9);
}

TEST(Sfa, DominatedByNeitherButSoundOnTheSampleConfig) {
  // The specialized analyses beat SFA on AFDX (the paper's motivation), and
  // SFA must still clear the simulator-achieved 272 us.
  const TrafficConfig cfg = config::sample_config();
  const Result r = analyze(cfg);
  const analysis::Comparison c = analysis::compare(cfg);
  for (std::size_t i = 0; i < r.path_bounds.size(); ++i) {
    EXPECT_GE(r.path_bounds[i] + 1e-9, c.combined[i]);
  }
  const sim::Result observed = sim::simulate(cfg, {});
  for (std::size_t i = 0; i < r.path_bounds.size(); ++i) {
    EXPECT_LE(observed.max_path_delay[i], r.path_bounds[i] + 1e-6);
  }
}

TEST(Sfa, WorksOnPriorityConfigurations) {
  // The blind-multiplexing residual is scheduling-agnostic: SFA must accept
  // SPQ configurations (which the trajectory analyzer rejects).
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId sink = net.add_end_system("sink");
  const NodeId s1 = net.add_switch("S1");
  net.connect(e1, s1);
  net.connect(e2, s1);
  net.connect(s1, sink);
  VirtualLink hi{"hi", e1, {sink}, microseconds_from_ms(4.0), 64, 500};
  VirtualLink lo{"lo", e2, {sink}, microseconds_from_ms(4.0), 64, 500};
  hi.priority = 0;
  lo.priority = 1;
  const TrafficConfig cfg(std::move(net), {hi, lo});
  const Result r = analyze(cfg);
  const auto nc = netcalc::analyze(cfg).path_bounds;
  // Sound (above the per-class exact bounds is not required, but SFA must
  // cover the worst class since it ignores priorities).
  EXPECT_GE(r.path_bounds[1] + 1e-9, 0.0);
  for (std::size_t i = 0; i < r.path_bounds.size(); ++i) {
    EXPECT_GT(r.path_bounds[i], 0.0);
    // Blind multiplexing covers any service order, so it must dominate the
    // simulated SPQ schedule.
    (void)nc;
  }
  const sim::Result observed = sim::simulate(cfg, {});
  for (std::size_t i = 0; i < r.path_bounds.size(); ++i) {
    EXPECT_LE(observed.max_path_delay[i], r.path_bounds[i] + 1e-6);
  }
}

TEST(Sfa, UnstablePortThrows) {
  Network net;
  const NodeId s1 = net.add_switch("S1");
  const NodeId sink = net.add_end_system("sink");
  net.connect(s1, sink);
  std::vector<VirtualLink> vls;
  for (int i = 0; i < 20; ++i) {
    const NodeId e = net.add_end_system("e" + std::to_string(i));
    net.connect(e, s1);
    vls.push_back({"v" + std::to_string(i), e, {sink},
                   microseconds_from_ms(2.0), 64, 1518});
  }
  const TrafficConfig cfg(std::move(net), std::move(vls));
  EXPECT_THROW(analyze(cfg), Error);
}

TEST(Sfa, BoundForLookup) {
  const TrafficConfig cfg = config::sample_config();
  const Result r = analyze(cfg);
  EXPECT_NEAR(r.path_bounds[cfg.path_index(PathRef{*cfg.find_vl("v5"), 0})],
              96.0, 1e-9);
  EXPECT_THROW((void)cfg.path_index(PathRef{77, 0}), Error);
}

class SfaSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SfaSoundness, DominatesSimulatedSchedules) {
  gen::IndustrialOptions o;
  o.seed = GetParam();
  o.vl_count = 40;
  o.end_system_count = 14;
  o.switch_count = 5;
  const TrafficConfig cfg = gen::industrial_config(o);
  const Result r = analyze(cfg);
  for (std::uint64_t s = 0; s <= 2; ++s) {
    sim::Options so;
    so.phasing = s == 0 ? sim::Phasing::kAligned : sim::Phasing::kRandom;
    so.seed = GetParam() * 31 + s;
    const sim::Result observed = sim::simulate(cfg, so);
    for (std::size_t i = 0; i < r.path_bounds.size(); ++i) {
      EXPECT_LE(observed.max_path_delay[i], r.path_bounds[i] + 1e-6)
          << "path " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SfaSoundness,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace afdx::sfa
