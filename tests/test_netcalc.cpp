// Unit tests for the WCNC (network calculus) analyzer. The expected values
// on the paper's Figure-2 sample configuration are derived by hand in
// DESIGN.md conventions: leaky buckets (4000 bits, 1 bit/us), 100 Mb/s
// ports, 16 us switch latency.
#include "netcalc/netcalc_analyzer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "config/samples.hpp"
#include "sfa/sfa_analyzer.hpp"

namespace afdx::netcalc {
namespace {

TrafficConfig isolated_flow_config() {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s1 = net.add_switch("S1");
  net.connect(e1, s1);
  net.connect(s1, e2);
  std::vector<VirtualLink> vls{
      {"v", e1, {e2}, microseconds_from_ms(4.0), 64, 500}};
  return TrafficConfig(std::move(net), std::move(vls));
}

TEST(Netcalc, IsolatedFlowTwoHops) {
  const TrafficConfig cfg = isolated_flow_config();
  const Result r = analyze(cfg);
  // ES port: sigma/R = 40 us; switch port: L + sigma'/R = 16 + 40.4 us
  // (burst inflated by rho * 40 = 40 bits).
  ASSERT_EQ(r.path_bounds.size(), 1u);
  EXPECT_NEAR(r.path_bounds[0], 40.0 + 16.0 + 40.4, 1e-9);
  EXPECT_EQ(r.iterations, 1);
}

TEST(Netcalc, SampleConfigPortDelays) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const Result r = analyze(cfg);

  const LinkId e1_port =
      *net.link_between(*net.find_node("e1"), *net.find_node("S1"));
  EXPECT_NEAR(r.ports[e1_port].delay, 40.0, 1e-9);

  const LinkId s1_port =
      *net.link_between(*net.find_node("S1"), *net.find_node("S3"));
  // Two leaky buckets inflated to 4040 bits each: 16 + 8080/100.
  EXPECT_NEAR(r.ports[s1_port].delay, 96.8, 1e-9);

  const LinkId s3_port =
      *net.link_between(*net.find_node("S3"), *net.find_node("e6"));
  // Two serialized groups of two flows each, hand-derived in DESIGN.md.
  EXPECT_NEAR(r.ports[s3_port].delay, 139.608, 1e-2);
}

TEST(Netcalc, SampleConfigEndToEnd) {
  const TrafficConfig cfg = config::sample_config();
  const Result r = analyze(cfg);
  // v1..v4 are symmetric; v5 crosses an empty port pair.
  for (int p = 0; p < 4; ++p) EXPECT_NEAR(r.path_bounds[p], 276.408, 1e-2);
  EXPECT_NEAR(r.path_bounds[4], 96.4, 1e-9);
}

TEST(Netcalc, GroupingTightensTheBounds) {
  const TrafficConfig cfg = config::sample_config();
  Options no_grouping;
  no_grouping.grouping = false;
  const Result grouped = analyze(cfg);
  const Result plain = analyze(cfg, no_grouping);
  EXPECT_NEAR(plain.path_bounds[0], 318.272, 1e-2);
  for (std::size_t i = 0; i < grouped.path_bounds.size(); ++i) {
    EXPECT_LE(grouped.path_bounds[i], plain.path_bounds[i] + 1e-9);
  }
}

TEST(Netcalc, BacklogBoundsForBufferSizing) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const Result r = analyze(cfg);
  const LinkId s3_port =
      *net.link_between(*net.find_node("S3"), *net.find_node("e6"));
  // vdev of the grouped aggregate vs RL(100, 16), hand-derived, plus one
  // max frame (4000 bits) of in-service remainder for buffer sizing.
  EXPECT_NEAR(r.ports[s3_port].backlog, 13960.8 + 4000.0, 1.0);
  EXPECT_NEAR(r.ports[s3_port].queue_backlog, 12360.8, 1.0);
  // queue backlog excludes at most R*L bits plus the in-service frame.
  for (LinkId l = 0; l < net.link_count(); ++l) {
    if (!r.ports[l].used) continue;
    EXPECT_LE(r.ports[l].queue_backlog, r.ports[l].backlog + 1e-9);
  }
}

TEST(Netcalc, UnusedPortsAreFlagged) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const Result r = analyze(cfg);
  // The reverse direction of the e1 cable carries no VL.
  const LinkId back =
      *net.link_between(*net.find_node("S1"), *net.find_node("e1"));
  EXPECT_FALSE(r.ports[back].used);
  EXPECT_DOUBLE_EQ(r.ports[back].delay, 0.0);
}

TEST(Netcalc, UtilizationReported) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const Result r = analyze(cfg);
  const LinkId s3_port =
      *net.link_between(*net.find_node("S3"), *net.find_node("e6"));
  EXPECT_NEAR(r.ports[s3_port].utilization, 0.04, 1e-12);
}

TEST(Netcalc, ArrivalCurveReflectsUpstreamDelays) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const LinkId e1_port =
      *net.link_between(*net.find_node("e1"), *net.find_node("S1"));
  const LinkId s1_port =
      *net.link_between(*net.find_node("S1"), *net.find_node("S3"));
  DelayTable delays(cfg);
  delays.set(e1_port, 0, 40.0);
  const VlId v1 = *cfg.find_vl("v1");
  const auto curve = arrival_curve_at(cfg, v1, s1_port, delays);
  EXPECT_NEAR(curve.value(0.0), 4040.0, 1e-9);  // 4000 + rho * 40
  EXPECT_NEAR(curve.final_slope(), 1.0, 1e-12);
}

TEST(Netcalc, ArrivalCurveRejectsForeignPort) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const LinkId e2_port =
      *net.link_between(*net.find_node("e2"), *net.find_node("S1"));
  const DelayTable delays(cfg);
  EXPECT_THROW(arrival_curve_at(cfg, *cfg.find_vl("v1"), e2_port, delays),
               Error);
}

TEST(Netcalc, UnstablePortThrows) {
  // 20 VLs of 1518 B every 2 ms from distinct end systems converge on one
  // port: 20 * 6.072 Mb/s > 100 Mb/s.
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
  EXPECT_FALSE(cfg.stable());
  EXPECT_THROW(analyze(cfg), Error);
}

TEST(Netcalc, CyclicConfigurationConvergesByIteration) {
  // Three switches in a triangle; three flows chase each other around it so
  // the port-dependency graph is a directed cycle (explicit routes force the
  // two-hop way around).
  Network net;
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  const NodeId s3 = net.add_switch("S3");
  const NodeId a = net.add_end_system("a");
  const NodeId b = net.add_end_system("b");
  const NodeId c = net.add_end_system("c");
  net.connect(s1, s2);
  net.connect(s2, s3);
  net.connect(s3, s1);
  net.connect(a, s1);
  net.connect(b, s2);
  net.connect(c, s3);

  auto link = [&](NodeId x, NodeId y) { return *net.link_between(x, y); };
  std::vector<VirtualLink> vls{
      {"f1", a, {c}, microseconds_from_ms(4.0), 64, 500},   // S1->S2->S3
      {"f2", b, {a}, microseconds_from_ms(4.0), 64, 500},   // S2->S3->S1
      {"f3", c, {b}, microseconds_from_ms(4.0), 64, 500}};  // S3->S1->S2
  std::vector<std::vector<std::vector<LinkId>>> routes{
      {{link(a, s1), link(s1, s2), link(s2, s3), link(s3, c)}},
      {{link(b, s2), link(s2, s3), link(s3, s1), link(s1, a)}},
      {{link(c, s3), link(s3, s1), link(s1, s2), link(s2, b)}}};
  const TrafficConfig cfg(std::move(net), std::move(vls), std::move(routes));

  const Result r = analyze(cfg);
  EXPECT_GT(r.iterations, 1);
  for (Microseconds bound : r.path_bounds) EXPECT_GT(bound, 0.0);

  // Pinned bit for bit: the fixed point's Gauss-Seidel order and its
  // monotone per-class update decide every digit below.
  EXPECT_EQ(r.iterations, 4);
  for (Microseconds bound : r.path_bounds) EXPECT_EQ(bound, 293.9111111111111);
  for (LinkId inner : {0u, 2u, 4u}) {  // S1>S2, S2>S3, S3>S1
    EXPECT_EQ(r.ports[inner].backlog, 12209.777777777777) << inner;
    EXPECT_EQ(r.ports[inner].queue_backlog, 8177.7777777777774) << inner;
  }
  for (LinkId exit : {7u, 9u, 11u}) {  // switch -> end system
    EXPECT_EQ(r.ports[exit].backlog, 8251.5555555555547) << exit;
    EXPECT_EQ(r.ports[exit].queue_backlog, 4235.5555555555557) << exit;
  }
  for (LinkId source : {6u, 8u, 10u}) {  // end system -> switch
    EXPECT_EQ(r.ports[source].backlog, 8000.0) << source;
    EXPECT_EQ(r.ports[source].queue_backlog, 4000.0) << source;
  }
  // SFA builds its cross traffic on the same converged port delays.
  for (Microseconds bound : sfa::analyze(cfg).path_bounds) {
    EXPECT_EQ(bound, 291.331088664422);
  }
}

TEST(Netcalc, BoundForLooksUpPaths) {
  const TrafficConfig cfg = config::sample_config();
  const Result r = analyze(cfg);
  EXPECT_NEAR(r.path_bounds[cfg.path_index(PathRef{*cfg.find_vl("v5"), 0})],
              96.4, 1e-9);
  EXPECT_THROW((void)cfg.path_index(PathRef{*cfg.find_vl("v5"), 3}), Error);
}

TEST(Netcalc, MulticastIllustrativeConfig) {
  const TrafficConfig cfg = config::illustrative_config();
  const Result r = analyze(cfg);
  ASSERT_EQ(r.path_bounds.size(), cfg.all_paths().size());
  for (Microseconds b : r.path_bounds) EXPECT_GT(b, 0.0);
  // Both branches of multicast v6 share the first hop, so their bounds
  // differ only by downstream ports.
  const VlId v6 = *cfg.find_vl("v6");
  const Microseconds b0 = r.path_bounds[cfg.path_index(PathRef{v6, 0})];
  const Microseconds b1 = r.path_bounds[cfg.path_index(PathRef{v6, 1})];
  EXPECT_GT(b0, 0.0);
  EXPECT_GT(b1, 0.0);
}

}  // namespace
}  // namespace afdx::netcalc
