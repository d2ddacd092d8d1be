// Unit tests for virtual links, routes and TrafficConfig.
#include "vl/traffic_config.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "config/samples.hpp"

namespace afdx {
namespace {

TEST(VirtualLink, DerivedQuantities) {
  VirtualLink vl{"v", 0, {1}, microseconds_from_ms(4.0), 64, 500};
  EXPECT_DOUBLE_EQ(vl.burst_bits(), 4000.0);
  EXPECT_DOUBLE_EQ(vl.rate_bits_per_us(), 1.0);  // 4000 bits / 4000 us
  EXPECT_DOUBLE_EQ(vl.max_transmission_time(100.0), 40.0);
  EXPECT_DOUBLE_EQ(vl.min_transmission_time(100.0), 5.12);
}

TEST(VirtualLink, ValidateRejectsBadContracts) {
  VirtualLink ok{"v", 0, {1}, 4000.0, 64, 500};
  EXPECT_NO_THROW(ok.validate());

  VirtualLink no_bag = ok;
  no_bag.bag = 0.0;
  EXPECT_THROW(no_bag.validate(), Error);

  VirtualLink bad_sizes = ok;
  bad_sizes.s_min = 600;
  EXPECT_THROW(bad_sizes.validate(), Error);

  VirtualLink too_big = ok;
  too_big.s_max = 2000;
  EXPECT_THROW(too_big.validate(), Error);

  VirtualLink self_dest = ok;
  self_dest.destinations = {0};
  EXPECT_THROW(self_dest.validate(), Error);

  VirtualLink no_dest = ok;
  no_dest.destinations.clear();
  EXPECT_THROW(no_dest.validate(), Error);
}

TEST(TrafficConfig, SampleConfigShape) {
  const TrafficConfig cfg = config::sample_config();
  EXPECT_EQ(cfg.vl_count(), 5u);
  EXPECT_EQ(cfg.all_paths().size(), 5u);
  EXPECT_TRUE(cfg.stable());
  EXPECT_TRUE(cfg.find_vl("v1").has_value());
  EXPECT_FALSE(cfg.find_vl("v9").has_value());
}

TEST(TrafficConfig, SamplePathsAreRoutedAsInThePaper) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const VlId v1 = *cfg.find_vl("v1");
  const auto& path = cfg.route(v1).paths()[0];
  ASSERT_EQ(path.size(), 3u);  // e1 port, S1 port, S3 port
  EXPECT_EQ(net.node(net.link(path[0]).source).name, "e1");
  EXPECT_EQ(net.node(net.link(path[1]).source).name, "S1");
  EXPECT_EQ(net.node(net.link(path[2]).source).name, "S3");
  EXPECT_EQ(net.node(net.link(path[2]).dest).name, "e6");
}

TEST(TrafficConfig, VlsOnLinkIndexesSharedPorts) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const LinkId s3_to_e6 =
      *net.link_between(*net.find_node("S3"), *net.find_node("e6"));
  EXPECT_EQ(cfg.vls_on_link(s3_to_e6).size(), 4u);  // v1..v4
  const LinkId s3_to_e7 =
      *net.link_between(*net.find_node("S3"), *net.find_node("e7"));
  EXPECT_EQ(cfg.vls_on_link(s3_to_e7).size(), 1u);  // v5
}

TEST(TrafficConfig, UtilizationOfSharedPort) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  const LinkId s3_to_e6 =
      *net.link_between(*net.find_node("S3"), *net.find_node("e6"));
  // 4 VLs x (4000 bits / 4000 us) / 100 Mb/s = 4 / 100.
  EXPECT_NEAR(cfg.utilization(s3_to_e6), 0.04, 1e-12);
  EXPECT_NEAR(cfg.max_utilization(), 0.04, 1e-12);
}

TEST(TrafficConfig, RoutePredecessorChain) {
  const TrafficConfig cfg = config::sample_config();
  const VlId v1 = *cfg.find_vl("v1");
  const auto& path = cfg.route(v1).paths()[0];
  EXPECT_EQ(cfg.route(v1).predecessor(path[0]), kInvalidLink);
  EXPECT_EQ(cfg.route(v1).predecessor(path[1]), path[0]);
  EXPECT_EQ(cfg.route(v1).predecessor(path[2]), path[1]);
}

TEST(TrafficConfig, MulticastTreeSharesPrefix) {
  const TrafficConfig cfg = config::illustrative_config();
  const VlId v6 = *cfg.find_vl("v6");
  const auto& paths = cfg.route(v6).paths();
  ASSERT_EQ(paths.size(), 2u);
  // Both paths start on the same source port.
  EXPECT_EQ(paths[0].front(), paths[1].front());
  // The tree contains strictly fewer links than the sum of path lengths.
  EXPECT_LT(cfg.route(v6).crossed_links().size(),
            paths[0].size() + paths[1].size());
}

TEST(TrafficConfig, PrefixBeforeReturnsOrderedLinks) {
  const TrafficConfig cfg = config::sample_config();
  const VlId v1 = *cfg.find_vl("v1");
  const auto& path = cfg.route(v1).paths()[0];
  const auto prefix = cfg.route(v1).prefix_before(0, path[2]);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[0], path[0]);
  EXPECT_EQ(prefix[1], path[1]);
}

TEST(TrafficConfig, RejectsVlFromSwitch) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId s1 = net.add_switch("S1");
  net.connect(e1, s1);
  std::vector<VirtualLink> vls{{"v", s1, {e1}, 4000.0, 64, 500}};
  EXPECT_THROW(TrafficConfig(std::move(net), std::move(vls)), Error);
}

TEST(TrafficConfig, RejectsUnreachableDestination) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId s1 = net.add_switch("S1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s2 = net.add_switch("S2");
  net.connect(e1, s1);
  net.connect(e2, s2);
  std::vector<VirtualLink> vls{{"v", e1, {e2}, 4000.0, 64, 500}};
  EXPECT_THROW(TrafficConfig(std::move(net), std::move(vls)), Error);
}

TEST(TrafficConfig, ExplicitRouteIsHonoured) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  const NodeId s3 = net.add_switch("S3");
  net.connect(e1, s1);
  net.connect(s1, s3);       // short route
  net.connect(s1, s2);
  net.connect(s2, s3);       // long route
  net.connect(s3, e2);
  const LinkId l_e1s1 = *net.link_between(e1, s1);
  const LinkId l_s1s2 = *net.link_between(s1, s2);
  const LinkId l_s2s3 = *net.link_between(s2, s3);
  const LinkId l_s3e2 = *net.link_between(s3, e2);

  std::vector<VirtualLink> vls{{"v", e1, {e2}, 4000.0, 64, 500}};
  std::vector<std::vector<std::vector<LinkId>>> routes{
      {{l_e1s1, l_s1s2, l_s2s3, l_s3e2}}};
  const TrafficConfig cfg(std::move(net), std::move(vls), std::move(routes));
  EXPECT_EQ(cfg.route(0).paths()[0].size(), 4u);
}

TEST(TrafficConfig, RejectsDiscontinuousExplicitRoute) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  net.connect(e1, s1);
  net.connect(s1, s2);
  net.connect(s2, e2);
  const LinkId l_e1s1 = *net.link_between(e1, s1);
  const LinkId l_s2e2 = *net.link_between(s2, e2);
  std::vector<VirtualLink> vls{{"v", e1, {e2}, 4000.0, 64, 500}};
  std::vector<std::vector<std::vector<LinkId>>> routes{{{l_e1s1, l_s2e2}}};
  EXPECT_THROW(TrafficConfig(std::move(net), std::move(vls), std::move(routes)),
               Error);
}

TEST(TrafficConfig, PathLookupByRef) {
  const TrafficConfig cfg = config::illustrative_config();
  const VlId v6 = *cfg.find_vl("v6");
  const VlPath& p = cfg.path(PathRef{v6, 1});
  EXPECT_EQ(p.vl, v6);
  EXPECT_EQ(p.dest_index, 1u);
  EXPECT_THROW((void)cfg.path(PathRef{v6, 9}), Error);
  EXPECT_THROW((void)cfg.path_index(PathRef{kInvalidVl, 0}), Error);
  // path_index is the position in all_paths() for every path.
  const auto& all = cfg.all_paths();
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(cfg.path_index(PathRef{all[i].vl, all[i].dest_index}), i);
  }
}

TEST(TrafficConfig, IllustrativeConfigIsStableAndMultipath) {
  const TrafficConfig cfg = config::illustrative_config();
  EXPECT_TRUE(cfg.stable());
  EXPECT_EQ(cfg.vl_count(), 10u);
  EXPECT_GT(cfg.all_paths().size(), cfg.vl_count());  // multicast present
}

}  // namespace
}  // namespace afdx
