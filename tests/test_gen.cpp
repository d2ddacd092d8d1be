// Tests for the synthetic industrial configuration generator: the generated
// configurations must carry the paper's published macroscopic statistics.
#include "gen/industrial.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "config/serialization.hpp"
#include "trajectory/trajectory_analyzer.hpp"

namespace afdx::gen {
namespace {

TEST(Industrial, HarmonicBagLadder) {
  const auto bags = harmonic_bags();
  ASSERT_EQ(bags.size(), 7u);
  EXPECT_DOUBLE_EQ(bags.front(), 2000.0);
  EXPECT_DOUBLE_EQ(bags.back(), 128000.0);
  for (std::size_t i = 1; i < bags.size(); ++i) {
    EXPECT_DOUBLE_EQ(bags[i], 2.0 * bags[i - 1]);
  }
}

TEST(Industrial, DefaultConfigurationShape) {
  const TrafficConfig cfg = industrial_config();
  EXPECT_EQ(cfg.vl_count(), 500u);
  EXPECT_EQ(cfg.network().switches().size(), 8u);
  EXPECT_EQ(cfg.network().end_systems().size(), 60u);
  EXPECT_GT(cfg.all_paths().size(), cfg.vl_count());  // multicast present
  EXPECT_TRUE(cfg.stable());
}

TEST(Industrial, RespectsUtilizationCap) {
  IndustrialOptions o;
  o.vl_count = 300;
  const TrafficConfig cfg = industrial_config(o);
  EXPECT_LE(cfg.max_utilization(), o.max_port_utilization + 1e-9);
}

TEST(Industrial, ContractsWithinPublishedRanges) {
  const TrafficConfig cfg = industrial_config();
  const auto bags = harmonic_bags();
  const std::set<Microseconds> bag_set(bags.begin(), bags.end());
  std::size_t multicast = 0;
  for (VlId v = 0; v < cfg.vl_count(); ++v) {
    const VirtualLink& vl = cfg.vl(v);
    EXPECT_TRUE(bag_set.count(vl.bag)) << vl.name << " BAG " << vl.bag;
    EXPECT_GE(vl.s_max, kMinEthernetFrame);
    EXPECT_LE(vl.s_max, kMaxEthernetFrame);
    EXPECT_EQ(vl.s_min, kMinEthernetFrame);
    if (vl.destinations.size() > 1) ++multicast;
    EXPECT_LE(vl.destinations.size(), 6u);
  }
  // ~40 % multicast requested; allow generous slack.
  const double frac = static_cast<double>(multicast) / cfg.vl_count();
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.55);
}

TEST(Industrial, PathLengthsMatchPaperScale) {
  const TrafficConfig cfg = industrial_config();
  for (const VlPath& p : cfg.all_paths()) {
    EXPECT_GE(p.links.size(), 2u);  // ES port + at least one switch port
    EXPECT_LE(p.links.size(), 6u);  // shallow core/edge backbone
  }
}

TEST(Industrial, GeneratedConfigurationIsFeedForward) {
  // The trajectory analyzer throws on cyclic prefix dependencies; the tree
  // backbone must prevent them.
  IndustrialOptions o;
  o.vl_count = 80;
  o.end_system_count = 24;
  const TrafficConfig cfg = industrial_config(o);
  EXPECT_NO_THROW(trajectory::analyze(cfg));
}

TEST(Industrial, DeterministicPerSeed) {
  IndustrialOptions o;
  o.vl_count = 50;
  o.end_system_count = 16;
  const TrafficConfig a = industrial_config(o);
  const TrafficConfig b = industrial_config(o);
  ASSERT_EQ(a.vl_count(), b.vl_count());
  for (VlId v = 0; v < a.vl_count(); ++v) {
    EXPECT_EQ(a.vl(v).name, b.vl(v).name);
    EXPECT_EQ(a.vl(v).s_max, b.vl(v).s_max);
    EXPECT_DOUBLE_EQ(a.vl(v).bag, b.vl(v).bag);
    EXPECT_EQ(a.vl(v).destinations, b.vl(v).destinations);
  }
}

TEST(Industrial, SeedsProduceDifferentConfigurations) {
  IndustrialOptions a, b;
  a.vl_count = b.vl_count = 50;
  a.end_system_count = b.end_system_count = 16;
  b.seed = a.seed + 1;
  const TrafficConfig ca = industrial_config(a);
  const TrafficConfig cb = industrial_config(b);
  bool differs = false;
  for (VlId v = 0; v < ca.vl_count() && !differs; ++v) {
    differs = ca.vl(v).s_max != cb.vl(v).s_max ||
              ca.vl(v).destinations != cb.vl(v).destinations;
  }
  EXPECT_TRUE(differs);
}

TEST(Industrial, EverySwitchHostsAnEndSystem) {
  const TrafficConfig cfg = industrial_config();
  const Network& net = cfg.network();
  for (NodeId sw : net.switches()) {
    bool has_es = false;
    for (LinkId l : net.links_from(sw)) {
      has_es = has_es || net.is_end_system(net.link(l).dest);
    }
    EXPECT_TRUE(has_es) << net.node(sw).name;
  }
}

TEST(Industrial, InfeasibleParametersRejected) {
  IndustrialOptions o;
  o.end_system_count = 1;
  EXPECT_THROW(industrial_config(o), Error);

  IndustrialOptions cap;
  cap.vl_count = 5000;
  cap.end_system_count = 4;
  cap.switch_count = 1;
  cap.max_port_utilization = 0.05;  // cannot possibly fit
  EXPECT_THROW(industrial_config(cap), Error);

  IndustrialOptions frac;
  frac.multicast_fraction = 1.5;
  EXPECT_THROW(industrial_config(frac), Error);
}

TEST(Industrial, MultiDomainShapeAndUtilizationCap) {
  IndustrialOptions o;
  o.domains = 4;
  o.vl_count = 800;
  const TrafficConfig cfg = industrial_config(o);
  EXPECT_EQ(cfg.vl_count(), 800u);
  // Four 8-switch domain trees plus one backbone switch per four domains.
  EXPECT_EQ(cfg.network().switches().size(), 4u * 8u + 1u);
  EXPECT_EQ(cfg.network().end_systems().size(), 4u * 60u);
  EXPECT_TRUE(cfg.stable());
  EXPECT_LE(cfg.max_utilization(), o.max_port_utilization + 1e-9);
}

TEST(Industrial, MultiDomainIsFeedForwardAndConnected) {
  IndustrialOptions o;
  o.domains = 5;  // odd count: two backbone switches, uneven domain spread
  o.vl_count = 150;
  o.end_system_count = 12;
  o.cross_domain_fraction = 0.3;
  const TrafficConfig cfg = industrial_config(o);
  // The trajectory analyzer throws on cyclic prefix dependencies; the
  // domain-trees-off-a-backbone-chain topology must stay a tree.
  EXPECT_NO_THROW(trajectory::analyze(cfg));
  // Every node is reachable from node 0 (connect() adds both directions,
  // so links_from gives an undirected traversal).
  const Network& net = cfg.network();
  std::vector<bool> seen(net.node_count(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (LinkId l : net.links_from(n)) {
      const NodeId m = net.link(l).dest;
      if (!seen[m]) {
        seen[m] = true;
        stack.push_back(m);
      }
    }
  }
  for (std::size_t n = 0; n < net.node_count(); ++n) {
    EXPECT_TRUE(seen[n]) << net.node(n).name;
  }
}

TEST(Industrial, CrossDomainFractionControlsBackboneTraffic) {
  // Domain of an end system, parsed from its "D<d>e<k>" generated name.
  const auto domain_of = [](const std::string& name) {
    return std::stoi(name.substr(1, name.find('e') - 1));
  };
  IndustrialOptions local;
  local.domains = 3;
  local.vl_count = 200;
  local.end_system_count = 12;
  local.cross_domain_fraction = 0.0;
  const TrafficConfig all_local = industrial_config(local);
  for (VlId v = 0; v < all_local.vl_count(); ++v) {
    const VirtualLink& vl = all_local.vl(v);
    const int src = domain_of(all_local.network().node(vl.source).name);
    for (NodeId d : vl.destinations) {
      EXPECT_EQ(domain_of(all_local.network().node(d).name), src) << vl.name;
    }
  }
  IndustrialOptions crossing = local;
  crossing.cross_domain_fraction = 0.5;
  const TrafficConfig mixed = industrial_config(crossing);
  std::size_t cross = 0;
  for (VlId v = 0; v < mixed.vl_count(); ++v) {
    const VirtualLink& vl = mixed.vl(v);
    const int src = domain_of(mixed.network().node(vl.source).name);
    for (NodeId d : vl.destinations) {
      if (domain_of(mixed.network().node(d).name) != src) {
        ++cross;
        break;
      }
    }
  }
  EXPECT_GT(cross, 0u);
}

TEST(Industrial, MultiDomainDeterministicPerSeed) {
  IndustrialOptions o;
  o.domains = 3;
  o.vl_count = 120;
  o.end_system_count = 12;
  const TrafficConfig a = industrial_config(o);
  const TrafficConfig b = industrial_config(o);
  ASSERT_EQ(a.vl_count(), b.vl_count());
  ASSERT_EQ(a.network().node_count(), b.network().node_count());
  for (VlId v = 0; v < a.vl_count(); ++v) {
    EXPECT_EQ(a.vl(v).name, b.vl(v).name);
    EXPECT_EQ(a.vl(v).source, b.vl(v).source);
    EXPECT_EQ(a.vl(v).s_max, b.vl(v).s_max);
    EXPECT_DOUBLE_EQ(a.vl(v).bag, b.vl(v).bag);
    EXPECT_EQ(a.vl(v).destinations, b.vl(v).destinations);
  }
}

TEST(Industrial, SingleSwitchDegenerateCase) {
  IndustrialOptions o;
  o.switch_count = 1;
  o.end_system_count = 8;
  o.vl_count = 20;
  const TrafficConfig cfg = industrial_config(o);
  EXPECT_EQ(cfg.vl_count(), 20u);
  for (const VlPath& p : cfg.all_paths()) EXPECT_EQ(p.links.size(), 2u);
}

// The generator's saved text is pinned byte for byte: FNV-1a 64 digests of
// save_config_string over a spread of seeds, domain counts and shapes.
TEST(Industrial, SavedTextIsPinned) {
  struct Pin {
    std::uint64_t seed;
    int domains, vl_count, switch_count, end_system_count;
    double multicast_fraction;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {7, 1, 1000, 8, 60, 0.4, 17170155347691230478ull},
      {42, 4, 3000, 8, 60, 0.4, 17888089043224236501ull},
      {1, 8, 10000, 8, 60, 0.4, 17986883879759743975ull},
      {5, 1, 500, 3, 20, 0.5, 3117602676351775346ull},
      {9, 2, 800, 1, 10, 0.3, 18169873930664162175ull},
  };
  for (const Pin& p : pins) {
    IndustrialOptions o;
    o.seed = p.seed;
    o.domains = p.domains;
    o.vl_count = p.vl_count;
    o.switch_count = p.switch_count;
    o.end_system_count = p.end_system_count;
    o.multicast_fraction = p.multicast_fraction;
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
    for (unsigned char c : config::save_config_string(industrial_config(o))) {
      h = (h ^ c) * 1099511628211ull;  // FNV-1a 64 prime
    }
    EXPECT_EQ(h, p.digest) << "seed " << p.seed << ", " << p.domains
                           << " domains, " << p.vl_count << " VLs";
  }
}

}  // namespace
}  // namespace afdx::gen
