#include "gen/industrial.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace afdx::gen {

std::vector<Microseconds> harmonic_bags() {
  std::vector<Microseconds> bags;
  for (double ms = 2.0; ms <= 128.0; ms *= 2.0) {
    bags.push_back(microseconds_from_ms(ms));
  }
  return bags;
}

TrafficConfig industrial_config(const IndustrialOptions& o) {
  AFDX_REQUIRE(o.switch_count >= 1, "industrial_config: need >= 1 switch");
  AFDX_REQUIRE(o.end_system_count >= 2,
               "industrial_config: need >= 2 end systems");
  AFDX_REQUIRE(o.vl_count >= 1, "industrial_config: need >= 1 VL");
  AFDX_REQUIRE(o.multicast_fraction >= 0.0 && o.multicast_fraction <= 1.0,
               "industrial_config: multicast fraction in [0,1]");
  AFDX_REQUIRE(o.max_multicast_fanout >= 2,
               "industrial_config: max_multicast_fanout must be >= 2");
  AFDX_REQUIRE(o.min_bag_ms <= o.max_bag_ms,
               "industrial_config: min_bag_ms must be <= max_bag_ms");
  AFDX_REQUIRE(o.max_frame_bytes >= kMinEthernetFrame &&
                   o.max_frame_bytes <= kMaxEthernetFrame,
               "industrial_config: max_frame_bytes outside the Ethernet range");
  AFDX_REQUIRE(o.domains >= 1, "industrial_config: need >= 1 domain");
  AFDX_REQUIRE(
      o.cross_domain_fraction >= 0.0 && o.cross_domain_fraction <= 1.0,
      "industrial_config: cross_domain_fraction in [0,1]");

  Rng rng(o.seed);
  Network net;

  LinkParams lp;
  lp.rate = o.link_rate;
  lp.switch_latency = o.switch_latency;
  lp.end_system_latency = 0.0;

  // Core/edge tree backbone, as in deployed AFDX networks: up to two core
  // switches interconnect the edge switches that host the end systems. The
  // tree keeps the configuration feed-forward (see header comment) and the
  // shallow diameter matches the published path lengths (1-4 switches).
  //
  // With domains > 1, one such tree is built per domain and the domain
  // trees hang off a chain of backbone switches -- still a tree overall,
  // so feed-forwardness is preserved at any scale. `switches` holds the
  // domain switches domain-major (domain d starts at d * switch_count);
  // backbone switches host no end systems and never start a bundle.
  std::vector<NodeId> switches;
  // End systems per switch (index into `switches`), recorded at connect
  // time for the conversation bundles below.
  std::vector<std::vector<NodeId>> es_of_switch(
      static_cast<std::size_t>(o.domains) *
      static_cast<std::size_t>(o.switch_count));
  std::vector<NodeId> end_systems;
  const int cores = o.switch_count >= 4 ? 2 : 1;
  if (o.domains == 1) {
    for (int s = 0; s < o.switch_count; ++s) {
      switches.push_back(net.add_switch("S" + std::to_string(s + 1)));
      if (s == 1 && cores == 2) {
        net.connect(switches[0], switches[1], lp);
      } else if (s >= cores) {
        const auto core =
            static_cast<std::size_t>(rng.uniform_int(0, cores - 1));
        net.connect(switches[core], switches.back(), lp);
      }
    }

    // End systems spread over the switches: round-robin plus a random tail
    // so some switches host more avionics functions than others, as in
    // practice.
    for (int e = 0; e < o.end_system_count; ++e) {
      const NodeId es = net.add_end_system("e" + std::to_string(e + 1));
      std::size_t sw;
      if (e < o.switch_count) {
        sw = static_cast<std::size_t>(e);  // every switch gets at least one ES
      } else {
        sw = static_cast<std::size_t>(
            rng.uniform_int(0, o.switch_count - 1));
      }
      net.connect(es, switches[sw], lp);
      es_of_switch[sw].push_back(es);
      end_systems.push_back(es);
    }
  } else {
    // Backbone chain first, so every domain tree can attach immediately.
    const int backbone_count = (o.domains + 3) / 4;
    std::vector<NodeId> backbone;
    for (int b = 0; b < backbone_count; ++b) {
      backbone.push_back(net.add_switch("B" + std::to_string(b + 1)));
      if (b > 0) net.connect(backbone[static_cast<std::size_t>(b - 1)],
                             backbone.back(), lp);
    }
    for (int d = 0; d < o.domains; ++d) {
      const std::size_t base = switches.size();
      const std::string dom = "D" + std::to_string(d + 1);
      for (int s = 0; s < o.switch_count; ++s) {
        switches.push_back(net.add_switch(dom + "S" + std::to_string(s + 1)));
        if (s == 1 && cores == 2) {
          net.connect(switches[base], switches[base + 1], lp);
        } else if (s >= cores) {
          const auto core =
              static_cast<std::size_t>(rng.uniform_int(0, cores - 1));
          net.connect(switches[base + core], switches.back(), lp);
        }
      }
      // The domain's first core switch is its uplink to the backbone.
      net.connect(backbone[static_cast<std::size_t>(d % backbone_count)],
                  switches[base], lp);

      for (int e = 0; e < o.end_system_count; ++e) {
        const NodeId es =
            net.add_end_system(dom + "e" + std::to_string(e + 1));
        std::size_t sw;
        if (e < o.switch_count) {
          sw = static_cast<std::size_t>(e);
        } else {
          sw = static_cast<std::size_t>(
              rng.uniform_int(0, o.switch_count - 1));
        }
        net.connect(es, switches[base + sw], lp);
        es_of_switch[base + sw].push_back(es);
        end_systems.push_back(es);
      }
    }
  }

  // BAG histogram: harmonic 2..128 ms, weighted toward the middle values
  // (most avionics flows are 8..32 ms periodic), truncated to the
  // requested [min_bag_ms, max_bag_ms] spread.
  const std::vector<Microseconds> all_bags = harmonic_bags();
  const std::vector<double> all_bag_weights = {0.08, 0.14, 0.22, 0.24,
                                               0.16, 0.10, 0.06};
  AFDX_ASSERT(all_bag_weights.size() == all_bags.size(),
              "BAG weight table mismatch");
  std::vector<Microseconds> bags;
  std::vector<double> bag_weights;
  for (std::size_t i = 0; i < all_bags.size(); ++i) {
    if (all_bags[i] >= microseconds_from_ms(o.min_bag_ms) - kEpsilon &&
        all_bags[i] <= microseconds_from_ms(o.max_bag_ms) + kEpsilon) {
      bags.push_back(all_bags[i]);
      bag_weights.push_back(all_bag_weights[i]);
    }
  }
  AFDX_REQUIRE(!bags.empty(),
               "industrial_config: no harmonic BAG inside [min_bag_ms, "
               "max_bag_ms]");

  // Frame-size mix skewed toward small frames (command/status words),
  // with a tail of large file-transfer style frames, truncated to the
  // requested s_max cap.
  struct SizeBucket {
    Bytes lo, hi;
    double weight;
  };
  const std::vector<SizeBucket> all_size_buckets = {
      {64, 150, 0.35}, {151, 300, 0.25}, {301, 600, 0.20},
      {601, 900, 0.10}, {901, 1518, 0.10}};
  std::vector<SizeBucket> size_buckets;
  std::vector<double> size_weights;
  for (const auto& b : all_size_buckets) {
    if (b.lo > o.max_frame_bytes) continue;
    size_buckets.push_back({b.lo, std::min(b.hi, o.max_frame_bytes), b.weight});
    size_weights.push_back(b.weight);
  }
  AFDX_ASSERT(!size_buckets.empty(), "size bucket table empty after capping");

  // Track port rate usage while drawing VLs so the utilization cap holds.
  std::vector<double> port_rate(net.link_count(), 0.0);

  // The topology is a tree and every end system has one uplink, so the
  // route between two end systems is unique: the source's uplink, the
  // switch-to-switch path, then the destination's downlink. The middle
  // part depends only on the two switches and is computed once per pair.
  auto uplink = [&](NodeId es) {
    const std::vector<LinkId>& out = net.links_from(es);
    AFDX_ASSERT(out.size() == 1, "generated end system must have one uplink");
    return out.front();
  };
  std::unordered_map<std::uint64_t, std::vector<LinkId>> switch_paths;
  auto path_links = [&](NodeId src, NodeId dst) {
    const LinkId up = uplink(src);
    const LinkId down = net.reverse(uplink(dst));
    const NodeId src_sw = net.link(up).dest;
    const NodeId dst_sw = net.link(down).source;
    auto [it, inserted] = switch_paths.try_emplace(
        (static_cast<std::uint64_t>(src_sw) << 32) | dst_sw);
    if (inserted) {
      auto p = net.shortest_path(src_sw, dst_sw);
      AFDX_ASSERT(p.has_value(), "generated topology must be connected");
      it->second = std::move(*p);
    }
    std::vector<LinkId> path;
    path.reserve(it->second.size() + 2);
    path.push_back(up);
    path.insert(path.end(), it->second.begin(), it->second.end());
    path.push_back(down);
    return path;
  };

  auto random_es_of = [&](std::size_t sw) {
    const auto& pool = es_of_switch[sw];
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };

  std::vector<VirtualLink> vls;
  std::vector<std::vector<std::vector<LinkId>>> routes;
  int produced = 0;
  int attempts = 0;
  const int max_attempts = o.vl_count * 50;
  // Avionics functions exchange in bundles: many VLs flow between the same
  // pair of equipment bays (switches). Keep a bundle alive for several VLs.
  std::size_t bundle_src_sw = 0, bundle_dst_sw = 0;
  int bundle_left = 0;
  const int total_es = static_cast<int>(end_systems.size());
  while (produced < o.vl_count && attempts < max_attempts) {
    ++attempts;
    if (bundle_left <= 0) {
      if (o.domains == 1) {
        bundle_src_sw = static_cast<std::size_t>(
            rng.uniform_int(0, o.switch_count - 1));
        do {
          bundle_dst_sw = static_cast<std::size_t>(
              rng.uniform_int(0, o.switch_count - 1));
        } while (o.switch_count > 1 && bundle_dst_sw == bundle_src_sw);
      } else {
        // Bundles live inside one domain except for a configurable
        // fraction of inter-domain conversations over the backbone.
        const auto src_dom =
            static_cast<std::size_t>(rng.uniform_int(0, o.domains - 1));
        std::size_t dst_dom = src_dom;
        if (rng.bernoulli(o.cross_domain_fraction)) {
          do {
            dst_dom =
                static_cast<std::size_t>(rng.uniform_int(0, o.domains - 1));
          } while (dst_dom == src_dom);
        }
        const auto sw_per_dom = static_cast<std::size_t>(o.switch_count);
        bundle_src_sw =
            src_dom * sw_per_dom +
            static_cast<std::size_t>(rng.uniform_int(0, o.switch_count - 1));
        do {
          bundle_dst_sw =
              dst_dom * sw_per_dom +
              static_cast<std::size_t>(rng.uniform_int(0, o.switch_count - 1));
        } while (o.switch_count > 1 && bundle_dst_sw == bundle_src_sw);
      }
      bundle_left = static_cast<int>(rng.uniform_int(4, 16));
    }
    --bundle_left;
    if (es_of_switch[bundle_src_sw].empty() ||
        es_of_switch[bundle_dst_sw].empty()) {
      bundle_left = 0;
      continue;
    }

    VirtualLink vl;
    vl.name = "VL" + std::to_string(produced + 1);
    vl.source = random_es_of(bundle_src_sw);

    const bool multicast = rng.bernoulli(o.multicast_fraction);
    const int fanout =
        multicast ? static_cast<int>(rng.uniform_int(2, o.max_multicast_fanout))
                  : 1;
    std::set<NodeId> dests;
    for (int d = 0; d < fanout * 6 && static_cast<int>(dests.size()) < fanout;
         ++d) {
      // Mostly within the bundle's destination bay, occasionally anywhere.
      // With multiple domains, "anywhere" stays inside the bundle's domain
      // pair so cross_domain_fraction remains the only source of backbone
      // traffic.
      NodeId cand;
      if (rng.bernoulli(0.8)) {
        cand = random_es_of(bundle_dst_sw);
      } else if (o.domains == 1) {
        cand = end_systems[static_cast<std::size_t>(
            rng.uniform_int(0, total_es - 1))];
      } else {
        const auto sw_per_dom = static_cast<std::size_t>(o.switch_count);
        const std::size_t doms[2] = {bundle_src_sw / sw_per_dom,
                                     bundle_dst_sw / sw_per_dom};
        const std::size_t dom =
            doms[static_cast<std::size_t>(rng.uniform_int(0, 1))];
        cand = end_systems[dom * static_cast<std::size_t>(o.end_system_count) +
                           static_cast<std::size_t>(rng.uniform_int(
                               0, o.end_system_count - 1))];
      }
      if (cand != vl.source) dests.insert(cand);
    }
    if (dests.empty()) continue;
    vl.destinations.assign(dests.begin(), dests.end());

    std::size_t bag_idx = rng.weighted_index(bag_weights);
    const SizeBucket& bucket = size_buckets[rng.weighted_index(size_weights)];
    vl.s_max = static_cast<Bytes>(rng.uniform_int(bucket.lo, bucket.hi));
    vl.s_min = 64;
    vl.max_release_jitter = o.max_release_jitter;
    if (o.priority_levels > 1) {
      // Small command/control frames ride the high classes, bulk transfers
      // the low ones; a random tilt keeps the classes mixed.
      const double size_rank =
          static_cast<double>(vl.s_max - kMinEthernetFrame) /
          static_cast<double>(kMaxEthernetFrame - kMinEthernetFrame);
      const double tilted =
          std::clamp(size_rank + rng.uniform_real(-0.25, 0.25), 0.0, 0.999);
      vl.priority =
          static_cast<std::uint8_t>(tilted * o.priority_levels);
    }

    // Utilization check: collect the links of the multicast tree and make
    // sure the VL fits everywhere; if not, retry with a larger BAG. The
    // tree does not depend on the BAG, so it is computed once, outside the
    // retry loop.
    std::vector<std::vector<LinkId>> paths;
    std::vector<LinkId> tree;
    for (NodeId dst : vl.destinations) {
      paths.push_back(path_links(vl.source, dst));
      tree.insert(tree.end(), paths.back().begin(), paths.back().end());
    }
    std::sort(tree.begin(), tree.end());
    tree.erase(std::unique(tree.begin(), tree.end()), tree.end());
    for (; bag_idx < bags.size(); ++bag_idx) {
      vl.bag = bags[bag_idx];
      bool fits = true;
      for (LinkId l : tree) {
        const double util =
            (port_rate[l] + vl.rate_bits_per_us()) / net.link(l).rate;
        if (util > o.max_port_utilization) {
          fits = false;
          break;
        }
      }
      if (fits) {
        for (LinkId l : tree) port_rate[l] += vl.rate_bits_per_us();
        vls.push_back(vl);
        routes.push_back(std::move(paths));
        ++produced;
        break;
      }
    }
  }
  AFDX_REQUIRE(produced == o.vl_count,
               "industrial_config: could not place all VLs under the port "
               "utilization cap; lower vl_count or raise the cap");

  return TrafficConfig(std::move(net), std::move(vls), std::move(routes));
}

}  // namespace afdx::gen
