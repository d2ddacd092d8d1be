#include "vl/traffic_config.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace afdx {

// ---------------------------------------------------------------------------
// VlRoute

VlRoute::VlRoute(const Network& net, const VirtualLink& vl,
                 std::vector<std::vector<LinkId>> paths)
    : paths_(std::move(paths)) {
  AFDX_REQUIRE(paths_.size() == vl.destinations.size(),
               "VL " + vl.name + ": route must have one path per destination");

  for (std::size_t d = 0; d < paths_.size(); ++d) {
    const std::vector<LinkId>& p = paths_[d];
    AFDX_REQUIRE(!p.empty(), "VL " + vl.name + ": empty path");
    AFDX_REQUIRE(net.link(p.front()).source == vl.source,
                 "VL " + vl.name + ": path must start at the source");
    AFDX_REQUIRE(net.link(p.back()).dest == vl.destinations[d],
                 "VL " + vl.name + ": path must end at its destination");
    LinkId prev = kInvalidLink;
    for (LinkId l : p) {
      if (prev != kInvalidLink) {
        AFDX_REQUIRE(net.link(prev).dest == net.link(l).source,
                     "VL " + vl.name + ": discontinuous path");
        AFDX_REQUIRE(net.is_switch(net.link(l).source),
                     "VL " + vl.name + ": path traverses an end system");
      }
      auto [it, inserted] = predecessor_.try_emplace(l, prev);
      if (inserted) {
        crossed_links_.push_back(l);
      } else {
        // The link is shared with a previously registered path: the tree
        // property demands the same predecessor.
        AFDX_REQUIRE(it->second == prev,
                     "VL " + vl.name +
                         ": multicast paths do not form a tree (link reached "
                         "via two different predecessors)");
      }
      prev = l;
    }
  }
}

LinkId VlRoute::predecessor(LinkId l) const {
  auto it = predecessor_.find(l);
  AFDX_ASSERT(it != predecessor_.end(), "predecessor: VL does not cross link");
  return it->second;
}

std::vector<LinkId> VlRoute::prefix_before(std::uint32_t dest_index,
                                           LinkId l) const {
  AFDX_ASSERT(dest_index < paths_.size(), "prefix_before: bad destination");
  const std::vector<LinkId>& p = paths_[dest_index];
  std::vector<LinkId> prefix;
  for (LinkId x : p) {
    if (x == l) return prefix;
    prefix.push_back(x);
  }
  AFDX_ASSERT(false, "prefix_before: link not on path");
  return prefix;  // unreachable
}

// ---------------------------------------------------------------------------
// TrafficConfig

TrafficConfig::TrafficConfig(Network network, std::vector<VirtualLink> vls)
    : net_(std::move(network)), vls_(std::move(vls)) {
  build({});
}

TrafficConfig::TrafficConfig(Network network, std::vector<VirtualLink> vls,
                             std::vector<std::vector<std::vector<LinkId>>> routes)
    : net_(std::move(network)), vls_(std::move(vls)) {
  build(std::move(routes));
}

void TrafficConfig::build(std::vector<std::vector<std::vector<LinkId>>> routes) {
  net_.validate();
  AFDX_REQUIRE(routes.empty() || routes.size() == vls_.size(),
               "explicit routes must cover every VL");

  link_vls_.assign(net_.link_count(), {});
  routes_.reserve(vls_.size());
  first_path_.reserve(vls_.size());

  for (VlId id = 0; id < vls_.size(); ++id) {
    const VirtualLink& vl = vls_[id];
    vl.validate();
    AFDX_REQUIRE(net_.is_end_system(vl.source),
                 "VL " + vl.name + ": source must be an end system");

    std::vector<std::vector<LinkId>> paths(vl.destinations.size());
    for (std::size_t d = 0; d < vl.destinations.size(); ++d) {
      const NodeId dest = vl.destinations[d];
      AFDX_REQUIRE(net_.is_end_system(dest),
                   "VL " + vl.name + ": destination must be an end system");
      if (!routes.empty() && !routes[id].empty() && !routes[id][d].empty()) {
        paths[d] = routes[id][d];
      } else {
        auto sp = net_.shortest_path(vl.source, dest);
        AFDX_REQUIRE(sp.has_value(), "VL " + vl.name +
                                         ": destination " +
                                         net_.node(dest).name + " unreachable");
        paths[d] = std::move(*sp);
      }
    }
    routes_.emplace_back(net_, vl, std::move(paths));

    for (LinkId l : routes_.back().crossed_links()) {
      link_vls_[l].push_back(id);
    }
    first_path_.push_back(all_paths_.size());
    for (std::uint32_t d = 0; d < vl.destinations.size(); ++d) {
      all_paths_.push_back(VlPath{id, d, routes_.back().paths()[d]});
    }
  }
}

const VirtualLink& TrafficConfig::vl(VlId id) const {
  AFDX_REQUIRE(id < vls_.size(), "VL id out of range");
  return vls_[id];
}

const VlRoute& TrafficConfig::route(VlId id) const {
  AFDX_REQUIRE(id < routes_.size(), "VL id out of range");
  return routes_[id];
}

std::optional<VlId> TrafficConfig::find_vl(const std::string& name) const {
  for (VlId i = 0; i < vls_.size(); ++i) {
    if (vls_[i].name == name) return i;
  }
  return std::nullopt;
}

std::size_t TrafficConfig::path_index(PathRef ref) const {
  AFDX_REQUIRE(ref.vl < vls_.size() &&
                   ref.dest_index < vls_[ref.vl].destinations.size(),
               "unknown path: VL " + std::to_string(ref.vl) +
                   " destination " + std::to_string(ref.dest_index));
  return first_path_[ref.vl] + ref.dest_index;
}

const std::vector<VlId>& TrafficConfig::vls_on_link(LinkId l) const {
  AFDX_REQUIRE(l < link_vls_.size(), "link id out of range");
  return link_vls_[l];
}

double TrafficConfig::utilization(LinkId l) const {
  const Link& link = net_.link(l);
  double total = 0.0;
  for (VlId id : vls_on_link(l)) total += vls_[id].rate_bits_per_us();
  return total / link.rate;
}

double TrafficConfig::max_utilization() const {
  double worst = 0.0;
  for (LinkId l = 0; l < net_.link_count(); ++l) {
    worst = std::max(worst, utilization(l));
  }
  return worst;
}

bool TrafficConfig::stable() const {
  return max_utilization() <= 1.0 + kEpsilon;
}

}  // namespace afdx
