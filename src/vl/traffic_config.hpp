// TrafficConfig: a validated AFDX network plus its static set of virtual
// links and their multicast routes. This is the single input object shared
// by the network-calculus analyzer, the trajectory analyzer and the
// simulator.
//
// Terminology used throughout the analyzers:
//   * a "node" of a VL path is an output port, i.e. a directed link;
//   * a "path" is the ordered link sequence from the source end system's
//     output port to the destination end system (one per destination);
//   * the "predecessor link" of a VL at a switch output port is the link the
//     VL's frames arrive on — flows sharing a predecessor link are
//     serialized, which is what the grouping technique exploits.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "topology/network.hpp"
#include "vl/virtual_link.hpp"

namespace afdx {

/// One unicast path of a (possibly multicast) VL: the ordered directed links
/// from the source end system to one destination end system.
struct VlPath {
  VlId vl = kInvalidVl;
  /// Index of the destination inside VirtualLink::destinations.
  std::uint32_t dest_index = 0;
  std::vector<LinkId> links;
};

/// Identifies one VL path globally: all analyzers report bounds per PathRef.
struct PathRef {
  VlId vl = kInvalidVl;
  std::uint32_t dest_index = 0;

  friend bool operator==(const PathRef&, const PathRef&) = default;
};

/// The static route of one VL: per-destination paths plus the derived tree
/// structure (set of crossed links, unique predecessor per crossed link).
class VlRoute {
 public:
  VlRoute() = default;

  /// Builds the route from per-destination paths; verifies that the union of
  /// the paths forms a tree rooted at the source (common prefixes must be
  /// identical links).
  VlRoute(const Network& net, const VirtualLink& vl,
          std::vector<std::vector<LinkId>> paths);

  [[nodiscard]] const std::vector<std::vector<LinkId>>& paths() const noexcept {
    return paths_;
  }

  /// All links crossed by the VL, without duplicates, in BFS-from-source
  /// order.
  [[nodiscard]] const std::vector<LinkId>& crossed_links() const noexcept {
    return crossed_links_;
  }

  /// True when the VL's tree uses link `l`.
  [[nodiscard]] bool crosses(LinkId l) const {
    return predecessor_.find(l) != predecessor_.end();
  }

  /// The link the VL's frames arrive on before being emitted on `l`;
  /// kInvalidLink when `l` is the source end system's output port.
  /// Requires crosses(l).
  [[nodiscard]] LinkId predecessor(LinkId l) const;

  /// Links of the path to destination `dest_index` strictly before link `l`.
  /// Requires that path to contain `l`.
  [[nodiscard]] std::vector<LinkId> prefix_before(std::uint32_t dest_index,
                                                  LinkId l) const;

 private:
  std::vector<std::vector<LinkId>> paths_;
  std::vector<LinkId> crossed_links_;
  std::unordered_map<LinkId, LinkId> predecessor_;
};

/// A complete, validated AFDX configuration.
class TrafficConfig {
 public:
  /// Builds routes automatically (shortest path per destination) and
  /// validates everything. Throws afdx::Error on any inconsistency.
  TrafficConfig(Network network, std::vector<VirtualLink> vls);

  /// Same, with explicit routes (routes[i][d] is the link path of VL i to
  /// its d-th destination). Pass an empty inner vector to request automatic
  /// routing for that destination.
  TrafficConfig(Network network, std::vector<VirtualLink> vls,
                std::vector<std::vector<std::vector<LinkId>>> routes);

  [[nodiscard]] const Network& network() const noexcept { return net_; }
  [[nodiscard]] std::size_t vl_count() const noexcept { return vls_.size(); }
  [[nodiscard]] const VirtualLink& vl(VlId id) const;
  [[nodiscard]] const VlRoute& route(VlId id) const;
  [[nodiscard]] std::optional<VlId> find_vl(const std::string& name) const;

  /// Every (VL, destination) pair of the configuration.
  [[nodiscard]] const std::vector<VlPath>& all_paths() const noexcept {
    return all_paths_;
  }

  /// Position of one path in all_paths(), which is also the position of
  /// its bound in every analyzer's path_bounds. O(1): paths are stored
  /// VL-major. Throws afdx::Error on an unknown path.
  [[nodiscard]] std::size_t path_index(PathRef ref) const;

  /// The link sequence of one path.
  [[nodiscard]] const VlPath& path(PathRef ref) const {
    return all_paths_[path_index(ref)];
  }

  /// Ids of the VLs whose tree crosses output port `l` (deterministic order).
  [[nodiscard]] const std::vector<VlId>& vls_on_link(LinkId l) const;

  /// Long-term utilization of output port `l`:
  /// sum of (8 s_max / BAG) over crossing VLs, divided by the link rate.
  [[nodiscard]] double utilization(LinkId l) const;

  /// Highest utilization over all output ports.
  [[nodiscard]] double max_utilization() const;

  /// True when every output port has utilization <= 1 (necessary for any
  /// delay bound to exist).
  [[nodiscard]] bool stable() const;

 private:
  void build(std::vector<std::vector<std::vector<LinkId>>> routes);

  Network net_;
  std::vector<VirtualLink> vls_;
  std::vector<VlRoute> routes_;
  std::vector<VlPath> all_paths_;
  std::vector<std::size_t> first_path_;      // per VL, into all_paths_
  std::vector<std::vector<VlId>> link_vls_;  // indexed by LinkId
};

}  // namespace afdx
