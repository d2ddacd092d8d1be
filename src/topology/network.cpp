#include "topology/network.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/error.hpp"

namespace afdx {

NodeId Network::add_node(std::string name, NodeKind kind) {
  AFDX_REQUIRE(!name.empty(), "node name must not be empty");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  AFDX_REQUIRE(node_index_.try_emplace(name, id).second,
               "duplicate node name: " + name);
  nodes_.push_back(Node{std::move(name), kind});
  out_links_.emplace_back();
  in_links_.emplace_back();
  return id;
}

NodeId Network::add_end_system(std::string name) {
  return add_node(std::move(name), NodeKind::kEndSystem);
}

NodeId Network::add_switch(std::string name) {
  return add_node(std::move(name), NodeKind::kSwitch);
}

LinkId Network::connect(NodeId a, NodeId b, const LinkParams& params) {
  AFDX_REQUIRE(a < nodes_.size() && b < nodes_.size(),
               "connect: node id out of range");
  AFDX_REQUIRE(a != b, "connect: self-loop on node " + nodes_[a].name);
  AFDX_REQUIRE(!(is_end_system(a) && is_end_system(b)),
               "connect: end systems cannot be wired to each other (" +
                   nodes_[a].name + " -- " + nodes_[b].name + ")");
  AFDX_REQUIRE(!link_between(a, b).has_value(),
               "connect: duplicate cable between " + nodes_[a].name + " and " +
                   nodes_[b].name);
  AFDX_REQUIRE(params.rate > 0.0, "connect: link rate must be positive");

  auto port_latency = [&](NodeId src) {
    return is_switch(src) ? params.switch_latency : params.end_system_latency;
  };
  AFDX_REQUIRE(port_latency(a) >= 0.0 && port_latency(b) >= 0.0,
               "connect: link with negative latency");

  const LinkId forward = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, params.rate, port_latency(a)});
  out_links_[a].push_back(forward);
  in_links_[b].push_back(forward);

  const LinkId backward = static_cast<LinkId>(links_.size());
  links_.push_back(Link{b, a, params.rate, port_latency(b)});
  out_links_[b].push_back(backward);
  in_links_[a].push_back(backward);

  return forward;
}

const Node& Network::node(NodeId id) const {
  AFDX_REQUIRE(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

const Link& Network::link(LinkId id) const {
  AFDX_REQUIRE(id < links_.size(), "link id out of range");
  return links_[id];
}

std::optional<NodeId> Network::find_node(std::string_view name) const {
  const auto it = node_index_.find(name);
  if (it == node_index_.end()) return std::nullopt;
  return it->second;
}

const std::vector<LinkId>& Network::links_from(NodeId id) const {
  AFDX_REQUIRE(id < nodes_.size(), "node id out of range");
  return out_links_[id];
}

const std::vector<LinkId>& Network::links_into(NodeId id) const {
  AFDX_REQUIRE(id < nodes_.size(), "node id out of range");
  return in_links_[id];
}

std::optional<LinkId> Network::link_between(NodeId a, NodeId b) const {
  AFDX_REQUIRE(a < nodes_.size() && b < nodes_.size(),
               "link_between: node id out of range");
  for (LinkId l : out_links_[a]) {
    if (links_[l].dest == b) return l;
  }
  return std::nullopt;
}

LinkId Network::reverse(LinkId id) const {
  AFDX_REQUIRE(id < links_.size(), "link id out of range");
  // connect() always creates the two directions back to back.
  return (id % 2 == 0) ? id + 1 : id - 1;
}

std::vector<NodeId> Network::end_systems() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kEndSystem) out.push_back(i);
  }
  return out;
}

std::vector<NodeId> Network::switches() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kSwitch) out.push_back(i);
  }
  return out;
}

std::optional<std::vector<LinkId>> Network::shortest_path(NodeId from,
                                                          NodeId to) const {
  return shortest_path(from, to, RouteConstraints{});
}

std::optional<std::vector<LinkId>> Network::shortest_path(
    NodeId from, NodeId to, const RouteConstraints& constraints) const {
  AFDX_REQUIRE(from < nodes_.size() && to < nodes_.size(),
               "shortest_path: node id out of range");
  if (constraints.node_blocked(from) || constraints.node_blocked(to)) {
    return std::nullopt;
  }
  if (from == to) return std::vector<LinkId>{};

  std::vector<LinkId> parent_link(nodes_.size(), kInvalidLink);
  std::vector<bool> visited(nodes_.size(), false);
  std::deque<NodeId> queue;
  queue.push_back(from);
  visited[from] = true;

  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    // End systems never forward traffic; only the source may emit.
    if (cur != from && is_end_system(cur)) continue;
    for (LinkId l : out_links_[cur]) {
      if (constraints.link_blocked(l)) continue;
      const NodeId next = links_[l].dest;
      if (visited[next] || constraints.node_blocked(next)) continue;
      visited[next] = true;
      parent_link[next] = l;
      if (next == to) {
        std::vector<LinkId> path;
        for (NodeId n = to; n != from;) {
          const LinkId pl = parent_link[n];
          path.push_back(pl);
          n = links_[pl].source;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(next);
    }
  }
  return std::nullopt;
}

void Network::validate() const {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.kind == NodeKind::kEndSystem) {
      AFDX_REQUIRE(out_links_[i].size() == 1,
                   "end system " + n.name +
                       " must be connected to exactly one switch");
      const Link& l = links_[out_links_[i].front()];
      AFDX_REQUIRE(nodes_[l.dest].kind == NodeKind::kSwitch,
                   "end system " + n.name + " must be connected to a switch");
    } else {
      AFDX_REQUIRE(!out_links_[i].empty(),
                   "switch " + n.name + " has no connections");
    }
  }
}

}  // namespace afdx
