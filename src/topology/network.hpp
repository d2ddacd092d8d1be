// AFDX network topology model.
//
// An AFDX network is a set of end systems and switches connected by full
// duplex links. We model each full-duplex cable as two *directed links*.
// Every directed link is driven by exactly one output port of its source
// node, and AFDX switches have one FIFO buffer per output port, so in the
// rest of the library "output port" and "directed link" are the same object
// and share the same id (LinkId).
//
// Architectural constraints enforced by Network::validate():
//   * an end system is connected to exactly one switch (ARINC 664 part 7);
//   * a switch port is connected to at most one end system;
//   * every switch has a connection.
// Network::connect rejects self-loops, duplicate cables, non-positive rates
// and negative latencies as the cable is added.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace afdx {

/// Index of a node (end system or switch) inside a Network.
using NodeId = std::uint32_t;
/// Index of a directed link (== output port) inside a Network.
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr LinkId kInvalidLink = static_cast<LinkId>(-1);

enum class NodeKind : std::uint8_t { kEndSystem, kSwitch };

/// A network node: either an end system (traffic source/sink) or a switch.
struct Node {
  std::string name;
  NodeKind kind = NodeKind::kEndSystem;
};

/// A directed link, i.e. the output port of `source` that transmits toward
/// `dest`. `rate` is the line rate; `latency` is the technological latency
/// of the output port (time between a frame being selected for output and
/// the first bit appearing on the wire; 16 us for typical AFDX switches).
struct Link {
  NodeId source = kInvalidNode;
  NodeId dest = kInvalidNode;
  BitsPerMicrosecond rate = 0.0;
  Microseconds latency = 0.0;
};

/// Parameters applied to the two directed links created by Network::connect.
struct LinkParams {
  BitsPerMicrosecond rate = rate_from_mbps(100.0);
  /// Latency of the switch-side output port(s).
  Microseconds switch_latency = 16.0;
  /// Latency of the end-system-side output port (usually 0: the ES shaper
  /// already accounts for its own scheduling).
  Microseconds end_system_latency = 0.0;
};

/// Mutable AFDX topology. Build with add_end_system/add_switch/connect,
/// then call validate() once before analysis.
class Network {
 public:
  /// Adds an end system; returns its id. Names must be unique.
  NodeId add_end_system(std::string name);

  /// Adds a switch; returns its id. Names must be unique.
  NodeId add_switch(std::string name);

  /// Connects two nodes with a full-duplex cable: creates the directed link
  /// a->b and b->a. Returns the id of the a->b direction (the b->a direction
  /// is always `returned id + 1`). Throws afdx::Error on duplicate cables,
  /// self-loops, ES-to-ES cables, a non-positive rate or a negative latency.
  LinkId connect(NodeId a, NodeId b, const LinkParams& params = {});

  // -- Queries ---------------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }

  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] const Link& link(LinkId id) const;

  [[nodiscard]] bool is_end_system(NodeId id) const { return node(id).kind == NodeKind::kEndSystem; }
  [[nodiscard]] bool is_switch(NodeId id) const { return node(id).kind == NodeKind::kSwitch; }

  /// Id of the node with the given name, if any. O(1): names are hashed
  /// as nodes are added.
  [[nodiscard]] std::optional<NodeId> find_node(std::string_view name) const;

  /// Outgoing directed links of `id`.
  [[nodiscard]] const std::vector<LinkId>& links_from(NodeId id) const;

  /// Incoming directed links of `id`.
  [[nodiscard]] const std::vector<LinkId>& links_into(NodeId id) const;

  /// The directed link from `a` to `b`, if the cable exists.
  [[nodiscard]] std::optional<LinkId> link_between(NodeId a, NodeId b) const;

  /// The reverse direction of a directed link.
  [[nodiscard]] LinkId reverse(LinkId id) const;

  /// All end-system ids, in creation order.
  [[nodiscard]] std::vector<NodeId> end_systems() const;

  /// All switch ids, in creation order.
  [[nodiscard]] std::vector<NodeId> switches() const;

  /// Elements a route must avoid (failed links and nodes, typically from a
  /// fault scenario). Empty vectors mean "nothing blocked"; non-empty
  /// vectors are indexed by LinkId / NodeId.
  struct RouteConstraints {
    std::vector<bool> blocked_links;
    std::vector<bool> blocked_nodes;

    [[nodiscard]] bool link_blocked(LinkId id) const {
      return id < blocked_links.size() && blocked_links[id];
    }
    [[nodiscard]] bool node_blocked(NodeId id) const {
      return id < blocked_nodes.size() && blocked_nodes[id];
    }
  };

  /// Shortest path (hop count) from `from` to `to` as a sequence of directed
  /// links; empty optional when unreachable. End systems are never used as
  /// intermediate hops (they do not forward).
  [[nodiscard]] std::optional<std::vector<LinkId>> shortest_path(NodeId from,
                                                                 NodeId to) const;

  /// Same, avoiding every blocked link and node. Two calls from the same
  /// source with the same constraints explore the same BFS tree, so the
  /// per-destination paths of one VL always share prefixes (the multicast
  /// tree property). A blocked endpoint makes the destination unreachable.
  [[nodiscard]] std::optional<std::vector<LinkId>> shortest_path(
      NodeId from, NodeId to, const RouteConstraints& constraints) const;

  /// Checks the ARINC-664 structural constraints listed in the header
  /// comment; throws afdx::Error describing the first violation.
  void validate() const;

 private:
  NodeId add_node(std::string name, NodeKind kind);

  /// Hashes std::string keys and std::string_view probes alike, so lookups
  /// by view allocate nothing.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<Node> nodes_;
  std::unordered_map<std::string, NodeId, NameHash, std::equal_to<>> node_index_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_links_;
  std::vector<std::vector<LinkId>> in_links_;
};

}  // namespace afdx
