// The flat (structure-of-arrays) inputs of the one WCNC per-port
// computation (netcalc_analyzer.cpp). Both are built once per
// configuration:
//
//   * DelayTable -- the per-port per-class delay state as one contiguous
//     array (n_links x distinct-class-count cells, NaN = absent).
//   * PortFlowIndex -- every port's crossing VLs partitioned into
//     port -> classes -> groups -> members -> upstream chain.
//
// The index order is the definition of the WCNC aggregation order:
// classes ascending; within a class, the fresh per-VL groups (VLs born at
// the port) in encounter order, then the shared-input-link groups by
// ascending input link; members in encounter order; each chain from the
// port upward. The aggregation sums curves in exactly this order, so its
// floating-point result is fixed by the index.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "vl/traffic_config.hpp"

namespace afdx::netcalc {

/// Flat per-port per-priority-class delay store. A cell is "absent" (NaN)
/// until set; class values not present anywhere in the configuration have
/// no column at all.
class DelayTable {
 public:
  explicit DelayTable(const TrafficConfig& config);

  /// True when (port, cls) has been set since construction / last clear.
  [[nodiscard]] bool has(LinkId port, std::uint8_t cls) const noexcept {
    const int slot = slot_[cls];
    if (slot < 0) return false;
    return !std::isnan(cells_[port * stride_ + static_cast<std::size_t>(slot)]);
  }

  /// The stored delay; only valid when has() is true.
  [[nodiscard]] Microseconds get(LinkId port, std::uint8_t cls) const noexcept {
    return cells_[port * stride_ + static_cast<std::size_t>(slot_[cls])];
  }

  void set(LinkId port, std::uint8_t cls, Microseconds value);

  /// Replaces the whole row of `port` with the map entries.
  void assign(LinkId port, const std::map<std::uint8_t, Microseconds>& row);

  /// Marks every class of `port` absent again.
  void clear_row(LinkId port);

  /// Number of distinct priority classes (columns).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }

 private:
  std::size_t stride_ = 0;
  std::array<std::int16_t, 256> slot_{};  // class -> column, -1 when unused
  std::vector<Microseconds> cells_;       // link-major, NaN = absent
};

/// Once-built flattening of every port's crossing-VL partition (the file
/// comment gives the order, which is the aggregation order).
struct PortFlowIndex {
  struct Member {
    VlId vl = kInvalidVl;
    Bits burst = 0.0;                 // VirtualLink::burst_bits()
    BitsPerMicrosecond rate = 0.0;    // VirtualLink::rate_bits_per_us()
    Microseconds release_jitter = 0.0;
    std::uint32_t chain_begin = 0;    // [begin, end) into `chains`: the
    std::uint32_t chain_end = 0;      // upstream ports, nearest first
  };
  struct Group {
    LinkId pred = kInvalidLink;       // shared input link; invalid = fresh
    std::uint32_t member_begin = 0;   // [begin, end) into `members`
    std::uint32_t member_end = 0;
  };
  struct ClassEntry {
    std::uint8_t cls = 0;
    std::uint32_t group_begin = 0;    // [begin, end) into `groups`
    std::uint32_t group_end = 0;
    Bits lower_blocking = 0.0;        // max frame of all lower classes here
  };
  struct Port {
    std::uint32_t class_begin = 0;    // [begin, end) into `classes`
    std::uint32_t class_end = 0;
    Bits max_frame = 0.0;             // largest frame of any crossing VL
  };

  std::vector<Port> ports;            // indexed by LinkId
  std::vector<ClassEntry> classes;
  std::vector<Group> groups;
  std::vector<Member> members;
  std::vector<LinkId> chains;
};

[[nodiscard]] PortFlowIndex build_port_flow_index(const TrafficConfig& config);

}  // namespace afdx::netcalc
