// The trajectory recursion's configuration-only data, built once and shared
// read-only.
//
// Every prefix bound of the trajectory approach (DESIGN.md section 3.2) is
// keyed by one (VL, link) crossing, its slot: the offset of the link's rows
// plus the VL's position in TrafficConfig::vls_on_link(link). The table
// holds one row per slot -- the crossing VL, its predecessor link and slot,
// its largest-frame transmission time at the link's rate, its BAG and
// release jitter, and its best-case (jitter-free) arrival in the link's
// queue. Nothing in it depends on the analyzer options or the serialization
// caps, so one table serves every analyzer of a configuration: the engine
// builds it once and hands it, through its PrefixCache, to every shard.
//
// The table is self-contained (it keeps no reference to the configuration),
// so a PrefixCache can resolve (VL, link) keys through it after the engine
// and its configuration are gone.
#pragma once

#include <cstdint>
#include <vector>

#include "vl/traffic_config.hpp"

namespace afdx::trajectory {

/// Dense index of a (VL, link) crossing.
using Slot = std::uint32_t;
inline constexpr Slot kNoSlot = ~Slot{0};

/// One row of the table; a crossing's own slot is its index.
struct FlowAtLink {
  VlId id = kInvalidVl;
  LinkId pred = kInvalidLink;
  Slot pred_slot = kNoSlot;
  Microseconds c = 0.0;
  Microseconds period = 0.0;
  Microseconds release_jitter = 0.0;
  /// Best-case time from generation to arrival in the link's queue: the
  /// exact backwards chain-walk sum (see SlotTable's constructor).
  Microseconds min_arrival = 0.0;
};

class SlotTable {
 public:
  /// Builds the table and counts one `trajectory.slot_tables`. Throws
  /// afdx::Error when the configuration mixes priority classes (the
  /// trajectory approach is a FIFO analysis) or has too many crossings to
  /// index.
  explicit SlotTable(const TrafficConfig& config);

  /// Number of slots.
  [[nodiscard]] std::size_t size() const noexcept { return flows_.size(); }
  [[nodiscard]] const FlowAtLink& operator[](Slot s) const noexcept {
    return flows_[s];
  }
  /// Link l's rows are [begin(l), end(l)), ascending by VlId.
  [[nodiscard]] Slot begin(LinkId l) const noexcept { return link_offset_[l]; }
  [[nodiscard]] Slot end(LinkId l) const noexcept {
    return link_offset_[l + 1];
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return link_offset_.size() - 1;
  }
  /// The slot of (vl, link), or kNoSlot when the link is out of range or
  /// the VL does not cross it.
  [[nodiscard]] Slot find(VlId vl, LinkId link) const noexcept;

 private:
  std::vector<FlowAtLink> flows_;
  std::vector<Slot> link_offset_;
};

}  // namespace afdx::trajectory
