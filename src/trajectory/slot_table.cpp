#include "trajectory/slot_table.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/counters.hpp"

namespace afdx::trajectory {

SlotTable::SlotTable(const TrafficConfig& config) {
  // The trajectory approach is a FIFO analysis; static-priority
  // configurations are handled by the network-calculus analyzer only.
  for (VlId v = 0; v < config.vl_count(); ++v) {
    AFDX_REQUIRE(config.vl(v).priority == config.vl(0).priority,
                 "trajectory: the trajectory approach supports FIFO ports "
                 "only (VL " + config.vl(v).name +
                 " uses a different priority class)");
  }
  const Network& net = config.network();
  link_offset_.assign(net.link_count() + 1, 0);
  std::vector<Slot> vl_begin(config.vl_count() + 1, 0);
  for (LinkId l = 0; l < net.link_count(); ++l) {
    const std::size_t end = link_offset_[l] + config.vls_on_link(l).size();
    AFDX_REQUIRE(end < kNoSlot,
                 "trajectory: too many (VL, link) crossings to index");
    link_offset_[l + 1] = static_cast<Slot>(end);
    for (VlId j : config.vls_on_link(l)) ++vl_begin[j + 1];
  }
  for (VlId j = 0; j < config.vl_count(); ++j) vl_begin[j + 1] += vl_begin[j];

  // The rows in slot order, and every VL's crossings as (link, slot)
  // ascending by link: a VL crosses a handful of links, so its slots are
  // found in that short list instead of in the long per-link lists.
  flows_.reserve(link_offset_.back());
  std::vector<std::pair<LinkId, Slot>> by_vl(link_offset_.back());
  std::vector<Slot> cursor(vl_begin.begin(), vl_begin.end() - 1);
  for (LinkId l = 0; l < net.link_count(); ++l) {
    for (VlId j : config.vls_on_link(l)) {
      const VirtualLink& v = config.vl(j);
      by_vl[cursor[j]++] = {l, static_cast<Slot>(flows_.size())};
      flows_.push_back(FlowAtLink{j, kInvalidLink, kNoSlot,
                                  v.max_transmission_time(net.link(l).rate),
                                  v.bag, v.max_release_jitter});
    }
  }
  // Predecessors and best-case arrivals along the VL's paths (consecutive
  // links of a path are the relation VlRoute::predecessor is built from).
  // The best-case arrival in path[k]'s queue walks the prefix backwards:
  // each earlier node adds its (smallest-frame) transmission time, each
  // node after the first its technological latency, summed from path[k]
  // outwards -- the order the recursion has always used, so every value
  // is bit-identical to a lazy walk.
  for (VlId j = 0; j < config.vl_count(); ++j) {
    const VirtualLink& v = config.vl(j);
    const auto slot_in = [&](LinkId l) {
      return std::lower_bound(by_vl.begin() + vl_begin[j],
                              by_vl.begin() + vl_begin[j + 1],
                              std::pair<LinkId, Slot>{l, 0})
          ->second;
    };
    for (const std::vector<LinkId>& path : config.route(j).paths()) {
      Slot pred_slot = kNoSlot;
      for (std::size_t k = 0; k < path.size(); ++k) {
        const Slot slot = slot_in(path[k]);
        if (k > 0) {
          FlowAtLink& f = flows_[slot];
          f.pred = path[k - 1];
          f.pred_slot = pred_slot;
          Microseconds acc = 0.0;
          for (std::size_t i = k; i > 0; --i) {
            acc += v.min_transmission_time(net.link(path[i - 1]).rate);
            acc += net.link(path[i]).latency;
          }
          f.min_arrival = acc;
        }
        pred_slot = slot;
      }
    }
  }
  static obs::Counter& builds =
      obs::registry().counter("trajectory.slot_tables");
  builds.add();
}

Slot SlotTable::find(VlId vl, LinkId link) const noexcept {
  if (link >= link_count()) return kNoSlot;
  const auto first = flows_.begin() + begin(link);
  const auto last = flows_.begin() + end(link);
  const auto it = std::lower_bound(
      first, last, vl,
      [](const FlowAtLink& f, VlId v) { return f.id < v; });
  if (it == last || it->id != vl) return kNoSlot;
  return static_cast<Slot>(it - flows_.begin());
}

}  // namespace afdx::trajectory
