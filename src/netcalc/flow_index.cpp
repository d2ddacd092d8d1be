#include "netcalc/flow_index.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace afdx::netcalc {

namespace {
constexpr Microseconds kAbsent = std::numeric_limits<Microseconds>::quiet_NaN();
}  // namespace

DelayTable::DelayTable(const TrafficConfig& config) {
  slot_.fill(-1);
  // Distinct priority classes, ascending -- one column each.
  std::array<bool, 256> present{};
  for (VlId v = 0; v < config.vl_count(); ++v) {
    present[config.vl(v).priority] = true;
  }
  for (int cls = 0; cls < 256; ++cls) {
    if (present[static_cast<std::size_t>(cls)]) {
      slot_[static_cast<std::size_t>(cls)] =
          static_cast<std::int16_t>(stride_++);
    }
  }
  cells_.assign(config.network().link_count() * std::max<std::size_t>(stride_, 1),
                kAbsent);
}

void DelayTable::set(LinkId port, std::uint8_t cls, Microseconds value) {
  const int slot = slot_[cls];
  AFDX_ASSERT(slot >= 0, "DelayTable::set: unknown priority class");
  cells_[port * stride_ + static_cast<std::size_t>(slot)] = value;
}

void DelayTable::assign(LinkId port,
                        const std::map<std::uint8_t, Microseconds>& row) {
  clear_row(port);
  for (const auto& [cls, d] : row) set(port, cls, d);
}

void DelayTable::clear_row(LinkId port) {
  for (std::size_t s = 0; s < stride_; ++s) cells_[port * stride_ + s] = kAbsent;
}

PortFlowIndex build_port_flow_index(const TrafficConfig& config) {
  PortFlowIndex index;
  const std::size_t n_links = config.network().link_count();
  index.ports.resize(n_links);

  for (LinkId port = 0; port < n_links; ++port) {
    PortFlowIndex::Port& p = index.ports[port];
    p.class_begin = static_cast<std::uint32_t>(index.classes.size());

    // Classes ascending; within a class the pair<bool, LinkId> key order
    // puts every fresh single (false, running counter = encounter order)
    // before the shared groups (true, input link ascending).
    std::map<std::uint8_t,
             std::map<std::pair<bool, LinkId>, std::vector<VlId>>>
        levels;
    LinkId fresh_key = 0;
    for (VlId v : config.vls_on_link(port)) {
      p.max_frame = std::max(p.max_frame, config.vl(v).burst_bits());
      auto& groups = levels[config.vl(v).priority];
      const LinkId pred = config.route(v).predecessor(port);
      if (pred == kInvalidLink) {
        groups[{false, fresh_key++}].push_back(v);
      } else {
        groups[{true, pred}].push_back(v);
      }
    }

    // Per-class largest frame at this port, for the lower-class blocking
    // term (a max, so collapsing the original per-VL rescans is exact).
    std::vector<Bits> class_max_frame;
    for (const auto& [cls, groups] : levels) {
      Bits biggest = 0.0;
      for (const auto& [key, members] : groups) {
        for (VlId v : members) {
          biggest = std::max(biggest, config.vl(v).burst_bits());
        }
      }
      class_max_frame.push_back(biggest);
    }

    std::size_t class_idx = 0;
    for (const auto& [cls, groups] : levels) {
      PortFlowIndex::ClassEntry ce;
      ce.cls = cls;
      ce.group_begin = static_cast<std::uint32_t>(index.groups.size());
      for (const auto& [key, members] : groups) {
        PortFlowIndex::Group g;
        g.pred = key.first ? key.second : kInvalidLink;
        g.member_begin = static_cast<std::uint32_t>(index.members.size());
        for (VlId v : members) {
          const VirtualLink& vl = config.vl(v);
          PortFlowIndex::Member m;
          m.vl = v;
          m.burst = vl.burst_bits();
          m.rate = vl.rate_bits_per_us();
          m.release_jitter = vl.max_release_jitter;
          m.chain_begin = static_cast<std::uint32_t>(index.chains.size());
          const VlRoute& route = config.route(v);
          for (LinkId l = route.predecessor(port); l != kInvalidLink;
               l = route.predecessor(l)) {
            index.chains.push_back(l);
          }
          m.chain_end = static_cast<std::uint32_t>(index.chains.size());
          index.members.push_back(m);
        }
        g.member_end = static_cast<std::uint32_t>(index.members.size());
        index.groups.push_back(g);
      }
      ce.group_end = static_cast<std::uint32_t>(index.groups.size());
      for (std::size_t low = class_idx + 1; low < class_max_frame.size();
           ++low) {
        ce.lower_blocking = std::max(ce.lower_blocking, class_max_frame[low]);
      }
      index.classes.push_back(ce);
      ++class_idx;
    }
    p.class_end = static_cast<std::uint32_t>(index.classes.size());
  }
  return index;
}

}  // namespace afdx::netcalc
