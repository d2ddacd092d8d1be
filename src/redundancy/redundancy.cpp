#include "redundancy/redundancy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace afdx::redundancy {

const PathRedundancy& Result::for_path(const TrafficConfig& config_a,
                                       PathRef ref) const {
  return paths[config_a.path_index(ref)];
}

void require_mirrored_vls(const TrafficConfig& a, const TrafficConfig& b) {
  AFDX_REQUIRE(a.vl_count() == b.vl_count(),
               "redundancy: the two networks carry different VL counts");
  for (VlId v = 0; v < a.vl_count(); ++v) {
    const VirtualLink& va = a.vl(v);
    const VirtualLink& vb = b.vl(v);
    AFDX_REQUIRE(va.name == vb.name,
                 "redundancy: VL order/name mismatch at index " +
                     std::to_string(v));
    AFDX_REQUIRE(nearly_equal(va.bag, vb.bag) && va.s_min == vb.s_min &&
                     va.s_max == vb.s_max && va.priority == vb.priority,
                 "redundancy: VL " + va.name +
                     " has different contracts on the two networks");
    AFDX_REQUIRE(a.network().node(va.source).name ==
                     b.network().node(vb.source).name,
                 "redundancy: VL " + va.name + " has different sources");
    AFDX_REQUIRE(va.destinations.size() == vb.destinations.size(),
                 "redundancy: VL " + va.name +
                     " has different destination counts");
    for (std::size_t d = 0; d < va.destinations.size(); ++d) {
      AFDX_REQUIRE(a.network().node(va.destinations[d]).name ==
                       b.network().node(vb.destinations[d]).name,
                   "redundancy: VL " + va.name +
                       " has different destinations");
    }
  }
}

Microseconds path_floor(const TrafficConfig& config, const VlPath& path) {
  const VirtualLink& vl = config.vl(path.vl);
  Microseconds floor = 0.0;
  for (LinkId l : path.links) {
    floor += vl.max_transmission_time(config.network().link(l).rate);
    if (config.route(path.vl).predecessor(l) != kInvalidLink) {
      floor += config.network().link(l).latency;
    }
  }
  return floor;
}

PathRedundancy combine(Microseconds bound_a, Microseconds floor_a,
                       Microseconds bound_b, Microseconds floor_b) {
  PathRedundancy pr;
  pr.first_arrival_bound = std::min(bound_a, bound_b);
  pr.skew_max = std::max(bound_a - floor_b, bound_b - floor_a);
  return pr;
}

Result analyze(const TrafficConfig& a,
               const std::vector<Microseconds>& bounds_a,
               const TrafficConfig& b,
               const std::vector<Microseconds>& bounds_b) {
  require_mirrored_vls(a, b);
  AFDX_REQUIRE(bounds_a.size() == a.all_paths().size() &&
                   bounds_b.size() == b.all_paths().size(),
               "redundancy: bounds misaligned with paths");
  AFDX_REQUIRE(bounds_a.size() == bounds_b.size(),
               "redundancy: the two networks expose different path counts");

  Result result;
  result.paths.reserve(bounds_a.size());
  for (std::size_t i = 0; i < bounds_a.size(); ++i) {
    result.paths.push_back(combine(bounds_a[i],
                                   path_floor(a, a.all_paths()[i]),
                                   bounds_b[i],
                                   path_floor(b, b.all_paths()[i])));
  }
  return result;
}

}  // namespace afdx::redundancy
