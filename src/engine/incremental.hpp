// Dirty-cone planning for incremental re-analysis.
//
// Given a baseline configuration, a changed configuration sharing the same
// network (same link ids, endpoints and parameters -- e.g. a fault
// scenario's degraded view), and the set of changed links, plan_incremental
// computes the ports whose WCNC bounds may differ from the baseline:
//
//   seeds   = changed links, plus every port whose *crossing-VL tuple set*
//             (VL name, arrival link, BAG, s_min, s_max, release jitter,
//             priority class) differs from the baseline's -- this catches
//             rerouted, added and removed VLs without diffing routes
//             globally;
//   closure = everything downstream of a seed along the changed
//             configuration's propagation edges (arrival link -> port, per
//             crossing VL).
//
// Soundness: a port outside the cone has a bitwise-identical crossing
// tuple set AND every arrival port of every crossing VL outside the cone,
// recursively. The WCNC bounds of a port are a pure function of exactly
// those inputs, so clean ports keep their baseline bounds bit for bit; the
// same closure argument covers the trajectory prefix recursion (its
// interferer chains propagate through the same edges). See README for the
// discussion.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "vl/traffic_config.hpp"

namespace afdx::engine {

struct RunResult;

struct IncrementalPlan {
  /// False when the two configurations do not share a network (different
  /// link set or parameters) -- re-analysis must fall back to a full run.
  bool compatible = false;
  std::string reason;

  /// Per current-config LinkId: true when the port is inside the dirty
  /// cone (bounds must be recomputed).
  std::vector<char> dirty;
  /// Current VlId -> baseline VlId, matched by VL name (kInvalidVl for a
  /// VL the baseline does not carry).
  std::vector<VlId> base_vl;
  /// Used ports of the changed configuration inside the cone, ascending.
  std::vector<LinkId> dirty_ports;
  /// Used ports of the changed configuration outside the cone, ascending.
  std::vector<LinkId> clean_ports;
};

[[nodiscard]] IncrementalPlan plan_incremental(
    const TrafficConfig& baseline, const TrafficConfig& current,
    const std::vector<LinkId>& changed_links);

/// Baseline results a run of the changed configuration takes over
/// verbatim. Both lists stay empty unless the baseline ran its WCNC pass to
/// completion and kept its prefix cache.
struct IncrementalReuse {
  /// A trajectory prefix bound whose VL's whole upstream chain is clean;
  /// seeded into the run's shared prefix cache.
  struct Prefix {
    VlId vl = kInvalidVl;
    LinkId link = kInvalidLink;
    Microseconds bound = 0.0;
  };
  /// A path that crosses clean ports only: its finite baseline trajectory
  /// bound is taken as is, and the trajectory phase skips the path.
  struct Path {
    std::size_t path = 0;
    Microseconds trajectory = 0.0;
  };
  std::vector<Prefix> prefixes;
  std::vector<Path> paths;
};

/// The state of `baseline` (a run of `baseline_config` under the options of
/// the coming run of `current`) that `plan` leaves reusable.
[[nodiscard]] IncrementalReuse plan_reuse(const TrafficConfig& baseline_config,
                                          const RunResult& baseline,
                                          const TrafficConfig& current,
                                          const IncrementalPlan& plan);

}  // namespace afdx::engine
