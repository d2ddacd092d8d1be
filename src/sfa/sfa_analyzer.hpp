// Separated Flow Analysis (SFA) -- the classic "pay bursts only once"
// network-calculus method, as implemented by general-purpose tools such as
// DiscoDNC (the state of the art the paper's approaches are positioned
// against).
//
// For each flow: at every crossed port, the service left to the flow under
// arbitrary (blind) multiplexing is the residual
//   beta_port_residual = [beta_port - alpha_cross]+,
// with alpha_cross the grouped arrival aggregate of all other flows at the
// port (bursts inflated by the upstream worst-case delays of a prior WCNC
// pass). The residuals of all crossed ports are min-plus convolved into one
// end-to-end service curve, and the bound is a single horizontal deviation
// against the flow's source envelope -- the flow's burst is "paid" once
// instead of at every hop.
//
// AFDX switches are store-and-forward, so the fluid convolution bound is
// corrected by one own-frame packetization delay per hop except the last
// (Le Boudec & Thiran's packetizer result).
//
// Because the residual assumes arbitrary multiplexing, it is sound for
// FIFO and for static-priority ports alike; per-hop it is more pessimistic
// than the FIFO-aware WCNC -- on AFDX configurations both of the paper's
// methods dominate it, which is exactly the paper's motivation for
// specialized analyses over general-purpose network-calculus tools.
#pragma once

#include <vector>

#include "netcalc/netcalc_analyzer.hpp"
#include "vl/traffic_config.hpp"

namespace afdx::sfa {

struct Options {
  /// Options of the embedded WCNC pass (grouping, fixed-point limits) used
  /// both for the upstream-jitter burst inflation and the cross-traffic
  /// aggregates.
  netcalc::Options netcalc_options;
};

struct Result {
  /// End-to-end bounds, aligned with TrafficConfig::all_paths().
  std::vector<Microseconds> path_bounds;
};

/// Runs the SFA analysis. Throws afdx::Error when some port is unstable.
[[nodiscard]] Result analyze(const TrafficConfig& config,
                             const Options& options = {});

/// The end-to-end residual service curve of one path (exposed for tests).
[[nodiscard]] minplus::Curve end_to_end_service(const TrafficConfig& config,
                                                PathRef ref,
                                                const Options& options = {});

}  // namespace afdx::sfa
