// Worst-Case Network Calculus (WCNC) analyzer for AFDX, as used for A380
// certification and described in Section II of the paper.
//
// Model:
//   * each VL enters the network constrained by the leaky bucket
//     alpha_v(t) = 8 s_max + (8 s_max / BAG) t;
//   * each output port (ES or switch) offers the rate-latency service
//     beta(t) = R (t - L)+ to the FIFO aggregate of its crossing VLs;
//   * the port delay bound is the horizontal deviation h(aggregate, beta);
//   * crossing a port with delay bound D inflates a VL's burst by rho * D
//     (holistic propagation of the worst-case jitter);
//   * end-to-end bound of a path = sum of its port delay bounds.
//
// Grouping technique (the paper's refinement, enabled by default): at a
// switch port, the VLs arriving on one shared input link are serialized by
// that link, so their joint arrival is additionally capped by the leaky
// bucket (largest member frame, input-link rate). The vertical deviation of
// the same curves gives the port backlog bound used for buffer sizing.
//
// Ports are processed following the propagation partial order; when VL
// routes make that order cyclic the analyzer falls back to a monotone
// fixed-point iteration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "minplus/curve.hpp"
#include "netcalc/flow_index.hpp"
#include "vl/traffic_config.hpp"

namespace afdx::netcalc {

struct Options {
  /// Apply the input-link serialization (grouping) refinement. Disabling it
  /// gives the historical, more pessimistic WCNC (ablation E8 of DESIGN.md).
  bool grouping = true;
  /// Maximum rounds of the fixed-point fallback for cyclic configurations.
  int max_iterations = 1000;
};

/// Analysis output for one output port.
struct PortReport {
  /// False when no VL crosses the port (other fields meaningless).
  bool used = false;
  /// Worst-case delay through the port (queueing + own transmission +
  /// technological latency). With several static-priority classes this is
  /// the worst class's delay; see level_delays for the per-class bounds.
  Microseconds delay = 0.0;
  /// Per-priority-class delay bounds (one entry per class crossing the
  /// port; FIFO configurations have a single class 0). Classes are served
  /// non-preemptively, highest (smallest value) first, FIFO within a class.
  std::map<std::uint8_t, Microseconds> level_delays;
  /// Worst-case FIFO buffer occupancy in bits (switch memory sizing),
  /// against the full rate-latency service model.
  Bits backlog = 0.0;
  /// Worst-case queue content in bits against the pure-rate service (the
  /// technological latency modelled at queue entry instead). This is the
  /// "work ahead of an arriving frame" bound the trajectory analyzer uses
  /// as its serialization cap; backlog - queue_backlog <= R * L.
  Bits queue_backlog = 0.0;
  /// Long-term utilization of the port.
  double utilization = 0.0;
};

/// Full analysis result.
struct Result {
  /// Per-port reports, indexed by LinkId.
  std::vector<PortReport> ports;
  /// End-to-end bounds, aligned with TrafficConfig::all_paths() (look one
  /// path up with TrafficConfig::path_index()).
  std::vector<Microseconds> path_bounds;
  /// Number of fixed-point rounds used (1 when the config is feed-forward).
  int iterations = 0;
};

/// Runs the WCNC analysis. Throws afdx::Error when some port is unstable
/// (utilization > 1) or the fixed point does not converge.
[[nodiscard]] Result analyze(const TrafficConfig& config,
                             const Options& options = {});

/// The report of one output port -- the unit of work the parallel analysis
/// engine schedules across threads and memoizes per port. `delays` holds
/// the per-class delays of the upstream ports (cells of ports not yet
/// processed may be absent as long as no crossing VL depends on them).
/// Deterministic: depends only on (config, port, options, upstream delays);
/// the index fixes the floating-point operation order.
[[nodiscard]] PortReport compute_port_bounds(const TrafficConfig& config,
                                             LinkId port,
                                             const Options& options,
                                             const DelayTable& delays,
                                             const PortFlowIndex& index);

/// The used output ports grouped into propagation levels: every
/// predecessor of a level-k port sits in a level < k, so the ports of one
/// level are mutually independent and may be computed concurrently.
/// Returns nullopt when the VL routes make the dependency graph cyclic
/// (the fixed-point fallback applies instead).
[[nodiscard]] std::optional<std::vector<std::vector<LinkId>>>
propagation_levels(const TrafficConfig& config);

/// The arrival curve of VL `vl` when it reaches port `port`, given the
/// already-known per-priority-class delays of upstream ports. Exposed for
/// tests.
[[nodiscard]] minplus::Curve arrival_curve_at(const TrafficConfig& config,
                                              VlId vl, LinkId port,
                                              const DelayTable& delays);

/// The grouped arrival aggregate of the VLs crossing `port` (all priority
/// classes summed), optionally excluding one VL -- the cross-traffic curve
/// the SFA residual-service method builds on. Same aggregation as
/// compute_port_bounds.
[[nodiscard]] minplus::Curve port_aggregate(const TrafficConfig& config,
                                            LinkId port,
                                            const Options& options,
                                            const DelayTable& delays,
                                            const PortFlowIndex& index,
                                            VlId exclude = kInvalidVl);

/// The converged per-port, per-class delays of an analysis result (the
/// `delays` input of arrival_curve_at / port_aggregate).
[[nodiscard]] DelayTable delay_table(const TrafficConfig& config,
                                     const Result& result);

}  // namespace afdx::netcalc
