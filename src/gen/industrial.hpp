// Synthetic industrial AFDX configuration generator.
//
// The paper evaluates both methods on a proprietary Airbus configuration:
// two redundant sub-networks of eight switches each, more than one hundred
// end systems, ~1000 VLs / ~6000 VL paths, harmonic BAGs between 2 ms and
// 128 ms and Ethernet frame sizes between 64 B and 1518 B. That
// configuration cannot be shipped, so this generator produces a seeded
// random configuration with the same macroscopic statistics (DESIGN.md,
// "Substitutions"). The comparison experiments only depend on these
// statistics, not on Airbus wiring.
//
// The switch backbone is a random tree, which keeps the configuration
// feed-forward (a property the trajectory approach requires and that
// engineered avionics configurations have).
//
// Scaling beyond the paper: with `domains` > 1 the generator produces a
// hierarchical multi-domain network -- `domains` copies of the per-domain
// core/edge tree (switch_count and end_system_count are then PER DOMAIN),
// joined by a chain of backbone switches; a configurable fraction of the
// traffic bundles crosses domains over the backbone. The overall topology
// stays a tree: a directed-link cycle would be a non-backtracking closed
// walk, which trees do not have, so every multi-domain configuration is
// feed-forward by construction and the utilization cap is enforced on
// every link including the backbone. domains = 1 reproduces the legacy
// single-domain generator bit-for-bit (same RNG stream, same names).
//
// Because the topology is a tree and every end system has exactly one
// uplink, the route between two end systems is unique: uplink, then the
// switch-to-switch path, then downlink. The generator computes each
// switch-to-switch path once per switch pair and hands every VL its routes
// explicitly, so building the configuration runs no shortest-path search.
#pragma once

#include <cstdint>

#include "vl/traffic_config.hpp"

namespace afdx::gen {

struct IndustrialOptions {
  std::uint64_t seed = 42;
  /// Switches of the sub-network (paper: 8 per redundant sub-network).
  int switch_count = 8;
  /// End systems (paper: >100 over the whole aircraft; ~60 per sub-network).
  int end_system_count = 60;
  /// Virtual links to generate.
  int vl_count = 500;
  /// Fraction of multicast VLs; multicast fan-out is drawn in
  /// [2, max_multicast_fanout].
  double multicast_fraction = 0.4;
  /// Largest multicast fan-out drawn (paper-scale configurations use up
  /// to 6 destinations; the fuzzing grid sweeps this).
  int max_multicast_fanout = 6;
  /// Harmonic BAG subrange actually drawn, in milliseconds. The defaults
  /// keep the paper's full 2..128 ms histogram; narrowing the range lets
  /// the validation campaigns sweep the BAG spread.
  double min_bag_ms = 2.0;
  double max_bag_ms = 128.0;
  /// Cap on the drawn s_max (bytes); the frame-size mix is truncated to
  /// [64, max_frame_bytes]. 1518 keeps the full Ethernet range.
  Bytes max_frame_bytes = kMaxEthernetFrame;
  /// Hard cap on any output-port long-term utilization; VLs that would
  /// exceed it are re-drawn with a larger BAG or dropped.
  double max_port_utilization = 0.75;
  /// Link rate (100 Mb/s) and switch latency (16 us) as in the paper.
  BitsPerMicrosecond link_rate = rate_from_mbps(100.0);
  Microseconds switch_latency = 16.0;
  /// Static-priority classes (1 = plain FIFO, the paper's model). With more
  /// classes, small-frame/short-BAG VLs are biased toward the high class,
  /// as avionics command/control traffic is.
  int priority_levels = 1;
  /// Maximum source release jitter applied to every VL (0 = ideal shapers).
  Microseconds max_release_jitter = 0.0;
  /// Hierarchical domains. 1 = the legacy single-domain generator
  /// (bit-identical RNG stream). With more domains, switch_count and
  /// end_system_count apply per domain and the domain trees are joined by
  /// a chain of ceil(domains / 4) backbone switches (airliner-and-beyond
  /// scale: 8 domains x 8 switches is a 66-switch, 10k-VL-class network).
  int domains = 1;
  /// Fraction of traffic bundles whose destination bay lies in a different
  /// domain (routed over the backbone). Ignored when domains == 1.
  double cross_domain_fraction = 0.05;
};

/// Generates the configuration. Deterministic for a given option set.
/// Throws afdx::Error when the parameters are infeasible (e.g. fewer than
/// two end systems).
[[nodiscard]] TrafficConfig industrial_config(const IndustrialOptions& options = {});

/// The harmonic BAG values used by the paper's industrial configuration
/// (2, 4, 8, ..., 128 ms), in microseconds.
[[nodiscard]] std::vector<Microseconds> harmonic_bags();

}  // namespace afdx::gen
