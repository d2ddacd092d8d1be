#include "netcalc/netcalc_analyzer.hpp"

#include <algorithm>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "minplus/operations.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace afdx::netcalc {

namespace {

using minplus::Curve;

/// A flow's source envelope delayed by up to `jitter` (release jitter plus
/// the upstream port delays): the burst grows by rho times the delay.
Curve delayed_envelope(Bits burst, BitsPerMicrosecond rate,
                       Microseconds jitter) {
  return Curve::affine(burst + rate * jitter, rate);
}

/// The grouped arrival aggregate of one priority class at a port.
struct ClassAggregate {
  const PortFlowIndex::ClassEntry* entry = nullptr;
  Curve curve;
};

/// The one grouped aggregation of WCNC: the crossing VLs of `port` (minus
/// `exclude`) summed per priority class, ascending. Each member envelope is
/// inflated by its upstream delays in its own class; a shared-input-link
/// group of two or more members is capped by the link's leaky bucket
/// (largest member frame, link rate). The index order is the operation
/// order, so every caller gets the same bits.
std::vector<ClassAggregate> class_aggregates(const TrafficConfig& config,
                                             LinkId port,
                                             const Options& options,
                                             const DelayTable& delays,
                                             const PortFlowIndex& index,
                                             VlId exclude) {
  const Network& net = config.network();
  const PortFlowIndex::Port& p = index.ports[port];
  std::vector<ClassAggregate> out;
  out.reserve(p.class_end - p.class_begin);
  for (std::uint32_t ci = p.class_begin; ci != p.class_end; ++ci) {
    const PortFlowIndex::ClassEntry& ce = index.classes[ci];
    Curve aggregate;  // zero curve
    bool any = false;
    for (std::uint32_t gi = ce.group_begin; gi != ce.group_end; ++gi) {
      const PortFlowIndex::Group& g = index.groups[gi];
      Curve group_curve;
      Bits largest_frame = 0.0;
      std::uint32_t members = 0;
      for (std::uint32_t mi = g.member_begin; mi != g.member_end; ++mi) {
        const PortFlowIndex::Member& mb = index.members[mi];
        if (mb.vl == exclude) continue;
        Microseconds acc = 0.0;
        for (std::uint32_t k = mb.chain_begin; k != mb.chain_end; ++k) {
          const LinkId up = index.chains[k];
          if (delays.has(up, ce.cls)) acc += delays.get(up, ce.cls);
        }
        group_curve = minplus::sum(
            group_curve,
            delayed_envelope(mb.burst, mb.rate, mb.release_jitter + acc));
        largest_frame = std::max(largest_frame, mb.burst);
        ++members;
      }
      // A group (or class) the exclusion empties contributes nothing, not
      // even a zero curve: as if its only VL never crossed the port.
      if (members == 0) continue;
      if (options.grouping && g.pred != kInvalidLink && members >= 2) {
        // Frames of the group are serialized by the shared input link: over
        // any window of length t at most (rate * t + largest frame) bits
        // can arrive. A lone flow on a link is not grouped with anything
        // (the published grouping technique exploits serialization between
        // flows).
        group_curve = minplus::minimum(
            group_curve, Curve::affine(largest_frame, net.link(g.pred).rate));
      }
      aggregate = minplus::sum(aggregate, group_curve);
      any = true;
    }
    if (any) out.push_back(ClassAggregate{&ce, std::move(aggregate)});
  }
  return out;
}

/// Sums the per-class port delays along every path, aligned with
/// TrafficConfig::all_paths().
std::vector<Microseconds> path_bounds_from(const TrafficConfig& config,
                                           const DelayTable& delays) {
  std::vector<Microseconds> out;
  out.reserve(config.all_paths().size());
  for (const VlPath& p : config.all_paths()) {
    const std::uint8_t level = config.vl(p.vl).priority;
    Microseconds total = 0.0;
    for (LinkId l : p.links) {
      AFDX_ASSERT(delays.has(l, level), "missing level delay");
      total += delays.get(l, level);
    }
    out.push_back(total);
  }
  return out;
}

}  // namespace

// The per-port computation: aggregate the crossing VLs per priority class
// (with grouping when enabled), derive each class's residual service, and
// return the class delay bounds plus the port backlog bounds.
PortReport compute_port_bounds(const TrafficConfig& config, LinkId port,
                               const Options& options,
                               const DelayTable& delays,
                               const PortFlowIndex& index) {
  AFDX_TRACE_SPAN("netcalc.port", "netcalc");
  // Every intermediate curve of this port's computation (aggregates,
  // convolutions, residual services) bump-allocates its breakpoints here
  // and is reclaimed by one rewind on return; the produced PortReport
  // carries only scalars, so nothing arena-backed escapes the scope.
  static thread_local common::BumpArena curve_arena;
  const common::ArenaScope curve_scope(curve_arena);
  static obs::Counter& ports_computed =
      obs::registry().counter("netcalc.ports_computed");
  ports_computed.add();
  const Network& net = config.network();
  const Link& link = net.link(port);

  const std::vector<ClassAggregate> classes =
      class_aggregates(config, port, options, delays, index, kInvalidVl);
  Curve total_aggregate;
  for (const ClassAggregate& c : classes) {
    total_aggregate = minplus::sum(total_aggregate, c.curve);
  }

  const Curve beta = Curve::rate_latency(link.rate, link.latency);
  const Curve pure_rate = Curve::rate_latency(link.rate, 0.0);
  try {
    PortReport report;
    report.used = true;
    report.utilization = config.utilization(port);
    // Buffer sizing (the memory is shared by all classes of the port) with
    // store-and-forward release: a frame occupies the FIFO until fully
    // transmitted, so the fluid backlog is raised by one maximum frame.
    report.backlog = minplus::vertical_deviation(total_aggregate, beta) +
                     index.ports[port].max_frame;
    report.queue_backlog =
        minplus::vertical_deviation(total_aggregate, pure_rate);

    // Per-class delays: class k is served after all higher classes and can
    // be blocked by one lower-class frame already in transmission.
    Curve higher;  // zero curve
    const bool only_class = classes.size() == 1;
    for (const ClassAggregate& c : classes) {
      const Curve service =
          only_class ? beta
                     : minplus::residual_service(beta, higher,
                                                 c.entry->lower_blocking);
      const Microseconds d = minplus::horizontal_deviation(c.curve, service);
      report.level_delays[c.entry->cls] = d;
      report.delay = std::max(report.delay, d);
      higher = minplus::sum(higher, c.curve);
    }
    return report;
  } catch (const Error&) {
    throw Error("WCNC: unstable output port " +
                net.node(link.source).name + " -> " +
                net.node(link.dest).name + " (utilization " +
                std::to_string(config.utilization(port)) + ")");
  }
}

std::optional<std::vector<std::vector<LinkId>>> propagation_levels(
    const TrafficConfig& config) {
  const std::size_t n = config.network().link_count();
  std::vector<LinkId> used_ports;
  for (LinkId l = 0; l < n; ++l) {
    if (!config.vls_on_link(l).empty()) used_ports.push_back(l);
  }

  std::vector<std::vector<LinkId>> successors(n);
  std::vector<int> in_degree(n, 0);
  for (LinkId port : used_ports) {
    for (VlId v : config.vls_on_link(port)) {
      const LinkId pred = config.route(v).predecessor(port);
      if (pred != kInvalidLink) {
        successors[pred].push_back(port);
        ++in_degree[port];
      }
    }
  }
  std::vector<LinkId> level;
  for (LinkId port : used_ports) {
    if (in_degree[port] == 0) level.push_back(port);
  }
  std::vector<std::vector<LinkId>> levels;
  std::size_t placed = 0;
  while (!level.empty()) {
    placed += level.size();
    std::vector<LinkId> next;
    for (LinkId p : level) {
      for (LinkId s : successors[p]) {
        if (--in_degree[s] == 0) next.push_back(s);
      }
    }
    // A VL can cross several predecessors of the same port, so `next`
    // accumulates in route-discovery order; keep levels stable.
    std::sort(next.begin(), next.end());
    levels.push_back(std::move(level));
    level = std::move(next);
  }
  if (placed != used_ports.size()) return std::nullopt;
  return levels;
}

minplus::Curve arrival_curve_at(const TrafficConfig& config, VlId vl,
                                LinkId port, const DelayTable& delays) {
  const VirtualLink& v = config.vl(vl);
  const VlRoute& route = config.route(vl);
  AFDX_REQUIRE(route.crosses(port),
               "arrival_curve_at: VL does not cross the port");
  Microseconds acc = 0.0;
  for (LinkId l = route.predecessor(port); l != kInvalidLink;
       l = route.predecessor(l)) {
    if (delays.has(l, v.priority)) acc += delays.get(l, v.priority);
  }
  return delayed_envelope(v.burst_bits(), v.rate_bits_per_us(),
                          v.max_release_jitter + acc);
}

minplus::Curve port_aggregate(const TrafficConfig& config, LinkId port,
                              const Options& options, const DelayTable& delays,
                              const PortFlowIndex& index, VlId exclude) {
  Curve total;
  for (const ClassAggregate& c :
       class_aggregates(config, port, options, delays, index, exclude)) {
    total = minplus::sum(total, c.curve);
  }
  return total;
}

DelayTable delay_table(const TrafficConfig& config, const Result& result) {
  DelayTable table(config);
  for (LinkId l = 0; l < result.ports.size(); ++l) {
    if (result.ports[l].used) table.assign(l, result.ports[l].level_delays);
  }
  return table;
}

Result analyze(const TrafficConfig& config, const Options& options) {
  AFDX_TRACE_SPAN("netcalc.analyze", "netcalc");
  const std::size_t n_links = config.network().link_count();

  Result result;
  result.ports.assign(n_links, PortReport{});
  DelayTable delays(config);
  const PortFlowIndex index = build_port_flow_index(config);

  const auto levels = propagation_levels(config);
  if (levels.has_value()) {
    // Feed-forward: one pass in dependency order is exact.
    for (const std::vector<LinkId>& level : *levels) {
      for (LinkId port : level) {
        result.ports[port] =
            compute_port_bounds(config, port, options, delays, index);
        delays.assign(port, result.ports[port].level_delays);
      }
    }
    result.iterations = 1;
  } else {
    // Cyclic dependencies: monotone fixed point from below, Gauss-Seidel
    // (each port sees the delays of the ports computed before it in the
    // same round). Delays only grow between rounds; stop when stationary.
    std::vector<LinkId> used_ports;
    for (LinkId l = 0; l < n_links; ++l) {
      if (!config.vls_on_link(l).empty()) used_ports.push_back(l);
    }
    int round = 0;
    for (; round < options.max_iterations; ++round) {
      AFDX_TRACE_SPAN("netcalc.fixed_point_round", "netcalc");
      obs::registry().counter("netcalc.fixed_point_rounds").add();
      double max_change = 0.0;
      for (LinkId port : used_ports) {
        PortReport r =
            compute_port_bounds(config, port, options, delays, index);
        for (auto& [level, d] : r.level_delays) {
          const Microseconds prev =
              delays.has(port, level) ? delays.get(port, level) : 0.0;
          max_change = std::max(max_change, d - prev);
          d = std::max(d, prev);
          delays.set(port, level, d);
          r.delay = std::max(r.delay, d);
        }
        result.ports[port] = std::move(r);
      }
      if (max_change <= kEpsilon) break;
    }
    AFDX_REQUIRE(round < options.max_iterations,
                 "WCNC: fixed point did not converge (cyclic configuration "
                 "too heavily loaded)");
    result.iterations = round + 1;
  }
  result.path_bounds = path_bounds_from(config, delays);
  return result;
}

}  // namespace afdx::netcalc
