#include "sfa/sfa_analyzer.hpp"

#include "common/error.hpp"
#include "minplus/operations.hpp"

namespace afdx::sfa {

namespace {

using minplus::Curve;

/// The converged WCNC port delays and the flow index every per-hop
/// cross-traffic aggregate is computed from.
struct CrossTraffic {
  netcalc::DelayTable delays;
  netcalc::PortFlowIndex index;
};

CrossTraffic cross_traffic(const TrafficConfig& config,
                           const Options& options) {
  // One WCNC pass provides the upstream-delay jitter inflation for every
  // cross-traffic envelope.
  const netcalc::Result nc = netcalc::analyze(config, options.netcalc_options);
  return CrossTraffic{netcalc::delay_table(config, nc),
                      netcalc::build_port_flow_index(config)};
}

Curve path_service(const TrafficConfig& config, const VlPath& path,
                   const Options& options, const CrossTraffic& cross) {
  const Network& net = config.network();
  Curve service;
  bool first = true;
  for (LinkId l : path.links) {
    const Link& link = net.link(l);
    const Curve beta = Curve::rate_latency(link.rate, link.latency);
    const Curve aggregate =
        netcalc::port_aggregate(config, l, options.netcalc_options,
                                cross.delays, cross.index, path.vl);
    Curve residual;
    try {
      residual = minplus::residual_service(beta, aggregate, 0.0);
    } catch (const Error&) {
      throw Error("SFA: no residual service at port " +
                  net.node(link.source).name + " -> " +
                  net.node(link.dest).name);
    }
    service = first ? residual : minplus::convolve_convex(service, residual);
    first = false;
  }
  AFDX_REQUIRE(!first, "SFA: empty path");
  return service;
}

Curve source_envelope(const TrafficConfig& config, VlId vl) {
  const VirtualLink& v = config.vl(vl);
  return Curve::affine(
      v.burst_bits() + v.rate_bits_per_us() * v.max_release_jitter,
      v.rate_bits_per_us());
}

}  // namespace

minplus::Curve end_to_end_service(const TrafficConfig& config, PathRef ref,
                                  const Options& options) {
  return path_service(config, config.path(ref), options,
                      cross_traffic(config, options));
}

Result analyze(const TrafficConfig& config, const Options& options) {
  const CrossTraffic cross = cross_traffic(config, options);

  Result result;
  result.path_bounds.reserve(config.all_paths().size());
  for (const VlPath& path : config.all_paths()) {
    const Curve service = path_service(config, path, options, cross);
    // Store-and-forward packetization: the fluid convolution would let a
    // frame be forwarded while still being received; every hop except the
    // last re-packetizes the flow, adding up to one own-frame transmission.
    Microseconds packetization = 0.0;
    for (std::size_t k = 0; k + 1 < path.links.size(); ++k) {
      packetization += config.vl(path.vl).max_transmission_time(
          config.network().link(path.links[k]).rate);
    }
    result.path_bounds.push_back(
        minplus::horizontal_deviation(source_envelope(config, path.vl),
                                      service) +
        packetization);
  }
  return result;
}

}  // namespace afdx::sfa
