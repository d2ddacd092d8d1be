#include "engine/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "engine/engine.hpp"

namespace afdx::engine {

namespace {

/// Everything the per-port computation reads about one crossing VL. Exact
/// (bitwise) comparison on purpose: any numeric drift must dirty the port.
struct CrossTuple {
  std::string name;
  LinkId pred = kInvalidLink;
  Microseconds bag = 0.0;
  Bytes s_min = 0;
  Bytes s_max = 0;
  Microseconds release_jitter = 0.0;
  std::uint8_t priority = 0;

  bool operator==(const CrossTuple&) const = default;
};

std::vector<CrossTuple> port_tuples(const TrafficConfig& cfg, LinkId port) {
  std::vector<CrossTuple> out;
  out.reserve(cfg.vls_on_link(port).size());
  for (VlId v : cfg.vls_on_link(port)) {
    const VirtualLink& vl = cfg.vl(v);
    out.push_back(CrossTuple{vl.name, cfg.route(v).predecessor(port), vl.bag,
                             vl.s_min, vl.s_max, vl.max_release_jitter,
                             vl.priority});
  }
  // Set comparison: VL names are unique within a configuration, so sorting
  // by (name, pred) makes the encounter order irrelevant.
  std::sort(out.begin(), out.end(),
            [](const CrossTuple& a, const CrossTuple& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.pred < b.pred;
            });
  return out;
}

}  // namespace

IncrementalPlan plan_incremental(const TrafficConfig& baseline,
                                 const TrafficConfig& current,
                                 const std::vector<LinkId>& changed_links) {
  IncrementalPlan plan;
  const Network& bnet = baseline.network();
  const Network& cnet = current.network();
  const std::size_t n = cnet.link_count();

  if (bnet.link_count() != n) {
    plan.reason = "baseline and current networks have different link sets";
    return plan;
  }
  for (LinkId l = 0; l < n; ++l) {
    const Link& a = bnet.link(l);
    const Link& b = cnet.link(l);
    if (a.source != b.source || a.dest != b.dest || a.rate != b.rate ||
        a.latency != b.latency) {
      plan.reason = "link " + std::to_string(l) + " parameters differ";
      return plan;
    }
  }
  for (LinkId l : changed_links) {
    if (l >= n) {
      plan.reason = "changed link id out of range";
      return plan;
    }
  }

  plan.base_vl.assign(current.vl_count(), kInvalidVl);
  std::unordered_map<std::string, VlId> baseline_by_name;
  baseline_by_name.reserve(baseline.vl_count());
  for (VlId v = 0; v < baseline.vl_count(); ++v) {
    baseline_by_name.emplace(baseline.vl(v).name, v);
  }
  for (VlId v = 0; v < current.vl_count(); ++v) {
    const auto it = baseline_by_name.find(current.vl(v).name);
    if (it != baseline_by_name.end()) plan.base_vl[v] = it->second;
  }

  // Seeds: the changed links themselves plus every port whose crossing
  // tuple set differs (reroutes, dropped VLs, parameter edits).
  plan.dirty.assign(n, 0);
  for (LinkId l : changed_links) plan.dirty[l] = 1;
  for (LinkId l = 0; l < n; ++l) {
    if (plan.dirty[l]) continue;
    if (port_tuples(baseline, l) != port_tuples(current, l)) plan.dirty[l] = 1;
  }

  // Downstream closure along the changed configuration's propagation
  // edges.
  std::vector<std::vector<LinkId>> successors(n);
  for (LinkId port = 0; port < n; ++port) {
    for (VlId v : current.vls_on_link(port)) {
      const LinkId pred = current.route(v).predecessor(port);
      if (pred != kInvalidLink) successors[pred].push_back(port);
    }
  }
  std::vector<LinkId> stack;
  for (LinkId l = 0; l < n; ++l) {
    if (plan.dirty[l]) stack.push_back(l);
  }
  while (!stack.empty()) {
    const LinkId p = stack.back();
    stack.pop_back();
    for (LinkId s : successors[p]) {
      if (!plan.dirty[s]) {
        plan.dirty[s] = 1;
        stack.push_back(s);
      }
    }
  }

  for (LinkId l = 0; l < n; ++l) {
    if (current.vls_on_link(l).empty()) continue;
    (plan.dirty[l] ? plan.dirty_ports : plan.clean_ports).push_back(l);
  }
  plan.compatible = true;
  return plan;
}

IncrementalReuse plan_reuse(const TrafficConfig& baseline_config,
                            const RunResult& baseline,
                            const TrafficConfig& current,
                            const IncrementalPlan& plan) {
  IncrementalReuse reuse;
  // A baseline whose WCNC pass did not complete may have run with
  // different serialization caps, and so with different prefixes.
  const std::size_t n_links = baseline_config.network().link_count();
  if (baseline.prefixes == nullptr ||
      baseline.netcalc_result.ports.size() != n_links) {
    return reuse;
  }
  for (LinkId l = 0; l < n_links; ++l) {
    if (!baseline_config.vls_on_link(l).empty() &&
        !baseline.netcalc_result.ports[l].used) {
      return reuse;
    }
  }

  for (VlId v = 0; v < current.vl_count(); ++v) {
    const VlId bv = plan.base_vl[v];
    if (bv == kInvalidVl) continue;
    const VlRoute& route = current.route(v);
    for (LinkId l : route.crossed_links()) {
      bool chain_clean = true;
      for (LinkId cur = l; cur != kInvalidLink; cur = route.predecessor(cur)) {
        if (plan.dirty[cur]) {
          chain_clean = false;
          break;
        }
      }
      if (!chain_clean) continue;
      if (const auto bound = baseline.prefixes->peek(bv, l);
          bound.has_value()) {
        reuse.prefixes.push_back(IncrementalReuse::Prefix{v, l, *bound});
      }
    }
  }

  // A path whose every crossed port is clean reads bit-identical inputs end
  // to end (the dirty closure already propagated any upstream change of any
  // competing VL into its ports). Only where the baseline's per-path
  // vectors line up, and only finite bounds (a failed path re-runs so its
  // status is re-derived).
  const std::vector<VlPath>& bpaths = baseline_config.all_paths();
  if (baseline.trajectory.size() != bpaths.size()) return reuse;
  // Baseline path index by (baseline VL, terminal link).
  std::unordered_map<std::uint64_t, std::size_t> base_path;
  base_path.reserve(bpaths.size());
  const auto path_key = [n_links](VlId v, LinkId last) {
    return static_cast<std::uint64_t>(v) * n_links + last;
  };
  for (std::size_t i = 0; i < bpaths.size(); ++i) {
    base_path.emplace(path_key(bpaths[i].vl, bpaths[i].links.back()), i);
  }
  const std::vector<VlPath>& cpaths = current.all_paths();
  for (std::size_t i = 0; i < cpaths.size(); ++i) {
    const VlPath& p = cpaths[i];
    const VlId bv = plan.base_vl[p.vl];
    if (bv == kInvalidVl) continue;
    if (std::any_of(p.links.begin(), p.links.end(),
                    [&](LinkId l) { return plan.dirty[l] != 0; })) {
      continue;
    }
    const auto it = base_path.find(path_key(bv, p.links.back()));
    if (it == base_path.end() || bpaths[it->second].links != p.links) continue;
    const Microseconds bound = baseline.trajectory[it->second];
    if (std::isfinite(bound)) {
      reuse.paths.push_back(IncrementalReuse::Path{i, bound});
    }
  }
  return reuse;
}

}  // namespace afdx::engine
