#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/ladder.hpp"
#include "common/error.hpp"
#include "faults/degrade.hpp"
#include "faults/report.hpp"
#include "faults/scenario.hpp"
#include "obs/bench_json.hpp"
#include "obs/trace.hpp"

namespace afdx::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr Microseconds kInf = std::numeric_limits<Microseconds>::infinity();

Microseconds elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

std::string path_vl_name(const TrafficConfig& config, std::size_t path_index) {
  return config.vl(config.all_paths()[path_index].vl).name;
}

std::string path_dest_name(const TrafficConfig& config,
                           std::size_t path_index) {
  const VlPath& p = config.all_paths()[path_index];
  const VirtualLink& vl = config.vl(p.vl);
  return config.network().node(vl.destinations[p.dest_index]).name;
}

/// One whatif comparison row: healthy path index + its overlay outcome.
struct DeltaRow {
  std::size_t path = 0;
  Microseconds baseline_us = 0.0;
  Microseconds whatif_us = 0.0;
  /// 0 for unreachable paths (there is no finite delta to rank by).
  Microseconds delta_us = 0.0;
  bool unreachable = false;
  engine::PathState state = engine::PathState::kOk;
};

void write_delta_row(obs::JsonWriter& w, const TrafficConfig& config,
                     const DeltaRow& row) {
  w.begin_object()
      .field("vl", path_vl_name(config, row.path))
      .field("dest", path_dest_name(config, row.path))
      .field("baseline_us", row.baseline_us);
  if (row.unreachable) {
    w.field("unreachable", true);
  } else {
    w.field("whatif_us", row.whatif_us).field("delta_us", row.delta_us);
  }
  if (row.state != engine::PathState::kOk) {
    w.field("state", engine::to_string(row.state));
  }
  w.end_object();
}

/// Runs the accuracy/cost ladder for one request: the request's budget caps
/// the escalation spend, the baseline's analysis options keep the rungs
/// consistent with the pinned bounds, and the per-request deadline (if any)
/// rides along as the external cancel token.
analysis::LadderResult run_request_ladder(const TrafficConfig& config,
                                          const engine::BaselineState& base,
                                          const LadderSpec& spec,
                                          const engine::CancelToken* cancel,
                                          int threads) {
  analysis::LadderOptions lopts;
  lopts.budget_ms = spec.budget_ms;
  lopts.max_path_evals = spec.max_path_evals;
  lopts.cancel = cancel;
  lopts.netcalc = base.nc_options();
  lopts.trajectory = base.tj_options();
  engine::Options eopts;
  eopts.threads = threads;
  return analysis::run_ladder(config, lopts, eopts);
}

/// "sfa+wcnc+trajectory_pruned" -- the rungs a path actually attempted.
std::string attempted_rungs(const analysis::PathProvenance& pv) {
  std::string out;
  for (std::size_t r = 0; r < analysis::kRungCount; ++r) {
    if (!pv.attempted(static_cast<analysis::Rung>(r))) continue;
    if (!out.empty()) out += '+';
    out += analysis::to_string(static_cast<analysis::Rung>(r));
  }
  return out;
}

void write_ladder_summary(obs::JsonWriter& w,
                          const analysis::LadderResult& res) {
  w.field("complete", res.complete())
      .field("budget_exhausted", res.budget_exhausted);
  if (!res.budget_reason.empty()) {
    w.field("budget_reason", res.budget_reason);
  }
  w.field("path_evals", res.path_evals)
      .field("paths_escalated", res.paths_escalated);

  std::array<std::size_t, analysis::kRungCount> winners{};
  double max_tightening = 0.0;
  double sum_tightening = 0.0;
  for (const analysis::PathProvenance& pv : res.provenance) {
    ++winners[static_cast<std::size_t>(pv.winner)];
    const double t = pv.tightening_us();
    if (std::isfinite(t)) {
      max_tightening = std::max(max_tightening, t);
      sum_tightening += t;
    }
  }
  w.key("winners").begin_object();
  for (std::size_t r = 0; r < analysis::kRungCount; ++r) {
    if (winners[r] == 0) continue;
    w.field(analysis::to_string(static_cast<analysis::Rung>(r)), winners[r]);
  }
  w.end_object();
  const std::size_t n = res.provenance.size();
  w.field("max_tightening_us", max_tightening)
      .field("mean_tightening_us",
             n == 0 ? 0.0 : sum_tightening / static_cast<double>(n))
      .field("ladder_wall_us", res.wall_us);
}

void write_incremental(obs::JsonWriter& w,
                       const engine::IncrementalStats& inc) {
  w.key("incremental")
      .begin_object()
      .field("dirty_ports", inc.dirty_ports)
      .field("seeded_ports", inc.seeded_ports)
      .field("seeded_prefixes", inc.seeded_prefixes)
      .field("transplanted_paths", inc.transplanted_paths)
      .field("full_fallback", inc.full_fallback)
      .end_object();
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(options), start_(Clock::now()) {}

void Service::add_baseline(const std::string& name,
                           std::shared_ptr<const TrafficConfig> config,
                           const netcalc::Options& nc,
                           const trajectory::Options& tj, int build_threads) {
  add_baseline(name, engine::BaselineState::build(std::move(config), nc, tj,
                                                  build_threads));
}

void Service::add_baseline(
    const std::string& name,
    std::shared_ptr<const engine::BaselineState> baseline) {
  if (baseline == nullptr) throw Error("Service: null baseline");
  for (const auto& [existing, state] : baselines_) {
    if (existing == name) {
      throw Error("Service: duplicate baseline '" + name + "'");
    }
  }
  baselines_.emplace_back(name, std::move(baseline));
}

std::shared_ptr<const engine::BaselineState> Service::baseline(
    const std::string& name) const {
  if (baselines_.empty()) return nullptr;
  if (name.empty()) return baselines_.front().second;
  for (const auto& [existing, state] : baselines_) {
    if (existing == name) return state;
  }
  return nullptr;
}

const engine::BaselineState& Service::baseline_for(const Request& req) const {
  const auto state = baseline(req.config);
  if (state == nullptr) {
    if (req.config.empty()) throw Error("no configuration loaded");
    throw Error("unknown config '" + req.config + "'");
  }
  return *state;
}

std::string Service::handle_line(const std::string& line) {
  try {
    return handle(parse_request(line));
  } catch (const std::exception& e) {
    note_rejected(errors_);
    return error_response(peek_request_id(line), e.what());
  }
}

std::string Service::handle(const Request& req) {
  AFDX_TRACE_SPAN("serve.request", "serve");
  const auto t0 = Clock::now();
  requests_.add();
  std::string response;
  try {
    switch (req.op) {
      case Op::kStatus:
        response = handle_status(req);
        break;
      case Op::kBounds:
        response = handle_bounds(req);
        break;
      case Op::kWhatIf:
        response = handle_whatif(req);
        break;
      case Op::kFaultSweep:
        response = handle_fault_sweep(req);
        break;
      case Op::kLadder:
        response = handle_ladder(req);
        break;
      case Op::kShutdown:
        response = handle_shutdown(req);
        break;
    }
  } catch (const std::exception& e) {
    errors_.add();
    response = error_response(req.id, e.what());
  }
  latency_.observe(static_cast<std::uint64_t>(elapsed_us(t0)));
  return response;
}

void Service::note_rejected(obs::Counter& reason) noexcept {
  requests_.add();
  reason.add();
}

void Service::note_overloaded() noexcept { note_rejected(overloaded_); }

void Service::note_error() noexcept { note_rejected(errors_); }

std::string Service::handle_status(const Request& req) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object()
      .field("id", req.id)
      .field("ok", true)
      .field("op", "status")
      .field("uptime_us", elapsed_us(start_));

  w.key("configs").begin_array();
  for (const auto& [name, state] : baselines_) {
    w.begin_object()
        .field("name", name)
        .field("vls", state->config().vl_count())
        .field("paths", state->config().all_paths().size())
        .field("complete", state->healthy().complete())
        .field("baseline_wall_us", state->build_wall_us())
        .end_object();
  }
  w.end_array();

  w.key("requests")
      .begin_object()
      .field("total", requests_.value())
      .field("errors", errors_.value())
      .field("overloaded", overloaded_.value())
      .end_object();

  const QueueInfo q = queue_probe_ ? queue_probe_() : QueueInfo{};
  w.key("queue")
      .begin_object()
      .field("depth", q.depth)
      .field("capacity", q.capacity)
      .end_object();

  const engine::CacheStats port{port_hits_.value(), port_misses_.value()};
  const trajectory::PrefixCacheStats prefix{prefix_hits_.value(),
                                            prefix_misses_.value()};
  w.key("caches")
      .begin_object()
      .field("port_hits", port.hits)
      .field("port_misses", port.misses)
      .field("port_hit_rate", port.hit_rate())
      .field("prefix_hits", prefix.hits)
      .field("prefix_misses", prefix.misses)
      .field("prefix_hit_rate", prefix.hit_rate())
      .field("seeded_ports", seeded_ports_.value())
      .field("dirty_ports", dirty_ports_.value())
      .end_object();

  w.key("latency_us")
      .begin_object()
      .field("count", latency_.count())
      .field("mean", latency_.mean())
      .field("min", latency_.min())
      .field("max", latency_.max())
      .end_object();

  w.end_object();
  return out.str();
}

std::string Service::handle_bounds(const Request& req) {
  const engine::BaselineState& base = baseline_for(req);
  const TrafficConfig& config = base.config();
  const engine::RunResult& healthy = base.healthy();

  if (req.vl.has_value() && !config.find_vl(*req.vl).has_value()) {
    throw Error("unknown VL '" + *req.vl + "'");
  }
  const std::size_t limit = req.limit == 0 ? 100 : req.limit;

  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object()
      .field("id", req.id)
      .field("ok", true)
      .field("op", "bounds")
      .field("complete", healthy.complete());

  std::size_t matched = 0;
  w.key("paths").begin_array();
  for (std::size_t p = 0; p < config.all_paths().size(); ++p) {
    if (req.vl.has_value() && path_vl_name(config, p) != *req.vl) continue;
    ++matched;
    if (matched > limit) continue;
    w.begin_object()
        .field("vl", path_vl_name(config, p))
        .field("dest", path_dest_name(config, p))
        .field("netcalc_us", healthy.netcalc[p])
        .field("trajectory_us", healthy.trajectory[p])
        .field("combined_us", healthy.combined[p]);
    if (!healthy.status[p].ok()) {
      w.field("state", engine::to_string(healthy.status[p].state));
      if (!healthy.status[p].message.empty()) {
        w.field("message", healthy.status[p].message);
      }
    }
    w.end_object();
  }
  w.end_array();
  w.field("total", matched)
      .field("returned", std::min(matched, limit))
      .end_object();
  return out.str();
}

std::string Service::handle_whatif(const Request& req) {
  AFDX_TRACE_SPAN("serve.whatif", "serve");
  const auto t0 = Clock::now();
  const engine::BaselineState& base = baseline_for(req);
  const TrafficConfig& config = base.config();
  if (req.set.empty() && req.fail_spec.empty()) {
    throw Error("whatif changes nothing: provide 'set' overrides and/or a "
                "'fail' spec");
  }

  auto state = baseline(req.config);  // shared_ptr for the session
  engine::OverlaySession session(state, options_.request_threads);
  for (const engine::VlOverride& o : req.set) session.override_vl(o);

  engine::CancelToken token;
  const double deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : options_.default_deadline_ms;
  engine::RunControl control;
  if (deadline_ms > 0.0) {
    token.set_deadline_after(microseconds_from_ms(deadline_ms));
    control.cancel = &token;
  }

  // With a fault spec the overlay is the degraded view of the materialized
  // (VL-overridden) configuration; otherwise the materialized overlay
  // itself. Either way run_incremental re-bounds only the dirty cone.
  engine::RunResult run;
  std::optional<faults::DegradedView> view;
  std::size_t failed_elements = 0;
  if (!req.fail_spec.empty()) {
    faults::FaultScenario scenario =
        faults::scenario_from_spec(config.network(), req.fail_spec);
    failed_elements =
        scenario.failed_links.size() / 2 + scenario.failed_nodes.size();
    const std::vector<LinkId> changed =
        faults::scenario_changed_links(config.network(), scenario);
    const TrafficConfig overlay = session.materialize();
    view = faults::apply_scenario(overlay, std::move(scenario));
    if (view->config.has_value()) {
      run = session.analyze_config(*view->config, changed, control);
    }
  } else {
    run = session.analyze(control);
  }
  const engine::RunMetrics& m = run.metrics;
  port_hits_.add(m.cache_run.hits);
  port_misses_.add(m.cache_run.misses);
  prefix_hits_.add(m.prefix_run.hits);
  prefix_misses_.add(m.prefix_run.misses);
  seeded_ports_.add(m.incremental.seeded_ports);
  dirty_ports_.add(m.incremental.dirty_ports);

  // "ladder" rider: re-bound the overlaid configuration with the budgeted
  // accuracy/cost ladder and report how much the escalation tightened.
  std::optional<TrafficConfig> ladder_config;
  std::optional<analysis::LadderResult> ladder;
  if (req.ladder.has_value()) {
    if (view.has_value()) {
      if (view->config.has_value()) ladder_config = *view->config;
    } else {
      ladder_config = session.materialize();
    }
    if (ladder_config.has_value()) {
      ladder = run_request_ladder(*ladder_config, base, *req.ladder,
                                  control.cancel, options_.request_threads);
    }
  }

  // Compare per healthy path: overlay paths stay index-aligned unless a
  // fault re-routed them, in which case the degraded view's map applies.
  std::vector<DeltaRow> rows;
  std::size_t unreachable = 0;
  std::size_t skipped = 0;
  const std::size_t n = config.all_paths().size();
  for (std::size_t p = 0; p < n; ++p) {
    DeltaRow row;
    row.path = p;
    row.baseline_us = base.healthy().combined[p];
    std::size_t overlay_index = p;
    if (view.has_value()) {
      if (view->paths[p].fate == faults::PathFate::kUnreachable) {
        row.unreachable = true;
        row.whatif_us = kInf;
        ++unreachable;
        rows.push_back(row);
        continue;
      }
      overlay_index = view->paths[p].degraded_index;
    }
    row.whatif_us = run.combined[overlay_index];
    row.state = run.status[overlay_index].state;
    if (row.state == engine::PathState::kSkipped) ++skipped;
    if (std::isfinite(row.whatif_us) && std::isfinite(row.baseline_us)) {
      row.delta_us = row.whatif_us - row.baseline_us;
    }
    const bool changed = row.state != engine::PathState::kOk ||
                         !nearly_equal(row.whatif_us, row.baseline_us);
    if (changed) rows.push_back(row);
  }

  // Largest movement first; path index breaks ties deterministically.
  std::sort(rows.begin(), rows.end(), [](const DeltaRow& a, const DeltaRow& b) {
    const double ma = a.unreachable ? kInf : std::fabs(a.delta_us);
    const double mb = b.unreachable ? kInf : std::fabs(b.delta_us);
    if (ma != mb) return ma > mb;
    return a.path < b.path;
  });
  const std::size_t limit = req.limit == 0 ? 20 : req.limit;

  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object()
      .field("id", req.id)
      .field("ok", true)
      .field("op", "whatif")
      .field("overrides", req.set.size())
      .field("failed_elements", failed_elements)
      .field("paths", n)
      .field("paths_changed", rows.size())
      .field("unreachable", unreachable)
      .field("partial", skipped > 0);
  write_incremental(w, session.last_incremental());
  w.key("changed").begin_array();
  for (std::size_t i = 0; i < rows.size() && i < limit; ++i) {
    write_delta_row(w, config, rows[i]);
  }
  w.end_array();
  if (ladder.has_value()) {
    w.key("ladder").begin_object();
    write_ladder_summary(w, *ladder);
    w.end_object();
  }
  w.field("wall_us", elapsed_us(t0)).end_object();
  return out.str();
}

std::string Service::handle_fault_sweep(const Request& req) {
  AFDX_TRACE_SPAN("serve.fault_sweep", "serve");
  const auto t0 = Clock::now();
  const engine::BaselineState& base = baseline_for(req);
  const TrafficConfig& config = base.config();

  std::vector<faults::FaultScenario> scenarios;
  const std::string scope = req.scope.empty() ? "single-link" : req.scope;
  if (scope == "single-link") {
    scenarios = faults::single_link_scenarios(config);
  } else if (scope == "single-switch") {
    scenarios = faults::single_switch_scenarios(config);
  } else {
    scenarios.push_back(faults::scenario_from_spec(config.network(), scope));
  }

  engine::CancelToken token;
  const double deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : options_.default_deadline_ms;
  faults::ScenarioOptions options;
  options.nc = base.nc_options();
  options.tj = base.tj_options();
  options.threads = options_.request_threads;
  options.healthy_run = &base.healthy();
  if (deadline_ms > 0.0) {
    token.set_deadline_after(microseconds_from_ms(deadline_ms));
    options.cancel = &token;
  }
  const faults::DegradationReport report =
      faults::analyze_scenarios(config, std::move(scenarios), options);

  std::size_t analyzed = 0;
  for (const faults::ScenarioReport& sr : report.scenarios) {
    if (sr.analyzed) ++analyzed;
  }
  const std::size_t limit = req.limit == 0 ? 50 : req.limit;

  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object()
      .field("id", req.id)
      .field("ok", true)
      .field("op", "fault_sweep")
      .field("scope", scope)
      .field("scenarios", report.scenarios.size())
      .field("analyzed", analyzed)
      .field("partial", analyzed < report.scenarios.size())
      .field("complete", report.complete())
      .field("total_unreachable", report.total_unreachable)
      .field("worst_inflation", report.worst_inflation);
  if (report.worst_scenario != faults::kNoPath) {
    w.field("worst_scenario",
            report.scenarios[report.worst_scenario].scenario.name)
        .field("worst_vl", path_vl_name(config, report.worst_path))
        .field("worst_dest", path_dest_name(config, report.worst_path));
  }
  w.key("rows").begin_array();
  for (std::size_t s = 0; s < report.scenarios.size() && s < limit; ++s) {
    const faults::ScenarioReport& sr = report.scenarios[s];
    w.begin_object().field("name", sr.scenario.name);
    if (!sr.analyzed) {
      w.field("analyzed", false)
          .field("skip_reason", sr.skip_reason)
          .end_object();
      continue;
    }
    w.field("intact", sr.intact)
        .field("rerouted", sr.rerouted)
        .field("unreachable", sr.unreachable)
        .field("failed", sr.failed)
        .field("skipped", sr.skipped)
        .field("worst_inflation", sr.worst_inflation)
        .end_object();
  }
  w.end_array();
  w.field("wall_us", elapsed_us(t0)).end_object();
  return out.str();
}

std::string Service::handle_ladder(const Request& req) {
  AFDX_TRACE_SPAN("serve.ladder", "serve");
  const auto t0 = Clock::now();
  const engine::BaselineState& base = baseline_for(req);
  const TrafficConfig& config = base.config();

  engine::CancelToken token;
  const engine::CancelToken* cancel = nullptr;
  const double deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    token.set_deadline_after(microseconds_from_ms(deadline_ms));
    cancel = &token;
  }

  const LadderSpec spec = req.ladder.value_or(LadderSpec{});
  const analysis::LadderResult res = run_request_ladder(
      config, base, spec, cancel, options_.request_threads);

  // Most-tightened paths first; path index breaks ties deterministically.
  std::vector<std::size_t> order(res.bounds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double ta = res.provenance[a].tightening_us();
                     const double tb = res.provenance[b].tightening_us();
                     if (ta != tb) return ta > tb;
                     return a < b;
                   });
  const std::size_t limit = req.limit == 0 ? 20 : req.limit;

  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object()
      .field("id", req.id)
      .field("ok", true)
      .field("op", "ladder")
      .field("paths", res.bounds.size());
  write_ladder_summary(w, res);

  w.key("rungs").begin_array();
  for (std::size_t r = 0; r < analysis::kRungCount; ++r) {
    const analysis::RungStats& rs = res.rungs[r];
    if (!rs.attempted) continue;
    w.begin_object()
        .field("rung", analysis::to_string(static_cast<analysis::Rung>(r)))
        .field("completed", rs.completed)
        .field("paths", rs.paths_bounded)
        .field("cost_estimate", rs.cost_estimate)
        .field("wall_us", rs.wall_us);
    if (!rs.message.empty()) w.field("message", rs.message);
    w.end_object();
  }
  w.end_array();

  w.key("paths_detail").begin_array();
  for (std::size_t i = 0; i < order.size() && i < limit; ++i) {
    const std::size_t p = order[i];
    const analysis::PathProvenance& pv = res.provenance[p];
    w.begin_object()
        .field("vl", path_vl_name(config, p))
        .field("dest", path_dest_name(config, p))
        .field("bound_us", res.bounds[p])
        .field("winner", analysis::to_string(pv.winner))
        .field("first_us", pv.first_bound_us)
        .field("tightening_us", pv.tightening_us())
        .field("escalated", pv.escalated)
        .field("rungs", attempted_rungs(pv));
    if (res.status[p].state != engine::PathState::kOk) {
      w.field("state", engine::to_string(res.status[p].state));
    }
    if (!res.status[p].message.empty()) {
      w.field("message", res.status[p].message);
    }
    w.end_object();
  }
  w.end_array();
  w.field("wall_us", elapsed_us(t0)).end_object();
  return out.str();
}

std::string Service::handle_shutdown(const Request& req) {
  shutdown_.store(true, std::memory_order_relaxed);
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object()
      .field("id", req.id)
      .field("ok", true)
      .field("op", "shutdown")
      .end_object();
  return out.str();
}

}  // namespace afdx::serve
