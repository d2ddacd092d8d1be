#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#include "common/error.hpp"
#include "engine/incremental.hpp"
#include "netcalc/flow_index.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace afdx::engine {

namespace {

using Clock = std::chrono::steady_clock;

constexpr Microseconds kInf = std::numeric_limits<Microseconds>::infinity();

Microseconds elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Process-wide CPU time (all threads) in microseconds; wall vs cpu is how
/// the metrics expose effective parallelism.
Microseconds cpu_now_us() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<Microseconds>(ts.tv_sec) * 1e6 +
           static_cast<Microseconds>(ts.tv_nsec) * 1e-3;
  }
#endif
  return static_cast<Microseconds>(std::clock()) * 1e6 /
         static_cast<Microseconds>(CLOCKS_PER_SEC);
}

/// Per-phase wall-time histogram of an engine scope.
void observe_phase_us(obs::Registry& scope, const char* phase,
                      Microseconds wall_us) {
  scope.histogram(std::string("engine.phase.") + phase + ".wall_us")
      .observe(wall_us > 0.0 ? static_cast<std::uint64_t>(wall_us) : 0u);
}

// Tripwire: trajectory_options_key below must fingerprint EVERY field of
// trajectory::Options, same contract as PortCache::options_key.
static_assert(sizeof(trajectory::Options) == 2,
              "trajectory::Options changed: update trajectory_options_key to "
              "mix in every field, then bump this expected size");

/// FNV-1a digest of the trajectory option fields prefix bounds depend on.
std::uint64_t trajectory_options_key(const trajectory::Options& o) noexcept {
  const std::uint64_t h =
      fnv_mix(kFnvOffsetBasis, o.serialization ? 1u : 0u, 1);
  return fnv_mix(h, o.loose_boundary_packet ? 1u : 0u, 1);
}

/// Bitwise digest of a serialization-caps vector. Prefix bounds are pure
/// functions of (configuration, options, caps); together with the options
/// digest this keys the engine's shared prefix caches.
std::uint64_t caps_signature(
    const std::optional<std::vector<Microseconds>>& caps) noexcept {
  std::uint64_t h = kFnvOffsetBasis;
  if (!caps.has_value()) return fnv_mix(h, 0x9e3779b97f4a7c15ull, 8);
  h = fnv_mix(h, caps->size(), 8);
  for (Microseconds c : *caps) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(c));
    std::memcpy(&bits, &c, sizeof(bits));
    h = fnv_mix(h, bits, 8);
  }
  return h;
}

bool expired(const CancelToken* cancel) {
  return cancel != nullptr && cancel->expired();
}

/// "source>dest" name of an output port, for status messages.
std::string port_name(const TrafficConfig& cfg, LinkId l) {
  const Network& net = cfg.network();
  return net.node(net.link(l).source).name + ">" +
         net.node(net.link(l).dest).name;
}

}  // namespace

AnalysisEngine::AnalysisEngine(const TrafficConfig& config, Options options)
    : cfg_(config),
      scope_(std::make_shared<obs::Registry>(&obs::registry())),
      pool_(ThreadPool::resolve_thread_count(options.threads), *scope_),
      cache_(*scope_) {}

AnalysisEngine::WcncPass AnalysisEngine::run_wcnc(
    const netcalc::Options& options, const CancelToken* cancel) {
  AFDX_TRACE_SPAN("engine.netcalc", "engine");
  const std::size_t n_links = cfg_.network().link_count();
  WcncPass pass;
  pass.options_key = PortCache::options_key(options);
  pass.result.ports.assign(n_links, netcalc::PortReport{});
  pass.result.iterations = 1;
  pass.ports.assign(n_links, PortOutcome{});
  metrics_.levels = 0;
  metrics_.max_level_width = 0;

  const auto levels = netcalc::propagation_levels(cfg_);
  if (!levels.has_value()) {
    // Cyclic configuration: the fixed point is inherently sequential and
    // all-or-nothing, so the serial analyzer runs the whole pass and
    // containment degrades to whole-pass granularity.
    const auto mark_used = [&](PathState state, const std::string& message) {
      for (LinkId l = 0; l < n_links; ++l) {
        if (!cfg_.vls_on_link(l).empty()) {
          pass.ports[l] = PortOutcome{state, message};
        }
      }
      pass.result.iterations = 0;
    };
    if (expired(cancel)) {
      mark_used(PathState::kSkipped, cancel->reason());
      return pass;
    }
    try {
      netcalc::Result full = netcalc::analyze(cfg_, options);
      pass.result.ports = std::move(full.ports);
      pass.result.iterations = full.iterations;
    } catch (const std::exception& e) {
      mark_used(PathState::kFailed, e.what());
    }
    return pass;
  }

  // Feed-forward: ports of one level have no mutual dependency, so each
  // level is chunked dynamically across the pool (work stealing). Results
  // land in per-port slots, making the pass order-independent and
  // bit-identical to the serial analyzer.
  metrics_.levels = levels->size();
  obs::Histogram& level_width = scope_->histogram("engine.level.width");
  const netcalc::PortFlowIndex& index = flow_index();
  netcalc::DelayTable delays(cfg_);
  bool abandoned = false;
  for (const std::vector<LinkId>& level : *levels) {
    metrics_.max_level_width = std::max(metrics_.max_level_width,
                                        level.size());
    if (!abandoned && expired(cancel)) abandoned = true;
    if (abandoned) {
      for (LinkId port : level) {
        pass.ports[port] = PortOutcome{PathState::kSkipped, cancel->reason()};
      }
      continue;
    }
    AFDX_TRACE_SPAN("engine.netcalc.level", "engine");
    level_width.observe(level.size());

    // Dependency screen (serial; only reads outcomes of earlier levels): a
    // port whose crossing VLs arrive via a failed or skipped port cannot be
    // computed -- its inputs are unknown -- and is skipped, which in turn
    // taints everything downstream of it.
    std::vector<LinkId> compute;
    compute.reserve(level.size());
    for (LinkId port : level) {
      LinkId bad = kInvalidLink;
      for (VlId v : cfg_.vls_on_link(port)) {
        const LinkId pred = cfg_.route(v).predecessor(port);
        if (pred != kInvalidLink && pass.ports[pred].state != PathState::kOk) {
          bad = pred;
          break;
        }
      }
      if (bad != kInvalidLink) {
        pass.ports[port] = PortOutcome{
            PathState::kSkipped, "upstream port " + port_name(cfg_, bad) +
                                     " unavailable (" +
                                     to_string(pass.ports[bad].state) + ")"};
      } else {
        compute.push_back(port);
      }
    }

    const auto failures = pool_.parallel_for_contained(
        compute.size(), [&](std::size_t i, int) {
          const LinkId port = compute[i];
          netcalc::PortReport& report = pass.result.ports[port];
          if (auto hit = cache_.lookup(pass.options_key, port);
              hit.has_value()) {
            report = std::move(*hit);
          } else {
            report = netcalc::compute_port_bounds(cfg_, port, options, delays,
                                                  index);
            cache_.store(pass.options_key, port, report);
          }
        });
    for (const ThreadPool::TaskFailure& f : failures) {
      pass.ports[compute[f.index]] =
          PortOutcome{PathState::kFailed, f.message};
    }
    for (LinkId port : level) {
      if (pass.ports[port].state != PathState::kOk) continue;
      delays.assign(port, pass.result.ports[port].level_delays);
    }
  }
  return pass;
}

AnalysisEngine::TrajectoryContext AnalysisEngine::resolve_trajectory_context(
    const trajectory::Options& options, const WcncPass* pass,
    const CancelToken* cancel) {
  TrajectoryContext ctx;
  ctx.options = options;
  if (options.serialization) {
    if (pass != nullptr &&
        pass->options_key == PortCache::options_key(netcalc::Options{})) {
      ctx.caps = trajectory::serialization_caps(cfg_, pass->result);
    } else {
      ctx.caps = trajectory::serialization_caps(
          cfg_, run_wcnc(netcalc::Options{}, cancel).result);
    }
  }
  ctx.tj_key = trajectory_options_key(options);
  try {
    ctx.pcache = prefix_cache_for(ctx.tj_key, caps_signature(ctx.caps));
  } catch (const std::exception& e) {
    ctx.error = e.what();
  }
  return ctx;
}

const std::vector<VlId>& AnalysisEngine::locality_vl_order() {
  if (!locality_order_.has_value()) {
    const std::vector<VlPath>& paths = cfg_.all_paths();
    std::vector<const std::vector<LinkId>*> route(cfg_.vl_count(), nullptr);
    std::vector<VlId> order;
    for (const VlPath& p : paths) {
      if (route[p.vl] == nullptr) {
        route[p.vl] = &p.links;
        order.push_back(p.vl);
      }
    }
    // Lexicographic by route: VLs sharing their source port (and deeper
    // prefixes) become contiguous, so the chunk a worker claims (or
    // steals -- the scheduler moves contiguous blocks) covers one
    // neighbourhood of the topology and its prefix recursions overlap.
    // Ties (identical first routes, e.g. same-route multicast siblings)
    // fall back to the id for a total, deterministic order.
    std::sort(order.begin(), order.end(), [&](VlId a, VlId b) {
      const std::vector<LinkId>& la = *route[a];
      const std::vector<LinkId>& lb = *route[b];
      if (la == lb) return a < b;
      return std::lexicographical_compare(la.begin(), la.end(), lb.begin(),
                                          lb.end());
    });
    locality_order_ = std::move(order);
  }
  return *locality_order_;
}

void AnalysisEngine::bound_paths(const TrajectoryContext& ctx,
                                 const std::vector<std::size_t>* targets,
                                 const IncrementalReuse& reuse,
                                 const CancelToken* cancel,
                                 const PathVisit& visit) {
  AFDX_TRACE_SPAN("engine.trajectory", "engine");
  const std::vector<VlPath>& paths = cfg_.all_paths();

  // Baseline prefixes are seeded only when the WCNC pass ran to its
  // natural end: once the token expired, the caps may be uncapped
  // placeholders rather than the baseline's values, which would poison
  // the persistent cache.
  if (ctx.pcache != nullptr && !expired(cancel)) {
    for (const IncrementalReuse::Prefix& s : reuse.prefixes) {
      ctx.pcache->seed(s.vl, s.link, s.bound);
    }
  }
  last_prefix_cache_ = ctx.pcache;

  // Paths fully outside the dirty cone keep their baseline trajectory
  // bound verbatim: every input of their recursion (own route, competing
  // VLs, their upstream chains, the serialization caps of every port
  // involved) is bit-identical by the dirty closure. Skipping them makes a
  // small-cone what-if cost its cone, not the network.
  std::vector<char> transplanted(reuse.paths.empty() ? 0 : paths.size(), 0);
  for (const IncrementalReuse::Path& t : reuse.paths) {
    transplanted[t.path] = 1;
    visit(t.path, t.trajectory, PathStatus{});
  }

  // Work items are whole VLs in locality order: paths of one VL share
  // their prefix recursion, so keeping a VL in one chunk preserves the
  // analyzer's local memoization. Every bound is a pure function of
  // (configuration, options, caps), so dynamic (stolen) assignment of VLs
  // to workers stays bit-identical.
  std::vector<std::vector<std::size_t>> vl_paths(cfg_.vl_count());
  const auto add = [&](std::size_t i) {
    if (transplanted.empty() || !transplanted[i]) {
      vl_paths[paths[i].vl].push_back(i);
    }
  };
  if (targets == nullptr) {
    for (std::size_t i = 0; i < paths.size(); ++i) add(i);
  } else {
    for (std::size_t i : *targets) {
      AFDX_REQUIRE(i < paths.size(),
                   "trajectory_paths: path index out of range");
      add(i);
    }
  }
  std::vector<VlId> vl_order;
  for (VlId v : locality_vl_order()) {
    if (!vl_paths[v].empty()) vl_order.push_back(v);
  }

  // A throw mid-recursion leaves the analyzer consistent -- the
  // in-progress markers unwind with the stack and the store only ever holds
  // successfully computed bounds -- so a worker keeps its analyzer (and
  // its state) across contained per-path failures. The shards share the
  // engine's slot table and the context's store; each keeps only its
  // recursion state.
  struct Shard {
    std::optional<trajectory::Analyzer> analyzer;
    std::string construct_error;
    bool initialized = false;
    std::size_t vls = 0;
    std::size_t paths_done = 0;
  };
  std::vector<Shard> local(static_cast<std::size_t>(pool_.thread_count()));
  pool_.parallel_for(vl_order.size(), [&](std::size_t k, int w) {
    Shard& shard = local[static_cast<std::size_t>(w)];
    if (!shard.initialized) {
      AFDX_TRACE_SPAN("engine.trajectory.shard", "engine");
      shard.initialized = true;
      shard.construct_error = ctx.error;
      if (ctx.pcache != nullptr) {
        try {
          shard.analyzer.emplace(cfg_, ctx.options, ctx.pcache);
          if (ctx.caps.has_value()) {
            shard.analyzer->set_backlog_caps(*ctx.caps);
          }
        } catch (const std::exception& e) {
          shard.analyzer.reset();
          shard.construct_error = e.what();
        }
      }
    }
    ++shard.vls;
    for (std::size_t i : vl_paths[vl_order[k]]) {
      PathStatus status;
      Microseconds bound = kInf;
      if (expired(cancel)) {
        status = PathStatus{PathState::kSkipped, cancel->reason()};
      } else if (!shard.analyzer.has_value()) {
        status = PathStatus{PathState::kFailed, shard.construct_error};
      } else {
        try {
          bound = shard.analyzer->bound_to_link(paths[i].vl,
                                                paths[i].links.back());
          ++shard.paths_done;
        } catch (const std::exception& e) {
          status = PathStatus{PathState::kFailed, e.what()};
        }
      }
      visit(i, bound, status);
    }
  });

  metrics_.shards.clear();
  for (const Shard& shard : local) {
    if (!shard.analyzer.has_value()) continue;
    const trajectory::Analyzer::CacheCounters& c = shard.analyzer->counters();
    ctx.pcache->count(c.shared_hits, c.lookups - c.local_hits - c.shared_hits);
    metrics_.shards.push_back(ShardMetrics{shard.vls, shard.paths_done,
                                           c.lookups, c.local_hits,
                                           c.shared_hits});
  }
}

Microseconds AnalysisEngine::wcnc_path_bound(std::size_t path,
                                             const WcncPass& pass,
                                             PathStatus& status) const {
  const VlPath& p = cfg_.all_paths()[path];
  const std::uint8_t level = cfg_.vl(p.vl).priority;
  Microseconds total = 0.0;
  for (LinkId l : p.links) {
    const PortOutcome& port = pass.ports[l];
    if (port.state != PathState::kOk) {
      status = PathStatus{
          port.state, "wcnc: port " + port_name(cfg_, l) + " " +
                          to_string(port.state) +
                          (port.message.empty() ? "" : ": " + port.message)};
      return kInf;
    }
    const auto& delays = pass.result.ports[l].level_delays;
    const auto it = delays.find(level);
    AFDX_ASSERT(it != delays.end(), "engine: missing level delay");
    total += it->second;
  }
  return total;
}

StreamPathResult AnalysisEngine::assemble(std::size_t path,
                                          const WcncPass& pass,
                                          Microseconds trajectory,
                                          const PathStatus& tj_status) const {
  const VlPath& p = cfg_.all_paths()[path];
  StreamPathResult r;
  r.path_index = path;
  r.vl = p.vl;
  r.dest_index = p.dest_index;
  PathStatus nc_status;
  r.netcalc = wcnc_path_bound(path, pass, nc_status);
  r.trajectory = trajectory;
  r.combined = std::min(r.netcalc, r.trajectory);
  // A path is ok as long as one method bounded it; the message still
  // records every degraded method so nothing fails silently.
  r.message = std::move(nc_status.message);
  if (!tj_status.ok()) {
    if (!r.message.empty()) r.message += "; ";
    r.message += std::string("trajectory ") + to_string(tj_status.state) +
                 ": " + tj_status.message;
  }
  if (!std::isfinite(r.combined)) {
    const bool failed = nc_status.state == PathState::kFailed ||
                        tj_status.state == PathState::kFailed;
    r.state = failed ? PathState::kFailed : PathState::kSkipped;
  }
  return r;
}

AnalysisEngine::CallStart AnalysisEngine::begin_call() {
  return CallStart{Clock::now(), cpu_now_us(), cache_.stats(),
                   trajectory::prefix_cache_stats(*scope_)};
}

void AnalysisEngine::finish_call(const CallStart& start,
                                 Microseconds netcalc_us,
                                 Microseconds trajectory_us,
                                 std::size_t paths) {
  const Microseconds total = elapsed_us(start.wall, Clock::now());
  metrics_.netcalc_wall_us += netcalc_us;
  metrics_.trajectory_wall_us += trajectory_us;
  metrics_.total_wall_us += total;
  metrics_.total_cpu_us += cpu_now_us() - start.cpu_us;
  metrics_.paths = paths;
  // A trivial configuration or a clock too coarse for the call must yield
  // 0, not NaN.
  metrics_.paths_per_second =
      paths == 0 || !(total > 0.0)
          ? 0.0
          : static_cast<double>(paths) / (total * 1e-6);
  metrics_.cache_run = cache_.stats() - start.cache;
  metrics_.prefix_run = trajectory::prefix_cache_stats(*scope_) - start.prefix;
}

AnalysisEngine::PipelineResult AnalysisEngine::pipeline(
    const netcalc::Options& nc_options, const trajectory::Options& tj_options,
    const RunControl& control, const IncrementalReuse& reuse,
    const CallStart& start, const StreamSink& sink) {
  const auto t0 = Clock::now();
  PipelineResult out;
  out.wcnc = run_wcnc(nc_options, control.cancel);
  const auto t1 = Clock::now();

  const TrajectoryContext ctx =
      resolve_trajectory_context(tj_options, &out.wcnc, control.cancel);
  out.tj_key = ctx.tj_key;
  StreamSummary& summary = out.summary;
  std::mutex sink_mu;
  bound_paths(ctx, nullptr, reuse, control.cancel,
              [&](std::size_t i, Microseconds trajectory,
                  const PathStatus& tj_status) {
                const StreamPathResult r =
                    assemble(i, out.wcnc, trajectory, tj_status);
                std::lock_guard<std::mutex> lock(sink_mu);
                ++summary.paths;
                if (r.state == PathState::kFailed) {
                  ++summary.failed;
                } else if (r.state == PathState::kSkipped) {
                  ++summary.skipped;
                } else {
                  summary.sum_combined += r.combined;
                  if (++summary.ok == 1 || r.combined > summary.max_combined) {
                    summary.max_combined = r.combined;
                    summary.worst_path = i;
                    summary.worst_vl = r.vl;
                  }
                }
                if (sink) sink(r);
              });
  const auto t2 = Clock::now();

  finish_call(start, elapsed_us(t0, t1), elapsed_us(t1, t2), summary.paths);
  summary.prefix_cache = metrics_.prefix_run;
  observe_phase_us(*scope_, "netcalc", elapsed_us(t0, t1));
  observe_phase_us(*scope_, "trajectory", elapsed_us(t1, t2));
  scope_->counter("engine.runs").add();
  scope_->counter("engine.paths").add(summary.paths);
  return out;
}

RunResult AnalysisEngine::collect(const netcalc::Options& nc_options,
                                  const trajectory::Options& tj_options,
                                  const RunControl& control,
                                  const IncrementalReuse& reuse,
                                  const CallStart& start) {
  const std::size_t n = cfg_.all_paths().size();
  RunResult result;
  result.netcalc.assign(n, kInf);
  result.trajectory.assign(n, kInf);
  result.combined.assign(n, kInf);
  result.status.assign(n, PathStatus{});
  PipelineResult run = pipeline(
      nc_options, tj_options, control, reuse, start,
      [&](const StreamPathResult& r) {
        result.netcalc[r.path_index] = r.netcalc;
        result.trajectory[r.path_index] = r.trajectory;
        result.combined[r.path_index] = r.combined;
        result.status[r.path_index] = PathStatus{r.state, r.message};
      });
  result.netcalc_result = std::move(run.wcnc.result);
  result.netcalc_result.path_bounds = result.netcalc;
  result.nc_options_key = run.wcnc.options_key;
  result.tj_options_key = run.tj_key;
  result.prefixes = last_prefix_cache_;
  result.metrics = metrics();
  return result;
}

RunResult AnalysisEngine::run(const netcalc::Options& nc_options,
                              const trajectory::Options& tj_options) {
  AFDX_TRACE_SPAN("engine.run", "engine");
  RunResult result = run_resilient(nc_options, tj_options);
  for (const PathStatus& s : result.status) {
    if (!s.ok() || !s.message.empty()) throw Error(s.message);
  }
  return result;
}

RunResult AnalysisEngine::run_resilient(const netcalc::Options& nc_options,
                                        const trajectory::Options& tj_options,
                                        const RunControl& control) {
  AFDX_TRACE_SPAN("engine.run_resilient", "engine");
  return collect(nc_options, tj_options, control, IncrementalReuse{},
                 begin_call());
}

StreamSummary AnalysisEngine::run_streaming(
    const StreamSink& sink, const netcalc::Options& nc_options,
    const trajectory::Options& tj_options, const RunControl& control) {
  AFDX_TRACE_SPAN("engine.run_streaming", "engine");
  return pipeline(nc_options, tj_options, control, IncrementalReuse{},
                  begin_call(), sink)
      .summary;
}

RunResult AnalysisEngine::run_incremental(
    const TrafficConfig& baseline_config, const RunResult& baseline,
    const std::vector<LinkId>& changed_links,
    const netcalc::Options& nc_options, const trajectory::Options& tj_options,
    const RunControl& control) {
  AFDX_TRACE_SPAN("engine.run_incremental", "engine");
  const CallStart start = begin_call();
  IncrementalStats inc;
  inc.attempted = true;
  inc.changed_links = changed_links.size();

  const auto fallback = [&](std::string reason) {
    inc.full_fallback = true;
    inc.fallback_reason = std::move(reason);
    metrics_.incremental = inc;
    return collect(nc_options, tj_options, control, IncrementalReuse{},
                   start);
  };

  const std::uint64_t okey = PortCache::options_key(nc_options);
  if (baseline.nc_options_key != okey) {
    return fallback("baseline was computed under different WCNC options");
  }
  if (baseline.netcalc_result.ports.size() !=
      baseline_config.network().link_count()) {
    return fallback("baseline result does not match the baseline "
                    "configuration");
  }
  const IncrementalPlan plan =
      plan_incremental(baseline_config, cfg_, changed_links);
  if (!plan.compatible) return fallback(plan.reason);
  inc.dirty_ports = plan.dirty_ports.size();

  // Transplant the WCNC bounds of every clean port the baseline actually
  // computed, and drop whatever this engine may still cache for the dirty
  // ones (defensive: entries of this engine are valid for its own fixed
  // configuration, but a prior seed from another baseline might not be).
  for (LinkId l : plan.clean_ports) {
    const netcalc::PortReport& r = baseline.netcalc_result.ports[l];
    if (!r.used) continue;
    // The bounds carry over; the utilization is summed afresh in this
    // configuration's VL order, as a computed report would be.
    netcalc::PortReport seeded = r;
    seeded.utilization = cfg_.utilization(l);
    cache_.seed(okey, l, seeded);
    ++inc.seeded_ports;
  }
  cache_.evict(okey, plan.dirty_ports);

  // Trajectory state carries over only from a baseline computed under the
  // same trajectory options.
  IncrementalReuse reuse;
  if (baseline.tj_options_key == trajectory_options_key(tj_options)) {
    reuse = plan_reuse(baseline_config, baseline, cfg_, plan);
  }
  inc.seeded_prefixes = reuse.prefixes.size();
  inc.transplanted_paths = reuse.paths.size();
  metrics_.incremental = inc;
  return collect(nc_options, tj_options, control, reuse, start);
}

netcalc::Result AnalysisEngine::netcalc_only(
    const netcalc::Options& nc_options) {
  const CallStart start = begin_call();
  WcncPass pass = run_wcnc(nc_options, nullptr);
  const std::size_t n = cfg_.all_paths().size();
  std::vector<Microseconds> bounds(n);
  for (std::size_t i = 0; i < n; ++i) {
    PathStatus status;
    bounds[i] = wcnc_path_bound(i, pass, status);
    if (!status.ok()) throw Error(status.message);
  }
  finish_call(start, elapsed_us(start.wall, Clock::now()), 0.0, n);
  netcalc::Result result = std::move(pass.result);
  result.path_bounds = std::move(bounds);
  return result;
}

std::vector<Microseconds> AnalysisEngine::trajectory_only(
    const trajectory::Options& tj_options) {
  std::vector<std::size_t> every(cfg_.all_paths().size());
  std::iota(every.begin(), every.end(), std::size_t{0});
  std::vector<Microseconds> out(every.size(), kInf);
  trajectory_paths(every, tj_options, out);
  return out;
}

void AnalysisEngine::trajectory_paths(const std::vector<std::size_t>& targets,
                                      const trajectory::Options& tj_options,
                                      std::vector<Microseconds>& out) {
  AFDX_REQUIRE(out.size() == cfg_.all_paths().size(),
               "trajectory_paths: output does not span all_paths()");
  const CallStart start = begin_call();
  const TrajectoryContext ctx =
      resolve_trajectory_context(tj_options, nullptr, nullptr);
  std::mutex mu;
  std::size_t first_failed = out.size();
  std::string failure;
  bound_paths(ctx, &targets, IncrementalReuse{}, nullptr,
              [&](std::size_t i, Microseconds bound, const PathStatus& status) {
                out[i] = bound;
                if (status.ok()) return;
                std::lock_guard<std::mutex> lock(mu);
                if (i < first_failed) {
                  first_failed = i;
                  failure = status.message;
                }
              });
  finish_call(start, 0.0, elapsed_us(start.wall, Clock::now()),
              targets.size());
  if (first_failed != out.size()) throw Error(failure);
}

const netcalc::PortFlowIndex& AnalysisEngine::flow_index() {
  if (!flow_index_.has_value()) {
    flow_index_.emplace(netcalc::build_port_flow_index(cfg_));
  }
  return *flow_index_;
}

std::shared_ptr<trajectory::PrefixCache> AnalysisEngine::prefix_cache_for(
    std::uint64_t tj_key, std::uint64_t caps_sig) {
  // One more FNV round folds the two digests into the map key.
  const std::uint64_t key = fnv_mix(tj_key, caps_sig, 8);
  auto& store = prefix_caches_[key];
  if (store == nullptr) {
    if (slot_table_ == nullptr) {
      AFDX_TRACE_SPAN("engine.trajectory.slot_table", "engine");
      slot_table_ = std::make_shared<const trajectory::SlotTable>(cfg_);
    }
    store = std::make_shared<trajectory::PrefixCache>(slot_table_, scope_);
  }
  return store;
}

RunMetrics AnalysisEngine::metrics() const {
  RunMetrics m = metrics_;
  m.cache = cache_.stats();
  m.prefix = trajectory::prefix_cache_stats(*scope_);
  m.steals = scope_->counter("engine.pool.steals").value();
  m.threads = pool_.thread_count();
  m.tasks_per_thread = pool_.tasks_per_thread();
  return m;
}

}  // namespace afdx::engine
