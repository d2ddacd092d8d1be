// Parallel whole-network analysis engine.
//
// AnalysisEngine owns a fixed-size worker pool and a per-output-port
// result cache. Every entry point is a view of one contained pipeline:
//
//   1. WCNC -- the used ports are processed level by level along the
//      propagation partial order; ports of one level have no mutual
//      dependencies, so each level is sharded across the pool. A throwing
//      port fails alone and the ports downstream of it are skipped.
//      Converged per-port bounds are memoized in the cache, which makes
//      repeated runs on the same engine near-free.
//   2. caps -- the trajectory serialization caps, derived once per run by
//      trajectory::serialization_caps from the default-options WCNC pass
//      (the pass of step 1 when the caller used the defaults).
//   3. trajectory -- the target paths are sharded across the pool by whole
//      VLs in a locality-aware order (paths of one VL share their prefix
//      recursion, neighbouring VLs share interferers); every shard-local
//      analyzer shares the caps and one prefix cache.
//   4. assembly -- each path's WCNC sum, its combined bound (the paper's
//      per-path minimum) and its status go to a sink as soon as its
//      trajectory bound is known.
//
// run_streaming is the pipeline; run_resilient collects the sink into
// vectors; run is run_resilient that throws the first failure;
// run_incremental hands baseline state to the pipeline; netcalc_only is
// step 1 and trajectory_only / trajectory_paths are steps 2-3.
//
// Determinism: every per-port / per-path computation is a pure function of
// the configuration and the options, and results land in per-index slots
// -- a run with N threads is bit-identical to a run with 1 thread, and
// threads = 1 executes inline on the calling thread.
//
// Each engine's caches, pool and engine.* figures count in its own obs scope
// (a child of the process root); RunMetrics reads it for --metrics/benches.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/cancel.hpp"
#include "engine/incremental.hpp"
#include "engine/port_cache.hpp"
#include "engine/thread_pool.hpp"
#include "netcalc/netcalc_analyzer.hpp"
#include "obs/counters.hpp"
#include "trajectory/prefix_cache.hpp"
#include "trajectory/trajectory_analyzer.hpp"
#include "vl/traffic_config.hpp"

namespace afdx::engine {

struct Options {
  /// Worker threads: 1 = the legacy single-threaded path (default),
  /// 0 or negative = one per hardware thread.
  int threads = 1;
};

/// Outcome of the most recent run_incremental on an engine.
struct IncrementalStats {
  /// False until run_incremental is called.
  bool attempted = false;
  /// True when the baseline could not be reused and a full run was done.
  bool full_fallback = false;
  std::string fallback_reason;
  std::size_t changed_links = 0;
  /// Used ports inside the dirty cone (recomputed).
  std::size_t dirty_ports = 0;
  /// Clean used ports transplanted from the baseline.
  std::size_t seeded_ports = 0;
  /// Baseline trajectory prefixes transplanted into the shared cache.
  std::size_t seeded_prefixes = 0;
  /// Paths fully outside the dirty cone whose trajectory bound was
  /// transplanted verbatim from the baseline (no recomputation at all).
  std::size_t transplanted_paths = 0;
};

/// Per-worker-shard view of the most recent trajectory phase. With the
/// locality-aware VL order (VLs sorted by their route prefix, contiguous
/// chunks handed to workers), neighbouring VLs of one shard share their
/// interference neighbourhood -- a healthy shard therefore answers most
/// prefix lookups from its analyzer-local memo, and a low hit rate points
/// at a shard whose VLs were scattered across the topology.
struct ShardMetrics {
  /// VL work items and paths this shard executed.
  std::size_t vls = 0;
  std::size_t paths = 0;
  /// Prefix-bound lookups of the shard's analyzer, split by where they
  /// were answered (neither = freshly computed).
  std::uint64_t lookups = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t shared_hits = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return lookups == 0
               ? 0.0
               : static_cast<double>(local_hits + shared_hits) /
                     static_cast<double>(lookups);
  }
};

/// Measurements of an engine's work. `cache`, `prefix` and `steals` are
/// reads of the engine's obs scope.
struct RunMetrics {
  // Cumulative: every entry point call since construction.
  Microseconds netcalc_wall_us = 0.0;
  /// Caps plus the trajectory loop, including each path's assembly.
  Microseconds trajectory_wall_us = 0.0;
  /// Always 0: each path is combined inside the trajectory loop. Kept for
  /// the afdx-bench/1 schema.
  Microseconds combine_wall_us = 0.0;
  /// The calls' wall time: the phases plus run_incremental's planning.
  Microseconds total_wall_us = 0.0;
  /// Process CPU time across all workers (>= wall time when the pool is
  /// busy); wall vs cpu exposes how much of the work parallelized.
  Microseconds total_cpu_us = 0.0;
  CacheStats cache;
  /// All shared trajectory prefix caches of this engine.
  trajectory::PrefixCacheStats prefix;
  /// Chunks stolen by the work-stealing scheduler.
  std::uint64_t steals = 0;
  /// Scheduled work items executed per worker (ports in the WCNC phase, VL
  /// shards in the trajectory phase).
  std::vector<std::size_t> tasks_per_thread;
  int threads = 1;

  // Per-call: the most recent entry point call, or the most recent one
  // that ran the phase named.
  /// Propagation levels of the most recent WCNC pass (0 for cyclic
  /// fallback) and the widest level -- the netcalc parallelism ceiling.
  std::size_t levels = 0;
  std::size_t max_level_width = 0;
  std::size_t paths = 0;
  /// paths / the call's wall time.
  double paths_per_second = 0.0;
  /// The call's share of `cache` and `prefix`.
  CacheStats cache_run;
  trajectory::PrefixCacheStats prefix_run;
  /// Per-worker shard statistics of the most recent trajectory phase
  /// (empty until one ran). Ordered by worker index; workers that never
  /// picked up trajectory work are omitted.
  std::vector<ShardMetrics> shards;
  /// Outcome of the most recent run_incremental.
  IncrementalStats incremental;

  /// Human-readable multi-line summary.
  void print(std::ostream& out) const;
};

/// Outcome of one VL path in a resilient run.
enum class PathState : std::uint8_t {
  /// A finite combined bound was produced (at least one method succeeded).
  kOk,
  /// Every method failed on this path (e.g. an unstable port on its route).
  kFailed,
  /// The path was never analyzed (cancellation / deadline / a dependency
  /// of its ports was abandoned).
  kSkipped,
};

[[nodiscard]] const char* to_string(PathState state) noexcept;

/// Per-path outcome record of a resilient run.
struct PathStatus {
  PathState state = PathState::kOk;
  /// Why the path failed / was skipped, or which method degraded on an
  /// otherwise-ok path. Empty for a fully clean path.
  std::string message;

  [[nodiscard]] bool ok() const noexcept { return state == PathState::kOk; }
};

/// Knobs of a resilient run (run_resilient).
struct RunControl {
  /// Optional cooperative cancellation / deadline: polled between ports,
  /// levels and paths; remaining work is marked skipped, partial results
  /// are returned.
  const CancelToken* cancel = nullptr;
};

/// Bounds of one full run, aligned with TrafficConfig::all_paths().
struct RunResult {
  std::vector<Microseconds> netcalc;
  std::vector<Microseconds> trajectory;
  std::vector<Microseconds> combined;
  /// Per-path outcomes. run() leaves every entry ok; run_resilient records
  /// containment and cancellation outcomes here instead of throwing, and
  /// non-ok paths carry an infinite combined bound.
  std::vector<PathStatus> status;
  /// Full per-port WCNC detail (buffer bounds, per-class delays, ...).
  netcalc::Result netcalc_result;
  /// Digests of the options the run was computed under -- run_incremental
  /// validates a baseline against these before transplanting results.
  std::uint64_t nc_options_key = 0;
  std::uint64_t tj_options_key = 0;
  /// The shared prefix cache the trajectory phase used (null when the
  /// phase never ran); run_incremental reads baseline prefixes from here.
  std::shared_ptr<const trajectory::PrefixCache> prefixes;
  /// Snapshot of the engine metrics at the end of the run.
  RunMetrics metrics;

  /// True when every path is ok.
  [[nodiscard]] bool complete() const noexcept;
};

/// One per-path record delivered to a streaming sink (run_streaming).
struct StreamPathResult {
  /// Index into TrafficConfig::all_paths().
  std::size_t path_index = 0;
  VlId vl = kInvalidVl;
  std::uint32_t dest_index = 0;
  PathState state = PathState::kOk;
  Microseconds netcalc = 0.0;
  Microseconds trajectory = 0.0;
  Microseconds combined = 0.0;
  /// Degradation / failure explanation; empty for a fully clean path.
  std::string message;
};

/// Running aggregate of a streaming run -- everything a 100k-VL capacity
/// sweep needs without materializing per-path vectors or reports. The run's
/// timing, port-cache and shard figures are in AnalysisEngine::metrics().
struct StreamSummary {
  std::size_t paths = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  /// Largest finite combined bound and the path that attains it.
  Microseconds max_combined = 0.0;
  std::size_t worst_path = 0;
  VlId worst_vl = kInvalidVl;
  /// Sum of the finite combined bounds (for the mean). The accumulation
  /// order follows path completion order, so the last bits of the mean may
  /// differ between thread counts; every per-path bound is still exact.
  Microseconds sum_combined = 0.0;
  /// The run's RunMetrics::prefix_run.
  trajectory::PrefixCacheStats prefix_cache;

  [[nodiscard]] Microseconds mean_combined() const noexcept {
    return ok == 0 ? 0.0 : sum_combined / static_cast<Microseconds>(ok);
  }
};

/// Per-path callback of run_streaming. Called under an internal mutex (one
/// call at a time) from worker threads, in path completion order.
using StreamSink = std::function<void(const StreamPathResult&)>;

class AnalysisEngine {
 public:
  explicit AnalysisEngine(const TrafficConfig& config, Options options = {});

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// Both analyses plus the combined per-path minimum: run_resilient, then
  /// the first path where a method failed is thrown as afdx::Error.
  [[nodiscard]] RunResult run(const netcalc::Options& nc_options = {},
                              const trajectory::Options& tj_options = {});

  /// The pipeline collected into vectors. Per-task exceptions are
  /// contained: a throwing port (e.g. unstable utilization) fails only the
  /// paths that depend on it; ports downstream of a failed port are
  /// skipped (their inputs are unknown) and every unaffected path still
  /// gets its exact bounds. An expired RunControl::cancel marks the
  /// remaining work skipped and returns the partial results accumulated so
  /// far. Never throws on analysis errors; RunResult::status tells the
  /// story per path.
  [[nodiscard]] RunResult run_resilient(
      const netcalc::Options& nc_options = {},
      const trajectory::Options& tj_options = {},
      const RunControl& control = {});

  /// The pipeline itself, for configurations too large to materialize
  /// per-path results: every path's record is handed to `sink` as soon as
  /// it is computed (under an internal mutex, in completion order -- sort
  /// by path_index downstream if order matters) and only the running
  /// StreamSummary is kept. Per-path bounds and statuses are bit-identical
  /// to run_resilient at any thread count.
  StreamSummary run_streaming(const StreamSink& sink,
                              const netcalc::Options& nc_options = {},
                              const trajectory::Options& tj_options = {},
                              const RunControl& control = {});

  /// Incremental re-analysis against a prior run of a configuration that
  /// shares this engine's network: only ports inside the dirty cone of
  /// `changed_links` (plus every port whose crossing-VL set changed, and
  /// everything downstream) are recomputed; the bounds of clean ports and
  /// the trajectory prefixes whose whole upstream chain is clean are
  /// transplanted from `baseline`, and so are the trajectory bounds of
  /// paths that cross clean ports only. Bit-identical to run_resilient by
  /// construction -- when the baseline cannot be validated (different
  /// options, different network, ...) it silently falls back to a full
  /// run_resilient and records the reason in metrics().incremental.
  [[nodiscard]] RunResult run_incremental(
      const TrafficConfig& baseline_config, const RunResult& baseline,
      const std::vector<LinkId>& changed_links,
      const netcalc::Options& nc_options = {},
      const trajectory::Options& tj_options = {},
      const RunControl& control = {});

  /// WCNC only (per-port reports and path bounds), served from the cache
  /// when this engine already computed the same options. Throws the first
  /// failed path as afdx::Error.
  [[nodiscard]] netcalc::Result netcalc_only(
      const netcalc::Options& nc_options = {});

  /// Trajectory only, aligned with TrafficConfig::all_paths():
  /// trajectory_paths over every path.
  [[nodiscard]] std::vector<Microseconds> trajectory_only(
      const trajectory::Options& tj_options = {});

  /// Trajectory bounds of the paths `targets` (indices into
  /// TrafficConfig::all_paths()), written to out[i]; `out` must span
  /// all_paths(). Bit-identical to the trajectory bounds of a full run.
  /// Throws the first failed path as afdx::Error.
  void trajectory_paths(const std::vector<std::size_t>& targets,
                        const trajectory::Options& tj_options,
                        std::vector<Microseconds>& out);

  [[nodiscard]] int thread_count() const noexcept {
    return pool_.thread_count();
  }
  /// Metrics accumulated since construction.
  [[nodiscard]] RunMetrics metrics() const;

 private:
  /// Per-port outcome of the WCNC pass.
  struct PortOutcome {
    PathState state = PathState::kOk;
    std::string message;
  };

  /// Output of pipeline step 1: the reports of the computed ports (failed
  /// and skipped ports keep an unused report) and every port's outcome.
  struct WcncPass {
    std::uint64_t options_key = 0;
    netcalc::Result result;
    std::vector<PortOutcome> ports;
  };

  /// Everything a trajectory phase needs, resolved once per call: the
  /// options, their digest, the serialization caps and the shared prefix
  /// cache they key.
  struct TrajectoryContext {
    trajectory::Options options;
    std::optional<std::vector<Microseconds>> caps;
    std::uint64_t tj_key = 0;
    std::shared_ptr<trajectory::PrefixCache> pcache;
  };

  /// Per-path callback of step 3, called concurrently from the workers
  /// with the path's trajectory bound (+infinity unless status is ok).
  using PathVisit = std::function<void(std::size_t path,
                                       Microseconds trajectory,
                                       const PathStatus& status)>;

  /// Clocks and cache counters at the start of an entry point call.
  struct CallStart {
    std::chrono::steady_clock::time_point wall;
    Microseconds cpu_us = 0.0;
    CacheStats cache;
    trajectory::PrefixCacheStats prefix;
  };

  struct PipelineResult {
    StreamSummary summary;
    WcncPass wcnc;
    std::uint64_t tj_key = 0;
  };

  /// Steps 1-4 into `sink`; ends the call that began at `start`.
  PipelineResult pipeline(const netcalc::Options& nc_options,
                          const trajectory::Options& tj_options,
                          const RunControl& control,
                          const IncrementalReuse& reuse,
                          const CallStart& start, const StreamSink& sink);
  /// The pipeline collected into a RunResult.
  RunResult collect(const netcalc::Options& nc_options,
                    const trajectory::Options& tj_options,
                    const RunControl& control,
                    const IncrementalReuse& reuse, const CallStart& start);

  /// Step 1: the contained WCNC pass, by levels (whole-pass granularity on
  /// a cyclic configuration).
  WcncPass run_wcnc(const netcalc::Options& options,
                    const CancelToken* cancel);
  /// Step 2. `pass` is the caller's WCNC pass, if any; the caps come from
  /// it only when it ran under the default options.
  TrajectoryContext resolve_trajectory_context(
      const trajectory::Options& options, const WcncPass* pass,
      const CancelToken* cancel);
  /// Step 3 over `targets` (null = every path).
  void bound_paths(const TrajectoryContext& ctx,
                   const std::vector<std::size_t>* targets,
                   const IncrementalReuse& reuse, const CancelToken* cancel,
                   const PathVisit& visit);
  /// Step 4: a path's WCNC sum, combined bound and status.
  [[nodiscard]] StreamPathResult assemble(std::size_t path,
                                          const WcncPass& pass,
                                          Microseconds trajectory,
                                          const PathStatus& tj_status) const;
  /// A path's WCNC bound: the sum of its ports' class delays, or +infinity
  /// with `status` naming the first port that has no bound.
  [[nodiscard]] Microseconds wcnc_path_bound(std::size_t path,
                                             const WcncPass& pass,
                                             PathStatus& status) const;
  [[nodiscard]] CallStart begin_call();
  /// Ends an entry point call: adds to the cumulative metrics and sets the
  /// per-call ones.
  void finish_call(const CallStart& start, Microseconds netcalc_us,
                   Microseconds trajectory_us, std::size_t paths);

  /// Topology-aware VL schedule of the trajectory phase: VLs sorted
  /// lexicographically by their first path's link sequence (ties by id),
  /// so VLs sharing source ports / route prefixes sit in the same
  /// contiguous chunk and land on the same worker. Pure function of the
  /// configuration; built once per engine.
  [[nodiscard]] const std::vector<VlId>& locality_vl_order();

  /// The once-built flat flow index of this engine's configuration.
  const netcalc::PortFlowIndex& flow_index();
  /// The shared trajectory prefix cache for one (trajectory options, caps)
  /// context, created on first use. Bounds are pure functions of that
  /// context, so the cache persists across runs of this engine.
  std::shared_ptr<trajectory::PrefixCache> prefix_cache_for(
      std::uint64_t tj_key, std::uint64_t caps_sig);

  const TrafficConfig& cfg_;
  /// Shared with the prefix caches, which may outlive the engine.
  std::shared_ptr<obs::Registry> scope_;
  ThreadPool pool_;
  PortCache cache_;
  std::optional<netcalc::PortFlowIndex> flow_index_;
  /// Cached locality_vl_order() result (pure function of cfg_).
  std::optional<std::vector<VlId>> locality_order_;
  std::unordered_map<std::uint64_t, std::shared_ptr<trajectory::PrefixCache>>
      prefix_caches_;
  /// The cache used by the most recent trajectory phase.
  std::shared_ptr<trajectory::PrefixCache> last_prefix_cache_;
  RunMetrics metrics_;
};

}  // namespace afdx::engine
