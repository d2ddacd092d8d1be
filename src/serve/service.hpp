// Request execution against pinned warm baselines.
//
// A Service owns the daemon's loaded baselines (name ->
// engine::BaselineState, each the full healthy run plus warm cache state of
// one configuration) and turns one request line into one response line:
//
//   * bounds       -- read-only view of the pinned healthy bounds;
//   * whatif       -- a fresh OverlaySession per request: VL overrides
//                     and/or a fault spec are applied as an overlay and only
//                     the dirty cone is re-analyzed (run_incremental), so a
//                     warm what-if costs a fraction of the baseline build;
//   * fault_sweep  -- faults::analyze_scenarios with the pinned healthy run
//                     injected (ScenarioOptions::healthy_run), so the sweep
//                     never re-pays the healthy analysis either;
//   * ladder       -- a budget-driven accuracy/cost ladder run
//                     (analysis::run_ladder) over the request's
//                     configuration: every path gets its cheapest bound
//                     first, then the paths with the largest rung
//                     disagreement escalate to the expensive trajectory
//                     rungs until the "ladder" budget is spent; whatif
//                     requests can carry the same "ladder" object to get a
//                     budgeted-ladder summary of the overlaid configuration;
//   * status       -- uptime, per-baseline summaries, this Service's
//                     request counters, cache sums and latency, and the
//                     server's queue depth (via the pluggable queue probe);
//   * shutdown     -- acknowledged and latched for the server loop.
//
// Concurrency contract: baselines are registered before serving starts and
// are immutable afterwards; handle()/handle_line() may then be called from
// any number of threads concurrently. Each request builds its own
// OverlaySession/engine, so the only shared state is the baseline (safe for
// concurrent readers) and this class's obs scope, a child of the process
// root. It counts every answered line (serve.requests, rejections
// included), the latency of parsed requests and the per-request engines'
// cache sums; status reads only this scope.
//
// Failure contract: handle_line never throws. Parse errors, unknown
// VLs/configs, malformed fault specs -- every problem becomes one
// {"ok":false,"error":...} response naming the offending key or element,
// and the daemon keeps serving. Per-request deadlines (request
// "deadline_ms" or the service default) ride the engine's CancelToken:
// expired work is reported as explicit partial results, never a hang.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/session.hpp"
#include "obs/counters.hpp"
#include "serve/protocol.hpp"

namespace afdx::serve {

struct ServiceOptions {
  /// Threads of each per-request engine. The serving default is 1: requests
  /// run inline on their worker thread and parallelism comes from serving
  /// many requests concurrently, not from splitting one request.
  int request_threads = 1;
  /// Deadline applied to requests that carry no "deadline_ms" of their own;
  /// 0 = no default deadline.
  double default_deadline_ms = 0.0;
};

/// Live admission-queue figures, plugged in by the server.
struct QueueInfo {
  std::size_t depth = 0;
  std::size_t capacity = 0;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Builds (or adopts) and pins the warm baseline of one configuration.
  /// Not thread-safe; call before serving starts. The first registered
  /// baseline is the default one requests get when they name no "config".
  void add_baseline(const std::string& name,
                    std::shared_ptr<const TrafficConfig> config,
                    const netcalc::Options& nc = {},
                    const trajectory::Options& tj = {}, int build_threads = 1);
  void add_baseline(const std::string& name,
                    std::shared_ptr<const engine::BaselineState> baseline);

  [[nodiscard]] std::size_t baseline_count() const noexcept {
    return baselines_.size();
  }
  /// Baseline by name ("" = the default); nullptr when unknown.
  [[nodiscard]] std::shared_ptr<const engine::BaselineState> baseline(
      const std::string& name) const;

  /// One request line in, exactly one response line out (no newline).
  /// Thread-safe; never throws.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Same, for an already-parsed request.
  [[nodiscard]] std::string handle(const Request& req);

  /// Counts an admission rejection (the server answers those itself, but
  /// status must still see them).
  void note_overloaded() noexcept;
  /// Counts a request the server rejected before parsing (oversized line,
  /// shutting down).
  void note_error() noexcept;

  /// True once a shutdown request has been acknowledged.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// Queue probe used by the status op (unset = depth/capacity 0).
  void set_queue_probe(std::function<QueueInfo()> probe) {
    queue_probe_ = std::move(probe);
  }

 private:
  [[nodiscard]] std::string handle_status(const Request& req);
  [[nodiscard]] std::string handle_bounds(const Request& req);
  [[nodiscard]] std::string handle_whatif(const Request& req);
  [[nodiscard]] std::string handle_fault_sweep(const Request& req);
  [[nodiscard]] std::string handle_ladder(const Request& req);
  [[nodiscard]] std::string handle_shutdown(const Request& req);

  /// Baseline of the request, or throws the error the response should carry.
  [[nodiscard]] const engine::BaselineState& baseline_for(const Request& req) const;

  /// Counts one answered line that was rejected for `reason`.
  void note_rejected(obs::Counter& reason) noexcept;

  ServiceOptions options_;
  std::vector<std::pair<std::string,
                        std::shared_ptr<const engine::BaselineState>>>
      baselines_;
  std::function<QueueInfo()> queue_probe_;
  std::chrono::steady_clock::time_point start_;

  std::atomic<bool> shutdown_{false};
  obs::Registry scope_{&obs::registry()};
  obs::Counter& requests_ = scope_.counter("serve.requests");
  obs::Counter& errors_ = scope_.counter("serve.errors");
  obs::Counter& overloaded_ = scope_.counter("serve.overloaded");
  obs::Histogram& latency_ = scope_.histogram("serve.request_wall_us");
  obs::Counter& port_hits_ = scope_.counter("serve.cache.port_hits");
  obs::Counter& port_misses_ = scope_.counter("serve.cache.port_misses");
  obs::Counter& prefix_hits_ = scope_.counter("serve.cache.prefix_hits");
  obs::Counter& prefix_misses_ = scope_.counter("serve.cache.prefix_misses");
  obs::Counter& seeded_ports_ = scope_.counter("serve.incremental.seeded");
  obs::Counter& dirty_ports_ = scope_.counter("serve.incremental.dirty");
};

}  // namespace afdx::serve
