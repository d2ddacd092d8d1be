// Per-path states, run results and run metrics of the analysis engine.
#include "engine/engine.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>

namespace afdx::engine {

namespace {

/// 0.0 instead of NaN/inf for degenerate inputs, keeping printed metrics
/// sane on trivial runs.
double finite_or_zero(double value) {
  return std::isfinite(value) ? value : 0.0;
}

}  // namespace

const char* to_string(PathState state) noexcept {
  switch (state) {
    case PathState::kOk:
      return "ok";
    case PathState::kFailed:
      return "failed";
    case PathState::kSkipped:
      return "skipped";
  }
  return "unknown";
}

bool RunResult::complete() const noexcept {
  for (const PathStatus& s : status) {
    if (!s.ok()) return false;
  }
  return true;
}

void RunMetrics::print(std::ostream& out) const {
  const auto flags = out.flags();
  const auto precision = out.precision();
  out << std::fixed << std::setprecision(3);
  out << "engine: " << threads << " thread" << (threads == 1 ? "" : "s")
      << ", " << paths << " paths, " << std::setprecision(0)
      << finite_or_zero(paths_per_second) << " paths/s\n"
      << std::setprecision(3) << "  wall ms: netcalc "
      << netcalc_wall_us / 1000.0 << " | trajectory "
      << trajectory_wall_us / 1000.0 << " | combine "
      << combine_wall_us / 1000.0 << " | total " << total_wall_us / 1000.0
      << "\n"
      << "  cpu ms: " << total_cpu_us / 1000.0 << " ("
      << std::setprecision(2)
      << finite_or_zero(total_wall_us > 0.0 ? total_cpu_us / total_wall_us
                                            : 0.0)
      << "x parallelism)\n"
      << std::setprecision(3) << "  levels: " << levels << " (max width "
      << max_level_width << ")\n"
      << "  port cache: " << cache.hits << " hits / " << cache.misses
      << " misses (" << std::setprecision(1)
      << finite_or_zero(cache.hit_rate()) * 100.0 << " % hit rate, "
      << cache.seeded << " seeded, " << cache.evicted << " evicted)\n"
      << "  prefix cache: " << prefix.hits << " hits / " << prefix.misses
      << " misses (" << finite_or_zero(prefix.hit_rate()) * 100.0
      << " % hit rate, " << prefix.seeded << " seeded)\n"
      << "  steals: " << steals << "\n";
  if (!shards.empty()) {
    out << "  shards:";
    for (const ShardMetrics& s : shards) {
      out << " [" << s.vls << " vls, " << s.paths << " paths, "
          << finite_or_zero(s.hit_rate()) * 100.0 << " % memo hits]";
    }
    out << "\n";
  }
  if (incremental.attempted) {
    if (incremental.full_fallback) {
      out << "  incremental: full fallback ("
          << incremental.fallback_reason << ")\n";
    } else {
      out << "  incremental: " << incremental.changed_links
          << " changed links -> " << incremental.dirty_ports
          << " dirty ports, " << incremental.seeded_ports
          << " ports + " << incremental.seeded_prefixes
          << " prefixes seeded, " << incremental.transplanted_paths
          << " paths transplanted\n";
    }
  }
  out << "  tasks/thread:";
  for (std::size_t n : tasks_per_thread) out << " " << n;
  out << "\n";
  out.flags(flags);
  out.precision(precision);
}

}  // namespace afdx::engine
