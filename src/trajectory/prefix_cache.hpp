// Thread-safe shared memoization of trajectory prefix bounds.
//
// The trajectory recursion computes one bound per (VL, link) pair -- the
// worst-case time from generation to the end of transmission on that link
// of the VL's multicast tree. The value is a pure function of
// (configuration, analyzer options, serialization caps), so analyzer
// instances working on the same configuration under the same options can
// share results: the engine hands every shard-local Analyzer one
// PrefixCache, and the ~6000 paths of an industrial configuration compute
// each common prefix once instead of once per worker.
//
// Incremental re-analysis (engine::AnalysisEngine::run_incremental) seeds
// a fresh cache with the baseline entries whose whole upstream dependency
// cone is untouched by the change -- see the dirty-cone discussion in
// README. seed() therefore overwrites, unlike store() which keeps the
// first value (all writers compute identical bounds).
//
// Lookups and seeds count in the owning engine's obs scope, which the cache
// co-owns: it can outlive the engine (RunResult::prefixes, BaselineState).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "obs/counters.hpp"
#include "vl/traffic_config.hpp"

namespace afdx::trajectory {

struct PrefixCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t seeded = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Counter delta between two snapshots (later minus earlier) -- per-run
/// activity out of cumulative cache statistics.
inline PrefixCacheStats operator-(const PrefixCacheStats& now,
                                  const PrefixCacheStats& then) {
  return PrefixCacheStats{now.hits - then.hits, now.misses - then.misses,
                          now.seeded - then.seeded};
}

/// The prefix-cache counters of `scope`, summed over its caches.
[[nodiscard]] PrefixCacheStats prefix_cache_stats(obs::Registry& scope);

class PrefixCache {
 public:
  explicit PrefixCache(std::shared_ptr<obs::Registry> scope);

  /// Returns the cached bound of (vl, link) and counts a hit, or nullopt
  /// and counts a miss. Thread-safe.
  [[nodiscard]] std::optional<Microseconds> lookup(VlId vl, LinkId link);

  /// Stores the bound of (vl, link); the first writer wins (all writers
  /// compute identical values). Thread-safe.
  void store(VlId vl, LinkId link, Microseconds bound);

  /// Inserts or overwrites (vl, link) with a transplanted baseline value
  /// and counts it as seeded. Thread-safe.
  void seed(VlId vl, LinkId link, Microseconds bound);

  /// Reads (vl, link) without touching the hit/miss counters -- used to
  /// enumerate a finished baseline cache during incremental planning.
  [[nodiscard]] std::optional<Microseconds> peek(VlId vl, LinkId link) const;

  /// Distinct (vl, link) entries currently stored. Thread-safe.
  [[nodiscard]] std::size_t size() const;

 private:
  static std::uint64_t key(VlId vl, LinkId link) noexcept {
    return (static_cast<std::uint64_t>(vl) << 32) | link;
  }

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Microseconds> entries_;
  std::shared_ptr<obs::Registry> scope_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& seeded_;
};

}  // namespace afdx::trajectory
