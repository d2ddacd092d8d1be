// Thread-safe per-output-port memoization cache of WCNC port bounds.
//
// The WCNC analysis is deterministic: the converged bounds of a port are a
// pure function of (configuration, analyzer options). A cache instance is
// owned by one AnalysisEngine and therefore scoped to one configuration;
// entries are keyed by (options digest, port). Both analyzers draw on it:
// the netcalc phase skips the per-port aggregation/deviation work on a
// hit, and the trajectory phase reads its serialization caps (per-port
// queue backlogs) from the same entries instead of re-running the whole
// envelope analysis per worker.
//
// Hits, misses, seeds and evictions count in the owner's obs scope
// (engine.cache.*), which feeds the engine's RunMetrics.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "netcalc/netcalc_analyzer.hpp"
#include "obs/counters.hpp"

namespace afdx::engine {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Baseline entries transplanted by incremental re-analysis (seed()).
  std::uint64_t seeded = 0;
  /// Entries dropped because their port turned dirty (evict()).
  std::uint64_t evicted = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Counter delta between two snapshots (later minus earlier) -- per-run
/// activity out of the engine's cumulative statistics.
inline CacheStats operator-(const CacheStats& now, const CacheStats& then) {
  return CacheStats{now.hits - then.hits, now.misses - then.misses,
                    now.seeded - then.seeded, now.evicted - then.evicted};
}

// Tripwire: options_key() below must fingerprint EVERY field of
// netcalc::Options. If this assert fires, a field was added (or resized) --
// extend the digest with the new field and update the expected size, or the
// cache will serve stale bounds computed under different options.
static_assert(sizeof(netcalc::Options) == 8,
              "netcalc::Options changed: update PortCache::options_key to "
              "mix in every field, then bump this expected size");

class PortCache {
 public:
  /// Counts into `scope`, which must outlive the cache.
  explicit PortCache(obs::Registry& scope);

  /// Digest of the option fields the cached bounds depend on: an FNV-1a
  /// hash over each field, byte by byte. Unlike ad-hoc bit packing this
  /// cannot silently alias two distinct option sets when a field grows or
  /// a new one is appended (see the static_assert tripwire above).
  [[nodiscard]] static std::uint64_t options_key(
      const netcalc::Options& options) noexcept {
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
    const auto mix = [&h](std::uint64_t v, unsigned bytes) noexcept {
      for (unsigned i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xffull;
        h *= 1099511628211ull;  // FNV-1a prime
      }
    };
    mix(options.grouping ? 1u : 0u, 1);
    mix(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(options.max_iterations)),
        sizeof(options.max_iterations));
    return h;
  }

  /// Returns the cached bounds of (options, port) and counts a hit, or
  /// nullopt and counts a miss. Thread-safe.
  [[nodiscard]] std::optional<netcalc::PortBounds> lookup(
      std::uint64_t options_key, LinkId port) const;

  /// Stores the bounds of (options, port); the first writer wins (all
  /// writers compute identical values). Thread-safe.
  void store(std::uint64_t options_key, LinkId port,
             const netcalc::PortBounds& bounds);

  /// Inserts or overwrites (options, port) with a transplanted baseline
  /// value and counts it as seeded -- incremental re-analysis uses this to
  /// pre-load the bounds of ports outside the dirty cone. Thread-safe.
  void seed(std::uint64_t options_key, LinkId port,
            const netcalc::PortBounds& bounds);

  /// Drops the listed ports under `options_key` (existing entries only are
  /// counted as evicted). Thread-safe.
  void evict(std::uint64_t options_key, const std::vector<LinkId>& ports);

  [[nodiscard]] CacheStats stats() const;
  /// Distinct (options, port) entries currently stored. Thread-safe.
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  using Key = std::pair<std::uint64_t, LinkId>;

  mutable std::mutex mu_;
  std::map<Key, netcalc::PortBounds> entries_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& seeded_;
  obs::Counter& evicted_;
  obs::Counter& max_entries_;
};

}  // namespace afdx::engine
