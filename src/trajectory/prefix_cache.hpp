// Lock-free shared store of trajectory prefix bounds, one value per slot.
//
// The trajectory recursion computes one bound per (VL, link) crossing --
// the worst-case time from generation to the end of transmission on that
// link of the VL's multicast tree. The value is a pure function of
// (configuration, analyzer options, serialization caps), so every analyzer
// working on one configuration under one (options, caps) context can share
// it: the engine builds one SlotTable per configuration and one store per
// context, hands the store to every shard-local Analyzer, and each common
// prefix is computed once instead of once per shard.
//
// The store is one array of 64-bit atomics indexed by the table's slots,
// holding the bound's bit pattern or kAbsent. Every access is a relaxed
// load or store: two shards that race on one slot compute and write
// bit-identical values, so a reader sees either kAbsent (and computes the
// same value itself) or the final value -- no ordering with any other
// memory is needed. The per-recursion cycle guard (the in-progress marker)
// is never shared: it lives in each Analyzer's own state bytes.
//
// Incremental re-analysis (engine::AnalysisEngine::run_incremental) seeds
// a store with the baseline entries whose whole upstream dependency cone
// is untouched by the change -- see the dirty-cone discussion in README --
// before any shard reads it. seed() overwrites; it counts in the owning
// engine's obs scope. Hits and misses are tallied per shard by the Analyzer
// and added to the scope once per shard (count()), not once per lookup.
//
// The store co-owns its table and the scope, so it can outlive the engine
// (RunResult::prefixes, BaselineState) and still resolve (VL, link) keys.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>

#include "obs/counters.hpp"
#include "trajectory/slot_table.hpp"
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
  /// An empty store over `table`'s slots. `scope` receives the hit, miss
  /// and seed counts (null = counted nowhere).
  PrefixCache(std::shared_ptr<const SlotTable> table,
              std::shared_ptr<obs::Registry> scope);

  [[nodiscard]] const SlotTable& table() const noexcept { return *table_; }

  /// The bound stored at `slot`, or nullopt. Lock-free.
  [[nodiscard]] std::optional<Microseconds> lookup(Slot slot) const noexcept {
    const std::uint64_t bits = values_[slot].load(std::memory_order_relaxed);
    if (bits == kAbsent) return std::nullopt;
    return from_bits(bits);
  }

  /// Publishes the bound of `slot`. Concurrent writers of one slot write
  /// identical values. Lock-free.
  void store(Slot slot, Microseconds bound) noexcept {
    values_[slot].store(to_bits(bound), std::memory_order_relaxed);
  }

  /// Adds one shard's tallies to the scope's hit and miss counters.
  void count(std::uint64_t hits, std::uint64_t misses) noexcept;

  /// Stores (vl, link) with a transplanted baseline value (overwriting)
  /// and counts it as seeded; a pair the table does not index is ignored.
  void seed(VlId vl, LinkId link, Microseconds bound);

  /// Reads (vl, link) without touching the hit/miss counters -- used to
  /// enumerate a finished baseline store during incremental planning.
  [[nodiscard]] std::optional<Microseconds> peek(VlId vl, LinkId link) const;

  /// Slots currently holding a bound (a scan over the store).
  [[nodiscard]] std::size_t size() const;

 private:
  /// No bound stored. A NaN payload no arithmetic produces.
  static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

  static std::uint64_t to_bits(Microseconds v) noexcept {
    return std::bit_cast<std::uint64_t>(v);
  }
  static Microseconds from_bits(std::uint64_t bits) noexcept {
    return std::bit_cast<Microseconds>(bits);
  }

  std::shared_ptr<const SlotTable> table_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> values_;
  std::shared_ptr<obs::Registry> scope_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* seeded_ = nullptr;
};

}  // namespace afdx::trajectory
