#include "engine/port_cache.hpp"

#include "obs/counters.hpp"

namespace afdx::engine {

std::optional<netcalc::PortBounds> PortCache::lookup(
    std::uint64_t options_key, LinkId port) const {
  // Process-wide hit/miss counters for the observability registry, on top
  // of the per-engine CacheStats that feed RunMetrics.
  static obs::Counter& hits = obs::registry().counter("engine.cache.hits");
  static obs::Counter& misses =
      obs::registry().counter("engine.cache.misses");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key{options_key, port});
  if (it == entries_.end()) {
    ++misses_;
    misses.add();
    return std::nullopt;
  }
  ++hits_;
  hits.add();
  return it->second;
}

void PortCache::store(std::uint64_t options_key, LinkId port,
                      const netcalc::PortBounds& bounds) {
  static obs::Counter& depth =
      obs::registry().counter("engine.cache.entries.max");
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(Key{options_key, port}, bounds);
  depth.record_max(entries_.size());
}

void PortCache::seed(std::uint64_t options_key, LinkId port,
                     const netcalc::PortBounds& bounds) {
  static obs::Counter& seeded =
      obs::registry().counter("engine.cache.seeded");
  std::lock_guard<std::mutex> lock(mu_);
  entries_[Key{options_key, port}] = bounds;
  ++seeded_;
  seeded.add();
}

void PortCache::evict(std::uint64_t options_key,
                      const std::vector<LinkId>& ports) {
  static obs::Counter& evictions =
      obs::registry().counter("engine.cache.evictions");
  std::lock_guard<std::mutex> lock(mu_);
  for (LinkId port : ports) {
    if (entries_.erase(Key{options_key, port}) > 0) {
      ++evicted_;
      evictions.add();
    }
  }
}

std::size_t PortCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

CacheStats PortCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CacheStats{hits_, misses_, seeded_, evicted_};
}

void PortCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace afdx::engine
