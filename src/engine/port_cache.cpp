#include "engine/port_cache.hpp"

namespace afdx::engine {

PortCache::PortCache(obs::Registry& scope)
    : hits_(scope.counter("engine.cache.hits")),
      misses_(scope.counter("engine.cache.misses")),
      seeded_(scope.counter("engine.cache.seeded")),
      evicted_(scope.counter("engine.cache.evictions")),
      max_entries_(scope.counter("engine.cache.entries.max")) {}

std::optional<netcalc::PortBounds> PortCache::lookup(
    std::uint64_t options_key, LinkId port) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key{options_key, port});
  if (it == entries_.end()) {
    misses_.add();
    return std::nullopt;
  }
  hits_.add();
  return it->second;
}

void PortCache::store(std::uint64_t options_key, LinkId port,
                      const netcalc::PortBounds& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(Key{options_key, port}, bounds);
  max_entries_.record_max(entries_.size());
}

void PortCache::seed(std::uint64_t options_key, LinkId port,
                     const netcalc::PortBounds& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[Key{options_key, port}] = bounds;
  seeded_.add();
}

void PortCache::evict(std::uint64_t options_key,
                      const std::vector<LinkId>& ports) {
  std::lock_guard<std::mutex> lock(mu_);
  for (LinkId port : ports) {
    if (entries_.erase(Key{options_key, port}) > 0) evicted_.add();
  }
}

std::size_t PortCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

CacheStats PortCache::stats() const {
  return CacheStats{hits_.value(), misses_.value(), seeded_.value(),
                    evicted_.value()};
}

void PortCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace afdx::engine
