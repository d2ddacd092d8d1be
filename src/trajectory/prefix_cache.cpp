#include "trajectory/prefix_cache.hpp"

#include <utility>

namespace afdx::trajectory {

constexpr const char* kHits = "trajectory.prefix_cache.hits";
constexpr const char* kMisses = "trajectory.prefix_cache.misses";
constexpr const char* kSeeded = "trajectory.prefix_cache.seeded";

PrefixCacheStats prefix_cache_stats(obs::Registry& scope) {
  return PrefixCacheStats{scope.counter(kHits).value(),
                          scope.counter(kMisses).value(),
                          scope.counter(kSeeded).value()};
}

PrefixCache::PrefixCache(std::shared_ptr<obs::Registry> scope)
    : scope_(std::move(scope)),
      hits_(scope_->counter(kHits)),
      misses_(scope_->counter(kMisses)),
      seeded_(scope_->counter(kSeeded)) {}

std::optional<Microseconds> PrefixCache::lookup(VlId vl, LinkId link) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key(vl, link));
  if (it == entries_.end()) {
    misses_.add();
    return std::nullopt;
  }
  hits_.add();
  return it->second;
}

void PrefixCache::store(VlId vl, LinkId link, Microseconds bound) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(key(vl, link), bound);
}

void PrefixCache::seed(VlId vl, LinkId link, Microseconds bound) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key(vl, link)] = bound;
  seeded_.add();
}

std::optional<Microseconds> PrefixCache::peek(VlId vl, LinkId link) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key(vl, link));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::size_t PrefixCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace afdx::trajectory
