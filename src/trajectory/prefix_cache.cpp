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

PrefixCache::PrefixCache(std::shared_ptr<const SlotTable> table,
                         std::shared_ptr<obs::Registry> scope)
    : table_(std::move(table)),
      values_(std::make_unique<std::atomic<std::uint64_t>[]>(table_->size())),
      scope_(std::move(scope)) {
  for (std::size_t s = 0; s < table_->size(); ++s) {
    values_[s].store(kAbsent, std::memory_order_relaxed);
  }
  if (scope_ != nullptr) {
    hits_ = &scope_->counter(kHits);
    misses_ = &scope_->counter(kMisses);
    seeded_ = &scope_->counter(kSeeded);
  }
}

void PrefixCache::count(std::uint64_t hits, std::uint64_t misses) noexcept {
  if (scope_ == nullptr) return;
  hits_->add(hits);
  misses_->add(misses);
}

void PrefixCache::seed(VlId vl, LinkId link, Microseconds bound) {
  const Slot slot = table_->find(vl, link);
  if (slot == kNoSlot) return;
  store(slot, bound);
  if (seeded_ != nullptr) seeded_->add();
}

std::optional<Microseconds> PrefixCache::peek(VlId vl, LinkId link) const {
  const Slot slot = table_->find(vl, link);
  if (slot == kNoSlot) return std::nullopt;
  return lookup(slot);
}

std::size_t PrefixCache::size() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s < table_->size(); ++s) {
    n += values_[s].load(std::memory_order_relaxed) != kAbsent;
  }
  return n;
}

}  // namespace afdx::trajectory
