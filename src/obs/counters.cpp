#include "obs/counters.hpp"

#include <algorithm>
#include <bit>
#include <ostream>

namespace afdx::obs {

void Histogram::observe(std::uint64_t v) noexcept {
  const std::size_t b = (v == 0) ? 0 : static_cast<std::size_t>(
                                           64 - std::countl_zero(v));
  buckets_[std::min(b, kBuckets - 1)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);

  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  if (parent_ != nullptr) parent_->observe(v);
}

std::uint64_t Histogram::min() const noexcept {
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

std::uint64_t Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& registry() {
  static Registry root;
  return root;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) return *c;
  }
  // Lock order is always child before parent, so nesting cannot deadlock.
  Counter* up = parent_ != nullptr ? &parent_->counter(name) : nullptr;
  counters_.emplace_back(name, std::make_unique<Counter>(up));
  return *counters_.back().second;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, h] : histograms_) {
    if (n == name) return *h;
  }
  Histogram* up = parent_ != nullptr ? &parent_->histogram(name) : nullptr;
  histograms_.emplace_back(name, std::make_unique<Histogram>(up));
  return *histograms_.back().second;
}

std::vector<CounterSnapshot> Registry::counters() const {
  std::vector<CounterSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(counters_.size());
    for (const auto& [n, c] : counters_) {
      out.push_back(CounterSnapshot{n, c->value()});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.name < b.name;
  });
  return out;
}

std::vector<HistogramSnapshot> Registry::histograms() const {
  std::vector<HistogramSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(histograms_.size());
    for (const auto& [n, h] : histograms_) {
      out.push_back(HistogramSnapshot{n, h->count(), h->sum(), h->min(),
                                      h->max(), h->mean()});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.name < b.name;
  });
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, c] : counters_) c->reset();
  for (auto& [n, h] : histograms_) h->reset();
}

void Registry::print(std::ostream& out) const {
  out << "counters:\n";
  for (const CounterSnapshot& c : counters()) {
    out << "  " << c.name << " = " << c.value << "\n";
  }
  const auto hists = histograms();
  if (!hists.empty()) {
    out << "histograms:\n";
    for (const HistogramSnapshot& h : hists) {
      out << "  " << h.name << ": count=" << h.count << " sum=" << h.sum
          << " min=" << h.min << " max=" << h.max << " mean=" << h.mean
          << "\n";
    }
  }
}

}  // namespace afdx::obs
