// Named counter / histogram registries, nested as scopes.
//
// obs::registry() is the process root. An owner of attributable work (an
// engine::AnalysisEngine, a serve::Service) holds a child Registry, its
// scope, whose instruments forward each update to the parent's instrument
// of the same name: every event is counted once, in its owner's scope, and
// still reaches the process totals. Layers with no owner (analyzer work
// counters, the server's queue depth) count into the root directly.
//
// Hot-path contract: resolve an instrument once (at construction, or
// `static obs::Counter& c = obs::registry().counter("x");`), then each
// update is one relaxed atomic add per scope level. Registration is
// mutex-guarded and returns stable references (nodes are heap-allocated,
// never moved).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace afdx::obs {

class Counter {
 public:
  /// Every update is applied to `parent` too (null = none); the same holds
  /// for Histogram.
  explicit Counter(Counter* parent = nullptr) noexcept : parent_(parent) {}

  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->add(delta);
  }

  /// Raise the counter to at least `candidate` (e.g. max queue depth seen).
  void record_max(std::uint64_t candidate) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (candidate > cur &&
           !value_.compare_exchange_weak(cur, candidate,
                                         std::memory_order_relaxed)) {
    }
    if (parent_ != nullptr) parent_->record_max(candidate);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  Counter* parent_;
  std::atomic<std::uint64_t> value_{0};
};

/// Power-of-two bucketed histogram over non-negative integer observations
/// (bucket b counts values v with 2^(b-1) <= v < 2^b; bucket 0 counts v==0).
/// Tracks count / sum / min / max exactly.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  explicit Histogram(Histogram* parent = nullptr) noexcept : parent_(parent) {}

  void observe(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const noexcept;  // 0 when empty
  [[nodiscard]] std::uint64_t max() const noexcept;  // 0 when empty
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset() noexcept;

 private:
  Histogram* parent_;
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
};

class Registry {
 public:
  /// A scope whose instruments forward every update to the instrument of
  /// the same name in `parent`, which must outlive it (null = a root).
  explicit Registry(Registry* parent = nullptr) noexcept : parent_(parent) {}

  /// Find-or-create; the returned reference is stable for the registry's
  /// lifetime.
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] std::vector<CounterSnapshot> counters() const;
  [[nodiscard]] std::vector<HistogramSnapshot> histograms() const;

  /// Zero every counter and histogram of this registry (names stay
  /// registered; parent and children keep their values).
  void reset();

  /// Human-readable dump, sorted by name; used by `--metrics`-style output.
  void print(std::ostream& out) const;

 private:
  Registry* parent_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

/// The process root.
[[nodiscard]] Registry& registry();

}  // namespace afdx::obs
