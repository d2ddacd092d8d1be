// Shared pieces of the repository benchmark: clocks and statistics, the
// metric table a run prints, the bench's own span log, counter snapshots
// of obs::registry(), and the machine fingerprint recorded with every
// result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Times the TrafficConfig(network, vls, routes) constructor on the pieces
/// of an already built configuration: the indexing share of parsing or
/// generating it.
[[nodiscard]] double time_index_ms(const afdx::TrafficConfig& cfg);

/// SplitMix64: the bench's own seeded generator (independent of the
/// program's RNG, so the program cannot influence the schedule).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric table of one run.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }
  [[nodiscard]] std::optional<double> get(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Spans the bench records around its calls into the program. A span names
/// the layer, the operation it belongs to and the span that caused it.
struct Span {
  std::string name;
  std::uint64_t op = 0;
  int parent = -1;  ///< index of the causing span in the log, -1 for a root
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class SpanLog {
 public:
  SpanLog();
  /// Opens a span (returns its index); close it with end().
  int begin(const std::string& name, std::uint64_t op, int parent = -1);
  void end(int index);
  /// Writes the spans as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Counter and histogram values of obs::registry() at one moment.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  struct Hist {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
  };
  std::map<std::string, Hist> histograms;

  static RegistrySnapshot take();
  /// Counter delta (this minus earlier); 0 for unknown names.
  [[nodiscard]] std::uint64_t delta(const RegistrySnapshot& earlier,
                                    const std::string& name) const;
  /// Mean of the observations made between `earlier` and this snapshot.
  [[nodiscard]] double hist_mean_since(const RegistrySnapshot& earlier,
                                       const std::string& name) const;
};

/// Sets the per-layer metrics of the engine and its WCNC and trajectory
/// phases: the median over traced runs of each figure, from each run's
/// RunMetrics and the registry it left (reset before the run).
void set_engine_layers(const std::vector<afdx::engine::RunMetrics>& runs,
                       const std::vector<RegistrySnapshot>& counters,
                       Metrics& m);

/// What a result is comparable against: machine, build and run settings.
struct Fingerprint {
  std::string workload;
  std::uint64_t seed = 0;
  int engine_threads = 0;   ///< resolved engine thread count
  int server_workers = 0;   ///< 0 for the batch workloads
  std::map<std::string, double> samples;  ///< sample counts by name
  std::map<std::string, std::string> notes;
  [[nodiscard]] std::string to_json() const;
};

/// Formats a double with all its significant digits.
[[nodiscard]] std::string fmt_double(double v);

/// Escapes a string for a JSON string literal (quotes included).
[[nodiscard]] std::string json_string(const std::string& s);

/// Settings shared by every workload.
struct RunSettings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short phases; the same code paths (smoke test).
  bool tiny = false;
  /// Deliberately perturbs one reference value: the gate must fail.
  bool perturb_reference = false;
  /// Directory for the inputs the set-up writes and the span log.
  std::string work_dir = ".";
};

/// Outcome of one workload run.
struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Fingerprint fingerprint;
  /// Why the run is invalid (open-loop generator late, backlog grew, layer
  /// sum off); empty when valid. An invalid run publishes no result.
  std::string invalid;
  /// Correctness-gate messages (first few mismatches).
  std::vector<std::string> gate_messages;
};

RunOutcome run_batch(const RunSettings& settings);
RunOutcome run_whatif(const RunSettings& settings);

/// Engine threads and server workers every workload pins (a fixed count
/// keeps runs comparable; "auto" resolved differently between runs).
inline constexpr int kEngineThreads = 4;
inline constexpr int kServerWorkers = 2;

/// Allowed gap between an operation's end-to-end time and the sum of its
/// layer times in a traced run, as a share of the operation.
inline constexpr double kLayerSumTolerance = 0.02;

}  // namespace perfbench
