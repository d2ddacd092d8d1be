// Shared scaffolding for the experiment benches. Every bench binary
// reproduces one table/figure of the paper: it first prints the
// reproduction (tables / ASCII charts), then runs its google-benchmark
// timings of the underlying analyses.
//
// AFDX_BENCH_MAIN(run) expands to a main() that prints the experiment via
// `run(std::cout)` and then executes the registered benchmarks.
//
// AFDX_BENCH_MAIN_OBS(run) is the observability-aware variant: `run`
// receives `(std::ostream&, const afdx::benchutil::BenchCli&)` and the
// binary accepts three extra flags (stripped before google-benchmark sees
// argv, since benchmark::Initialize rejects unknown arguments):
//   --quick            print the experiment only; skip the timed benchmarks
//   --out[=FILE]       emit the machine-readable bench JSON document
//                      ("afdx-bench/1" schema, see EXPERIMENTS.md); bare
//                      --out writes the default BENCH_<bench>.json
//   --trace=FILE       record scoped spans and write Chrome trace JSON
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "engine/engine.hpp"
#include "obs/bench_json.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace afdx::benchutil {

struct BenchCli {
  bool quick = false;
  /// Bare --out was given: write the JSON document to the default name.
  bool out_default = false;
  std::optional<std::string> json_path;
  std::optional<std::string> trace_path;

  /// Where the bench JSON document should go, if anywhere: an explicit
  /// --out=FILE wins; a bare --out selects the consistent default
  /// BENCH_<bench>.json.
  [[nodiscard]] std::optional<std::string> resolve_json_path(
      const char* bench_name) const {
    if (json_path.has_value()) return json_path;
    if (out_default) return "BENCH_" + std::string(bench_name) + ".json";
    return std::nullopt;
  }
};

/// Strips the afdx-specific flags out of argv (compacting it in place) so
/// benchmark::Initialize only sees its own arguments.
inline BenchCli extract_cli(int& argc, char** argv) {
  BenchCli cli;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      cli.quick = true;
    } else if (arg == "--out") {
      cli.out_default = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      cli.json_path = arg.substr(6);
    } else if (arg.rfind("--trace=", 0) == 0) {
      cli.trace_path = arg.substr(8);
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  return cli;
}

inline void flush_trace(const BenchCli& cli) {
  if (!cli.trace_path.has_value()) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  std::ofstream out(*cli.trace_path);
  if (!out.good()) {
    std::cerr << "cannot write trace file '" << *cli.trace_path << "'\n";
    return;
  }
  tracer.write_chrome_trace(out);
  std::cerr << "trace: " << tracer.span_count() << " spans -> "
            << *cli.trace_path << "\n";
}

/// The bench self-check behind the "<5% enabled, ~0% disabled" tracing
/// budget: per-span cost from a calibration loop, scaled by the spans one
/// traced run of the workload actually emits.
struct OverheadReport {
  obs::OverheadCheck check;
  std::size_t run_spans = 0;
  double run_wall_us = 0.0;

  [[nodiscard]] double disabled_pct() const {
    if (!(run_wall_us > 0.0)) return 0.0;
    return 100.0 * static_cast<double>(run_spans) *
           check.disabled_ns_per_span / (run_wall_us * 1000.0);
  }
  [[nodiscard]] double enabled_pct() const {
    if (!(run_wall_us > 0.0)) return 0.0;
    return 100.0 *
           static_cast<double>(run_spans) *
           (check.enabled_ns_per_span - check.disabled_ns_per_span) /
           (run_wall_us * 1000.0);
  }
};

/// Runs `workload` once with tracing enabled to count its spans, then
/// measures the per-span cost. When the tracer was off (no --trace), the
/// calibration spans are dropped again afterwards.
template <typename Workload>
OverheadReport measure_run_overhead(Workload&& workload) {
  OverheadReport report;
  // Calibrate before the workload runs: with the buffers still empty the
  // calibration spans are dropped and never land in a --trace output.
  report.check = obs::measure_span_overhead();

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_enabled = obs::tracing_enabled();
  const std::size_t spans_before = tracer.span_count();

  tracer.enable();
  const auto t0 = std::chrono::steady_clock::now();
  workload();
  const auto t1 = std::chrono::steady_clock::now();
  if (!was_enabled) tracer.disable();

  report.run_spans = tracer.span_count() - spans_before;
  report.run_wall_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  if (!was_enabled && spans_before == 0) tracer.clear();
  return report;
}

inline void print_overhead(std::ostream& out, const OverheadReport& r) {
  out << "tracer self-check: " << r.check.disabled_ns_per_span
      << " ns/span disabled, " << r.check.enabled_ns_per_span
      << " ns/span enabled; one traced run = " << r.run_spans
      << " spans -> estimated overhead " << r.disabled_pct()
      << " % disabled (~0 expected), " << r.enabled_pct()
      << " % enabled (<5 expected)\n";
}

/// "tracer_overhead" object of the afdx-bench/1 schema.
inline void write_overhead_json(obs::JsonWriter& w,
                                const OverheadReport& r) {
  w.key("tracer_overhead").begin_object();
  w.field("calibration_iterations", r.check.iterations)
      .field("disabled_ns_per_span", r.check.disabled_ns_per_span)
      .field("enabled_ns_per_span", r.check.enabled_ns_per_span)
      .field("run_spans", r.run_spans)
      .field("run_wall_us", r.run_wall_us)
      .field("disabled_overhead_pct", r.disabled_pct())
      .field("enabled_overhead_pct", r.enabled_pct());
  w.end_object();
}

/// "metrics" object of the afdx-bench/1 schema (from engine::RunMetrics).
inline void write_metrics_json(obs::JsonWriter& w,
                               const engine::RunMetrics& m) {
  w.key("metrics").begin_object();
  w.field("netcalc_wall_us", m.netcalc_wall_us)
      .field("trajectory_wall_us", m.trajectory_wall_us)
      .field("total_wall_us", m.total_wall_us)
      .field("total_cpu_us", m.total_cpu_us)
      .field("paths", m.paths)
      .field("paths_per_second", m.paths_per_second)
      .field("threads", m.threads)
      .field("levels", m.levels)
      .field("max_level_width", m.max_level_width);
  w.key("cache").begin_object();
  w.field("hits", m.cache.hits)
      .field("misses", m.cache.misses)
      .field("hit_rate", m.cache.hit_rate());
  w.end_object();
  w.end_object();
}

/// Opens `path` and writes the shared document head:
///   {"schema":"afdx-bench/1","bench":NAME,"mode":quick|full, ...
/// The caller then appends its own sections and must call
/// finish_bench_json() to close the document.
struct BenchJsonDoc {
  std::ofstream out;
  std::optional<obs::JsonWriter> writer;

  [[nodiscard]] bool ok() const { return writer.has_value(); }
  obs::JsonWriter& w() { return *writer; }
};

inline BenchJsonDoc begin_bench_json(const std::string& path,
                                     const char* bench_name,
                                     const BenchCli& cli) {
  BenchJsonDoc doc;
  doc.out.open(path);
  if (!doc.out.good()) {
    std::cerr << "cannot write bench json '" << path << "'\n";
    return doc;
  }
  doc.writer.emplace(doc.out);
  doc.w().begin_object();
  doc.w()
      .field("schema", "afdx-bench/1")
      .field("bench", bench_name)
      .field("mode", cli.quick ? "quick" : "full");
  return doc;
}

inline void finish_bench_json(BenchJsonDoc& doc, const std::string& path) {
  if (!doc.ok()) return;
  doc.w().end_object();
  doc.out << "\n";
  doc.out.close();
  std::cerr << "bench json -> " << path << "\n";
}

}  // namespace afdx::benchutil

#define AFDX_BENCH_MAIN(run_experiment)                  \
  int main(int argc, char** argv) {                      \
    run_experiment(std::cout);                           \
    ::benchmark::Initialize(&argc, argv);                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    std::cout << "\n-- timings "                         \
                 "------------------------------------------------\n"; \
    ::benchmark::RunSpecifiedBenchmarks();               \
    return 0;                                            \
  }

#define AFDX_BENCH_MAIN_OBS(run_experiment)              \
  int main(int argc, char** argv) {                      \
    const ::afdx::benchutil::BenchCli cli =              \
        ::afdx::benchutil::extract_cli(argc, argv);      \
    if (cli.trace_path.has_value())                      \
      ::afdx::obs::Tracer::instance().enable();          \
    run_experiment(std::cout, cli);                      \
    ::afdx::benchutil::flush_trace(cli);                 \
    if (cli.quick) return 0;                             \
    ::benchmark::Initialize(&argc, argv);                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    std::cout << "\n-- timings "                         \
                 "------------------------------------------------\n"; \
    ::benchmark::RunSpecifiedBenchmarks();               \
    return 0;                                            \
  }
