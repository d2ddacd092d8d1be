// afdx_perfbench -- the repository benchmark.
//
//   afdx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--tiny] [--perturb-reference] [--work-dir DIR]
//
// Runs one workload (cli-file-10k, cli-gen-100k, whatif-mix) for S seconds
// with inputs made from the seed, checks the program's outputs against
// independent references, and prints as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Every metric of
// the chosen table is printed on every workload; a layer a workload does
// not exercise reads 0.
//
// Exit codes: 0 = result printed and correct; 1 = the correctness gate
// failed (result printed with "correct": false); 2 = usage error;
// 3 = the run was invalid (open-loop generator late, backlog grew, layer
// times do not add up) and publishes no result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parse.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end table (BENCHMARK.json "end_to_end"; smoke.py checks the
// two agree).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},     {"op_p50_ms", "ms"},   {"op_tail_ms", "ms"},
    {"read_ms", "ms"},    {"ops_per_s", "1/s"},  {"peak_rss_mb", "MB"},
    {"ok_share", "share"},
};

// The per-layer table (BENCHMARK.json "per_layer").
constexpr MetricSpec kPerLayer[] = {
    {"config.parse_ms", "ms"},
    {"config.parse_share_pct", "%"},
    {"vl.index_ms", "ms"},
    {"gen.ms", "ms"},
    {"netcalc.ms", "ms"},
    {"netcalc.ports_computed", "count"},
    {"trajectory.ms", "ms"},
    {"trajectory.prefixes", "count"},
    {"trajectory.segments_per_prefix.mean", "count"},
    {"trajectory.segments_per_prefix.max", "count"},
    {"trajectory.candidates_per_prefix.mean", "count"},
    {"trajectory.busy_rounds.mean", "count"},
    {"trajectory.memo_hit_rate", "share"},
    {"trajectory.sweep_simd_share", "share"},
    {"trajectory.prefix_cache.hit_rate", "share"},
    {"engine.setup_ms", "ms"},
    {"engine.parallelism", "x"},
    {"engine.efficiency", "share"},
    {"engine.steals", "count"},
    {"engine.port_cache.hit_rate", "share"},
    {"session.materialize_ms", "ms"},
    {"engine.plan_ms", "ms"},
    {"session.analyze_ms", "ms"},
    {"engine.dirty_port_share", "share"},
    {"engine.transplanted_path_share", "share"},
    {"serve.parse_us", "us"},
    {"serve.handle_ms", "ms"},
    {"serve.respond_ms", "ms"},
    {"server.wait_ms", "ms"},
    {"serve.queue.max_depth", "count"},
    {"serve.overloaded", "count"},
    {"client.late_p99_ms", "ms"},
    {"client.open_whatif_p50_ms", "ms"},
    {"client.open_read_tail_ms", "ms"},
    {"trace.layer_gap_pct", "%"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "afdx_perfbench: " << why
            << "\nusage: afdx_perfbench --workload cli-file-10k|cli-gen-100k|"
               "whatif-mix --seed N --seconds S --trace 0|1 [--tiny] "
               "[--perturb-reference] [--work-dir DIR]\n";
  std::exit(2);
}

RunSettings parse_args(int argc, char** argv) {
  RunSettings s;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      s.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      const auto n = afdx::parse_uint(value());
      if (!n) usage("--seed needs a non-negative integer");
      s.seed = *n;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto x = afdx::parse_double(value());
      if (!x || *x <= 0.0) usage("--seconds needs a positive number");
      s.seconds = *x;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      s.trace = v == "1";
    } else if (arg == "--tiny") {
      s.tiny = true;
    } else if (arg == "--perturb-reference") {
      s.perturb_reference = true;
    } else if (arg == "--work-dir") {
      s.work_dir = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (s.workload != "cli-file-10k" && s.workload != "cli-gen-100k" &&
      s.workload != "whatif-mix") {
    usage("unknown workload " + s.workload);
  }
  return s;
}

std::string result_json(const RunOutcome& r, bool trace) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const double v = r.metrics.get(spec.name).value_or(0.0);
    out << (first ? "" : ", ") << json_string(spec.name)
        << ": {\"value\": " << fmt_double(v)
        << ", \"unit\": " << json_string(spec.unit) << "}";
    first = false;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const RunSettings settings = parse_args(argc, argv);
  RunOutcome outcome;
  try {
    outcome = settings.workload == "whatif-mix" ? run_whatif(settings)
                                                : run_batch(settings);
  } catch (const std::exception& e) {
    std::cerr << "afdx_perfbench: " << settings.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
  if (!settings.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      if (!outcome.metrics.get(spec.name).has_value()) {
        std::cerr << "afdx_perfbench: workload did not measure "
                  << spec.name << "\n";
        return 1;
      }
    }
  }

  std::cout << "fingerprint " << outcome.fingerprint.to_json() << "\n";
  for (const Metric& m : outcome.metrics.all()) {
    std::cout << "  " << m.name << " = " << fmt_double(m.value) << " "
              << m.unit << "\n";
  }
  for (const std::string& msg : outcome.gate_messages) {
    std::cout << "gate mismatch: " << msg << "\n";
  }
  if (!outcome.invalid.empty()) {
    std::cerr << "afdx_perfbench: invalid run, no result published: "
              << outcome.invalid << "\n";
    return 3;
  }
  std::cout << result_json(outcome, settings.trace) << std::endl;
  if (!outcome.correct) {
    std::cerr << "afdx_perfbench: correctness gate failed\n";
    return 1;
  }
  return 0;
}
