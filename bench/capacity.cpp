// Evaluation beyond the paper: the capacity frontier. The paper's
// industrial configuration is ~1000 VLs; ROADMAP item 2 asks how far the
// engine scales past that. This bench sweeps the hierarchical multi-domain
// generator from the paper-scale single domain (500 VLs) to
// airliner-and-beyond networks (10k VLs over 8 domains, 66 switches) and
// records the paths/second-vs-size frontier -- the number a regression in
// the trajectory hot path moves first.
//
// Every rung is analyzed through AnalysisEngine::run_streaming: per-path
// results are folded into the running summary as they complete and no
// per-path vector or report is ever materialized, which is what keeps the
// 10k-VL rung (and the 100k-VL configurations the generator can produce)
// inside a sane memory budget.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gen/industrial.hpp"
#include "report/table.hpp"

namespace {

using namespace afdx;

struct Rung {
  int domains = 1;
  int vls_per_domain = 500;

  [[nodiscard]] int total_vls() const { return domains * vls_per_domain; }
};

gen::IndustrialOptions rung_options(const Rung& r) {
  gen::IndustrialOptions go;
  go.domains = r.domains;
  // switch_count / end_system_count are per domain: every rung keeps the
  // paper's 8-switch, 60-end-system domain shape and scales by domain
  // count, so per-port interference stays avionics-like while the network
  // grows.
  go.vl_count = r.total_vls();
  return go;
}

struct RungResult {
  Rung rung;
  std::size_t switches = 0;
  std::size_t end_systems = 0;
  std::size_t paths = 0;
  Microseconds gen_wall_us = 0.0;
  engine::StreamSummary summary;
  engine::RunMetrics metrics;
  std::size_t sink_calls = 0;
};

RungResult run_rung(const Rung& rung) {
  RungResult out;
  out.rung = rung;

  const auto g0 = std::chrono::steady_clock::now();
  const TrafficConfig cfg = gen::industrial_config(rung_options(rung));
  out.gen_wall_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - g0)
                        .count();
  out.switches = cfg.network().switches().size();
  out.end_systems = cfg.network().end_systems().size();
  out.paths = cfg.all_paths().size();

  engine::AnalysisEngine engine(cfg, engine::Options{0});
  out.summary = engine.run_streaming(
      [&](const engine::StreamPathResult&) { ++out.sink_calls; });
  out.metrics = engine.metrics();
  return out;
}

void run_experiment(std::ostream& out, const benchutil::BenchCli& cli) {
  out << "EXT / capacity frontier: paths/second vs network size\n\n";

  // 500 VLs is the paper-scale single domain; 2k and 10k scale by domains
  // (the full run adds 20k and 100k rungs -- the latter is the flattened
  // frontier's headline size). Sizes must be strictly increasing --
  // scripts/validate_bench_json.py asserts the frontier stays monotone.
  std::vector<Rung> rungs = {{1, 500}, {2, 1000}, {8, 1250}};
  if (!cli.quick) {
    rungs.push_back({16, 1250});
    rungs.push_back({80, 1250});
  }

  std::vector<RungResult> frontier;
  benchutil::OverheadReport overhead;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (i == 0) {
      // The paper-scale rung doubles as the tracer-overhead workload.
      RungResult r;
      overhead = benchutil::measure_run_overhead(
          [&] { r = run_rung(rungs[i]); });
      frontier.push_back(std::move(r));
    } else {
      frontier.push_back(run_rung(rungs[i]));
    }
  }

  report::Table t({"VLs", "domains", "switches", "paths", "gen (ms)",
                   "analysis (ms)", "paths/s", "ok/failed/skipped"});
  for (const RungResult& r : frontier) {
    t.add_row({std::to_string(r.rung.total_vls()),
               std::to_string(r.rung.domains), std::to_string(r.switches),
               std::to_string(r.paths),
               report::fmt(r.gen_wall_us / 1000.0, 1),
               report::fmt(r.metrics.total_wall_us / 1000.0, 1),
               report::fmt(r.metrics.paths_per_second, 0),
               std::to_string(r.summary.ok) + "/" +
                   std::to_string(r.summary.failed) + "/" +
                   std::to_string(r.summary.skipped)});
  }
  t.print(out);
  out << "\nEvery rung streams its per-path results through the sink (one\n"
         "record at a time) and keeps only the running summary; the per-path\n"
         "bounds are bit-identical to a materializing run_resilient.\n\n";
  benchutil::print_overhead(out, overhead);

  const auto json_path = cli.resolve_json_path("capacity");
  if (json_path.has_value()) {
    benchutil::BenchJsonDoc doc =
        benchutil::begin_bench_json(*json_path, "capacity", cli);
    if (doc.ok()) {
      obs::JsonWriter& w = doc.w();
      w.key("config").begin_object();
      w.field("switches_per_domain", 8)
          .field("end_systems_per_domain", 60)
          .field("threads", 0)
          .field("streaming", true);
      w.end_object();
      w.key("results").begin_object();
      w.key("frontier").begin_array();
      for (const RungResult& r : frontier) {
        w.begin_object()
            .field("vls", r.rung.total_vls())
            .field("domains", r.rung.domains)
            .field("switches", r.switches)
            .field("end_systems", r.end_systems)
            .field("paths", r.paths)
            .field("gen_wall_us", r.gen_wall_us)
            .field("analysis_wall_us", r.metrics.total_wall_us)
            .field("paths_per_second", r.metrics.paths_per_second)
            .field("ok", r.summary.ok)
            .field("failed", r.summary.failed)
            .field("skipped", r.summary.skipped)
            .field("sink_calls", r.sink_calls)
            .field("max_combined_us", r.summary.max_combined)
            .field("mean_combined_us", r.summary.mean_combined())
            .end_object();
      }
      w.end_array();
      w.end_object();
      obs::write_registry_json(w);
      benchutil::write_overhead_json(w, overhead);
      benchutil::finish_bench_json(doc, *json_path);
    }
  }
}

void BM_Capacity500(benchmark::State& state) {
  const TrafficConfig cfg = gen::industrial_config(rung_options({1, 500}));
  for (auto _ : state) {
    engine::AnalysisEngine engine(cfg, engine::Options{0});
    benchmark::DoNotOptimize(engine.run_streaming(nullptr));
  }
}
BENCHMARK(BM_Capacity500)->Unit(benchmark::kMillisecond);

void BM_Capacity2000(benchmark::State& state) {
  const TrafficConfig cfg = gen::industrial_config(rung_options({2, 1000}));
  for (auto _ : state) {
    engine::AnalysisEngine engine(cfg, engine::Options{0});
    benchmark::DoNotOptimize(engine.run_streaming(nullptr));
  }
}
BENCHMARK(BM_Capacity2000)->Unit(benchmark::kMillisecond);

void BM_Generate10k(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::industrial_config(rung_options({8, 1250})));
  }
}
BENCHMARK(BM_Generate10k)->Unit(benchmark::kMillisecond);

}  // namespace

AFDX_BENCH_MAIN_OBS(run_experiment)
