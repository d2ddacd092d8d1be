// Batch workloads: the afdx_analyze --stream operation, closed loop, one
// operation at a time with a fresh engine each.
//
//   cli-file-10k  load_config_file + AnalysisEngine::run_streaming on a
//                 10k-VL configuration the set-up saved as text;
//   cli-gen-100k  gen::industrial_config + run_streaming at 100k VLs.
//
// An operation ends when run_streaming returns, i.e. when the last per-path
// record has reached the sink. The correctness gate (outside the timed
// window) recomputes a seeded sample of paths with the serial analyzers.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "config/serialization.hpp"
#include "engine/engine.hpp"
#include "gen/industrial.hpp"
#include "netcalc/netcalc_analyzer.hpp"
#include "obs/counters.hpp"
#include "trajectory/trajectory_analyzer.hpp"
#include "vl/traffic_config.hpp"

namespace perfbench {
namespace {

using afdx::TrafficConfig;
namespace engine = afdx::engine;

/// A run holds a few dozen operations (cli-file-10k) or a handful
/// (cli-gen-100k), too few for a quantile with ten samples beyond it; the
/// tail of a batch run is its p75, fixed so that every run reports the same
/// statistic.
constexpr double kTailQuantile = 0.75;

struct BatchShape {
  bool from_file = false;
  int domains = 1;
  int vls = 0;
  std::size_t gate_paths = 300;
};

BatchShape shape_for(const RunSettings& s) {
  const bool file = s.workload == "cli-file-10k";
  if (s.tiny) return BatchShape{file, file ? 2 : 4, file ? 400 : 800, 40};
  return file ? BatchShape{true, 8, 10000, 300}
              : BatchShape{false, 80, 100000, 300};
}

afdx::gen::IndustrialOptions gen_options(const BatchShape& shape,
                                         std::uint64_t seed) {
  // Exactly what afdx_analyze --generate=SEED --gen-domains=D --gen-vls=N
  // asks the generator for.
  afdx::gen::IndustrialOptions go;
  go.seed = seed;
  go.domains = shape.domains;
  go.vl_count = shape.vls;
  return go;
}

/// Generator seed of the k-th operation of cli-gen-100k: each operation
/// analyzes its own configuration derived from the run seed, so one run
/// averages over several networks instead of resting on one draw.
std::uint64_t op_seed(std::uint64_t seed, std::size_t k) {
  Rng rng(seed * 0x100000001b3ULL + k);
  return rng.next() % 1000000007ULL;
}

/// Everything one operation produced, kept for the gate and the layer table.
struct OpResult {
  std::unique_ptr<TrafficConfig> config;
  std::vector<double> netcalc;
  std::vector<double> trajectory;
  std::vector<double> combined;
  std::vector<engine::PathState> state;
  engine::StreamSummary summary;
  engine::RunMetrics metrics;
  double op_ms = 0.0;
  /// From the start of the operation to the first per-path record: when a
  /// `--stream --csv` user reads the first bound.
  double first_record_ms = 0.0;
  // Sub-steps of the operation (always timed; the span log gets them only
  // in a traced run).
  double input_ms = 0.0;      ///< load_config_file or industrial_config
  double construct_ms = 0.0;  ///< AnalysisEngine constructor
  double stream_ms = 0.0;     ///< run_streaming
};

class BatchRun {
 public:
  BatchRun(const RunSettings& settings, RunOutcome& out)
      : s_(settings), shape_(shape_for(settings)), out_(out) {
    file_path_ = s_.work_dir + "/" + s_.workload + "-seed" +
                 std::to_string(s_.seed) + ".afdx";
  }

  void run();

 private:
  void set_up();
  OpResult operation(std::size_t k, SpanLog* log);
  void gate(const OpResult& r);
  void layer_table(const std::vector<OpResult>& traced,
                   const std::vector<double>& index_ms,
                   const std::vector<RegistrySnapshot>& counters,
                   double untraced_p50);

  const RunSettings& s_;
  BatchShape shape_;
  RunOutcome& out_;
  std::string file_path_;
  double setup_s_ = 0.0;
  double setup_gen_ms_ = 0.0;
  double setup_index_ms_ = 0.0;
  SpanLog log_;
};

void BatchRun::set_up() {
  // Set-up is repeated and its median reported, so a change that moves
  // work into it shows as a steady number.
  std::vector<double> reps;
  std::vector<double> gen_ms;
  const int n = shape_.from_file ? 7 : 3;
  for (int rep = 0; rep < n; ++rep) {
    const auto t0 = Clock::now();
    if (shape_.from_file) {
      // The input file: the seed's configuration saved as text once.
      const auto g0 = Clock::now();
      const TrafficConfig cfg =
          afdx::gen::industrial_config(gen_options(shape_, s_.seed));
      gen_ms.push_back(ms_between(g0, Clock::now()));
      afdx::config::save_config_file(cfg, file_path_);
      if (rep == 0) setup_index_ms_ = time_index_ms(cfg);
    } else {
      // Nothing to read or write: the set-up primes the process with one
      // operation at a tenth of the size (thread start-up, heap growth,
      // lazily initialized kernels), so the first timed operation does not
      // pay one-time costs the later ones do not.
      BatchShape small = shape_;
      small.domains = std::max(1, shape_.domains / 10);
      small.vls = shape_.vls / 10;
      const auto g0 = Clock::now();
      const TrafficConfig cfg =
          afdx::gen::industrial_config(gen_options(small, s_.seed));
      gen_ms.push_back(ms_between(g0, Clock::now()));
      engine::AnalysisEngine eng(cfg, engine::Options{kEngineThreads});
      (void)eng.run_streaming(nullptr);
      if (rep == 0) setup_index_ms_ = time_index_ms(cfg);
    }
    reps.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  setup_s_ = median(reps);
  setup_gen_ms_ = median(gen_ms);
}

OpResult BatchRun::operation(std::size_t k, SpanLog* log) {
  OpResult r;
  const auto span = [&](const char* name, int parent) {
    return log != nullptr ? log->begin(name, k, parent) : -1;
  };
  const auto close = [&](int i) {
    if (log != nullptr) log->end(i);
  };

  const auto t0 = Clock::now();
  const int root = span("op", -1);
  const int in = span(shape_.from_file ? "config.load" : "gen.generate", root);
  r.config = std::make_unique<TrafficConfig>(
      shape_.from_file
          ? afdx::config::load_config_file(file_path_)
          : afdx::gen::industrial_config(
                gen_options(shape_, op_seed(s_.seed, k))));
  close(in);
  const auto t1 = Clock::now();

  const int ctor = span("engine.construct", root);
  engine::AnalysisEngine eng(*r.config, engine::Options{kEngineThreads});
  close(ctor);
  const auto t2 = Clock::now();

  const std::size_t n = r.config->all_paths().size();
  r.netcalc.assign(n, 0.0);
  r.trajectory.assign(n, 0.0);
  r.combined.assign(n, 0.0);
  r.state.assign(n, engine::PathState::kSkipped);
  const auto t3 = Clock::now();
  const int run = span("engine.run_streaming", root);
  std::optional<Clock::time_point> first;
  r.summary = eng.run_streaming([&](const engine::StreamPathResult& p) {
    if (!first) first = Clock::now();
    r.netcalc[p.path_index] = p.netcalc;
    r.trajectory[p.path_index] = p.trajectory;
    r.combined[p.path_index] = p.combined;
    r.state[p.path_index] = p.state;
  });
  close(run);
  close(root);
  const auto t4 = Clock::now();

  r.op_ms = ms_between(t0, t4);
  r.first_record_ms = ms_between(t0, first.value_or(t4));
  r.input_ms = ms_between(t0, t1);
  r.construct_ms = ms_between(t1, t2);
  r.stream_ms = ms_between(t3, t4);
  r.metrics = eng.metrics();
  return r;
}

void BatchRun::gate(const OpResult& r) {
  const TrafficConfig& cfg = *r.config;
  const auto& paths = cfg.all_paths();
  Rng rng(s_.seed ^ 0x5eedULL);
  std::vector<std::size_t> sample;
  const std::size_t want = std::min(shape_.gate_paths, paths.size());
  while (sample.size() < want) {
    const std::size_t p = rng.below(paths.size());
    if (std::find(sample.begin(), sample.end(), p) == sample.end()) {
      sample.push_back(p);
    }
  }
  std::sort(sample.begin(), sample.end());

  // Independent references: the serial WCNC analysis of the whole network
  // and the serial trajectory analyzer queried path by path.
  const afdx::netcalc::Result nc = afdx::netcalc::analyze(cfg);
  afdx::trajectory::Analyzer tj(cfg);
  std::size_t mismatches = 0;
  bool first = true;
  for (const std::size_t p : sample) {
    double ref_tj = tj.path_bound(afdx::PathRef{paths[p].vl,
                                                paths[p].dest_index});
    if (s_.perturb_reference && first) {
      ref_tj = std::nextafter(ref_tj, INFINITY);
    }
    first = false;
    const double ref_nc = nc.path_bounds[p];
    const double ref_comb = std::min(ref_nc, ref_tj);
    const bool same = std::bit_cast<std::uint64_t>(ref_nc) ==
                          std::bit_cast<std::uint64_t>(r.netcalc[p]) &&
                      std::bit_cast<std::uint64_t>(ref_tj) ==
                          std::bit_cast<std::uint64_t>(r.trajectory[p]) &&
                      std::bit_cast<std::uint64_t>(ref_comb) ==
                          std::bit_cast<std::uint64_t>(r.combined[p]);
    if (!same) {
      ++mismatches;
      if (out_.gate_messages.size() < 5) {
        out_.gate_messages.push_back(
            "path " + std::to_string(p) + ": streamed nc/tj/combined " +
            fmt_double(r.netcalc[p]) + "/" + fmt_double(r.trajectory[p]) +
            "/" + fmt_double(r.combined[p]) + " vs reference " +
            fmt_double(ref_nc) + "/" + fmt_double(ref_tj) + "/" +
            fmt_double(ref_comb));
      }
    }
  }
  out_.attempted += sample.size();
  out_.failed += mismatches;
  if (mismatches > 0) out_.correct = false;
  out_.fingerprint.samples["gate_paths"] = static_cast<double>(sample.size());
}

void BatchRun::run() {
  out_.fingerprint.workload = s_.workload;
  out_.fingerprint.seed = s_.seed;
  out_.fingerprint.server_workers = 0;

  set_up();

  // Timed window: closed loop, one operation at a time. A traced run
  // follows each untraced operation with a traced one on the same input,
  // so the tracing overhead is measured on matched pairs.
  std::vector<double> op_ms;
  std::vector<double> first_ms;
  std::vector<OpResult> traced;
  std::vector<double> traced_index_ms;
  std::vector<RegistrySnapshot> traced_counters;
  OpResult last;
  std::size_t paths_done = 0;
  std::size_t nonok = 0;
  const std::size_t min_ops = s_.trace ? 2 : 3;
  const auto window_start = Clock::now();
  std::size_t k = 0;
  while (k < min_ops ||
         ms_between(window_start, Clock::now()) < s_.seconds * 1000.0) {
    last = OpResult{};  // free the previous operation outside its timing
    last = operation(k, nullptr);
    op_ms.push_back(last.op_ms);
    first_ms.push_back(last.first_record_ms);
    paths_done += last.summary.paths;
    nonok += last.summary.paths - last.summary.ok;
    out_.fingerprint.engine_threads = last.metrics.threads;
    if (s_.trace) {
      afdx::obs::registry().reset();
      OpResult t = operation(k, &log_);
      traced_counters.push_back(RegistrySnapshot::take());
      // Outside the operation: time the indexing step on its pieces.
      traced_index_ms.push_back(time_index_ms(*t.config));
      paths_done += t.summary.paths;
      nonok += t.summary.paths - t.summary.ok;
      t.config.reset();  // the layer table needs only the numbers
      t.netcalc.clear();
      t.trajectory.clear();
      t.combined.clear();
      t.state.clear();
      traced.push_back(std::move(t));
    }
    ++k;
  }
  const double rss = peak_rss_mb();

  out_.attempted += paths_done;
  out_.failed += nonok;
  gate(last);

  const double ok_share =
      1.0 - static_cast<double>(out_.failed) /
                static_cast<double>(std::max<std::uint64_t>(1, out_.attempted));
  double op_total_ms = 0.0;
  for (const double ms : op_ms) op_total_ms += ms;
  Metrics& m = out_.metrics;
  m.set("setup_s", setup_s_, "s");
  m.set("op_p50_ms", median(op_ms), "ms");
  m.set("op_tail_ms", quantile(op_ms, kTailQuantile), "ms");
  m.set("read_ms", median(first_ms), "ms");
  m.set("ops_per_s",
        1000.0 * static_cast<double>(op_ms.size()) / op_total_ms, "1/s");
  m.set("peak_rss_mb", rss, "MB");
  m.set("ok_share", ok_share, "share");
  out_.fingerprint.samples["ops"] = static_cast<double>(op_ms.size());
  out_.fingerprint.samples["paths_per_op"] =
      static_cast<double>(last.summary.paths);
  out_.fingerprint.samples["tail_quantile"] = kTailQuantile;
  out_.fingerprint.notes["operation"] =
      shape_.from_file
          ? "load_config_file + AnalysisEngine(4 threads).run_streaming"
          : "industrial_config + AnalysisEngine(4 threads).run_streaming";

  if (s_.trace) {
    layer_table(traced, traced_index_ms, traced_counters, median(op_ms));
    log_.write_jsonl(s_.work_dir + "/" + s_.workload + "-spans.jsonl");
  }
}

void BatchRun::layer_table(const std::vector<OpResult>& traced,
                           const std::vector<double>& index_ms,
                           const std::vector<RegistrySnapshot>& counters,
                           double untraced_p50) {
  std::vector<double> parse, gen, setup, pfx_hit, traced_op, gap;
  std::vector<engine::RunMetrics> runs;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const OpResult& r = traced[i];
    const double idx = index_ms[i];
    (shape_.from_file ? parse : gen).push_back(r.input_ms - idx);
    const double nc_ms = r.metrics.netcalc_wall_us / 1000.0;
    const double tj_ms = r.metrics.trajectory_wall_us / 1000.0;
    // Everything of the engine that is neither WCNC nor trajectory: the
    // constructor, per-run preparation and the combine step.
    const double engine_setup = r.construct_ms + (r.stream_ms - nc_ms - tj_ms);
    setup.push_back(engine_setup);
    pfx_hit.push_back(r.summary.prefix_cache.hit_rate());
    runs.push_back(r.metrics);
    traced_op.push_back(r.op_ms);
    // Layer-sum check: the layers of this operation must add up to its
    // end-to-end time; the remainder is work no layer accounts for.
    const double layers =
        (r.input_ms - idx) + idx + engine_setup + nc_ms + tj_ms;
    gap.push_back(std::fabs(r.op_ms - layers) / r.op_ms);
  }

  const double gap_max = *std::max_element(gap.begin(), gap.end());
  if (gap_max > kLayerSumTolerance) {
    out_.invalid = "layer times miss " + fmt_double(gap_max * 100.0) +
                   "% of an operation (tolerance " +
                   fmt_double(kLayerSumTolerance * 100.0) + "%)";
  }
  const double parse_ms = median(parse);
  const double op_traced = median(traced_op);
  Metrics& m = out_.metrics;
  m.set("config.parse_ms", parse_ms, "ms");
  m.set("config.parse_share_pct",
        op_traced > 0.0 ? 100.0 * parse_ms / op_traced : 0.0, "%");
  m.set("vl.index_ms", median(index_ms), "ms");
  m.set("gen.ms",
        shape_.from_file ? setup_gen_ms_ - setup_index_ms_ : median(gen), "ms");
  set_engine_layers(runs, counters, m);
  m.set("trajectory.prefix_cache.hit_rate", median(pfx_hit), "share");
  m.set("engine.setup_ms", median(setup), "ms");
  m.set("trace.layer_gap_pct", gap_max * 100.0, "%");
  m.set("trace.overhead_pct",
        untraced_p50 > 0.0 ? 100.0 * (op_traced - untraced_p50) / untraced_p50
                           : 0.0,
        "%");
  out_.fingerprint.samples["traced_ops"] = static_cast<double>(traced.size());
}

}  // namespace

RunOutcome run_batch(const RunSettings& settings) {
  RunOutcome out;
  BatchRun(settings, out).run();
  return out;
}

}  // namespace perfbench
