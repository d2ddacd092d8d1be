#include "valid/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <ostream>
#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/serialization.hpp"
#include "engine/thread_pool.hpp"
#include "obs/bench_json.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "valid/corpus.hpp"

namespace afdx::valid {

namespace {

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& axis, const char* name) {
  AFDX_REQUIRE(!axis.empty(),
               std::string("campaign grid: empty axis ") + name);
  return axis[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(axis.size()) - 1))];
}

void merge_pessimism(analysis::PessimismStats& agg,
                     const analysis::PessimismStats& s) {
  if (s.paths == 0) return;
  if (agg.paths == 0) {
    agg = s;
    return;
  }
  agg.max = std::max(agg.max, s.max);
  agg.min = std::min(agg.min, s.min);
  agg.mean = (agg.mean * static_cast<double>(agg.paths) +
              s.mean * static_cast<double>(s.paths)) /
             static_cast<double>(agg.paths + s.paths);
  agg.paths += s.paths;
}

void write_pessimism(obs::JsonWriter& w, std::string_view name,
                     const analysis::PessimismStats& s) {
  w.key(name).begin_object();
  w.field("mean", s.mean).field("min", s.min).field("max", s.max);
  w.field("paths", s.paths).end_object();
}

void write_violation(obs::JsonWriter& w, const Violation& v,
                     std::size_t campaign, const std::string& corpus_file) {
  w.begin_object();
  w.field("campaign", campaign).field("kind", to_string(v.kind));
  w.field("method", v.method).field("index", v.index);
  w.field("observed", v.observed).field("bound", v.bound);
  w.field("detail", v.detail);
  if (!corpus_file.empty()) w.field("corpus", corpus_file);
  w.end_object();
}

}  // namespace

GridOptions GridOptions::smoke() {
  GridOptions g;
  g.vl_counts = {8, 15};
  g.switch_counts = {2, 4};
  g.end_system_counts = {8, 12};
  g.multicast_fractions = {0.0, 0.3};
  g.max_multicast_fanouts = {2, 3};
  g.bag_ranges_ms = {{2.0, 128.0}, {4.0, 16.0}};
  g.max_frame_bytes = {1518, 400};
  g.release_jitters_us = {0.0};
  return g;
}

CampaignSpec spec_for(const GridOptions& grid, std::uint64_t master_seed,
                      std::size_t index) {
  // Golden-ratio mixing decorrelates consecutive indices; the spec is a
  // pure function of (grid, master_seed, index), independent of threading.
  Rng rng(master_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  CampaignSpec spec;
  spec.index = index;
  spec.gen.seed = rng.engine()();
  spec.gen.vl_count = pick(rng, grid.vl_counts, "vl_counts");
  spec.gen.switch_count = pick(rng, grid.switch_counts, "switch_counts");
  spec.gen.end_system_count =
      pick(rng, grid.end_system_counts, "end_system_counts");
  spec.gen.multicast_fraction =
      pick(rng, grid.multicast_fractions, "multicast_fractions");
  spec.gen.max_multicast_fanout =
      pick(rng, grid.max_multicast_fanouts, "max_multicast_fanouts");
  const auto& bag_range = pick(rng, grid.bag_ranges_ms, "bag_ranges_ms");
  spec.gen.min_bag_ms = bag_range.first;
  spec.gen.max_bag_ms = bag_range.second;
  spec.gen.max_frame_bytes = pick(rng, grid.max_frame_bytes, "max_frame_bytes");
  spec.gen.max_release_jitter =
      pick(rng, grid.release_jitters_us, "release_jitters_us");
  return spec;
}

CampaignReport run_campaigns(const CampaignOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto run_start = Clock::now();

  CampaignReport report;
  report.seed = options.seed;
  report.campaigns = options.campaigns;
  report.threads = engine::ThreadPool::resolve_thread_count(options.threads);
  report.outcomes.resize(options.campaigns);

  if (!options.corpus_dir.empty()) {
    std::filesystem::create_directories(options.corpus_dir);
  }

  // Checkpointed outcomes of an earlier interrupted run: replayed into
  // their slots, never re-executed. Specs are recomputed below (pure
  // function of grid/seed/index), so a checkpoint cannot alter them.
  std::vector<const CampaignOutcome*> resumed(options.campaigns, nullptr);
  for (const CampaignOutcome& r : options.resume) {
    if (r.spec.index < options.campaigns && !r.interrupted) {
      resumed[r.spec.index] = &r;
    }
  }

  engine::ThreadPool pool(report.threads);
  pool.parallel_for(options.campaigns, [&](std::size_t i, int) {
    CampaignOutcome& outcome = report.outcomes[i];
    outcome.spec = spec_for(options.grid, options.seed, i);
    if (resumed[i] != nullptr) {
      const CampaignSpec spec = outcome.spec;
      outcome = *resumed[i];
      outcome.spec = spec;
      return;
    }
    if (options.cancel != nullptr && options.cancel->expired()) {
      outcome.interrupted = true;
      outcome.skip_reason = options.cancel->reason();
      return;
    }
    const auto t0 = Clock::now();
    AFDX_TRACE_SPAN("valid.campaign", "valid");
    obs::registry().counter("valid.campaigns").add();
    try {
      const TrafficConfig cfg = gen::industrial_config(outcome.spec.gen);
      outcome.vls = cfg.vl_count();
      outcome.paths = cfg.all_paths().size();
      // Per-campaign schedule seeds keep the batteries decorrelated.
      CheckOptions check = options.check;
      check.schedules.seed = options.seed * 1000003ULL + i * 10ULL;
      outcome.check = check_config(cfg, check);
      obs::registry().counter("valid.violations")
          .add(outcome.check.violations.size());

      if (!outcome.check.ok() && options.shrink_violations) {
        AFDX_TRACE_SPAN("valid.shrink", "valid");
        ShrinkOptions shrink_opts = options.shrink;
        shrink_opts.check = check;
        const auto shrunk = shrink(cfg, shrink_opts);
        if (shrunk.has_value() && !options.corpus_dir.empty()) {
          CorpusEntry entry;
          entry.seed = outcome.spec.gen.seed;
          entry.campaign = i;
          entry.fault = check.fault;
          entry.fault_factor = check.fault_factor;
          entry.witness = shrunk->witness.describe();
          entry.config_text = config::save_config_string(shrunk->config);
          const std::string file =
              (std::filesystem::path(options.corpus_dir) /
               ("shrunk-s" + std::to_string(options.seed) + "-c" +
                std::to_string(i) + ".afdx"))
                  .string();
          write_corpus_file(entry, file);
          outcome.corpus_file = file;
        }
      }
    } catch (const Error& e) {
      // The drawn grid point was infeasible (e.g. the utilization cap
      // rejected the VL population) -- count it, keep fuzzing.
      outcome.skipped = true;
      outcome.skip_reason = e.what();
    }
    outcome.wall_us = std::chrono::duration<double, std::micro>(
                          Clock::now() - t0)
                          .count();
  });

  for (const CampaignOutcome& outcome : report.outcomes) {
    if (outcome.interrupted) {
      ++report.interrupted;
      continue;
    }
    if (outcome.skipped) {
      ++report.skipped;
      continue;
    }
    ++report.completed;
    report.paths += outcome.paths;
    report.schedules_simulated += outcome.check.schedules_simulated;
    report.violation_count += outcome.check.violations.size();
    merge_pessimism(report.wcnc, outcome.check.wcnc);
    merge_pessimism(report.trajectory, outcome.check.trajectory);
    merge_pessimism(report.combined, outcome.check.combined);
  }
  report.wall_us =
      std::chrono::duration<double, std::micro>(Clock::now() - run_start)
          .count();
  return report;
}

void CampaignReport::write_json(std::ostream& out, bool include_timing) const {
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("tool", "afdx_fuzz").field("format", 1);
  w.field("seed", seed).field("campaigns", campaigns);
  if (include_timing) {
    w.field("threads", threads).field("wall_ms", wall_us / 1000.0);
  }
  w.field("completed", completed).field("skipped", skipped);
  w.field("interrupted", interrupted).field("paths_checked", paths);
  w.field("schedules_simulated", schedules_simulated);
  w.field("violations", violation_count);
  w.key("pessimism").begin_object();
  write_pessimism(w, "wcnc", wcnc);
  write_pessimism(w, "trajectory", trajectory);
  write_pessimism(w, "combined", combined);
  w.end_object();

  w.key("violation_details").begin_array();
  for (const CampaignOutcome& o : outcomes) {
    for (const Violation& v : o.check.violations) {
      write_violation(w, v, o.spec.index, o.corpus_file);
    }
  }
  w.end_array();

  w.key("campaign_results").begin_array();
  for (const CampaignOutcome& o : outcomes) {
    w.begin_object();
    w.field("index", o.spec.index).field("config_seed", o.spec.gen.seed);
    if (o.interrupted) {
      w.field("interrupted", true);
    } else if (o.skipped) {
      w.field("skipped", true).field("reason", o.skip_reason);
    } else {
      w.field("vls", o.vls).field("paths", o.paths);
      w.field("schedules", o.check.schedules_simulated);
      w.field("violations", o.check.violations.size());
      w.key("pessimism_mean").begin_object();
      w.field("wcnc", o.check.wcnc.mean);
      w.field("trajectory", o.check.trajectory.mean);
      w.field("combined", o.check.combined.mean).end_object();
      if (include_timing) w.field("wall_us", o.wall_us);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

}  // namespace afdx::valid
