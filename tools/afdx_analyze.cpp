// afdx_analyze -- command-line front end to the delay-analysis library.
//
// Usage:
//   afdx_analyze <config-file> [options]
//   afdx_analyze --generate[=seed] [options]
//
// Options:
//   --gen-domains=N                            with --generate: hierarchical
//                                              multi-domain network (N
//                                              domains of 8 switches / 60
//                                              end systems joined by a
//                                              backbone; 1 = the legacy
//                                              single-domain generator)
//   --gen-vls=N                                with --generate: total VL
//                                              count (default 500)
//   --stream                                   streaming analysis: per-path
//                                              results are folded into a
//                                              running summary (and, with
//                                              --csv, printed as they
//                                              complete) without ever being
//                                              materialized -- the mode for
//                                              10k..100k-VL networks
//   --method=netcalc|trajectory|sfa|all        bounds to compute (default all)
//   --csv                                      CSV instead of a text table
//   --ports                                    also print per-port report
//   --simulate=N                               cross-check with N random
//                                              schedules (reports violations)
//   --no-grouping                              WCNC without the grouping
//   --no-serialization                         trajectory without the
//                                              serialization refinement
//   --threads=N                                analysis worker threads
//                                              (default 1; 0 = one per
//                                              hardware thread); results
//                                              are identical for every N
//   --metrics                                  print engine run metrics
//                                              (per-phase wall time,
//                                              paths/s, cache hit rate)
//   --faults=single-link|single-switch|<spec>  degraded-mode analysis: run
//                                              the listed fault scenarios
//                                              and print the healthy vs.
//                                              degraded DegradationReport.
//                                              A <spec> is comma-separated
//                                              link:<a>-<b> / switch:<n> /
//                                              es:<n> elements (one k-fault
//                                              scenario); the flag repeats.
//                                              Each scenario re-bounds only
//                                              the dirty cone of its failed
//                                              elements against the healthy
//                                              run.
//   --partial                                  resilient run: contain
//                                              per-port/per-path analysis
//                                              failures and report partial
//                                              results with a status column
//   --deadline-ms=N                            cooperative deadline; work
//                                              left when it expires is
//                                              reported as skipped
//   --ladder[=BUDGET_MS]                       budget-driven accuracy/cost
//                                              ladder: the cheapest rung
//                                              (SFA) bounds every path, the
//                                              most disagreeing paths are
//                                              escalated through WCNC,
//                                              WCNC+grouping, trajectory and
//                                              the refined trajectory until
//                                              the budget is spent; prints
//                                              per-path provenance (winner,
//                                              rungs attempted, tightening).
//                                              No value / 0 = unlimited.
//   --ladder-evals=N                           deterministic ladder budget
//                                              in path-evaluation tokens
//                                              (bit-identical across
//                                              --threads); 0 = unlimited
//   --trace=FILE (or --trace FILE)             record scoped spans of the
//                                              engine/netcalc/trajectory
//                                              layers and write a Chrome
//                                              trace-event JSON file
//                                              (chrome://tracing, Perfetto)
//
// Exit status (see also --help and the README):
//   0  success -- every path has a bound (with --method=all, a method that
//      failed on a path another method still bounds is reported in a
//      status column, as --partial and --stream do);
//   1  internal error (unexpected exception);
//   2  usage / parse error (bad flags, malformed config file);
//   3  partial results (contained failures, deadline or cancellation);
//   4  soundness violation -- a simulated delay exceeded a reported bound.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/comparison.hpp"
#include "analysis/ladder.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "config/serialization.hpp"
#include "engine/engine.hpp"
#include "faults/report.hpp"
#include "faults/scenario.hpp"
#include "gen/industrial.hpp"
#include "obs/trace.hpp"
#include "report/table.hpp"
#include "sfa/sfa_analyzer.hpp"
#include "sim/simulator.hpp"

using namespace afdx;

namespace {

// Exit-code contract of the CLI; keep in sync with the header comment, the
// --help text, the README and the cli_exit_* tests.
constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitPartial = 3;
constexpr int kExitViolation = 4;

/// A bound cell: the value, or "-" for a path the method did not bound.
std::string fmt_bound(Microseconds us) {
  return std::isfinite(us) ? report::fmt(us) : std::string("-");
}

/// A status cell: the path state and, in parentheses, its degradation
/// message.
std::string status_cell(engine::PathState state, const std::string& message) {
  std::string status = engine::to_string(state);
  if (!message.empty()) status += " (" + message + ")";
  return status;
}

/// Header of the per-path rows of --partial and --stream --csv.
const std::vector<std::string> kPathColumns{
    "vl", "destination", "hops", "wcnc_us", "trajectory_us", "combined_us",
    "status"};

/// One per-path row of --partial and --stream --csv.
std::vector<std::string> path_row(const TrafficConfig& config,
                                  std::size_t path, Microseconds netcalc,
                                  Microseconds trajectory,
                                  Microseconds combined,
                                  engine::PathState state,
                                  const std::string& message) {
  const VlPath& p = config.all_paths()[path];
  return {config.vl(p.vl).name,
          config.network().node(config.vl(p.vl).destinations[p.dest_index]).name,
          std::to_string(p.links.size()),
          fmt_bound(netcalc),
          fmt_bound(trajectory),
          fmt_bound(combined),
          status_cell(state, message)};
}

struct CliOptions {
  std::optional<std::string> config_file;
  std::optional<std::uint64_t> generate_seed;
  /// --gen-domains / --gen-vls: multi-domain generator shape (with
  /// --generate only).
  int gen_domains = 1;
  std::optional<int> gen_vls;
  /// --stream: streaming analysis through AnalysisEngine::run_streaming.
  bool stream = false;
  bool help = false;
  std::string method = "all";
  bool csv = false;
  bool ports = false;
  bool metrics = false;
  bool partial = false;
  /// --ladder: run the budget-driven accuracy/cost ladder instead of the
  /// fixed method set. budget_ms 0 = unlimited; ladder_evals is the
  /// deterministic path-evaluation token budget (0 = unlimited).
  bool ladder = false;
  double ladder_budget_ms = 0.0;
  std::uint64_t ladder_evals = 0;
  int simulate = 0;
  /// --deadline-ms: engaged when set, even with value 0 (which expires
  /// immediately and exercises the partial-result path end to end).
  std::optional<double> deadline_ms;
  /// --trace: Chrome trace-event JSON output file.
  std::optional<std::string> trace_file;
  /// --faults values: "single-link", "single-switch" or custom specs.
  std::vector<std::string> faults;
  netcalc::Options nc;
  trajectory::Options tj;
  engine::Options eng;
};

void print_usage(std::ostream& out) {
  out << "usage: afdx_analyze <config-file> [options]\n"
         "       afdx_analyze --generate[=seed] [options]\n"
         "options: --gen-domains=N (multi-domain --generate; 1 = legacy)\n"
         "         --gen-vls=N (total generated VLs, default 500)\n"
         "         --stream (streaming analysis: running summary only;\n"
         "           with --csv, rows print as they complete)\n"
         "         --method=netcalc|trajectory|sfa|all  --csv  --ports\n"
         "         --simulate=N  --no-grouping  --no-serialization\n"
         "         --threads=N (0 = auto)  --metrics\n"
         "         --faults=single-link|single-switch|<spec>  (repeatable;\n"
         "           <spec> = comma-separated link:<a>-<b>, switch:<name>,\n"
         "           es:<name> elements forming one scenario)\n"
         "         --partial  --deadline-ms=N (0 expires at once)\n"
         "         --ladder[=BUDGET_MS]  accuracy/cost ladder: run the\n"
         "           cheapest rung (SFA) on every path, escalate the most\n"
         "           disagreeing paths through WCNC / WCNC+grouping /\n"
         "           trajectory / refined trajectory until the budget is\n"
         "           spent (0 or no value = unlimited); exits 3 when the\n"
         "           budget cut the climb\n"
         "         --ladder-evals=N  deterministic ladder token budget\n"
         "           (path evaluations; 0 = unlimited)\n"
         "         --trace=FILE  --help\n"
         "exit codes: 0 success\n"
         "            1 internal error\n"
         "            2 usage or parse error\n"
         "            3 partial results (contained failures, deadline,\n"
         "              cancellation)\n"
         "            4 soundness violation (simulated delay exceeded a\n"
         "              reported bound)\n";
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--generate") {
      opts.generate_seed = 42;
    } else if (arg.rfind("--generate=", 0) == 0) {
      const auto seed = parse_uint(arg.substr(11));
      if (!seed.has_value()) {
        std::cerr << "bad generate seed: " << arg << "\n";
        return std::nullopt;
      }
      opts.generate_seed = *seed;
    } else if (arg.rfind("--gen-domains=", 0) == 0) {
      const auto n = parse_int(arg.substr(14));
      if (!n.has_value() || *n < 1) {
        std::cerr << "bad domain count: " << arg << "\n";
        return std::nullopt;
      }
      opts.gen_domains = static_cast<int>(*n);
    } else if (arg.rfind("--gen-vls=", 0) == 0) {
      const auto n = parse_int(arg.substr(10));
      if (!n.has_value() || *n < 1) {
        std::cerr << "bad VL count: " << arg << "\n";
        return std::nullopt;
      }
      opts.gen_vls = static_cast<int>(*n);
    } else if (arg == "--stream") {
      opts.stream = true;
    } else if (arg.rfind("--method=", 0) == 0) {
      opts.method = arg.substr(9);
      if (opts.method != "netcalc" && opts.method != "trajectory" &&
          opts.method != "sfa" && opts.method != "all") {
        std::cerr << "unknown method: " << opts.method << "\n";
        return std::nullopt;
      }
    } else if (arg == "--csv") {
      opts.csv = true;
    } else if (arg == "--ports") {
      opts.ports = true;
    } else if (arg.rfind("--simulate=", 0) == 0) {
      const auto n = parse_int(arg.substr(11));
      if (!n.has_value() || *n < 0) {
        std::cerr << "bad simulation count: " << arg << "\n";
        return std::nullopt;
      }
      opts.simulate = static_cast<int>(*n);
    } else if (arg == "--no-grouping") {
      opts.nc.grouping = false;
    } else if (arg == "--no-serialization") {
      opts.tj.serialization = false;
    } else if (arg.rfind("--threads=", 0) == 0) {
      const auto n = parse_int(arg.substr(10));
      if (!n.has_value() || *n < 0) {
        std::cerr << "bad thread count: " << arg << "\n";
        return std::nullopt;
      }
      opts.eng.threads = static_cast<int>(*n);
    } else if (arg == "--metrics") {
      opts.metrics = true;
    } else if (arg == "--ladder") {
      opts.ladder = true;
    } else if (arg.rfind("--ladder=", 0) == 0) {
      const auto ms = parse_double(arg.substr(9));
      if (!ms.has_value() || *ms < 0.0) {
        std::cerr << "bad ladder budget: " << arg << "\n";
        return std::nullopt;
      }
      opts.ladder = true;
      opts.ladder_budget_ms = *ms;
    } else if (arg.rfind("--ladder-evals=", 0) == 0) {
      const auto n = parse_uint(arg.substr(15));
      if (!n.has_value()) {
        std::cerr << "bad ladder eval budget: " << arg << "\n";
        return std::nullopt;
      }
      opts.ladder = true;
      opts.ladder_evals = *n;
    } else if (arg == "--partial") {
      opts.partial = true;
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      const auto ms = parse_double(arg.substr(14));
      if (!ms.has_value() || *ms < 0.0) {
        std::cerr << "bad deadline: " << arg << "\n";
        return std::nullopt;
      }
      opts.deadline_ms = *ms;
    } else if (arg == "--help") {
      opts.help = true;
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::cerr << "--trace needs an output file\n";
        return std::nullopt;
      }
      opts.trace_file = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      const std::string file = arg.substr(8);
      if (file.empty()) {
        std::cerr << "empty --trace value\n";
        return std::nullopt;
      }
      opts.trace_file = file;
    } else if (arg.rfind("--faults=", 0) == 0) {
      const std::string spec = arg.substr(9);
      if (spec.empty()) {
        std::cerr << "empty --faults value\n";
        return std::nullopt;
      }
      opts.faults.push_back(spec);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option: " << arg << "\n";
      return std::nullopt;
    } else if (!opts.config_file.has_value()) {
      opts.config_file = arg;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  if (!opts.help &&
      opts.config_file.has_value() == opts.generate_seed.has_value()) {
    std::cerr << "provide either a config file or --generate\n";
    return std::nullopt;
  }
  if ((opts.gen_domains != 1 || opts.gen_vls.has_value()) &&
      !opts.generate_seed.has_value() && !opts.help) {
    std::cerr << "--gen-domains / --gen-vls require --generate\n";
    return std::nullopt;
  }
  return opts;
}

int run(const CliOptions& opts) {
  const TrafficConfig config =
      opts.config_file.has_value()
          ? config::load_config_file(*opts.config_file)
          : [&] {
              gen::IndustrialOptions go;
              go.seed = *opts.generate_seed;
              go.domains = opts.gen_domains;
              if (opts.gen_vls.has_value()) go.vl_count = *opts.gen_vls;
              return gen::industrial_config(go);
            }();

  engine::CancelToken cancel;
  const engine::CancelToken* cancel_ptr = nullptr;
  if (opts.deadline_ms.has_value()) {
    cancel.set_deadline_after(*opts.deadline_ms * 1000.0);
    cancel_ptr = &cancel;
  }

  if (!opts.faults.empty()) {
    std::vector<faults::FaultScenario> scenarios;
    for (const std::string& spec : opts.faults) {
      if (spec == "single-link") {
        for (auto& s : faults::single_link_scenarios(config)) {
          scenarios.push_back(std::move(s));
        }
      } else if (spec == "single-switch") {
        for (auto& s : faults::single_switch_scenarios(config)) {
          scenarios.push_back(std::move(s));
        }
      } else {
        scenarios.push_back(faults::scenario_from_spec(config.network(), spec));
      }
    }
    faults::ScenarioOptions so;
    so.nc = opts.nc;
    so.tj = opts.tj;
    so.threads = opts.eng.threads;
    so.cancel = cancel_ptr;
    const faults::DegradationReport report =
        faults::analyze_scenarios(config, std::move(scenarios), so);
    report.print(std::cout, config);
    return report.complete() ? kExitOk : kExitPartial;
  }

  if (opts.ladder) {
    analysis::LadderOptions lo;
    lo.budget_ms = opts.ladder_budget_ms;
    lo.max_path_evals = opts.ladder_evals;
    lo.cancel = cancel_ptr;
    lo.netcalc = opts.nc;
    lo.trajectory = opts.tj;
    analysis::BoundLadder ladder(config, opts.eng);
    const analysis::LadderResult r = ladder.run(lo);

    report::Table table({"vl", "destination", "hops", "bound_us", "winner",
                         "first_us", "tightening_us", "rungs", "status"});
    for (std::size_t i = 0; i < config.all_paths().size(); ++i) {
      const VlPath& p = config.all_paths()[i];
      const analysis::PathProvenance& prov = r.provenance[i];
      std::string rungs;
      for (std::size_t k = 0; k < analysis::kRungCount; ++k) {
        if (prov.attempted(static_cast<analysis::Rung>(k))) {
          if (!rungs.empty()) rungs += '+';
          rungs += analysis::to_string(static_cast<analysis::Rung>(k));
        }
      }
      table.add_row(
          {config.vl(p.vl).name,
           config.network()
               .node(config.vl(p.vl).destinations[p.dest_index])
               .name,
           std::to_string(p.links.size()),
           fmt_bound(r.bounds[i]), analysis::to_string(prov.winner),
           fmt_bound(prov.first_bound_us), report::fmt(prov.tightening_us()),
           std::move(rungs),
           status_cell(r.status[i].state, r.status[i].message)});
    }
    if (opts.csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
      std::cout << "\nladder: " << r.path_evals << " path evaluations, "
                << r.paths_escalated << " paths escalated, "
                << report::fmt(r.wall_us / 1000.0) << " ms\n";
      report::Table rungs({"rung", "attempted", "paths", "cost_est",
                           "wall_us", "note"});
      for (std::size_t k = 0; k < analysis::kRungCount; ++k) {
        const analysis::RungStats& s = r.rungs[k];
        rungs.add_row({analysis::to_string(static_cast<analysis::Rung>(k)),
                       s.attempted ? "yes" : "no",
                       std::to_string(s.paths_bounded),
                       report::fmt(s.cost_estimate), report::fmt(s.wall_us),
                       s.failed ? s.message : std::string()});
      }
      rungs.print(std::cout);
    }
    if (opts.metrics) {
      std::cout << "\n";
      ladder.engine().metrics().print(std::cout);
    }
    const bool any_failed =
        std::any_of(r.status.begin(), r.status.end(),
                    [](const engine::PathStatus& s) { return !s.ok(); });
    if (r.budget_exhausted || any_failed) {
      std::cerr << "partial results: "
                << (r.budget_exhausted
                        ? "ladder budget exhausted (" + r.budget_reason + ")"
                        : "some paths have no bounds")
                << "\n";
      return kExitPartial;
    }
    return kExitOk;
  }

  if (opts.stream) {
    engine::AnalysisEngine eng(config, opts.eng);
    engine::StreamSink sink;
    if (opts.csv) {
      report::print_csv_row(std::cout, kPathColumns);
      // Rows print in completion order (not path order); the summary below
      // is what the exit code is derived from either way.
      sink = [&](const engine::StreamPathResult& r) {
        report::print_csv_row(
            std::cout, path_row(config, r.path_index, r.netcalc, r.trajectory,
                                r.combined, r.state, r.message));
      };
    }
    const engine::StreamSummary s = eng.run_streaming(
        sink, opts.nc, opts.tj, engine::RunControl{cancel_ptr});
    const engine::RunMetrics m = eng.metrics();
    if (!opts.csv) {
      std::cout << "streamed " << s.paths << " paths: " << s.ok << " ok, "
                << s.failed << " failed, " << s.skipped << " skipped\n";
      if (s.ok > 0) {
        std::cout << "  max combined " << report::fmt(s.max_combined)
                  << " us (vl " << config.vl(s.worst_vl).name << "), mean "
                  << report::fmt(s.mean_combined()) << " us\n";
      }
      std::cout << "  " << report::fmt(m.total_wall_us / 1000.0) << " ms, "
                << report::fmt(m.paths_per_second, 0) << " paths/s\n";
    }
    if (opts.metrics) {
      std::cout << "\n";
      m.print(std::cout);
    }
    if (s.failed + s.skipped > 0) {
      std::cerr << "partial results: some paths have no bounds\n";
      return kExitPartial;
    }
    return kExitOk;
  }

  if (opts.partial || cancel_ptr != nullptr) {
    engine::AnalysisEngine eng(config, opts.eng);
    const engine::RunResult r =
        eng.run_resilient(opts.nc, opts.tj, engine::RunControl{cancel_ptr});
    report::Table table(kPathColumns);
    for (std::size_t i = 0; i < config.all_paths().size(); ++i) {
      table.add_row(path_row(config, i, r.netcalc[i], r.trajectory[i],
                             r.combined[i], r.status[i].state,
                             r.status[i].message));
    }
    if (opts.csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    if (opts.metrics) {
      std::cout << "\n";
      r.metrics.print(std::cout);
    }
    if (!r.complete()) {
      std::cerr << "partial results: some paths have no bounds\n";
      return kExitPartial;
    }
    return kExitOk;
  }

  const bool want_nc = opts.method == "netcalc" || opts.method == "all";
  const bool want_tj = opts.method == "trajectory" || opts.method == "all";
  const bool want_sfa = opts.method == "sfa" || opts.method == "all";

  engine::AnalysisEngine eng(config, opts.eng);
  std::optional<netcalc::Result> nc;
  std::optional<std::vector<Microseconds>> tj;
  std::optional<sfa::Result> sf;
  // Per-path statuses when both analyses ran: a path one method still
  // bounds is reported with its degradation message, as --partial and
  // --stream do; a path no method bounds fails the run.
  std::vector<engine::PathStatus> status;
  if (want_nc && want_tj) {
    engine::RunResult r = eng.run_resilient(opts.nc, opts.tj);
    for (const engine::PathStatus& s : r.status) {
      if (!s.ok()) throw Error(s.message);
    }
    nc = std::move(r.netcalc_result);
    tj = std::move(r.trajectory);
    if (std::any_of(r.status.begin(), r.status.end(),
                    [](const engine::PathStatus& s) {
                      return !s.message.empty();
                    })) {
      status = std::move(r.status);
    }
  } else {
    if (want_nc || opts.ports) nc = eng.netcalc_only(opts.nc);
    if (want_tj) tj = eng.trajectory_only(opts.tj);
  }
  if (want_sfa) sf = sfa::analyze(config);

  std::vector<std::string> headers{"vl", "destination", "hops"};
  if (want_nc) headers.push_back("wcnc_us");
  if (want_tj) headers.push_back("trajectory_us");
  if (want_sfa) headers.push_back("sfa_us");
  if (want_nc && want_tj) headers.push_back("combined_us");
  if (!status.empty()) headers.push_back("status");
  report::Table table(headers);

  std::vector<Microseconds> reported(config.all_paths().size(), 0.0);
  for (std::size_t i = 0; i < config.all_paths().size(); ++i) {
    const VlPath& p = config.all_paths()[i];
    std::vector<std::string> row{
        config.vl(p.vl).name,
        config.network().node(config.vl(p.vl).destinations[p.dest_index]).name,
        std::to_string(p.links.size())};
    Microseconds best = 1e300;
    if (want_nc) {
      row.push_back(report::fmt(nc->path_bounds[i]));
      best = std::min(best, nc->path_bounds[i]);
    }
    if (want_tj) {
      row.push_back(fmt_bound((*tj)[i]));
      best = std::min(best, (*tj)[i]);
    }
    if (want_sfa) {
      row.push_back(report::fmt(sf->path_bounds[i]));
      best = std::min(best, sf->path_bounds[i]);
    }
    if (want_nc && want_tj) row.push_back(report::fmt(best));
    if (!status.empty()) {
      row.push_back(status_cell(status[i].state, status[i].message));
    }
    reported[i] = best;
    table.add_row(std::move(row));
  }
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  if (opts.ports && nc.has_value()) {
    std::cout << "\n";
    report::Table ports({"port", "class_delays_us", "buffer_bits", "util_%"});
    const Network& net = config.network();
    for (LinkId l = 0; l < net.link_count(); ++l) {
      if (!nc->ports[l].used) continue;
      std::string levels;
      for (const auto& [level, d] : nc->ports[l].level_delays) {
        if (!levels.empty()) levels += " ";
        levels += "P" + std::to_string(level) + ":" + report::fmt(d);
      }
      ports.add_row({net.node(net.link(l).source).name + ">" +
                         net.node(net.link(l).dest).name,
                     levels, report::fmt(nc->ports[l].backlog, 0),
                     report::fmt(nc->ports[l].utilization * 100.0, 1)});
    }
    if (opts.csv) {
      ports.print_csv(std::cout);
    } else {
      ports.print(std::cout);
    }
  }

  if (opts.metrics) {
    std::cout << "\n";
    eng.metrics().print(std::cout);
  }

  if (opts.simulate > 0) {
    int violations = 0;
    for (int s = 0; s < opts.simulate; ++s) {
      sim::Options so;
      so.phasing = s == 0 ? sim::Phasing::kAligned : sim::Phasing::kRandom;
      so.seed = static_cast<std::uint64_t>(s);
      const sim::Result r = sim::simulate(config, so);
      for (std::size_t i = 0; i < reported.size(); ++i) {
        if (r.max_path_delay[i] > reported[i] + 1e-6) {
          ++violations;
          std::cerr << "VIOLATION: schedule " << s << " path " << i
                    << " observed " << r.max_path_delay[i] << " us > bound "
                    << reported[i] << " us\n";
        }
      }
    }
    std::cout << "\nsimulated " << opts.simulate
              << " schedules: " << violations << " bound violations\n";
    if (violations > 0) return kExitViolation;
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse_args(argc, argv);
  if (!opts.has_value()) {
    print_usage(std::cerr);
    return kExitUsage;
  }
  if (opts->help) {
    print_usage(std::cout);
    return kExitOk;
  }
  if (opts->trace_file.has_value()) obs::Tracer::instance().enable();
  // Flush the trace even when the run ends with a partial result or an
  // error -- a trace of a failing run is the one you actually want.
  const auto flush_trace = [&] {
    if (!opts->trace_file.has_value()) return;
    obs::Tracer::instance().disable();
    std::ofstream out(*opts->trace_file);
    if (!out.good()) {
      std::cerr << "cannot write trace file '" << *opts->trace_file << "'\n";
      return;
    }
    obs::Tracer::instance().write_chrome_trace(out);
    std::cerr << "trace: " << obs::Tracer::instance().span_count()
              << " spans -> " << *opts->trace_file << "\n";
  };
  try {
    const int code = run(*opts);
    flush_trace();
    return code;
  } catch (const Error& e) {
    // Library errors stem from the inputs (config files, specs, flag
    // values) -- the parse-error exit code; anything else is internal.
    flush_trace();
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    flush_trace();
    std::cerr << "internal error: " << e.what() << "\n";
    return kExitInternal;
  }
}
