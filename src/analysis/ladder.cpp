#include "analysis/ladder.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "sfa/sfa_analyzer.hpp"

namespace afdx::analysis {

namespace {

using Clock = std::chrono::steady_clock;

constexpr Microseconds kInf = std::numeric_limits<Microseconds>::infinity();
constexpr std::size_t kDefaultWave = 32;

[[nodiscard]] Microseconds elapsed_us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             b - a)
      .count();
}

/// Budget gate of one ladder run. `allow` is called once per unit of work
/// (one whole-config rung or one wave x rung application) with the tokens
/// that unit would spend; the first refusal latches the exhaustion flag
/// and its reason. Token checks happen only here -- at unit boundaries --
/// so token-budgeted runs are deterministic across thread counts.
class Budget {
 public:
  Budget(const LadderOptions& options, const std::uint64_t& spent)
      : options_(options), spent_(spent) {
    if (options.budget_ms > 0.0) {
      deadline_.set_deadline_after(options.budget_ms * 1000.0);
      armed_ = true;
    }
  }

  [[nodiscard]] bool allow(std::uint64_t upcoming_evals) {
    if (exhausted_) return false;
    if (options_.cancel != nullptr && options_.cancel->expired()) {
      const char* why = options_.cancel->reason();
      exhaust(why != nullptr && *why != '\0' ? why : "cancelled");
      return false;
    }
    if (armed_ && deadline_.expired()) {
      exhaust("deadline exceeded");
      return false;
    }
    if (options_.max_path_evals > 0 &&
        spent_ + upcoming_evals > options_.max_path_evals) {
      exhaust("path-evaluation budget spent");
      return false;
    }
    return true;
  }

  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  void exhaust(std::string why) {
    exhausted_ = true;
    reason_ = std::move(why);
  }

  const LadderOptions& options_;
  const std::uint64_t& spent_;
  engine::CancelToken deadline_;
  bool armed_ = false;
  bool exhausted_ = false;
  std::string reason_;
};

/// Applies one rung's freshly computed raw bounds for `targets` to the
/// cumulative result.
void apply_raw(LadderResult& res, Rung rung,
               const std::vector<Microseconds>& raw,
               const std::vector<std::size_t>& targets, bool escalation) {
  RungStats& stats = res.rungs[static_cast<std::size_t>(rung)];
  for (std::size_t i : targets) {
    stats.paths_bounded += 1;
    PathProvenance& prov = res.provenance[i];
    prov.attempted_mask |= static_cast<std::uint8_t>(
        1u << static_cast<unsigned>(rung));
    if (escalation && !prov.escalated) {
      prov.escalated = true;
      res.paths_escalated += 1;
    }
    // Strict < keeps the winner at the cheapest rung on exact ties, which
    // is what makes provenance deterministic and ties "free".
    if (raw[i] < res.bounds[i]) {
      res.bounds[i] = raw[i];
      prov.winner = rung;
    }
    prov.final_bound_us = res.bounds[i];
  }
}

}  // namespace

const char* to_string(Rung rung) noexcept {
  switch (rung) {
    case Rung::kSfa:
      return "sfa";
    case Rung::kWcnc:
      return "wcnc";
    case Rung::kWcncGrouping:
      return "wcnc_grouping";
    case Rung::kTrajectory:
      return "trajectory";
    case Rung::kTrajectoryPruned:
      return "trajectory_pruned";
  }
  return "unknown";
}

Microseconds LadderResult::ladder_bound(std::size_t path, Rung rung) const {
  Microseconds best = kInf;
  for (std::size_t k = 0; k <= static_cast<std::size_t>(rung); ++k) {
    const std::vector<Microseconds>& raw = rung_bounds[k];
    if (raw.empty() || path >= raw.size()) continue;
    if (!provenance[path].attempted(static_cast<Rung>(k))) continue;
    best = std::min(best, raw[path]);
  }
  return best;
}

BoundLadder::BoundLadder(const TrafficConfig& config,
                         const engine::Options& engine_options)
    : cfg_(config),
      engine_(std::make_unique<engine::AnalysisEngine>(config,
                                                       engine_options)) {}

void BoundLadder::register_rung(RungDef def) {
  const auto k = static_cast<std::size_t>(def.id);
  rungs_[k] = std::move(def);
  user_rung_[k] = true;
}

void BoundLadder::register_standard_rungs(const LadderOptions& options) {
  const std::vector<VlPath>& paths = cfg_.all_paths();
  const std::size_t n = paths.size();

  // Structural cost drivers. Hops is the number of (path, crossed port)
  // pairs -- the unit of per-hop work of the cheap rungs; the trajectory
  // rungs additionally sweep busy-period candidates per hop, which the
  // estimates fold in as a constant factor. The estimates only need to be
  // *relatively* right: they order the rungs cheapest-first and let the
  // planner report predicted vs. actual spend.
  std::size_t hops = 0;
  for (const VlPath& p : paths) hops += p.links.size();
  const double base = static_cast<double>(n) +
                      static_cast<double>(hops) / 4.0;

  const auto set = [this](RungDef def) {
    const auto k = static_cast<std::size_t>(def.id);
    if (user_rung_[k]) return;  // keep the caller's replacement
    rungs_[k] = std::move(def);
  };

  // SFA: one residual + convolution per hop on top of an embedded WCNC
  // pass -- the cheapest usable whole-network bound.
  {
    sfa::Options sfa_opts;
    sfa_opts.netcalc_options = options.netcalc;
    set(RungDef{
        .id = Rung::kSfa,
        .cost_estimate = [base] { return base; },
        .compute =
            [this, sfa_opts] {
              return sfa::analyze(cfg_, sfa_opts).path_bounds;
            },
        .compute_paths = nullptr,
    });
  }
  // WCNC without grouping, then with grouping: one fixed point per used
  // port; grouping adds the per-input-link envelope assembly.
  {
    netcalc::Options nc = options.netcalc;
    nc.grouping = false;
    set(RungDef{
        .id = Rung::kWcnc,
        .cost_estimate = [base] { return base * 1.5; },
        .compute =
            [this, nc] { return engine_->netcalc_only(nc).path_bounds; },
        .compute_paths = nullptr,
    });
  }
  {
    netcalc::Options nc = options.netcalc;
    nc.grouping = true;
    set(RungDef{
        .id = Rung::kWcncGrouping,
        .cost_estimate = [base] { return base * 2.0; },
        .compute =
            [this, nc] { return engine_->netcalc_only(nc).path_bounds; },
        .compute_paths = nullptr,
    });
  }
  // The trajectory rungs support per-path escalation through the engine;
  // they differ only in the serialization flag.
  const auto make_trajectory_rung = [this, &options, &set, base](
                                        Rung id, bool serialization,
                                        double cost_factor) {
    trajectory::Options tj = options.trajectory;
    tj.serialization = serialization;
    set(RungDef{
        .id = id,
        .cost_estimate = [base, cost_factor] { return base * cost_factor; },
        .compute = [this, tj] { return engine_->trajectory_only(tj); },
        .compute_paths =
            [this, tj](const std::vector<std::size_t>& targets,
                       std::vector<Microseconds>& out) {
              engine_->trajectory_paths(targets, tj, out);
            },
    });
  };
  make_trajectory_rung(Rung::kTrajectory, /*serialization=*/false, 6.0);
  make_trajectory_rung(Rung::kTrajectoryPruned, /*serialization=*/true, 8.0);
}

LadderResult BoundLadder::run(const LadderOptions& options) {
  const auto t0 = Clock::now();
  register_standard_rungs(options);

  const std::size_t n = cfg_.all_paths().size();
  LadderResult res;
  res.bounds.assign(n, kInf);
  res.provenance.assign(n, PathProvenance{});
  res.status.assign(n, engine::PathStatus{});
  for (std::size_t k = 0; k < kRungCount; ++k) {
    res.rungs[k].cost_estimate =
        rungs_[k].cost_estimate ? rungs_[k].cost_estimate() : 0.0;
  }

  std::vector<std::size_t> everything(n);
  std::iota(everything.begin(), everything.end(), std::size_t{0});

  Budget budget(options, res.path_evals);

  // Runs rung k on the whole configuration; returns false when the rung
  // itself failed (its stats record the reason).
  const auto run_whole = [&](std::size_t k) {
    RungStats& stats = res.rungs[k];
    stats.attempted = true;
    const auto r0 = Clock::now();
    try {
      std::vector<Microseconds> raw = rungs_[k].compute();
      AFDX_ASSERT(raw.size() == n, "ladder: rung results misaligned");
      res.rung_bounds[k] = std::move(raw);
      stats.completed = true;
    } catch (const Error& e) {
      stats.failed = true;
      stats.message = e.what();
    }
    stats.wall_us += elapsed_us(r0, Clock::now());
    if (!stats.completed) return false;
    res.path_evals += n;
    apply_raw(res, static_cast<Rung>(k), res.rung_bounds[k], everything,
              /*escalation=*/false);
    return true;
  };

  // Phase 1 -- the cheapest rung runs on every path *unconditionally*
  // (even with an already-expired budget): no path is ever left without a
  // bound. Rungs that fail outright (SFA on an unstable port) fall
  // through to the next rung up.
  std::size_t base_rung = kRungCount;
  for (std::size_t k = 0; k < kRungCount; ++k) {
    if (run_whole(k)) {
      base_rung = k;
      break;
    }
  }
  if (base_rung == kRungCount) {
    // Every rung failed; report the failure chain on every path.
    std::string detail = "ladder: every rung failed:";
    for (std::size_t k = 0; k < kRungCount; ++k) {
      detail += " [" + std::string(to_string(static_cast<Rung>(k))) + "] " +
                res.rungs[k].message;
    }
    for (std::size_t i = 0; i < n; ++i) {
      res.status[i].state = engine::PathState::kFailed;
      res.status[i].message = detail;
    }
    res.wall_us = elapsed_us(t0, Clock::now());
    return res;
  }
  for (std::size_t i = 0; i < n; ++i) {
    res.provenance[i].first_bound_us = res.bounds[i];
  }

  // Phase 2 -- remaining whole-config rungs, cheapest first, while the
  // budget allows. The per-path trajectory rungs are left for phase 3.
  for (std::size_t k = base_rung + 1; k < kRungCount; ++k) {
    if (rungs_[k].compute_paths) continue;
    if (!budget.allow(n)) break;
    (void)run_whole(k);
  }

  // Phase 3 -- per-path escalation through the trajectory rungs, most
  // disagreeing paths first. Disagreement of a path is the spread between
  // the loosest and the tightest raw bound the attempted rungs produced
  // for it: where the cheap rungs disagree most, climbing is most likely
  // to pay. Waves keep the budget checks coarse enough to stay
  // deterministic.
  std::vector<std::size_t> order;
  if (!budget.exhausted()) {
    std::vector<Microseconds> spread(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      Microseconds lo = kInf;
      Microseconds hi = -kInf;
      for (std::size_t k = 0; k < kRungCount; ++k) {
        if (res.rung_bounds[k].empty()) continue;
        if (!res.provenance[i].attempted(static_cast<Rung>(k))) continue;
        lo = std::min(lo, res.rung_bounds[k][i]);
        hi = std::max(hi, res.rung_bounds[k][i]);
      }
      spread[i] = (hi > lo) ? hi - lo : 0.0;
    }
    order = everything;
    std::stable_sort(order.begin(), order.end(),
                     [&spread](std::size_t a, std::size_t b) {
                       if (spread[a] != spread[b]) return spread[a] > spread[b];
                       return a < b;
                     });
  }
  const std::size_t wave_size =
      options.wave > 0 ? options.wave : kDefaultWave;
  for (std::size_t begin = 0; begin < order.size() && !budget.exhausted();
       begin += wave_size) {
    const std::size_t end = std::min(order.size(), begin + wave_size);
    std::vector<std::size_t> wave(order.begin() +
                                      static_cast<std::ptrdiff_t>(begin),
                                  order.begin() +
                                      static_cast<std::ptrdiff_t>(end));
    for (std::size_t k = base_rung + 1; k < kRungCount; ++k) {
      if (!rungs_[k].compute_paths) continue;
      // Drop the paths this rung already bounded (a trajectory rung can
      // have served as the base rung).
      std::vector<std::size_t> todo;
      todo.reserve(wave.size());
      for (std::size_t i : wave) {
        if (!res.provenance[i].attempted(static_cast<Rung>(k))) {
          todo.push_back(i);
        }
      }
      if (todo.empty()) continue;
      if (!budget.allow(todo.size())) break;
      RungStats& stats = res.rungs[k];
      stats.attempted = true;
      if (res.rung_bounds[k].empty()) res.rung_bounds[k].assign(n, kInf);
      const auto r0 = Clock::now();
      try {
        rungs_[k].compute_paths(todo, res.rung_bounds[k]);
      } catch (const Error& e) {
        stats.failed = true;
        stats.message = e.what();
        stats.wall_us += elapsed_us(r0, Clock::now());
        continue;
      }
      stats.wall_us += elapsed_us(r0, Clock::now());
      res.path_evals += todo.size();
      apply_raw(res, static_cast<Rung>(k), res.rung_bounds[k], todo,
                /*escalation=*/true);
      stats.completed = stats.paths_bounded == n;
    }
  }

  res.budget_exhausted = budget.exhausted();
  res.budget_reason = budget.reason();

  // Partial provenance: when a budget cut the climb, every path stranded
  // below the top of the ladder keeps its cheapest completed bound, with
  // a PathStatus message naming the rung that bound came from -- degraded
  // but never missing.
  if (res.budget_exhausted) {
    std::size_t target = kRungCount - 1;
    while (target > 0 && res.rungs[target].failed) --target;
    for (std::size_t i = 0; i < n; ++i) {
      if (!res.provenance[i].attempted(static_cast<Rung>(target))) {
        res.status[i].message =
            "ladder: budget exhausted before full escalation (bound from "
            "rung " +
            std::string(to_string(res.provenance[i].winner)) + ")";
      }
    }
  }

  res.wall_us = elapsed_us(t0, Clock::now());
  return res;
}

LadderResult run_ladder(const TrafficConfig& config,
                        const LadderOptions& options,
                        const engine::Options& engine_options) {
  BoundLadder ladder(config, engine_options);
  return ladder.run(options);
}

}  // namespace afdx::analysis
