// Exact work counters of the analysis pipeline, pinned per workload.
//
// Wall time varies between machines and runs; the work an analysis does
// does not. Each case runs a fresh engine at threads = 1 (with more
// workers the schedule decides how many prefixes the shards recompute)
// and compares the deltas of four root-registry counters for exact
// equality: WCNC ports computed, trajectory prefixes computed, and the
// segment and candidate sums over those prefixes. Slot tables built are
// pinned per engine at 1 and 4 threads. The cold runs also pin
// trajectory.sweep.evaluations, the candidates the sweep evaluated
// exactly, under each sweep kernel forced in turn. A change that moves any
// of them re-pins the table and says why in its description; a cost
// regression that leaves every bound unchanged (a lost pruning rule, a
// cache that stopped hitting) fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "config/serialization.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "gen/industrial.hpp"
#include "obs/counters.hpp"
#include "trajectory/sweep.hpp"

namespace afdx::engine {
namespace {

struct Work {
  std::uint64_t ports = 0;
  std::uint64_t prefixes = 0;
  std::uint64_t segments = 0;
  std::uint64_t candidates = 0;

  bool operator==(const Work&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Work& w) {
  return out << "{ports " << w.ports << ", prefixes " << w.prefixes
             << ", segments " << w.segments << ", candidates "
             << w.candidates << "}";
}

Work snapshot() {
  obs::Registry& root = obs::registry();
  return Work{root.counter("netcalc.ports_computed").value(),
              root.counter("trajectory.prefixes").value(),
              root.histogram("trajectory.segments_per_prefix").sum(),
              root.histogram("trajectory.candidates_per_prefix").sum()};
}

/// The work `step` does.
Work work_of(const std::function<void()>& step) {
  const Work before = snapshot();
  step();
  const Work after = snapshot();
  return Work{after.ports - before.ports, after.prefixes - before.prefixes,
              after.segments - before.segments,
              after.candidates - before.candidates};
}

TrafficConfig generated(std::uint64_t seed, int domains, int vl_count) {
  gen::IndustrialOptions o;
  o.seed = seed;
  o.domains = domains;
  o.vl_count = vl_count;
  return gen::industrial_config(o);
}

TEST(WorkCounters, ColdAndRepeatRunsArePinned) {
  struct Case {
    const char* name;
    std::function<TrafficConfig()> config;
    Work cold;
    /// A second run on the same engine.
    Work repeat;
    /// trajectory.sweep.evaluations of the cold run under the scalar and
    /// the SIMD kernel.
    std::uint64_t evaluations[2];
  };
  const Case cases[] = {
      {"generated seed 42, 500 VLs", [] { return generated(42, 1, 500); },
       {134, 2442, 273823, 6626}, {0, 0, 0, 0}, {6596, 4166}},
      {"generated seed 1, 4 domains, 2000 VLs",
       [] { return generated(1, 4, 2000); },
       {543, 10014, 1175429, 40772}, {0, 0, 0, 0}, {39283, 23020}},
      {"sample.afdx",
       [] {
         return config::load_config_file(AFDX_REPO_ROOT
                                         "/tests/data/sample.afdx");
       },
       {9, 13, 29, 0}, {0, 0, 0, 0}, {0, 0}},
      {"cyclic.afdx",
       [] {
         return config::load_config_file(AFDX_REPO_ROOT
                                         "/tests/data/cyclic.afdx");
       },
       // Each run repeats the serial fixed point (the port cache holds
       // feed-forward ports only), and trajectory failures are not cached.
       {36, 12, 0, 0}, {36, 12, 0, 0}, {0, 0}},
  };
  namespace sweep = trajectory::sweep;
  // Restores the dispatched kernel even when an assertion throws.
  struct KernelGuard {
    sweep::Kind saved = sweep::active();
    ~KernelGuard() { sweep::set_active(saved); }
  } guard;
  obs::Counter& evaluations =
      obs::registry().counter("trajectory.sweep.evaluations");
  for (const Case& c : cases) {
    const TrafficConfig cfg = c.config();
    for (const sweep::Kind kind : {sweep::Kind::kScalar, sweep::Kind::kSimd}) {
      const bool simd = kind == sweep::Kind::kSimd;
      if (simd && !sweep::simd_available()) continue;
      SCOPED_TRACE(std::string(c.name) + ", " + sweep::name(kind) + " sweep");
      sweep::set_active(kind);
      AnalysisEngine eng(cfg, Options{1});
      const auto run = [&] {
        (void)eng.run_streaming([](const StreamPathResult&) {});
      };
      const std::uint64_t evaluations_before = evaluations.value();
      EXPECT_EQ(work_of(run), c.cold);
      EXPECT_EQ(evaluations.value() - evaluations_before,
                c.evaluations[simd ? 1 : 0]);
      EXPECT_EQ(work_of(run), c.repeat);
    }
  }
}

// The trajectory's configuration-only data is built once per engine and
// shared by its shards: one slot table for a cold run whatever the thread
// count, none for a repeat run, a run under other trajectory options or a
// WCNC-only call.
TEST(WorkCounters, OneSlotTablePerEngine) {
  obs::Counter& tables = obs::registry().counter("trajectory.slot_tables");
  const auto built_by = [&](const std::function<void()>& step) {
    const std::uint64_t before = tables.value();
    step();
    return tables.value() - before;
  };
  const TrafficConfig cfg = generated(1, 4, 2000);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AnalysisEngine eng(cfg, Options{threads});
    EXPECT_EQ(built_by([&] { (void)eng.netcalc_only(); }), 0u);
    const auto run = [&] {
      (void)eng.run_streaming([](const StreamPathResult&) {});
    };
    EXPECT_EQ(built_by(run), 1u);
    EXPECT_EQ(built_by(run), 0u);
    trajectory::Options other;
    other.loose_boundary_packet = true;
    EXPECT_EQ(built_by([&] { (void)eng.trajectory_only(other); }), 0u);
  }
}

// A what-if re-bounds only its dirty cone: the ports it computes are
// exactly the ones the incremental plan marked dirty.
TEST(WorkCounters, WhatIfComputesExactlyTheDirtyCone) {
  gen::IndustrialOptions o;
  o.seed = 7;
  o.switch_count = 24;
  o.end_system_count = 180;
  o.vl_count = 1000;
  o.multicast_fraction = 0.1;
  o.max_multicast_fanout = 2;
  const auto cfg =
      std::make_shared<const TrafficConfig>(gen::industrial_config(o));

  std::shared_ptr<const BaselineState> base;
  EXPECT_EQ(work_of([&] { base = BaselineState::build(cfg); }),
            (Work{382, 3425, 334753, 8593}));

  OverlaySession session(base);
  session.override_bag(cfg->vl(17).name, 1000.0);
  const Work whatif = work_of([&] { (void)session.analyze(); });
  EXPECT_EQ(whatif, (Work{136, 1051, 176235, 4872}));
  EXPECT_EQ(whatif.ports, session.last_incremental().dirty_ports);
  EXPECT_EQ(session.last_incremental().transplanted_paths, 315u);
}

}  // namespace
}  // namespace afdx::engine
