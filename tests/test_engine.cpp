// Tests for the parallel analysis engine: parallel-vs-serial determinism,
// legacy-path equivalence at threads = 1, per-port cache behaviour and run
// metrics.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "analysis/comparison.hpp"
#include "analysis/ladder.hpp"
#include "common/error.hpp"
#include "config/samples.hpp"
#include "config/serialization.hpp"
#include "engine/incremental.hpp"
#include "engine/session.hpp"
#include "engine/port_cache.hpp"
#include "engine/thread_pool.hpp"
#include "faults/degrade.hpp"
#include "faults/report.hpp"
#include "faults/scenario.hpp"
#include "gen/industrial.hpp"
#include "netcalc/netcalc_analyzer.hpp"
#include "trajectory/trajectory_analyzer.hpp"

namespace afdx::engine {
namespace {

TrafficConfig small_industrial() {
  gen::IndustrialOptions o;
  o.vl_count = 120;
  o.end_system_count = 24;
  return gen::industrial_config(o);
}

// Bit-identical comparison: parallel runs must not perturb a single ULP.
void expect_identical(const std::vector<Microseconds>& a,
                      const std::vector<Microseconds>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "path " << i;
  }
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i, int) { ++counts[i]; });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
  const auto tasks = pool.tasks_per_thread();
  ASSERT_EQ(tasks.size(), 4u);
  EXPECT_EQ(std::accumulate(tasks.begin(), tasks.end(), std::size_t{0}),
            counts.size());
}

TEST(ThreadPool, RethrowsSmallestIndexFailure) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(100, [&](std::size_t i, int) {
      ++ran;
      if (i >= 10) throw Error("fail at " + std::to_string(i));
    });
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    // Every index still executes; the smallest failing one must win
    // regardless of which worker (or thief) ran it.
    EXPECT_STREQ(e.what(), "fail at 10");
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, FullWidthBatchRunsEveryIndexConcurrently) {
  // n == thread count: each worker must claim its own index, so four
  // long-lived bodies (the serve workers' queue loops) run side by side.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::vector<int> seen(4, 0);
  pool.parallel_for(seen.size(), [&](std::size_t i, int) {
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    seen[i] = started.load();
  });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 4) << "index " << i;
  }
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::resolve_thread_count(3), 3);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);
  EXPECT_GE(ThreadPool::resolve_thread_count(-1), 1);
}

TEST(Engine, SerialRunMatchesLegacyAnalyzersOnSample) {
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine eng(cfg, Options{1});
  const RunResult run = eng.run();

  const netcalc::Result nc = netcalc::analyze(cfg);
  const trajectory::Result tj = trajectory::analyze(cfg);
  expect_identical(run.netcalc, nc.path_bounds);
  expect_identical(run.trajectory, tj.path_bounds);
  for (std::size_t i = 0; i < run.combined.size(); ++i) {
    EXPECT_EQ(run.combined[i], std::min(run.netcalc[i], run.trajectory[i]));
  }
}

TEST(Engine, NetcalcOnlyMatchesLegacyPortReports) {
  const TrafficConfig cfg = small_industrial();
  AnalysisEngine eng(cfg, Options{4});
  const netcalc::Result parallel = eng.netcalc_only();
  const netcalc::Result serial = netcalc::analyze(cfg);
  expect_identical(parallel.path_bounds, serial.path_bounds);
  ASSERT_EQ(parallel.ports.size(), serial.ports.size());
  for (std::size_t l = 0; l < serial.ports.size(); ++l) {
    EXPECT_EQ(parallel.ports[l].used, serial.ports[l].used);
    EXPECT_EQ(parallel.ports[l].delay, serial.ports[l].delay);
    EXPECT_EQ(parallel.ports[l].backlog, serial.ports[l].backlog);
    EXPECT_EQ(parallel.ports[l].queue_backlog, serial.ports[l].queue_backlog);
    EXPECT_EQ(parallel.ports[l].level_delays, serial.ports[l].level_delays);
  }
  EXPECT_EQ(parallel.iterations, serial.iterations);
}

TEST(EngineDeterminism, ParallelMatchesSerialOnSample) {
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine serial(cfg, Options{1});
  AnalysisEngine parallel(cfg, Options{4});
  const RunResult a = serial.run();
  const RunResult b = parallel.run();
  expect_identical(a.netcalc, b.netcalc);
  expect_identical(a.trajectory, b.trajectory);
  expect_identical(a.combined, b.combined);
}

TEST(EngineDeterminism, ParallelMatchesSerialOnIndustrial) {
  const TrafficConfig cfg = small_industrial();
  AnalysisEngine serial(cfg, Options{1});
  AnalysisEngine parallel(cfg, Options{4});
  const RunResult a = serial.run();
  const RunResult b = parallel.run();
  expect_identical(a.netcalc, b.netcalc);
  expect_identical(a.trajectory, b.trajectory);
  expect_identical(a.combined, b.combined);
}

TEST(EngineDeterminism, ParallelMatchesSerialWithAblationOptions) {
  const TrafficConfig cfg = small_industrial();
  netcalc::Options nc;
  nc.grouping = false;
  trajectory::Options tj;
  tj.serialization = false;
  AnalysisEngine serial(cfg, Options{1});
  AnalysisEngine parallel(cfg, Options{3});
  const RunResult a = serial.run(nc, tj);
  const RunResult b = parallel.run(nc, tj);
  expect_identical(a.netcalc, b.netcalc);
  expect_identical(a.trajectory, b.trajectory);
}

TEST(EngineDeterminism, RepeatedParallelRunsAreIdentical) {
  const TrafficConfig cfg = small_industrial();
  AnalysisEngine eng(cfg, Options{4});
  const RunResult first = eng.run();
  const RunResult second = eng.run();  // served mostly from the cache
  expect_identical(first.netcalc, second.netcalc);
  expect_identical(first.trajectory, second.trajectory);
  expect_identical(first.combined, second.combined);
}

TEST(Engine, CompareRoutesThroughEngineUnchanged) {
  const TrafficConfig cfg = config::sample_config();
  const analysis::Comparison legacy_shape = analysis::compare(cfg);
  const analysis::Comparison parallel =
      analysis::compare(cfg, {}, {}, Options{4});
  expect_identical(legacy_shape.netcalc, parallel.netcalc);
  expect_identical(legacy_shape.trajectory, parallel.trajectory);
  expect_identical(legacy_shape.combined, parallel.combined);
}

TEST(EngineCache, TrajectoryCapsReuseTheNetcalcRun) {
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine eng(cfg, Options{2});
  (void)eng.run();
  // Under the default WCNC options the caps come from the run's own pass:
  // every used port is computed once (all misses) and never re-read.
  std::size_t used_ports = 0;
  for (LinkId l = 0; l < cfg.network().link_count(); ++l) {
    if (!cfg.vls_on_link(l).empty()) ++used_ports;
  }
  EXPECT_EQ(eng.metrics().cache.misses, used_ports);
  EXPECT_EQ(eng.metrics().cache.hits, 0u);
  // A later trajectory-only call derives its caps from a pass served
  // entirely by the cache.
  (void)eng.trajectory_only();
  EXPECT_EQ(eng.metrics().cache.misses, used_ports);
  EXPECT_EQ(eng.metrics().cache.hits, used_ports);
}

TEST(EngineCache, SecondRunIsAllHits) {
  const TrafficConfig cfg = small_industrial();
  AnalysisEngine eng(cfg, Options{2});
  (void)eng.run();
  const CacheStats after_first = eng.metrics().cache;
  (void)eng.run();
  const CacheStats after_second = eng.metrics().cache;
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
}

TEST(EngineCache, DistinctOptionsDoNotCollide) {
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine eng(cfg, Options{2});
  netcalc::Options no_grouping;
  no_grouping.grouping = false;
  const netcalc::Result grouped = eng.netcalc_only();
  const netcalc::Result ungrouped = eng.netcalc_only(no_grouping);
  expect_identical(grouped.path_bounds, netcalc::analyze(cfg).path_bounds);
  expect_identical(ungrouped.path_bounds,
                   netcalc::analyze(cfg, no_grouping).path_bounds);
}

TEST(EngineMetrics, RecordsPhasesPathsAndTasks) {
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine eng(cfg, Options{2});
  const RunResult run = eng.run();
  const RunMetrics& m = run.metrics;
  EXPECT_EQ(m.threads, 2);
  EXPECT_EQ(m.paths, cfg.all_paths().size());
  EXPECT_GT(m.paths_per_second, 0.0);
  EXPECT_GE(m.netcalc_wall_us, 0.0);
  EXPECT_GE(m.trajectory_wall_us, 0.0);
  EXPECT_GE(m.total_wall_us,
            m.netcalc_wall_us + m.trajectory_wall_us);
  ASSERT_EQ(m.tasks_per_thread.size(), 2u);
  EXPECT_GT(std::accumulate(m.tasks_per_thread.begin(),
                            m.tasks_per_thread.end(), std::size_t{0}),
            0u);
  std::ostringstream os;
  m.print(os);
  EXPECT_NE(os.str().find("port cache"), std::string::npos);
}

TEST(Engine, MultiPriorityConfigStillRejectedByTrajectoryPhase) {
  gen::IndustrialOptions o;
  o.vl_count = 60;
  o.end_system_count = 16;
  o.priority_levels = 2;
  const TrafficConfig cfg = gen::industrial_config(o);
  AnalysisEngine eng(cfg, Options{4});
  EXPECT_NO_THROW((void)eng.netcalc_only());
  EXPECT_THROW((void)eng.run(), Error);
}

TEST(ThreadPool, ZeroTaskBatchIsANoOp) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t, int) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  const auto tasks = pool.tasks_per_thread();
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(std::accumulate(tasks.begin(), tasks.end(), std::size_t{0}), 0u);
}

TEST(ThreadPool, MoreThreadsThanTasksLeavesWorkersIdle) {
  ThreadPool pool(8);
  std::vector<int> counts(3, 0);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i, int) { ++counts[i]; });
  for (std::size_t i = 0; i < counts.size(); ++i) EXPECT_EQ(counts[i], 1);
  const auto tasks = pool.tasks_per_thread();
  ASSERT_EQ(tasks.size(), 8u);
  EXPECT_EQ(std::accumulate(tasks.begin(), tasks.end(), std::size_t{0}), 3u);
}

TEST(ThreadPool, ReuseAccumulatesAcrossBatchesAndSurvivesFailures) {
  ThreadPool pool(2);
  pool.parallel_for(10, [](std::size_t, int) {});
  pool.parallel_for(7, [](std::size_t, int) {});
  auto sum = [](const std::vector<std::size_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::size_t{0});
  };
  EXPECT_EQ(sum(pool.tasks_per_thread()), 17u);
  // A failing batch must not poison the pool for subsequent batches.
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t, int) { throw Error("boom"); }),
      Error);
  std::vector<int> counts(5, 0);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i, int) { ++counts[i]; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(PortCacheConcurrency, MixedHitMissLoadKeepsCountersConsistent) {
  obs::Registry scope;
  PortCache cache(scope);
  const std::uint64_t key = PortCache::options_key(netcalc::Options{});
  constexpr LinkId kPorts = 20;
  auto bounds_for = [](LinkId port) {
    netcalc::PortReport b;
    b.backlog = static_cast<double>(port);
    return b;
  };
  // Half the ports are warm before the storm: every thread sees a mix of
  // hits and misses.
  for (LinkId p = 0; p < kPorts / 2; ++p) cache.store(key, p, bounds_for(p));

  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  std::atomic<int> value_mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const LinkId port = static_cast<LinkId>((i + t) % kPorts);
        const auto cached = cache.lookup(key, port);
        if (cached.has_value()) {
          if (cached->backlog != static_cast<double>(port)) ++value_mismatches;
        } else {
          cache.store(key, port, bounds_for(port));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every lookup was counted exactly once as a hit or a miss, values never
  // tore, and racing writers never duplicated an entry.
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(value_mismatches.load(), 0);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kPorts));

  // Once fully populated, a warm pass is all hits: nothing recomputes.
  const std::uint64_t misses_before = stats.misses;
  for (LinkId p = 0; p < kPorts; ++p) {
    const auto cached = cache.lookup(key, p);
    ASSERT_TRUE(cached.has_value()) << "port " << p;
    EXPECT_EQ(cached->backlog, static_cast<double>(p));
  }
  EXPECT_EQ(cache.stats().misses, misses_before);
  EXPECT_EQ(cache.stats().hits, stats.hits + kPorts);
}

TEST(PortCacheConcurrency, DistinctOptionKeysIsolateEntries) {
  obs::Registry scope;
  PortCache cache(scope);
  netcalc::Options grouped;
  netcalc::Options ungrouped;
  ungrouped.grouping = false;
  const std::uint64_t ka = PortCache::options_key(grouped);
  const std::uint64_t kb = PortCache::options_key(ungrouped);
  ASSERT_NE(ka, kb);
  netcalc::PortReport b;
  b.backlog = 7.0;
  cache.store(ka, 0, b);
  EXPECT_TRUE(cache.lookup(ka, 0).has_value());
  EXPECT_FALSE(cache.lookup(kb, 0).has_value());
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// Regression: options_key once ignored fields beyond `grouping`, so two
// analyses differing only in max_iterations shared cache entries and the
// second silently returned the first one's bounds. Every field must feed
// the fingerprint.
TEST(PortCacheConcurrency, OptionsKeyMixesEveryField) {
  std::set<std::uint64_t> keys;
  std::size_t combinations = 0;
  for (const bool grouping : {false, true}) {
    for (const int max_iterations : {1, 2, 100, 1000, 1001}) {
      netcalc::Options o;
      o.grouping = grouping;
      o.max_iterations = max_iterations;
      keys.insert(PortCache::options_key(o));
      ++combinations;
    }
  }
  EXPECT_EQ(keys.size(), combinations)
      << "options differing in some field collided on the same cache key";

  // Deterministic: equal options fingerprint identically.
  netcalc::Options a, b;
  a.max_iterations = b.max_iterations = 250;
  EXPECT_EQ(PortCache::options_key(a), PortCache::options_key(b));

  // The historical bug: max_iterations alone must change the key.
  netcalc::Options base, deeper;
  deeper.max_iterations = base.max_iterations + 1;
  EXPECT_NE(PortCache::options_key(base), PortCache::options_key(deeper));
}

// The option digests key the port and prefix caches. Pinned so that a
// change to the FNV-1a mixer cannot silently re-key them.
TEST(PortCacheConcurrency, OptionDigestsArePinned) {
  EXPECT_EQ(PortCache::options_key(netcalc::Options{}),
            17212760670189940997ull);
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine eng(cfg, Options{1});
  const RunResult r = eng.run_resilient();
  EXPECT_EQ(r.nc_options_key, 17212760670189940997ull);
  EXPECT_EQ(r.tj_options_key, 589727492704079044ull);
}

TEST(Engine, PropagationLevelsRespectDependencies) {
  const TrafficConfig cfg = small_industrial();
  const auto levels = netcalc::propagation_levels(cfg);
  ASSERT_TRUE(levels.has_value());
  std::vector<int> level_of(cfg.network().link_count(), -1);
  int k = 0;
  std::size_t total = 0;
  for (const auto& level : *levels) {
    for (LinkId l : level) level_of[l] = k;
    total += level.size();
    ++k;
  }
  std::size_t used = 0;
  for (LinkId l = 0; l < cfg.network().link_count(); ++l) {
    if (!cfg.vls_on_link(l).empty()) ++used;
  }
  EXPECT_EQ(total, used);
  // Every predecessor must live in a strictly earlier level.
  for (LinkId l = 0; l < cfg.network().link_count(); ++l) {
    for (VlId v : cfg.vls_on_link(l)) {
      const LinkId pred = cfg.route(v).predecessor(l);
      if (pred != kInvalidLink) {
        EXPECT_LT(level_of[pred], level_of[l]);
      }
    }
  }
}


TEST(ThreadPool, ContainedFailuresDoNotPoisonSiblings) {
  ThreadPool pool(4);
  std::vector<int> ran(100, 0);
  const auto failures = pool.parallel_for_contained(100, [&](std::size_t i,
                                                            int) {
    if (i % 10 == 3) throw Error("boom at " + std::to_string(i));
    ++ran[i];
  });
  // Every non-throwing index ran exactly once -- nothing was abandoned.
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], i % 10 == 3 ? 0 : 1) << i;
  }
  ASSERT_EQ(failures.size(), 10u);
  // Failures are sorted by index and carry the thrown message.
  for (std::size_t f = 0; f < failures.size(); ++f) {
    EXPECT_EQ(failures[f].index, 10 * f + 3);
    EXPECT_NE(failures[f].message.find("boom"), std::string::npos);
  }
  // The pool survives and stays usable for further batches.
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t, int) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ContainedWorksSingleThreadedAndWithNonStdExceptions) {
  ThreadPool pool(1);
  const auto failures = pool.parallel_for_contained(5, [](std::size_t i, int) {
    if (i == 2) throw 42;  // not a std::exception
  });
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 2u);
  EXPECT_EQ(failures[0].message, "unknown exception");
}

// A configuration where one VL oversubscribes every port on its route
// (~121 bits/us demand on 100 bits/us links) while a second VL rides
// disjoint output ports.
TrafficConfig mixed_stability_config() {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId e3 = net.add_end_system("e3");
  const NodeId e4 = net.add_end_system("e4");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  net.connect(e1, s1);
  net.connect(s1, s2);
  net.connect(s2, e2);
  net.connect(e3, s2);
  net.connect(s2, e4);
  std::vector<VirtualLink> vls;
  vls.push_back({"v_bad", e1, {e2}, 100.0, 64, 1518});
  vls.push_back({"v_ok", e3, {e4}, 4000.0, 64, 500});
  return TrafficConfig(std::move(net), std::move(vls));
}

TEST(Engine, ResilientMatchesRunOnHealthyConfig) {
  const TrafficConfig cfg = small_industrial();
  AnalysisEngine a(cfg, {1});
  AnalysisEngine b(cfg, {1});
  const RunResult classic = a.run();
  const RunResult resilient = b.run_resilient();
  EXPECT_TRUE(resilient.complete());
  expect_identical(classic.combined, resilient.combined);
  expect_identical(classic.netcalc, resilient.netcalc);
  expect_identical(classic.trajectory, resilient.trajectory);
  for (const PathStatus& st : resilient.status) {
    EXPECT_EQ(st.state, PathState::kOk);
  }
}

TEST(Engine, ResilientContainsUnstablePortAndKeepsTheRest) {
  const TrafficConfig cfg = mixed_stability_config();
  AnalysisEngine throwing(cfg, {1});
  EXPECT_THROW((void)throwing.run(), Error);  // the classic path gives up

  AnalysisEngine eng(cfg, {1});
  const RunResult r = eng.run_resilient();
  EXPECT_FALSE(r.complete());
  const std::size_t bad = 0, ok = 1;  // all_paths order: v_bad, v_ok
  EXPECT_EQ(r.status[bad].state, PathState::kFailed);
  EXPECT_NE(r.status[bad].message.find("unstable"), std::string::npos);
  EXPECT_TRUE(std::isinf(r.combined[bad]));
  // The unaffected path still gets its exact finite bounds.
  EXPECT_EQ(r.status[ok].state, PathState::kOk);
  EXPECT_TRUE(std::isfinite(r.combined[ok]));
  EXPECT_GT(r.combined[ok], 0.0);
  // Parallel containment is bit-identical to serial containment.
  AnalysisEngine par(cfg, {4});
  const RunResult rp = par.run_resilient();
  expect_identical(r.combined, rp.combined);
  EXPECT_EQ(rp.status[bad].state, PathState::kFailed);
}

// Like mixed_stability_config, but with a population of healthy VLs that
// interfere with each other on S2's output ports while staying off every
// link v_bad crosses. `include_bad` toggles the unstable VL so the same
// healthy traffic can be analyzed with and without it in the picture.
TrafficConfig poisoning_config(bool include_bad) {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId e3 = net.add_end_system("e3");
  const NodeId e4 = net.add_end_system("e4");
  const NodeId e5 = net.add_end_system("e5");
  const NodeId e6 = net.add_end_system("e6");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  net.connect(e1, s1);
  net.connect(s1, s2);
  net.connect(s2, e2);
  net.connect(e3, s2);
  net.connect(e5, s2);
  net.connect(s2, e4);
  net.connect(s2, e6);
  std::vector<VirtualLink> vls;
  if (include_bad) vls.push_back({"v_bad", e1, {e2}, 100.0, 64, 1518});
  vls.push_back({"v_ok1", e3, {e4, e6}, 4000.0, 64, 500});
  vls.push_back({"v_ok2", e5, {e4}, 2000.0, 64, 1000});
  vls.push_back({"v_ok3", e3, {e6}, 8000.0, 64, 300});
  return TrafficConfig(std::move(net), std::move(vls));
}

// Regression for the in_progress_ marker leak: the analyzer used to leave
// its recursion markers behind when a diverging busy period threw out of
// compute_prefix, so the shard analyzer that contained v_bad's failure
// falsely reported "cyclic prefix dependency" on later prefixes -- wrong
// errors on healthy paths. Every healthy path must come out bit-identical
// to a fresh run on the healthy subset of the configuration.
TEST(Engine, ResilientUnstableVlDoesNotPoisonOtherPaths) {
  const TrafficConfig cfg = poisoning_config(true);
  const TrafficConfig healthy = poisoning_config(false);
  for (int threads : {1, 4}) {
    AnalysisEngine eng(cfg, {threads});
    const RunResult r = eng.run_resilient();
    AnalysisEngine ref(healthy, {threads});
    const RunResult rr = ref.run_resilient();
    ASSERT_TRUE(rr.complete());
    // v_bad is VL 0 and unicast: exactly one extra path, ordered first.
    ASSERT_EQ(r.combined.size(), rr.combined.size() + 1);
    EXPECT_EQ(r.status[0].state, PathState::kFailed);
    EXPECT_EQ(r.status[0].message.find("cyclic"), std::string::npos)
        << r.status[0].message;
    for (std::size_t i = 0; i < rr.combined.size(); ++i) {
      EXPECT_EQ(r.status[i + 1].state, PathState::kOk)
          << "threads=" << threads << " path " << i << ": "
          << r.status[i + 1].message;
      EXPECT_EQ(r.netcalc[i + 1], rr.netcalc[i]) << "path " << i;
      EXPECT_EQ(r.trajectory[i + 1], rr.trajectory[i]) << "path " << i;
      EXPECT_EQ(r.combined[i + 1], rr.combined[i]) << "path " << i;
    }
  }
}

TEST(Engine, StreamingMatchesResilientBitIdentically) {
  for (const bool with_bad : {false, true}) {
    const TrafficConfig cfg =
        with_bad ? poisoning_config(true) : small_industrial();
    AnalysisEngine mat(cfg, {1});
    const RunResult r = mat.run_resilient();
    const std::size_t n = cfg.all_paths().size();
    for (int threads : {1, 4}) {
      AnalysisEngine eng(cfg, {threads});
      // The sink is called under the engine's summary lock, in completion
      // order; scatter by path_index to compare against the materialized
      // vectors.
      std::vector<Microseconds> nc(n, 0.0), tj(n, 0.0), comb(n, 0.0);
      std::vector<PathState> states(n, PathState::kSkipped);
      std::vector<int> seen(n, 0);
      const StreamSummary s =
          eng.run_streaming([&](const StreamPathResult& p) {
            ASSERT_LT(p.path_index, n);
            ++seen[p.path_index];
            nc[p.path_index] = p.netcalc;
            tj[p.path_index] = p.trajectory;
            comb[p.path_index] = p.combined;
            states[p.path_index] = p.state;
          });
      EXPECT_EQ(s.paths, n);
      EXPECT_EQ(s.ok + s.failed + s.skipped, n);
      EXPECT_EQ(s.failed, with_bad ? 1u : 0u);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(seen[i], 1) << "path " << i;
        EXPECT_EQ(states[i], r.status[i].state) << "path " << i;
      }
      expect_identical(nc, r.netcalc);
      expect_identical(tj, r.trajectory);
      expect_identical(comb, r.combined);
      // The running summary agrees with a scan of the materialized run.
      Microseconds max_combined = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (std::isfinite(r.combined[i])) {
          max_combined = std::max(max_combined, r.combined[i]);
        }
      }
      EXPECT_EQ(s.max_combined, max_combined);
      EXPECT_GT(eng.metrics().paths_per_second, 0.0);
    }
  }
}

// The engine's per-call metrics carry each run's own cache deltas and
// per-shard counters, so reuse is observable run by run. Regression
// test for the zero-reuse blind spot: a fresh single-thread run answers
// every repeat lookup from the shard-local memo, so only a warm rerun
// (fresh analyzers, same engine) exercises the shared caches -- the
// second run must show port-cache and prefix-cache hits, not zeros.
TEST(Engine, StreamingWarmRerunHitsSharedCaches) {
  const TrafficConfig cfg = small_industrial();
  const std::size_t n = cfg.all_paths().size();
  for (int threads : {1, 4}) {
    AnalysisEngine eng(cfg, {threads});
    const StreamSummary cold = eng.run_streaming(nullptr);
    const RunMetrics cold_m = eng.metrics();
    const StreamSummary warm = eng.run_streaming(nullptr);
    const RunMetrics warm_m = eng.metrics();

    // Warm results match cold ones (the max is order-independent; the
    // running sum is accumulated in completion order, which legitimately
    // varies between runs, so it is not compared bitwise).
    EXPECT_EQ(warm.paths, cold.paths);
    EXPECT_EQ(warm.ok, cold.ok);
    EXPECT_EQ(warm.max_combined, cold.max_combined);
    EXPECT_NEAR(warm.sum_combined, cold.sum_combined,
                1e-6 * std::abs(cold.sum_combined));

    // The cold run populates: its delta shows misses (and no port hits on
    // a fresh engine beyond the netcalc pass's own reuse is required).
    EXPECT_GT(cold_m.cache_run.misses, 0u) << "threads=" << threads;
    EXPECT_GT(cold.prefix_cache.misses, 0u) << "threads=" << threads;

    // The warm run reuses: every port bound and trajectory prefix is
    // served from the shared caches.
    EXPECT_GT(warm_m.cache_run.hits, 0u) << "threads=" << threads;
    EXPECT_EQ(warm_m.cache_run.misses, 0u) << "threads=" << threads;
    EXPECT_GT(warm.prefix_cache.hits, 0u) << "threads=" << threads;

    // Per-shard accounting covers the whole run: every VL work item and
    // every path landed in exactly one shard, and the warm shards saw
    // shared-cache hits.
    ASSERT_FALSE(warm_m.shards.empty());
    std::size_t shard_vls = 0, shard_paths = 0;
    std::uint64_t shard_lookups = 0, shard_shared_hits = 0;
    for (const ShardMetrics& s : warm_m.shards) {
      shard_vls += s.vls;
      shard_paths += s.paths;
      shard_lookups += s.lookups;
      shard_shared_hits += s.shared_hits;
    }
    EXPECT_EQ(shard_vls, cfg.vl_count()) << "threads=" << threads;
    EXPECT_EQ(shard_paths, n) << "threads=" << threads;
    EXPECT_GT(shard_lookups, 0u);
    EXPECT_GT(shard_shared_hits, 0u);
    for (const ShardMetrics& s : warm_m.shards) {
      EXPECT_LE(s.local_hits + s.shared_hits, s.lookups);
      EXPECT_GE(s.hit_rate(), 0.0);
      EXPECT_LE(s.hit_rate(), 1.0);
    }
  }
}

TEST(Engine, ResilientHonoursCancelledToken) {
  const TrafficConfig cfg = small_industrial();
  CancelToken cancel;
  cancel.cancel();
  AnalysisEngine eng(cfg, {1});
  RunControl control;
  control.cancel = &cancel;
  const RunResult r = eng.run_resilient({}, {}, control);
  EXPECT_FALSE(r.complete());
  for (const PathStatus& st : r.status) {
    EXPECT_EQ(st.state, PathState::kSkipped);
    EXPECT_TRUE(std::isinf(r.combined[&st - r.status.data()]));
  }
}

TEST(Engine, CancelTokenDeadlineExpires) {
  CancelToken token;
  EXPECT_FALSE(token.expired());
  token.set_deadline_after(0.0);  // already in the past
  EXPECT_TRUE(token.expired());
  EXPECT_FALSE(token.cancelled());
  CancelToken cancelled;
  cancelled.cancel();
  EXPECT_TRUE(cancelled.expired());
  EXPECT_STREQ(cancelled.reason(), "cancelled");
}

TEST(Engine, MetricsStayFiniteOnEmptyConfig) {
  // Zero VLs -> zero paths and a ~zero-duration run: throughput and cache
  // hit rate must be 0, never NaN.
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId s1 = net.add_switch("S1");
  net.connect(e1, s1);
  net.connect(s1, e2);
  TrafficConfig cfg(std::move(net), {});
  AnalysisEngine eng(cfg, {1});
  const RunResult r = eng.run();
  EXPECT_EQ(r.metrics.paths, 0u);
  EXPECT_FALSE(std::isnan(r.metrics.paths_per_second));
  EXPECT_EQ(r.metrics.paths_per_second, 0.0);
  std::ostringstream out;
  eng.metrics().print(out);
  EXPECT_EQ(out.str().find("nan"), std::string::npos);
  EXPECT_EQ(out.str().find("inf"), std::string::npos);
}

TEST(ThreadPool, DynamicRunsEveryIndexExactlyOnce) {
  // The chunk size and the per-worker blocks follow n, so sweep batch
  // sizes around the thread count and the chunk boundaries: every index
  // of every batch must run exactly once on a single reused pool.
  ThreadPool pool(4);
  std::size_t total = 0;
  for (const std::size_t n : {1u, 3u, 4u, 5u, 31u, 32u, 33u, 63u, 64u, 65u,
                              257u, 1001u}) {
    std::vector<std::atomic<int>> counts(n);
    pool.parallel_for(n, [&](std::size_t i, int) { ++counts[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "n " << n << ", index " << i;
    }
    total += n;
  }
  const auto tasks = pool.tasks_per_thread();
  ASSERT_EQ(tasks.size(), 4u);
  EXPECT_EQ(std::accumulate(tasks.begin(), tasks.end(), std::size_t{0}),
            total);
}

TEST(ThreadPool, DynamicRethrowsSmallestIndexFailure) {
  // As in DynamicStealsFromABlockedWorker, worker 0 parks inside index 0
  // while worker 1 steals the rest of its block. The failing indices 5
  // (stolen) and 15 (worker 1's own) both run; the smaller one must win.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  try {
    pool.parallel_for(20, [&](std::size_t i, int) {
      if (i == 0) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (done.load() < 19 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        return;
      }
      ++done;
      if (i == 5 || i == 15) throw Error("fail at " + std::to_string(i));
    });
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "fail at 5");
  }
  EXPECT_EQ(done.load(), 19);
}

TEST(ThreadPool, ContainedCollectsSortedFailures) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(60);
  const auto failures = pool.parallel_for_contained(
      counts.size(), [&](std::size_t i, int) {
        ++counts[i];
        if (i % 20 == 7) throw Error("boom " + std::to_string(i));
      });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
  ASSERT_EQ(failures.size(), 3u);
  EXPECT_EQ(failures[0].index, 7u);
  EXPECT_EQ(failures[1].index, 27u);
  EXPECT_EQ(failures[2].index, 47u);
  EXPECT_EQ(failures[0].message, "boom 7");
}

TEST(ThreadPool, DynamicStealsFromABlockedWorker) {
  // n = 20 with 2 workers gives chunk size 1, so once worker 0 parks
  // inside index 0, every other index of its half must be stolen by
  // worker 1 before the wait below can complete.
  obs::Registry scope;
  ThreadPool pool(2, scope);
  const obs::Counter& steals = scope.counter("engine.pool.steals");
  std::atomic<int> done{0};
  pool.parallel_for(20, [&](std::size_t i, int) {
    if (i == 0) {
      while (done.load() < 19) std::this_thread::yield();
    } else {
      ++done;
    }
  });
  EXPECT_EQ(done.load(), 19);
  EXPECT_GT(steals.value(), 0u);
}

TEST(ThreadPool, DynamicSingleThreadRunsInline) {
  obs::Registry scope;
  ThreadPool pool(1, scope);
  std::vector<int> order;
  pool.parallel_for(10, [&](std::size_t i, int w) {
    EXPECT_EQ(w, 0);
    order.push_back(static_cast<int>(i));
  });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(scope.counter("engine.pool.steals").value(), 0u);
}

TEST(PortCache, SeedStoresAndOverwrites) {
  obs::Registry scope;
  PortCache cache(scope);
  netcalc::PortReport a;
  a.backlog = 1.0;
  netcalc::PortReport b;
  b.backlog = 2.0;
  cache.store(7, 0, a);
  cache.seed(7, 0, b);  // seed overwrites, unlike store
  cache.seed(7, 1, a);
  const auto hit = cache.lookup(7, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->backlog, 2.0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.seeded, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PortCache, EvictCountsOnlyExistingEntries) {
  obs::Registry scope;
  PortCache cache(scope);
  netcalc::PortReport b;
  cache.store(7, 0, b);
  cache.store(7, 1, b);
  cache.store(8, 0, b);
  cache.evict(7, {0, 1, 2});  // 2 was never stored
  EXPECT_EQ(cache.stats().evicted, 2u);
  EXPECT_FALSE(cache.lookup(7, 0).has_value());
  EXPECT_FALSE(cache.lookup(7, 1).has_value());
  EXPECT_TRUE(cache.lookup(8, 0).has_value());  // other key untouched
}

// Strict bitwise comparison of two runs, including per-path outcomes.
void expect_runs_identical(const RunResult& a, const RunResult& b) {
  expect_identical(a.netcalc, b.netcalc);
  expect_identical(a.trajectory, b.trajectory);
  expect_identical(a.combined, b.combined);
  ASSERT_EQ(a.status.size(), b.status.size());
  for (std::size_t i = 0; i < a.status.size(); ++i) {
    EXPECT_EQ(a.status[i].state, b.status[i].state) << "path " << i;
  }
}

/// Runs every single-link and single-switch scenario of `cfg` through both
/// a full run and an incremental run seeded from the healthy baseline.
void check_incremental_on_all_scenarios(const TrafficConfig& cfg) {
  AnalysisEngine healthy(cfg, Options{1});
  const RunResult baseline = healthy.run_resilient();

  std::vector<faults::FaultScenario> scenarios =
      faults::single_link_scenarios(cfg);
  for (auto& s : faults::single_switch_scenarios(cfg)) {
    scenarios.push_back(std::move(s));
  }
  ASSERT_FALSE(scenarios.empty());

  std::size_t fast_path_runs = 0;
  for (const faults::FaultScenario& scenario : scenarios) {
    const faults::DegradedView view = faults::apply_scenario(cfg, scenario);
    if (!view.config.has_value()) continue;

    AnalysisEngine full_engine(*view.config, Options{1});
    const RunResult full = full_engine.run_resilient();

    AnalysisEngine inc_engine(*view.config, Options{1});
    const RunResult incremental = inc_engine.run_incremental(
        cfg, baseline,
        faults::scenario_changed_links(cfg.network(), scenario));
    SCOPED_TRACE("scenario " + scenario.name);
    expect_runs_identical(full, incremental);
    const IncrementalStats stats = inc_engine.metrics().incremental;
    EXPECT_TRUE(stats.attempted);
    if (!stats.full_fallback) ++fast_path_runs;
  }
  // The point of the exercise: the fast path must actually engage.
  EXPECT_GT(fast_path_runs, 0u);
}

TEST(EngineIncremental, MatchesFullRunOnSampleFaultScenarios) {
  check_incremental_on_all_scenarios(config::sample_config());
}

TEST(EngineIncremental, MatchesFullRunOnIndustrialFaultScenarios) {
  gen::IndustrialOptions o;
  o.vl_count = 60;
  o.end_system_count = 16;
  check_incremental_on_all_scenarios(gen::industrial_config(o));
}

TEST(EngineIncremental, SeedsCleanPortsAndSkipsDirtyCone) {
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine healthy(cfg, Options{1});
  const RunResult baseline = healthy.run_resilient();

  const auto scenarios = faults::single_link_scenarios(cfg);
  ASSERT_FALSE(scenarios.empty());
  const faults::DegradedView view = faults::apply_scenario(cfg, scenarios[0]);
  ASSERT_TRUE(view.config.has_value());

  AnalysisEngine inc_engine(*view.config, Options{1});
  const RunResult run = inc_engine.run_incremental(
      cfg, baseline,
      faults::scenario_changed_links(cfg.network(), scenarios[0]));
  const RunMetrics m = inc_engine.metrics();
  EXPECT_FALSE(m.incremental.full_fallback) << m.incremental.fallback_reason;
  // Every used port of the degraded view is either transplanted or dirty.
  std::size_t used = 0;
  for (LinkId l = 0; l < view.config->network().link_count(); ++l) {
    if (!view.config->vls_on_link(l).empty()) ++used;
  }
  EXPECT_EQ(m.incremental.seeded_ports + m.incremental.dirty_ports, used);
  EXPECT_GT(m.incremental.seeded_ports, 0u);
  // Seeding is part of the run_incremental call, so it shows in the
  // lifetime cache counters and in the call's own delta.
  EXPECT_GT(m.cache.seeded, 0u);
  EXPECT_TRUE(run.complete());
}

TEST(EngineIncremental, FallsBackOnDifferentOptions) {
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine healthy(cfg, Options{1});
  const RunResult baseline = healthy.run_resilient();  // default options

  netcalc::Options no_grouping;
  no_grouping.grouping = false;
  AnalysisEngine inc_engine(cfg, Options{1});
  const RunResult run =
      inc_engine.run_incremental(cfg, baseline, {}, no_grouping);
  EXPECT_TRUE(inc_engine.metrics().incremental.full_fallback);

  AnalysisEngine full_engine(cfg, Options{1});
  expect_runs_identical(full_engine.run_resilient(no_grouping), run);
}

TEST(EngineIncremental, PlanRejectsDifferentNetworks) {
  const TrafficConfig a = config::sample_config();
  config::SampleOptions other;
  other.link_rate = rate_from_mbps(10.0);  // different physical network
  const TrafficConfig b = config::sample_config(other);
  const IncrementalPlan plan = plan_incremental(a, b, {});
  EXPECT_FALSE(plan.compatible);
  EXPECT_FALSE(plan.reason.empty());
}

/// Rebuilds `base` with one VL mutated, keeping network and routes
/// bit-identical -- the parameter-edit flavour of incremental re-analysis.
template <typename Mutate>
TrafficConfig with_mutated_vl(const TrafficConfig& base, VlId target,
                              Mutate mutate) {
  std::vector<VirtualLink> vls;
  std::vector<std::vector<std::vector<LinkId>>> routes;
  for (VlId v = 0; v < base.vl_count(); ++v) {
    vls.push_back(base.vl(v));
    routes.push_back(base.route(v).paths());
  }
  mutate(vls[target]);
  return TrafficConfig(Network(base.network()), std::move(vls),
                       std::move(routes));
}

TEST(EngineIncremental, ParameterEditRecomputesOnlyAffectedPrefixes) {
  const TrafficConfig cfg = small_industrial();
  AnalysisEngine healthy(cfg, Options{1});
  const RunResult baseline = healthy.run_resilient();

  const TrafficConfig mutated = with_mutated_vl(
      cfg, 0, [](VirtualLink& vl) { vl.s_max = vl.s_max + 100; });

  // Cold run: every prefix of the mutated config is computed from scratch.
  AnalysisEngine cold(mutated, Options{1});
  const RunResult cold_run = cold.run_resilient();
  const std::uint64_t cold_prefixes = cold.metrics().prefix_run.misses;
  ASSERT_GT(cold_prefixes, 0u);

  // Incremental run with an empty changed-link set: the crossing-tuple
  // diff alone must spot the edited VL's ports and dirty its cone.
  AnalysisEngine inc(mutated, Options{1});
  const RunResult inc_run = inc.run_incremental(cfg, baseline, {});
  const RunMetrics m = inc.metrics();
  EXPECT_FALSE(m.incremental.full_fallback) << m.incremental.fallback_reason;
  EXPECT_GT(m.incremental.dirty_ports, 0u);
  EXPECT_GT(m.incremental.seeded_prefixes, 0u);
  // Counter-based "only the affected prefixes recompute": the incremental
  // run's prefix-cache misses are exactly the cone's share, strictly fewer
  // than the cold run's.
  EXPECT_LT(m.prefix_run.misses, cold_prefixes);
  EXPECT_EQ(m.prefix_run.misses + m.incremental.seeded_prefixes,
            cold_prefixes);
  // ... and the bounds still match the cold run bit for bit.
  expect_runs_identical(cold_run, inc_run);
}

TEST(EngineIncremental, RunResultCarriesReusableBaselineState) {
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine eng(cfg, Options{1});
  const RunResult r = eng.run_resilient();
  EXPECT_NE(r.nc_options_key, 0u);
  EXPECT_NE(r.tj_options_key, 0u);
  ASSERT_NE(r.prefixes, nullptr);
  EXPECT_GT(r.prefixes->size(), 0u);
}

// --- Baseline / overlay sessions -----------------------------------------
// One immutable BaselineState, many concurrent OverlaySessions: the serving
// model. Every session result must be bit-identical to a fresh full run of
// the same overlay configuration.

std::shared_ptr<const BaselineState> shared_baseline() {
  auto cfg = std::make_shared<const TrafficConfig>(small_industrial());
  return BaselineState::build(std::move(cfg));
}

RunResult fresh_full_run(const TrafficConfig& overlay) {
  AnalysisEngine eng(overlay, Options{1});
  return eng.run_resilient();
}

TEST(Session, OverlayMatchesFreshFullRun) {
  const auto base = shared_baseline();
  OverlaySession session(base);
  session.override_s_max("VL3", 1518);
  const RunResult overlay = session.analyze();
  EXPECT_FALSE(session.last_incremental().full_fallback)
      << session.last_incremental().fallback_reason;
  expect_runs_identical(fresh_full_run(session.materialize()), overlay);
}

TEST(Session, RejectsUnknownVlAndContractViolations) {
  const auto base = shared_baseline();
  OverlaySession session(base);
  EXPECT_THROW(session.override_bag("nonexistent", 4000.0), Error);
  EXPECT_THROW(session.override_bag("VL1", 0.0), Error);
  // A rejected override leaves the session clean and usable.
  EXPECT_EQ(session.override_count(), 0u);
  session.override_bag("VL1", 1000.0);
  EXPECT_EQ(session.override_count(), 1u);
}

TEST(Session, ConcurrentSessionsDisjointConesShareOneBaseline) {
  const auto base = shared_baseline();
  // Two VLs sourced at different end systems: their dirty cones start on
  // different access links, so the sessions mostly touch disjoint ports.
  const std::string vl_a = "VL2";
  const std::string vl_b = "VL60";
  ASSERT_TRUE(base->config().find_vl(vl_a).has_value());
  ASSERT_TRUE(base->config().find_vl(vl_b).has_value());

  RunResult run_a, run_b;
  std::thread ta([&] {
    OverlaySession s(base);
    s.override_bag(vl_a, 1000.0);
    run_a = s.analyze();
  });
  std::thread tb([&] {
    OverlaySession s(base);
    s.override_s_max(vl_b, 1518);
    run_b = s.analyze();
  });
  ta.join();
  tb.join();

  OverlaySession check_a(base), check_b(base);
  check_a.override_bag(vl_a, 1000.0);
  check_b.override_s_max(vl_b, 1518);
  expect_runs_identical(fresh_full_run(check_a.materialize()), run_a);
  expect_runs_identical(fresh_full_run(check_b.materialize()), run_b);
}

TEST(Session, ConcurrentSessionsOverlappingConesShareOneBaseline) {
  const auto base = shared_baseline();
  // Both sessions edit the same VL (maximally overlapping dirty cones) to
  // different values -- the racing reads against the shared prefix cache
  // must not bleed either overlay's results into the other.
  const std::string vl = "VL5";
  ASSERT_TRUE(base->config().find_vl(vl).has_value());

  RunResult run_a, run_b;
  std::thread ta([&] {
    OverlaySession s(base);
    s.override_bag(vl, 1000.0);
    run_a = s.analyze();
  });
  std::thread tb([&] {
    OverlaySession s(base);
    s.override_bag(vl, 2000.0);
    run_b = s.analyze();
  });
  ta.join();
  tb.join();

  OverlaySession check_a(base), check_b(base);
  check_a.override_bag(vl, 1000.0);
  check_b.override_bag(vl, 2000.0);
  expect_runs_identical(fresh_full_run(check_a.materialize()), run_a);
  expect_runs_identical(fresh_full_run(check_b.materialize()), run_b);
}

TEST(Session, ManyConcurrentSessionsStayIndependent) {
  const auto base = shared_baseline();
  constexpr int kSessions = 8;
  std::vector<RunResult> runs(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&base, &runs, i] {
      OverlaySession s(base);
      s.override_bag("VL" + std::to_string(i + 1), 1000.0 * (i + 1));
      runs[static_cast<std::size_t>(i)] = s.analyze();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kSessions; ++i) {
    OverlaySession check(base);
    check.override_bag("VL" + std::to_string(i + 1), 1000.0 * (i + 1));
    expect_runs_identical(fresh_full_run(check.materialize()),
                          runs[static_cast<std::size_t>(i)]);
  }
}

// --- Every entry point is a view of one pipeline ---------------------------

// RunMetrics::levels describes the WCNC pass of whichever entry point ran
// it; the contained entry points once left it at 0.
TEST(EngineMetrics, EveryEntryPointReportsPropagationLevels) {
  const TrafficConfig cfg = config::sample_config();
  AnalysisEngine classic(cfg, {2});
  (void)classic.run();
  const RunMetrics want = classic.metrics();
  ASSERT_GT(want.levels, 0u);
  ASSERT_GT(want.max_level_width, 0u);

  AnalysisEngine resilient(cfg, {2});
  (void)resilient.run_resilient();
  EXPECT_EQ(resilient.metrics().levels, want.levels);
  EXPECT_EQ(resilient.metrics().max_level_width, want.max_level_width);

  AnalysisEngine streaming(cfg, {2});
  (void)streaming.run_streaming(nullptr);
  EXPECT_EQ(streaming.metrics().levels, want.levels);
  EXPECT_EQ(streaming.metrics().max_level_width, want.max_level_width);
}

// RunMetrics::cache_run and prefix_run are deltas over the entry point's
// own call, for every entry point: a fresh engine's netcalc_only reports
// its misses, a netcalc_only after run() reports no prefix activity, and
// run_incremental's seeds and evictions belong to its call.
TEST(EngineMetrics, EveryEntryPointReportsItsOwnCacheDeltas) {
  const TrafficConfig cfg = small_industrial();
  AnalysisEngine healthy(cfg, {2});
  const RunResult baseline = healthy.run_resilient();
  const TrafficConfig mutated = with_mutated_vl(
      cfg, 0, [](VirtualLink& vl) { vl.s_max = vl.s_max + 100; });

  AnalysisEngine eng(mutated, {2});
  const auto expect_own_delta = [&](const char* entry, const auto& call) {
    const RunMetrics before = eng.metrics();
    call();
    const RunMetrics after = eng.metrics();
    const CacheStats cache = after.cache - before.cache;
    const trajectory::PrefixCacheStats prefix = after.prefix - before.prefix;
    EXPECT_EQ(after.cache_run.hits, cache.hits) << entry;
    EXPECT_EQ(after.cache_run.misses, cache.misses) << entry;
    EXPECT_EQ(after.cache_run.seeded, cache.seeded) << entry;
    EXPECT_EQ(after.cache_run.evicted, cache.evicted) << entry;
    EXPECT_EQ(after.prefix_run.hits, prefix.hits) << entry;
    EXPECT_EQ(after.prefix_run.misses, prefix.misses) << entry;
    EXPECT_EQ(after.prefix_run.seeded, prefix.seeded) << entry;
    return after;
  };

  RunMetrics m = expect_own_delta("netcalc_only on a fresh engine",
                                  [&] { (void)eng.netcalc_only(); });
  EXPECT_GT(m.cache_run.misses, 0u);

  // The seeds and evictions of run_incremental belong to its call.
  m = expect_own_delta("run_incremental", [&] {
    (void)eng.run_incremental(cfg, baseline, {});
  });
  ASSERT_FALSE(m.incremental.full_fallback) << m.incremental.fallback_reason;
  EXPECT_EQ(m.cache_run.seeded, m.incremental.seeded_ports);
  EXPECT_GT(m.cache_run.evicted, 0u);
  EXPECT_EQ(m.prefix_run.seeded, m.incremental.seeded_prefixes);

  m = expect_own_delta("run", [&] { (void)eng.run(); });
  EXPECT_GT(m.prefix_run.hits, 0u);
  m = expect_own_delta("netcalc_only after run",
                       [&] { (void)eng.netcalc_only(); });
  EXPECT_EQ(m.prefix_run.hits + m.prefix_run.misses, 0u);
  expect_own_delta("trajectory_only", [&] { (void)eng.trajectory_only(); });
  expect_own_delta("run_resilient", [&] { (void)eng.run_resilient(); });
  expect_own_delta("run_streaming",
                   [&] { (void)eng.run_streaming(nullptr); });
}

// --- One slot table and one lock-free prefix store per engine -------------
// Every shard of an engine reads the engine's slot table and publishes to
// one shared store; whatever the schedule, the bounds must be the ones a
// fresh serial analyzer computes, bit for bit.

std::vector<Microseconds> serial_trajectory(const TrafficConfig& cfg) {
  return trajectory::analyze(cfg).path_bounds;
}

TrafficConfig four_domain_2000() {
  gen::IndustrialOptions o;
  o.seed = 1;
  o.domains = 4;
  o.vl_count = 2000;
  return gen::industrial_config(o);
}

TEST(EngineSharedStore, ColdAndRepeatRunsMatchAFreshSerialAnalyzer) {
  const TrafficConfig configs[] = {
      four_domain_2000(),
      config::load_config_file(AFDX_REPO_ROOT "/tests/data/sample.afdx")};
  for (const TrafficConfig& cfg : configs) {
    const std::vector<Microseconds> reference = serial_trajectory(cfg);
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      AnalysisEngine eng(cfg, Options{threads});
      const RunResult cold = eng.run_resilient();
      expect_identical(cold.trajectory, reference);
      const RunResult repeat = eng.run_resilient();
      expect_identical(repeat.trajectory, reference);
      EXPECT_EQ(repeat.metrics.prefix_run.misses, 0u);
      expect_identical(eng.trajectory_only(), reference);
      ASSERT_NE(cold.prefixes, nullptr);
      EXPECT_EQ(cold.prefixes, repeat.prefixes);
    }
  }
}

// An incremental what-if seeds the overlay engine's store with baseline
// prefixes; its shards then read seeded, shared and local bounds alike.
TEST(EngineSharedStore, SeededWhatIfMatchesAFreshSerialAnalyzer) {
  const auto cfg = std::make_shared<const TrafficConfig>(four_domain_2000());
  const auto base = BaselineState::build(cfg, {}, {}, 4);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    OverlaySession session(base, threads);
    session.override_bag(cfg->vl(17).name, 1000.0);
    const RunResult r = session.analyze();
    ASSERT_FALSE(r.metrics.incremental.full_fallback)
        << r.metrics.incremental.fallback_reason;
    EXPECT_GT(r.metrics.incremental.seeded_prefixes, 0u);
    EXPECT_EQ(r.metrics.prefix_run.seeded,
              r.metrics.incremental.seeded_prefixes);
    expect_identical(r.trajectory, serial_trajectory(session.materialize()));
  }
  // The baseline's store outlives the engine that filled it and still
  // resolves (VL, link) keys through its own slot table.
  const VlPath& p = cfg->all_paths().front();
  const auto prefix = base->healthy().prefixes->peek(p.vl, p.links.back());
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(*prefix, base->healthy().trajectory.front());
}

/// cyclic.afdx plus `extra` feed-forward VLs d -> S1 -> e beside the cycle.
TrafficConfig cyclic_with_bystanders(int extra) {
  std::ifstream in(AFDX_REPO_ROOT "/tests/data/cyclic.afdx");
  std::ostringstream text;
  text << in.rdbuf();
  text << "node es d\nnode es e\n"
          "link d S1 rate=100 swlat=16 eslat=0\n"
          "link S1 e rate=100 swlat=16 eslat=16\n";
  for (int i = 0; i < extra; ++i) {
    text << "vl g" << i << " src=d dst=e bag=" << 1000 * (1 + i % 4)
         << " smin=64 smax=" << 100 + 40 * i << "\n";
  }
  return config::load_config_string(text.str());
}

// Shards never share their in-progress markers: at 4 threads exactly the
// 3 paths of the cycle report it, every bystander gets the bound a
// standalone analyzer gives, and a repeat run after those contained
// throws returns identical bounds and statuses.
TEST(EngineSharedStore, CyclicPathsFailAloneAcrossShards) {
  const TrafficConfig cfg = cyclic_with_bystanders(24);
  trajectory::Analyzer standalone(cfg);
  AnalysisEngine eng(cfg, Options{4});
  const RunResult first = eng.run_resilient();
  const RunResult second = eng.run_resilient();
  std::size_t cyclic = 0;
  for (std::size_t i = 0; i < cfg.all_paths().size(); ++i) {
    const VlPath& p = cfg.all_paths()[i];
    const bool in_cycle = cfg.vl(p.vl).name.front() == 'f';
    const PathStatus& s = first.status[i];
    EXPECT_TRUE(s.ok()) << i;
    if (s.message.find("cyclic prefix dependency") != std::string::npos) {
      ++cyclic;
      EXPECT_TRUE(in_cycle) << cfg.vl(p.vl).name;
      EXPECT_TRUE(std::isinf(first.trajectory[i]));
    } else {
      EXPECT_FALSE(in_cycle) << cfg.vl(p.vl).name;
      EXPECT_EQ(first.trajectory[i],
                standalone.path_bound(PathRef{p.vl, p.dest_index}));
    }
    EXPECT_EQ(second.status[i].message, s.message) << i;
  }
  EXPECT_EQ(cyclic, 3u);
  expect_identical(second.trajectory, first.trajectory);
  expect_identical(second.combined, first.combined);
}

// A divergence throw (unstable path utilization) is contained the same
// way: the next run on the engine returns the same bounds.
TEST(EngineSharedStore, RunAfterAContainedThrowIsIdentical) {
  const TrafficConfig cfg =
      config::load_config_file(AFDX_REPO_ROOT "/tests/data/unstable.afdx");
  AnalysisEngine serial(cfg, Options{1});
  const RunResult reference = serial.run_resilient();
  AnalysisEngine eng(cfg, Options{4});
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    const RunResult r = eng.run_resilient();
    expect_identical(r.trajectory, reference.trajectory);
    for (std::size_t i = 0; i < r.status.size(); ++i) {
      EXPECT_EQ(r.status[i].state, reference.status[i].state) << i;
      EXPECT_EQ(r.status[i].message, reference.status[i].message) << i;
    }
  }
}

// Differential matrix: every entry point that claims to run "the same
// analysis" must return bit-identical bounds and identical per-path states,
// for every option combination and thread count. Where WCNC succeeds on
// every port, the serial analyzers must agree too.
struct MatrixVariant {
  const char* name;
  bool grouping;
  bool serialization;
  /// Static-priority classes (VL v gets class v % classes).
  int classes;
  Microseconds jitter;
};

constexpr MatrixVariant kMatrixVariants[] = {
    {"default", true, true, 1, 0.0},
    {"no_grouping", false, true, 1, 0.0},
    {"no_serialization", true, false, 1, 0.0},
    {"spq", true, true, 3, 0.0},
    {"jitter", true, true, 1, 60.0},
};

constexpr const char* kMatrixConfigs[] = {"small_industrial", "poisoning",
                                          "unstable_file", "grid_a", "grid_b",
                                          "cyclic_file"};

TrafficConfig matrix_config(std::size_t index) {
  switch (index) {
    case 0:
      return small_industrial();
    case 1:
      return poisoning_config(true);
    case 2:
      return config::load_config_file(AFDX_REPO_ROOT
                                      "/tests/data/unstable.afdx");
    case 3: {
      gen::IndustrialOptions o;
      o.seed = 11;
      o.vl_count = 90;
      o.end_system_count = 20;
      o.switch_count = 3;
      o.domains = 2;
      o.cross_domain_fraction = 0.3;
      return gen::industrial_config(o);
    }
    case 4: {
      gen::IndustrialOptions o;
      o.seed = 23;
      o.vl_count = 80;
      o.end_system_count = 14;
      o.switch_count = 5;
      o.multicast_fraction = 0.6;
      o.max_multicast_fanout = 4;
      o.min_bag_ms = 2.0;
      o.max_bag_ms = 16.0;
      o.max_port_utilization = 0.9;
      return gen::industrial_config(o);
    }
    default:
      // Cyclic port dependencies: WCNC converges by fixed point, trajectory
      // fails on every path.
      return config::load_config_file(AFDX_REPO_ROOT
                                      "/tests/data/cyclic.afdx");
  }
}

/// `base` with the variant's priority classes and release jitter applied.
TrafficConfig reshape(const TrafficConfig& base, const MatrixVariant& v) {
  std::vector<VirtualLink> vls;
  std::vector<std::vector<std::vector<LinkId>>> routes;
  for (VlId id = 0; id < base.vl_count(); ++id) {
    VirtualLink vl = base.vl(id);
    vl.priority = static_cast<std::uint8_t>(id % v.classes);
    if (v.jitter > 0.0) vl.max_release_jitter = v.jitter;
    vls.push_back(std::move(vl));
    routes.push_back(base.route(id).paths());
  }
  return TrafficConfig(Network(base.network()), std::move(vls),
                       std::move(routes));
}

struct PathBounds {
  std::vector<Microseconds> netcalc, trajectory, combined;
  std::vector<PathState> states;
};

PathBounds bounds_of(const RunResult& r) {
  PathBounds b{r.netcalc, r.trajectory, r.combined, {}};
  for (const PathStatus& s : r.status) b.states.push_back(s.state);
  return b;
}

void expect_bits(const std::vector<Microseconds>& want,
                 const std::vector<Microseconds>& got,
                 const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  std::size_t mismatches = 0, first = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &want[i], sizeof a);
    std::memcpy(&b, &got[i], sizeof b);
    if (a != b && mismatches++ == 0) first = i;
  }
  EXPECT_EQ(mismatches, 0u) << what << ": first mismatch at path " << first
                            << " (" << want[first] << " vs " << got[first]
                            << ")";
}

void expect_same(const PathBounds& want, const PathBounds& got,
                 const std::string& entry) {
  expect_bits(want.netcalc, got.netcalc, entry + " wcnc");
  expect_bits(want.trajectory, got.trajectory, entry + " trajectory");
  expect_bits(want.combined, got.combined, entry + " combined");
  EXPECT_EQ(want.states, got.states) << entry << " path states";
}

bool all_finite(const std::vector<Microseconds>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](Microseconds x) { return std::isfinite(x); });
}

using MatrixCell = std::tuple<std::size_t, std::size_t, int>;

class EntryPointMatrix : public ::testing::TestWithParam<MatrixCell> {};

TEST_P(EntryPointMatrix, BoundsAreBitIdentical) {
  const auto [config_index, variant_index, threads] = GetParam();
  const MatrixVariant& v = kMatrixVariants[variant_index];
  const TrafficConfig cfg = reshape(matrix_config(config_index), v);
  netcalc::Options nc;
  nc.grouping = v.grouping;
  trajectory::Options tj;
  tj.serialization = v.serialization;
  const std::size_t n = cfg.all_paths().size();

  AnalysisEngine reference(cfg, {threads});
  const RunResult ref_run = reference.run_resilient(nc, tj);
  const PathBounds ref = bounds_of(ref_run);
  const bool clean = std::all_of(
      ref_run.status.begin(), ref_run.status.end(),
      [](const PathStatus& s) { return s.ok() && s.message.empty(); });
  const bool wcnc_ok = all_finite(ref.netcalc);
  const bool trajectory_ok = all_finite(ref.trajectory);

  {
    AnalysisEngine eng(cfg, {threads});
    if (clean) {
      expect_same(ref, bounds_of(eng.run(nc, tj)), "run");
    } else {
      EXPECT_THROW((void)eng.run(nc, tj), Error);
    }
  }
  {
    AnalysisEngine eng(cfg, {threads});
    PathBounds got{std::vector<Microseconds>(n, 0.0),
                   std::vector<Microseconds>(n, 0.0),
                   std::vector<Microseconds>(n, 0.0),
                   std::vector<PathState>(n, PathState::kOk)};
    (void)eng.run_streaming(
        [&](const StreamPathResult& r) {
          got.netcalc[r.path_index] = r.netcalc;
          got.trajectory[r.path_index] = r.trajectory;
          got.combined[r.path_index] = r.combined;
          got.states[r.path_index] = r.state;
        },
        nc, tj);
    expect_same(ref, got, "run_streaming");
  }
  {
    AnalysisEngine eng(cfg, {threads});
    expect_same(ref, bounds_of(eng.run_incremental(cfg, ref_run, {}, nc, tj)),
                "run_incremental");
  }
  {
    AnalysisEngine eng(cfg, {threads});
    if (wcnc_ok) {
      expect_bits(ref.netcalc, eng.netcalc_only(nc).path_bounds,
                  "netcalc_only");
    } else {
      EXPECT_THROW((void)eng.netcalc_only(nc), Error);
    }
    if (trajectory_ok) {
      expect_bits(ref.trajectory, eng.trajectory_only(tj), "trajectory_only");
    } else {
      EXPECT_THROW((void)eng.trajectory_only(tj), Error);
    }
  }
  {
    analysis::LadderOptions lo;
    lo.netcalc = nc;
    lo.trajectory = tj;
    analysis::BoundLadder ladder(cfg, {threads});
    const analysis::LadderResult lr = ladder.run(lo);
    const auto wcnc_rung = static_cast<std::size_t>(
        v.grouping ? analysis::Rung::kWcncGrouping : analysis::Rung::kWcnc);
    const auto trajectory_rung = static_cast<std::size_t>(
        v.serialization ? analysis::Rung::kTrajectoryPruned
                        : analysis::Rung::kTrajectory);
    if (wcnc_ok) {
      expect_bits(ref.netcalc, lr.rung_bounds[wcnc_rung], "ladder wcnc rung");
    } else {
      EXPECT_TRUE(lr.rungs[wcnc_rung].failed);
    }
    if (trajectory_ok) {
      expect_bits(ref.trajectory, lr.rung_bounds[trajectory_rung],
                  "ladder trajectory rung");
    } else {
      EXPECT_TRUE(lr.rungs[trajectory_rung].failed);
    }
  }

  // The serial analyzers derive their caps from a default-options WCNC
  // run; they are a reference wherever that run succeeds.
  if (wcnc_ok) {
    expect_bits(ref.netcalc, netcalc::analyze(cfg, nc).path_bounds,
                "netcalc::analyze");
  }
  bool default_wcnc_ok = true;
  try {
    (void)netcalc::analyze(cfg);
  } catch (const Error&) {
    default_wcnc_ok = false;
  }
  if (default_wcnc_ok) {
    if (trajectory_ok) {
      expect_bits(ref.trajectory, trajectory::analyze(cfg, tj).path_bounds,
                  "trajectory::analyze");
    } else {
      EXPECT_THROW((void)trajectory::analyze(cfg, tj), Error);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, EntryPointMatrix,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, std::size(kMatrixConfigs)),
        ::testing::Range<std::size_t>(0, std::size(kMatrixVariants)),
        ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<MatrixCell>& info) {
      return std::string(kMatrixConfigs[std::get<0>(info.param)]) + "_" +
             kMatrixVariants[std::get<1>(info.param)].name + "_t" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace afdx::engine
