// Unit tests for the trajectory-approach analyzer. Expected values on the
// paper's sample configuration are hand-derived (DESIGN.md section 3.2) and
// cross-checked against the simulator, which achieves 272 us on this
// configuration -- the trajectory bound is exactly tight there.
#include "trajectory/trajectory_analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/samples.hpp"
#include "gen/industrial.hpp"
#include "netcalc/netcalc_analyzer.hpp"
#include "obs/counters.hpp"
#include "trajectory/prefix_cache.hpp"
#include "trajectory/slot_table.hpp"
#include "trajectory/sweep.hpp"

namespace afdx::trajectory {
namespace {

TrafficConfig chain_config(int switches) {
  Network net;
  const NodeId src = net.add_end_system("src");
  const NodeId dst = net.add_end_system("dst");
  std::vector<NodeId> sw;
  for (int i = 0; i < switches; ++i) {
    sw.push_back(net.add_switch("S" + std::to_string(i + 1)));
    if (i > 0) net.connect(sw[i - 1], sw[i]);
  }
  net.connect(src, sw.front());
  net.connect(sw.back(), dst);
  std::vector<VirtualLink> vls{
      {"v", src, {dst}, microseconds_from_ms(4.0), 64, 500}};
  return TrafficConfig(std::move(net), std::move(vls));
}

TEST(Trajectory, IsolatedFlowIsStoreAndForwardExact) {
  // One switch: C + L + C = 40 + 16 + 40.
  EXPECT_NEAR(analyze(chain_config(1)).path_bounds[0], 96.0, 1e-9);
  // Three switches: 4 C + 3 L.
  EXPECT_NEAR(analyze(chain_config(3)).path_bounds[0], 4 * 40.0 + 3 * 16.0,
              1e-9);
}

TEST(Trajectory, SampleConfigBounds) {
  const TrafficConfig cfg = config::sample_config();
  const Result r = analyze(cfg);
  // v1..v4 are symmetric: 272 us (achieved by the simulator => tight).
  for (int p = 0; p < 4; ++p) EXPECT_NEAR(r.path_bounds[p], 272.0, 1e-6);
  EXPECT_NEAR(r.path_bounds[4], 96.0, 1e-9);  // v5 is alone
}

TEST(Trajectory, NonSerializedVariantAddsSimultaneitySurcharge) {
  const TrafficConfig cfg = config::sample_config();
  Options naive;
  naive.serialization = false;
  const Result r = analyze(cfg, naive);
  // The paper's Fig. 3 scenario: v3 and v4 (and the symmetric pair) assumed
  // simultaneous: + 40 us over the serialized bound.
  for (int p = 0; p < 4; ++p) EXPECT_NEAR(r.path_bounds[p], 312.0, 1e-6);
  EXPECT_NEAR(r.path_bounds[4], 96.0, 1e-9);
}

TEST(Trajectory, SerializationNeverLoosens) {
  const TrafficConfig cfg = config::illustrative_config();
  Options naive;
  naive.serialization = false;
  const Result enhanced = analyze(cfg);
  const Result plain = analyze(cfg, naive);
  for (std::size_t i = 0; i < enhanced.path_bounds.size(); ++i) {
    EXPECT_LE(enhanced.path_bounds[i], plain.path_bounds[i] + 1e-9);
  }
}

TEST(Trajectory, LooseBoundaryPacketNeverTightens) {
  const TrafficConfig cfg = config::illustrative_config();
  Options loose;
  loose.loose_boundary_packet = true;
  const Result refined = analyze(cfg);
  const Result paper_worded = analyze(cfg, loose);
  for (std::size_t i = 0; i < refined.path_bounds.size(); ++i) {
    EXPECT_LE(refined.path_bounds[i], paper_worded.path_bounds[i] + 1e-9);
  }
}

TEST(Trajectory, PrefixBoundsOnSampleConfig) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  Analyzer an(cfg);
  const VlId v1 = *cfg.find_vl("v1");
  const auto& path = cfg.route(v1).paths()[0];
  EXPECT_NEAR(an.bound_to_link(v1, path[0]), 40.0, 1e-9);   // alone at e1
  EXPECT_NEAR(an.bound_to_link(v1, path[1]), 136.0, 1e-6);  // behind v2
  EXPECT_NEAR(an.bound_to_link(v1, path[2]), 272.0, 1e-6);
  (void)net;
}

TEST(Trajectory, ArrivalTimeAccessors) {
  const TrafficConfig cfg = config::sample_config();
  Analyzer an(cfg);
  const VlId v1 = *cfg.find_vl("v1");
  const auto& path = cfg.route(v1).paths()[0];
  EXPECT_NEAR(an.min_arrival_at(v1, path[0]), 0.0, 1e-12);
  // 64-byte best case: 5.12 us transmission + 16 us latency per stage.
  EXPECT_NEAR(an.min_arrival_at(v1, path[1]), 5.12 + 16.0, 1e-9);
  EXPECT_NEAR(an.min_arrival_at(v1, path[2]), 2 * (5.12 + 16.0), 1e-9);
  EXPECT_NEAR(an.max_arrival_at(v1, path[0]), 0.0, 1e-12);
  EXPECT_NEAR(an.max_arrival_at(v1, path[2]), 136.0 + 16.0, 1e-6);
}

TEST(Trajectory, BoundIsInsensitiveToOwnBag) {
  // The paper's Figure 8: the trajectory bound of v1 does not move with
  // BAG(v1).
  for (double ms : {1.0, 2.0, 8.0, 64.0, 128.0}) {
    config::SampleOptions o;
    o.bag_v1 = microseconds_from_ms(ms);
    const Result r = analyze(config::sample_config(o));
    EXPECT_NEAR(r.path_bounds[0], 272.0, 1e-6) << "BAG(v1) = " << ms << " ms";
  }
}

TEST(Trajectory, CrossoverAgainstNetcalcInSmax) {
  // The paper's Figure 7: WCNC is tighter for small s_max(v1), the
  // trajectory approach for s_max(v1) >= the other VLs' 500 B.
  {
    config::SampleOptions o;
    o.s_max_v1 = 100;
    const TrafficConfig cfg = config::sample_config(o);
    EXPECT_GT(analyze(cfg).path_bounds[0],
              netcalc::analyze(cfg).path_bounds[0]);
  }
  {
    const TrafficConfig cfg = config::sample_config();
    EXPECT_LT(analyze(cfg).path_bounds[0],
              netcalc::analyze(cfg).path_bounds[0]);
  }
}

TEST(Trajectory, GrowsMonotonicallyWithOwnSmax) {
  Microseconds prev = 0.0;
  for (Bytes s : {100u, 300u, 500u, 900u, 1500u}) {
    config::SampleOptions o;
    o.s_max_v1 = s;
    const Microseconds b = analyze(config::sample_config(o)).path_bounds[0];
    EXPECT_GT(b, prev);
    prev = b;
  }
}

TEST(Trajectory, MulticastPathsBoundedIndependently) {
  const TrafficConfig cfg = config::illustrative_config();
  Analyzer an(cfg);
  const VlId v6 = *cfg.find_vl("v6");
  const Microseconds b0 = an.path_bound(PathRef{v6, 0});
  const Microseconds b1 = an.path_bound(PathRef{v6, 1});
  EXPECT_GT(b0, 0.0);
  EXPECT_GT(b1, 0.0);
  // Both include at least the store-and-forward floor of three hops.
  const Microseconds c = cfg.vl(v6).max_transmission_time(100.0);
  EXPECT_GE(b0, 3 * c + 2 * 16.0 - 1e-9);
}

TEST(Trajectory, CyclicConfigurationThrows) {
  Network net;
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  const NodeId s3 = net.add_switch("S3");
  const NodeId a = net.add_end_system("a");
  const NodeId b = net.add_end_system("b");
  const NodeId c = net.add_end_system("c");
  net.connect(s1, s2);
  net.connect(s2, s3);
  net.connect(s3, s1);
  net.connect(a, s1);
  net.connect(b, s2);
  net.connect(c, s3);
  auto link = [&](NodeId x, NodeId y) { return *net.link_between(x, y); };
  std::vector<VirtualLink> vls{
      {"f1", a, {c}, microseconds_from_ms(4.0), 64, 500},
      {"f2", b, {a}, microseconds_from_ms(4.0), 64, 500},
      {"f3", c, {b}, microseconds_from_ms(4.0), 64, 500}};
  std::vector<std::vector<std::vector<LinkId>>> routes{
      {{link(a, s1), link(s1, s2), link(s2, s3), link(s3, c)}},
      {{link(b, s2), link(s2, s3), link(s3, s1), link(s1, a)}},
      {{link(c, s3), link(s3, s1), link(s1, s2), link(s2, b)}}};
  const TrafficConfig cfg(std::move(net), std::move(vls), std::move(routes));
  EXPECT_THROW(analyze(cfg), Error);
}

TEST(Trajectory, ResultLookupAndErrors) {
  const TrafficConfig cfg = config::sample_config();
  const Result r = analyze(cfg);
  EXPECT_NEAR(r.path_bounds[cfg.path_index(PathRef{*cfg.find_vl("v2"), 0})],
              272.0, 1e-6);
  EXPECT_THROW((void)cfg.path_index(PathRef{99, 0}), Error);
}

TEST(Trajectory, DeterministicAcrossAnalyzerInstances) {
  const TrafficConfig cfg = config::illustrative_config();
  const Result a = analyze(cfg);
  const Result b = analyze(cfg);
  ASSERT_EQ(a.path_bounds.size(), b.path_bounds.size());
  for (std::size_t i = 0; i < a.path_bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.path_bounds[i], b.path_bounds[i]);
  }
}

TEST(Trajectory, HigherInterferingLoadRaisesBound) {
  // Shrinking the other VLs' BAG below the busy period makes their second
  // frames interfere.
  config::SampleOptions tight;
  tight.bag_others = 150.0;  // us; busy period exceeds one period
  const TrafficConfig cfg = config::sample_config(tight);
  const TrafficConfig base = config::sample_config();
  EXPECT_GT(analyze(cfg).path_bounds[0], analyze(base).path_bounds[0]);
}

// v_bad demands ~121 bits/us on 100 bits/us links (every port on its
// route diverges); v_mid shares the final S2->e2 port with v_bad, so its
// bound fails only through v_bad's prefix; v_ok rides disjoint ports and
// is exactly analyzable.
TrafficConfig reuse_after_throw_config() {
  Network net;
  const NodeId e1 = net.add_end_system("e1");
  const NodeId e2 = net.add_end_system("e2");
  const NodeId e3 = net.add_end_system("e3");
  const NodeId e4 = net.add_end_system("e4");
  const NodeId e5 = net.add_end_system("e5");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  net.connect(e1, s1);
  net.connect(s1, s2);
  net.connect(s2, e2);
  net.connect(e3, s2);
  net.connect(s2, e4);
  net.connect(e5, s2);
  std::vector<VirtualLink> vls;
  vls.push_back({"v_bad", e1, {e2}, 100.0, 64, 1518});
  vls.push_back({"v_mid", e5, {e2}, 4000.0, 64, 500});
  vls.push_back({"v_ok", e3, {e4}, 4000.0, 64, 500});
  return TrafficConfig(std::move(net), std::move(vls));
}

// Regression: a throw out of compute_prefix (diverging busy period) used
// to leak the in_progress_ marker of every frame on the recursion stack.
// Analyzer instances are reused across paths by the engine and across the
// ladder's escalation waves, so the next query reaching a leaked
// (vl, link) key falsely failed with the cyclic-dependency error -- and
// that error poisoned paths that were merely downstream victims of the
// genuinely unstable VL. A throwing analyzer must stay indistinguishable
// from a fresh one.
TEST(Trajectory, AnalyzerStaysConsistentAfterDivergenceThrow) {
  const TrafficConfig cfg = reuse_after_throw_config();
  const VlId bad = *cfg.find_vl("v_bad");
  const VlId mid = *cfg.find_vl("v_mid");
  const VlId ok = *cfg.find_vl("v_ok");
  const LinkId bad_last = cfg.route(bad).paths()[0].back();
  const LinkId mid_last = cfg.route(mid).paths()[0].back();
  const LinkId ok_last = cfg.route(ok).paths()[0].back();

  Analyzer an(cfg);
  const auto expect_divergence = [&](VlId vl, LinkId link) {
    try {
      (void)an.bound_to_link(vl, link);
      FAIL() << "expected a divergence Error";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.find("cyclic"), std::string::npos) << msg;
      EXPECT_NE(msg.find("diverges"), std::string::npos) << msg;
    }
  };

  // The direct failure, twice on the same analyzer: a leaked marker would
  // turn the second attempt into the false cyclic error.
  expect_divergence(bad, bad_last);
  expect_divergence(bad, bad_last);
  // The indirect failure (v_mid fails only through v_bad's prefix) leaks a
  // multi-frame stack under the bug: (v_mid, mid_last) and v_bad's keys.
  expect_divergence(mid, mid_last);
  expect_divergence(mid, mid_last);
  // Healthy work on the much-thrown analyzer is bit-identical to a fresh
  // instance.
  Analyzer control(cfg);
  EXPECT_EQ(an.bound_to_link(ok, ok_last), control.bound_to_link(ok, ok_last));
}

// Every path bound under one sweep kernel, bitwise. Fresh analyzers per
// kernel so no memoized value crosses over.
std::vector<Microseconds> bounds_with_kernel(const TrafficConfig& cfg,
                                             sweep::Kind kind,
                                             const Options& options) {
  sweep::set_active(kind);
  Analyzer an(cfg, options);
  std::vector<Microseconds> out;
  for (const VlPath& p : cfg.all_paths()) {
    out.push_back(an.bound_to_link(p.vl, p.links.back()));
  }
  return out;
}

// Restores the dispatched kernel even when an assertion throws out of the
// test body.
struct KernelGuard {
  sweep::Kind saved = sweep::active();
  ~KernelGuard() { sweep::set_active(saved); }
};

// The SIMD kernel's contract (sweep.hpp): identical bits, not just
// identical up to tolerance. The golden pair: the paper's sample config
// (short candidate lists, envelope exits early) and a grid of fuzzed
// 2-domain industrial configurations sweeping seed, multicast fan-out and
// BAG spread -- thousands of prefixes with long candidate lists, remainder
// tails of every length mod 4, and saturating nodes.
TEST(TrajectorySweep, SimdMatchesScalarBitwiseOnSampleConfig) {
  if (!sweep::simd_available()) GTEST_SKIP() << "AVX2 not available";
  KernelGuard guard;
  const TrafficConfig cfg = config::sample_config();
  for (const bool serialization : {true, false}) {
    Options options;
    options.serialization = serialization;
    const auto scalar =
        bounds_with_kernel(cfg, sweep::Kind::kScalar, options);
    const auto simd = bounds_with_kernel(cfg, sweep::Kind::kSimd, options);
    ASSERT_EQ(scalar.size(), simd.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      EXPECT_EQ(scalar[i], simd[i]) << "path " << i;  // exact, no tolerance
    }
  }
}

TEST(TrajectorySweep, SimdMatchesScalarBitwiseOnFuzzedGrid) {
  if (!sweep::simd_available()) GTEST_SKIP() << "AVX2 not available";
  KernelGuard guard;
  for (const std::uint64_t seed : {7ull, 1234ull, 987654ull}) {
    for (const int fanout : {2, 6}) {
      gen::IndustrialOptions go;
      go.seed = seed;
      go.domains = 2;
      go.vl_count = 160;
      go.switch_count = 4;
      go.end_system_count = 12;
      go.max_multicast_fanout = fanout;
      // A narrow BAG band piles many same-period segments onto each node,
      // which is where the dedup + saturation paths get exercised.
      go.min_bag_ms = (seed % 2 == 0) ? 2.0 : 8.0;
      go.max_bag_ms = (seed % 2 == 0) ? 128.0 : 16.0;
      const TrafficConfig cfg = gen::industrial_config(go);
      const auto scalar =
          bounds_with_kernel(cfg, sweep::Kind::kScalar, Options{});
      const auto simd = bounds_with_kernel(cfg, sweep::Kind::kSimd, Options{});
      ASSERT_EQ(scalar.size(), simd.size());
      for (std::size_t i = 0; i < scalar.size(); ++i) {
        EXPECT_EQ(scalar[i], simd[i])
            << "seed " << seed << " fanout " << fanout << " path " << i;
      }
    }
  }
}


// W(t) of sweep.hpp, written out independently of both kernels.
Microseconds workload(const sweep::Columns& cols, Microseconds t) {
  const auto frames = [&](Microseconds a, Microseconds period) {
    const double window = t + a;
    if (window < -kEpsilon) return 0.0;
    return std::floor(window / period + 1e-9) + 1.0;
  };
  Microseconds w = frames(cols.own_a, cols.own_period) * cols.own_c;
  for (std::size_t idx = 0; idx < cols.nodes; ++idx) {
    Microseconds node_sum = 0.0;
    for (std::size_t s = cols.node_begin[idx]; s < cols.node_begin[idx + 1];
         ++s) {
      node_sum += frames(cols.a[s], cols.period[s]) * cols.c[s];
    }
    w += node_sum >= cols.node_cap[idx] ? cols.node_cap[idx] : node_sum;
  }
  return w;
}

// The branch-and-bound kernel against the ascending scalar loop on random
// columns, bitwise, and the scalar loop against the unpruned maximum over
// every candidate. The draws cover 1 to 70 nodes (past the kernels' fixed
// latch buffer), negative windows, caps that a late candidate saturates
// while earlier ones stay below them, duplicate candidate values and 0 to
// 200 candidates.
TEST(TrajectorySweep, BranchAndBoundMatchesScalarOnRandomColumns) {
  if (!sweep::simd_available()) GTEST_SKIP() << "AVX2 not available";
  Rng rng(20240607);
  const double periods[] = {125.0, 500.0, 1000.0, 2000.0, 4000.0, 32000.0};
  const auto draw_period = [&] {
    return rng.bernoulli(0.7) ? periods[rng.uniform_int(0, 5)]
                              : rng.uniform_real(50.0, 8000.0);
  };
  std::size_t total = 0;
  std::size_t evaluations[2] = {0, 0};
  for (int trial = 0; trial < 4000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Candidates: ascending, with runs of duplicates.
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 200));
    const double horizon = rng.uniform_real(100.0, 20000.0);
    std::vector<Microseconds> candidates;
    for (std::size_t k = 0; k < count; ++k) {
      candidates.push_back(!candidates.empty() && rng.bernoulli(0.15)
                               ? candidates.back()
                               : rng.uniform_real(0.0, horizon));
    }
    std::sort(candidates.begin(), candidates.end());

    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 70));
    std::vector<Microseconds> a;
    std::vector<Microseconds> c;
    std::vector<Microseconds> period;
    std::vector<std::size_t> node_begin{0};
    std::vector<Microseconds> node_cap(
        nodes, std::numeric_limits<Microseconds>::infinity());
    for (std::size_t idx = 0; idx < nodes; ++idx) {
      const auto segs = rng.uniform_int(0, 6);
      for (std::int64_t s = 0; s < segs; ++s) {
        a.push_back(rng.uniform_real(-0.5 * horizon, horizon));
        c.push_back(rng.uniform_real(1.0, 120.0));
        period.push_back(draw_period());
      }
      node_begin.push_back(a.size());
    }
    sweep::Columns cols{a.data(),         c.data(),    period.data(),
                        node_begin.data(), node_cap.data(), nodes,
                        rng.uniform_real(-100.0, 500.0),
                        rng.uniform_real(1.0, 120.0), draw_period()};
    // Caps: a node's own sum at a random candidate, so the later
    // candidates saturate (ties included) and the earlier ones may not; or
    // a random level; or none.
    for (std::size_t idx = 0; idx < nodes; ++idx) {
      const double roll = rng.uniform_real(0.0, 1.0);
      if (roll < 0.4 && !candidates.empty()) {
        const Microseconds at = candidates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(count) - 1))];
        sweep::Columns one = cols;
        one.node_begin = node_begin.data() + idx;
        one.node_cap = node_cap.data() + idx;
        one.nodes = 1;
        one.own_c = 0.0;  // node_cap[idx] is still +inf here
        node_cap[idx] = workload(one, at);
      } else if (roll < 0.6) {
        node_cap[idx] = rng.uniform_real(0.0, 600.0);
      }
    }
    const Microseconds consts = rng.uniform_real(-200.0, 800.0);
    const Microseconds t_max =
        (candidates.empty() ? 0.0 : candidates.back()) +
        (rng.bernoulli(0.5) ? 0.0 : rng.uniform_real(0.0, 500.0));
    const Microseconds w_max = workload(cols, t_max);
    Microseconds best = workload(cols, 0.0) + consts;
    if (rng.bernoulli(0.2)) best = rng.uniform_real(-1000.0, 3000.0);

    Microseconds expected = best;
    for (Microseconds t : candidates) {
      expected = std::max(expected, workload(cols, t) + consts - t);
    }
    const sweep::Outcome scalar =
        sweep::run(sweep::Kind::kScalar, cols, candidates.data(), count,
                   consts, w_max, best);
    const sweep::Outcome simd = sweep::run(
        sweep::Kind::kSimd, cols, candidates.data(), count, consts, w_max,
        best);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(scalar.best),
              std::bit_cast<std::uint64_t>(expected))
        << scalar.best << " vs " << expected;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(simd.best),
              std::bit_cast<std::uint64_t>(scalar.best))
        << simd.best << " vs " << scalar.best;
    ASSERT_LE(scalar.evaluations, count);
    ASSERT_LE(simd.evaluations, count);
    total += count;
    evaluations[0] += scalar.evaluations;
    evaluations[1] += simd.evaluations;
  }
  // The draws reach the pruning: neither kernel evaluates everything.
  EXPECT_GT(evaluations[0], 0u);
  EXPECT_LT(evaluations[0], total);
  EXPECT_GT(evaluations[1], 0u);
  EXPECT_LT(evaluations[1], total);
}

// --- Slot table and shared prefix store --------------------------------------

TrafficConfig two_domain_config(std::uint64_t seed) {
  gen::IndustrialOptions o;
  o.seed = seed;
  o.domains = 2;
  o.vl_count = 600;
  return gen::industrial_config(o);
}

// Every row describes its crossing as the configuration does, and the
// best-case arrival column equals the backwards chain walk over
// VlRoute::predecessor bit for bit.
TEST(TrajectorySlotTable, RowsMatchTheConfiguration) {
  for (const TrafficConfig& cfg :
       {config::sample_config(), two_domain_config(3)}) {
    const SlotTable table(cfg);
    const Network& net = cfg.network();
    std::size_t crossings = 0;
    for (LinkId l = 0; l < net.link_count(); ++l) {
      crossings += cfg.vls_on_link(l).size();
      for (VlId v : cfg.vls_on_link(l)) {
        const Slot s = table.find(v, l);
        ASSERT_NE(s, kNoSlot);
        ASSERT_GE(s, table.begin(l));
        ASSERT_LT(s, table.end(l));
        const FlowAtLink& f = table[s];
        const VlRoute& route = cfg.route(v);
        EXPECT_EQ(f.id, v);
        EXPECT_EQ(f.pred, route.predecessor(l));
        EXPECT_EQ(f.pred_slot, f.pred == kInvalidLink
                                   ? kNoSlot
                                   : table.find(v, f.pred));
        EXPECT_EQ(f.c, cfg.vl(v).max_transmission_time(net.link(l).rate));
        Microseconds walk = 0.0;
        for (LinkId cur = l; route.predecessor(cur) != kInvalidLink;
             cur = route.predecessor(cur)) {
          const LinkId pred = route.predecessor(cur);
          walk += cfg.vl(v).min_transmission_time(net.link(pred).rate);
          walk += net.link(cur).latency;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(f.min_arrival),
                  std::bit_cast<std::uint64_t>(walk));
      }
    }
    EXPECT_EQ(table.size(), crossings);
    EXPECT_EQ(table.find(0, static_cast<LinkId>(net.link_count())), kNoSlot);
    EXPECT_EQ(table.find(static_cast<VlId>(cfg.vl_count()), 0), kNoSlot);
  }
}

TEST(PrefixCache, StoreLookupSeedPeekAndCounters) {
  const TrafficConfig cfg = config::sample_config();
  auto table = std::make_shared<const SlotTable>(cfg);
  auto scope = std::make_shared<obs::Registry>();
  PrefixCache store(table, scope);
  EXPECT_EQ(store.size(), 0u);
  const VlId v = *cfg.find_vl("v2");
  const LinkId last = cfg.path(PathRef{v, 0}).links.back();
  const Slot s = table->find(v, last);
  EXPECT_FALSE(store.lookup(s).has_value());
  EXPECT_FALSE(store.peek(v, last).has_value());

  store.store(s, 272.0);
  EXPECT_EQ(store.lookup(s), 272.0);
  EXPECT_EQ(store.peek(v, last), 272.0);
  EXPECT_EQ(store.size(), 1u);

  // seed overwrites and counts; a pair the table does not index is ignored
  // (peek answers nullopt for it).
  store.seed(v, last, 271.0);
  EXPECT_EQ(store.peek(v, last), 271.0);
  const LinkId first = cfg.path(PathRef{v, 0}).links.front();
  store.seed(v, first, 10.0);
  const LinkId foreign = static_cast<LinkId>(cfg.network().link_count());
  store.seed(v, foreign, 1.0);
  EXPECT_FALSE(store.peek(v, foreign).has_value());
  EXPECT_EQ(store.size(), 2u);

  // 0.0 and -0.0 are bounds, not "absent".
  const Slot other = table->find(v, first);
  store.store(other, -0.0);
  ASSERT_TRUE(store.lookup(other).has_value());
  EXPECT_TRUE(std::signbit(*store.lookup(other)));

  store.count(5, 3);
  store.count(1, 0);
  const PrefixCacheStats stats = prefix_cache_stats(*scope);
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.seeded, 2u);

  // A store without a scope counts nowhere but still stores.
  PrefixCache quiet(table, nullptr);
  quiet.seed(v, last, 5.0);
  quiet.count(1, 1);
  EXPECT_EQ(quiet.peek(v, last), 5.0);
}

// Writers racing on the same slots publish identical bits, and every
// concurrent reader sees either no bound or the full value, never a torn
// or foreign one (run under TSan by scripts/check_tsan.sh).
TEST(PrefixCache, ConcurrentWritersAndReadersAgree) {
  const TrafficConfig cfg = two_domain_config(5);
  auto table = std::make_shared<const SlotTable>(cfg);
  PrefixCache store(table, nullptr);
  const auto value = [](Slot s) { return 1.0 + static_cast<double>(s) * 0.25; };
  const Slot n = static_cast<Slot>(table->size());
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (Slot k = 0; k < n; ++k) {
        const Slot s = (k + static_cast<Slot>(t) * (n / 4)) % n;
        if (const auto got = store.lookup(s); got.has_value()) {
          if (*got != value(s)) bad.fetch_add(1);
        } else {
          store.store(s, value(s));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(store.size(), table->size());
  for (Slot s = 0; s < n; ++s) EXPECT_EQ(store.lookup(s), value(s));
}

// Analyzers over one shared store give the bounds a standalone analyzer
// gives, each counts its own local and shared hits, and the second one
// recomputes nothing the first already published.
TEST(Trajectory, AnalyzersSharingOneStoreMatchAStandaloneAnalyzer) {
  const TrafficConfig cfg = two_domain_config(9);
  const Result reference = analyze(cfg);
  auto store = std::make_shared<PrefixCache>(
      std::make_shared<const SlotTable>(cfg), nullptr);
  Analyzer first(cfg, Options{}, store);
  Analyzer second(cfg, Options{}, store);
  const Result a = first.analyze();
  const Result b = second.analyze();
  ASSERT_EQ(a.path_bounds.size(), reference.path_bounds.size());
  for (std::size_t i = 0; i < a.path_bounds.size(); ++i) {
    EXPECT_EQ(a.path_bounds[i], reference.path_bounds[i]) << "path " << i;
    EXPECT_EQ(b.path_bounds[i], reference.path_bounds[i]) << "path " << i;
  }
  EXPECT_EQ(first.counters().shared_hits, 0u);
  EXPECT_GT(first.counters().local_hits, 0u);
  EXPECT_EQ(second.counters().shared_hits + second.counters().local_hits,
            second.counters().lookups);
  EXPECT_GT(second.counters().shared_hits, 0u);
}

}  // namespace
}  // namespace afdx::trajectory
