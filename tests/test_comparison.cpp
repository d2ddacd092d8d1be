// Tests for the combined method and the Table-I / Fig-5 / Fig-6 statistics.
#include "analysis/comparison.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "config/samples.hpp"
#include "gen/industrial.hpp"

namespace afdx::analysis {
namespace {

TEST(Comparison, CombinedIsPerPathMinimum) {
  const TrafficConfig cfg = config::sample_config();
  const Comparison c = compare(cfg);
  ASSERT_EQ(c.combined.size(), c.netcalc.size());
  for (std::size_t i = 0; i < c.combined.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.combined[i], std::min(c.netcalc[i], c.trajectory[i]));
  }
}

TEST(Comparison, CombinedNeverWorseThanNetcalc) {
  const TrafficConfig cfg = config::illustrative_config();
  const Comparison c = compare(cfg);
  const BenefitStats s = benefit_stats(c.netcalc, c.combined);
  EXPECT_GE(s.min, 0.0);
  EXPECT_GE(s.mean, 0.0);
}

TEST(Comparison, BenefitStatsOnKnownVectors) {
  const std::vector<Microseconds> ref{100.0, 200.0, 400.0};
  const std::vector<Microseconds> cand{90.0, 220.0, 400.0};
  const BenefitStats s = benefit_stats(ref, cand);
  EXPECT_NEAR(s.mean, (0.10 - 0.10 + 0.0) / 3.0, 1e-12);
  EXPECT_NEAR(s.max, 0.10, 1e-12);
  EXPECT_NEAR(s.min, -0.10, 1e-12);
  EXPECT_NEAR(s.wins_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(s.paths, 3u);
}

TEST(Comparison, BenefitStatsValidatesInput) {
  EXPECT_THROW((void)benefit_stats({1.0}, {1.0, 2.0}), Error);
}

TEST(Comparison, BenefitStatsEmptyInputYieldsZeros) {
  const BenefitStats s = benefit_stats({}, {});
  EXPECT_EQ(s.paths, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.wins_fraction, 0.0);
}

TEST(Comparison, BenefitStatsSkipsNonPositiveReferences) {
  // The zero-reference pair cannot express a relative benefit and must not
  // be divided by; only the 100 -> 50 pair counts.
  const BenefitStats s = benefit_stats({0.0, 100.0}, {1.0, 50.0});
  EXPECT_EQ(s.paths, 1u);
  EXPECT_NEAR(s.mean, 0.5, 1e-12);
  EXPECT_NEAR(s.max, 0.5, 1e-12);
  EXPECT_NEAR(s.min, 0.5, 1e-12);
  EXPECT_NEAR(s.wins_fraction, 1.0, 1e-12);

  const BenefitStats none = benefit_stats({0.0, -1.0}, {1.0, 1.0});
  EXPECT_EQ(none.paths, 0u);
  EXPECT_EQ(none.mean, 0.0);
}

TEST(Comparison, MeanBenefitByBagCoversAllBags) {
  gen::IndustrialOptions o;
  o.vl_count = 120;
  o.end_system_count = 24;
  const TrafficConfig cfg = gen::industrial_config(o);
  const Comparison c = compare(cfg);
  const auto by_bag = mean_benefit_by_bag(cfg, c);
  EXPECT_GE(by_bag.size(), 3u);
  // Sorted by BAG, every bucket from the harmonic ladder.
  for (std::size_t i = 1; i < by_bag.size(); ++i) {
    EXPECT_LT(by_bag[i - 1].first, by_bag[i].first);
  }
  // Buckets must average only existing paths: recompute one by hand.
  const Microseconds probe = by_bag.front().first;
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < cfg.all_paths().size(); ++i) {
    if (cfg.vl(cfg.all_paths()[i].vl).bag == probe) {
      total += (c.netcalc[i] - c.trajectory[i]) / c.netcalc[i];
      ++n;
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_NEAR(by_bag.front().second, total / n, 1e-12);
}

TEST(Comparison, WcncWinRatioBySmaxIsAFraction) {
  gen::IndustrialOptions o;
  o.vl_count = 120;
  o.end_system_count = 24;
  const TrafficConfig cfg = gen::industrial_config(o);
  const Comparison c = compare(cfg);
  const auto by_smax = wcnc_win_ratio_by_smax(cfg, c, 200);
  EXPECT_GE(by_smax.size(), 3u);
  for (const auto& [bucket, ratio] : by_smax) {
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
    EXPECT_EQ(bucket % 200, 0u);
  }
}

TEST(Comparison, WcncWinRatioRejectsZeroBucket) {
  const TrafficConfig cfg = config::sample_config();
  const Comparison c = compare(cfg);
  EXPECT_THROW(wcnc_win_ratio_by_smax(cfg, c, 0), Error);
}

TEST(Comparison, SampleConfigHeadlineNumbers) {
  // The reproduction's anchor values (see EXPERIMENTS.md): trajectory 272,
  // WCNC 276.4 on the paper's sample configuration.
  const TrafficConfig cfg = config::sample_config();
  const Comparison c = compare(cfg);
  EXPECT_NEAR(c.trajectory[0], 272.0, 1e-6);
  EXPECT_NEAR(c.netcalc[0], 276.408, 1e-2);
  EXPECT_NEAR(c.combined[0], 272.0, 1e-6);
}

TEST(Comparison, PessimismStatsOnKnownVectors) {
  // bound / lower: 2.0, 1.5, skipped (lower <= 0), 1.0
  const PessimismStats s =
      pessimism_stats({10.0, 20.0, 0.0, 40.0}, {20.0, 30.0, 99.0, 40.0});
  EXPECT_EQ(s.paths, 3u);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.mean, (2.0 + 1.5 + 1.0) / 3.0);
}

TEST(Comparison, PessimismStatsValidatesInput) {
  EXPECT_THROW((void)pessimism_stats({1.0}, {1.0, 2.0}), Error);
  const PessimismStats empty = pessimism_stats({}, {});
  EXPECT_EQ(empty.paths, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(Comparison, AblationOptionsPropagate) {
  const TrafficConfig cfg = config::sample_config();
  netcalc::Options nc;
  nc.grouping = false;
  trajectory::Options tj;
  tj.serialization = false;
  const Comparison c = compare(cfg, nc, tj);
  EXPECT_NEAR(c.netcalc[0], 318.272, 1e-2);
  EXPECT_NEAR(c.trajectory[0], 312.0, 1e-6);
}

}  // namespace
}  // namespace afdx::analysis

namespace afdx::analysis {
namespace {

TEST(PathBreakdown, HopDelaysSumToThePathBound) {
  const TrafficConfig cfg = config::sample_config();
  const netcalc::Result nc = netcalc::analyze(cfg);
  for (const VlPath& p : cfg.all_paths()) {
    const auto hops = path_breakdown(cfg, nc, PathRef{p.vl, p.dest_index});
    ASSERT_EQ(hops.size(), p.links.size());
    Microseconds total = 0.0;
    for (const auto& hop : hops) total += hop.delay;
    EXPECT_NEAR(total,
                nc.path_bounds[cfg.path_index(PathRef{p.vl, p.dest_index})],
                1e-9);
  }
}

TEST(PathBreakdown, NamesAndValuesOnSampleConfig) {
  const TrafficConfig cfg = config::sample_config();
  const netcalc::Result nc = netcalc::analyze(cfg);
  const auto hops = path_breakdown(cfg, nc, PathRef{*cfg.find_vl("v1"), 0});
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].port_name, "e1>S1");
  EXPECT_EQ(hops[1].port_name, "S1>S3");
  EXPECT_EQ(hops[2].port_name, "S3>e6");
  EXPECT_NEAR(hops[0].delay, 40.0, 1e-9);
  EXPECT_NEAR(hops[1].delay, 96.8, 1e-9);
  EXPECT_NEAR(hops[2].delay, 139.608, 1e-2);
}

TEST(PathBreakdown, UnknownPathThrows) {
  const TrafficConfig cfg = config::sample_config();
  const netcalc::Result nc = netcalc::analyze(cfg);
  EXPECT_THROW(path_breakdown(cfg, nc, PathRef{99, 0}), Error);
}

}  // namespace
}  // namespace afdx::analysis
