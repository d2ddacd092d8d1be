// Tests for the fault-scenario subsystem: scenario enumeration and parsing,
// degraded-view construction (reroute / unreachable), and the healthy-vs-
// degraded DegradationReport invariants.
#include "faults/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "config/samples.hpp"
#include "engine/cancel.hpp"
#include "faults/degrade.hpp"
#include "faults/report.hpp"

namespace afdx::faults {
namespace {

// A topology with a genuine alternate route: a -> S1 -> S2 -> b is the
// healthy shortest path, and S1 -> S3 -> S2 survives a S1-S2 cable cut.
// vbg loads the S2 -> b port from a second source so the rerouted flow
// meets cross traffic on the surviving route.
TrafficConfig ring_config() {
  Network net;
  const NodeId a = net.add_end_system("a");
  const NodeId b = net.add_end_system("b");
  const NodeId c = net.add_end_system("c");
  const NodeId s1 = net.add_switch("S1");
  const NodeId s2 = net.add_switch("S2");
  const NodeId s3 = net.add_switch("S3");
  net.connect(a, s1);
  net.connect(b, s2);
  net.connect(c, s3);
  net.connect(s1, s2);
  net.connect(s1, s3);
  net.connect(s3, s2);

  std::vector<VirtualLink> vls;
  vls.push_back({"vmain", a, {b}, 4000.0, 64, 500});
  vls.push_back({"vbg", c, {b}, 2000.0, 64, 1000});
  return TrafficConfig(std::move(net), std::move(vls));
}

std::size_t path_index(const TrafficConfig& cfg, const std::string& vl_name,
                       std::uint32_t dest = 0) {
  return cfg.path_index(PathRef{*cfg.find_vl(vl_name), dest});
}

TEST(Scenario, SingleLinkEnumeratesEveryUsedCableOnce) {
  const TrafficConfig cfg = config::sample_config();
  const auto scenarios = single_link_scenarios(cfg);
  // The Figure-2 sample has 9 cables, every one crossed by some VL.
  EXPECT_EQ(scenarios.size(), 9u);
  for (const FaultScenario& s : scenarios) {
    EXPECT_EQ(s.failed_links.size(), 2u) << s.name;  // both directions
    EXPECT_TRUE(s.failed_nodes.empty());
  }
}

TEST(Scenario, SingleSwitchEnumeratesEveryUsedSwitch) {
  const TrafficConfig cfg = config::sample_config();
  const auto scenarios = single_switch_scenarios(cfg);
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_EQ(scenarios[0].name, "switch S1");
  EXPECT_EQ(scenarios[0].failed_nodes.size(), 1u);
}

TEST(Scenario, UsedOnlyFiltersIdleCables) {
  // ring_config: vmain uses a-S1 and S1-S2; vbg uses c-S3 and S3-S2. The
  // b-S2 cable is used (toward b); S1-S3 is idle.
  const TrafficConfig cfg = ring_config();
  const auto used = single_link_scenarios(cfg, /*used_only=*/true);
  const auto all = single_link_scenarios(cfg, /*used_only=*/false);
  EXPECT_EQ(all.size(), 6u);
  EXPECT_EQ(used.size(), 5u);  // S1-S3 carries nothing
}

TEST(Scenario, SpecParsesLinksSwitchesAndEndSystems) {
  const TrafficConfig cfg = config::sample_config();
  const FaultScenario s =
      scenario_from_spec(cfg.network(), "link:e1-S1,switch:S2,es:e7");
  EXPECT_EQ(s.failed_links.size(), 2u);
  EXPECT_EQ(s.failed_nodes.size(), 2u);
  // Order of the node names does not matter for a cable.
  const FaultScenario rev = scenario_from_spec(cfg.network(), "link:S1-e1");
  EXPECT_EQ(rev.failed_links, s.failed_links);
}

TEST(Scenario, SpecRejectsMalformedInput) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  EXPECT_THROW(scenario_from_spec(net, ""), Error);
  EXPECT_THROW(scenario_from_spec(net, "e1-S1"), Error);          // no kind
  EXPECT_THROW(scenario_from_spec(net, "link:e1-e9"), Error);     // unknown
  EXPECT_THROW(scenario_from_spec(net, "link:e1-e2"), Error);     // no cable
  EXPECT_THROW(scenario_from_spec(net, "switch:e1"), Error);      // wrong kind
  EXPECT_THROW(scenario_from_spec(net, "es:S1"), Error);          // wrong kind
  EXPECT_THROW(scenario_from_spec(net, "cpu:S1"), Error);         // unknown
  EXPECT_THROW(scenario_from_spec(net, "link:e1-S1,,es:e7"), Error);
}

TEST(Degrade, EmptyScenarioKeepsEverythingIntact) {
  const TrafficConfig cfg = config::sample_config();
  const DegradedView view = apply_scenario(cfg, FaultScenario{});
  EXPECT_EQ(view.intact, cfg.all_paths().size());
  EXPECT_EQ(view.rerouted, 0u);
  EXPECT_EQ(view.unreachable, 0u);
  ASSERT_TRUE(view.config.has_value());
  for (std::size_t i = 0; i < view.paths.size(); ++i) {
    EXPECT_EQ(view.paths[i].degraded_index, i);
    EXPECT_EQ(view.config->all_paths()[i].links, cfg.all_paths()[i].links);
  }
}

TEST(Degrade, EsCableCutMakesItsVlUnreachable) {
  // An end system connects to exactly one switch (ARINC 664), so cutting
  // e1-S1 leaves v1 with no route at all; everything else is untouched.
  const TrafficConfig cfg = config::sample_config();
  const DegradedView view = apply_scenario(
      cfg, scenario_from_spec(cfg.network(), "link:e1-S1"));
  EXPECT_EQ(view.unreachable, 1u);
  EXPECT_EQ(view.intact, 4u);
  EXPECT_EQ(view.paths[path_index(cfg, "v1")].fate, PathFate::kUnreachable);
  EXPECT_EQ(view.paths[path_index(cfg, "v1")].degraded_index,
            kNoDegradedIndex);
  ASSERT_TRUE(view.config.has_value());
  EXPECT_EQ(view.config->vl_count(), 4u);
  EXPECT_FALSE(view.config->find_vl("v1").has_value());
}

TEST(Degrade, SwitchFailureCanKillTheWholeConfig) {
  // Every sample path crosses S3; its failure leaves no surviving VL.
  const TrafficConfig cfg = config::sample_config();
  const DegradedView view = apply_scenario(
      cfg, scenario_from_spec(cfg.network(), "switch:S3"));
  EXPECT_EQ(view.unreachable, cfg.all_paths().size());
  EXPECT_FALSE(view.config.has_value());
}

TEST(Degrade, DestinationEsFailureSparesOtherVls) {
  const TrafficConfig cfg = config::sample_config();
  const DegradedView view =
      apply_scenario(cfg, scenario_from_spec(cfg.network(), "es:e6"));
  EXPECT_EQ(view.unreachable, 4u);  // v1..v4 target e6
  EXPECT_EQ(view.intact, 1u);       // v5 -> e7 untouched
  EXPECT_EQ(view.paths[path_index(cfg, "v5")].fate, PathFate::kIntact);
}

TEST(Degrade, ReroutesOverSurvivingShortestPath) {
  const TrafficConfig cfg = ring_config();
  const std::size_t vmain = path_index(cfg, "vmain");
  ASSERT_EQ(cfg.all_paths()[vmain].links.size(), 3u);  // a>S1 S1>S2 S2>b

  const DegradedView view = apply_scenario(
      cfg, scenario_from_spec(cfg.network(), "link:S1-S2"));
  EXPECT_EQ(view.rerouted, 1u);
  EXPECT_EQ(view.unreachable, 0u);
  ASSERT_EQ(view.paths[vmain].fate, PathFate::kRerouted);
  ASSERT_TRUE(view.config.has_value());
  const auto& degraded_path =
      view.config->all_paths()[view.paths[vmain].degraded_index];
  EXPECT_EQ(degraded_path.links.size(), 4u);  // a>S1 S1>S3 S3>S2 S2>b
  // The degraded view is a fully valid TrafficConfig: the rerouted flow now
  // shares the S3>S2 port with vbg.
  const auto link = view.config->network().link_between(
      *view.config->network().find_node("S3"),
      *view.config->network().find_node("S2"));
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(view.config->vls_on_link(*link).size(), 2u);
}

TEST(Degrade, RejectsOutOfRangeIds) {
  const TrafficConfig cfg = config::sample_config();
  FaultScenario s;
  s.failed_links.push_back(10000);
  EXPECT_THROW(apply_scenario(cfg, s), Error);
  FaultScenario n;
  n.failed_nodes.push_back(10000);
  EXPECT_THROW(apply_scenario(cfg, n), Error);
}

TEST(Report, SingleLinkSweepOnSampleIsCompleteAndCovering) {
  const TrafficConfig cfg = config::sample_config();
  const DegradationReport report =
      analyze_scenarios(cfg, single_link_scenarios(cfg), {});

  EXPECT_TRUE(report.complete());
  ASSERT_EQ(report.scenarios.size(), 9u);
  ASSERT_EQ(report.healthy.size(), cfg.all_paths().size());
  for (const engine::PathStatus& st : report.healthy_status) {
    EXPECT_TRUE(st.ok());
  }
  std::size_t unreachable_seen = 0;
  for (const ScenarioReport& sr : report.scenarios) {
    EXPECT_TRUE(sr.analyzed) << sr.scenario.name;
    ASSERT_EQ(sr.paths.size(), cfg.all_paths().size());
    for (std::size_t p = 0; p < sr.paths.size(); ++p) {
      const PathDegradation& pd = sr.paths[p];
      // The acceptance invariant: the reported degraded bound of every
      // path dominates its healthy bound (covering envelope), and
      // unreachable paths are explicit records, never dropped.
      EXPECT_GE(pd.degraded_us, pd.healthy_us) << sr.scenario.name;
      if (pd.fate == PathFate::kUnreachable) {
        ++unreachable_seen;
        EXPECT_TRUE(pd.redundancy_lost);
        EXPECT_TRUE(std::isinf(pd.skew_us));
        // First arrival rides the healthy mirror network.
        EXPECT_EQ(pd.first_arrival_us, pd.healthy_us);
      } else {
        EXPECT_EQ(pd.state, engine::PathState::kOk);
        EXPECT_TRUE(std::isfinite(pd.degraded_us));
        EXPECT_GE(pd.skew_us, pd.skew_healthy_us);
      }
    }
    EXPECT_EQ(sr.intact + sr.rerouted + sr.unreachable, sr.paths.size());
  }
  EXPECT_EQ(report.total_unreachable, unreachable_seen);
  EXPECT_GT(report.total_unreachable, 0u);

  std::ostringstream out;
  report.print(out, cfg);
  // Unreachable paths must be listed explicitly in the human report too.
  EXPECT_NE(out.str().find("UNREACHABLE"), std::string::npos);
  EXPECT_NE(out.str().find("report complete"), std::string::npos);
}

TEST(Report, RerouteInflatesCoveringBound) {
  const TrafficConfig cfg = ring_config();
  std::vector<FaultScenario> scenarios;
  scenarios.push_back(scenario_from_spec(cfg.network(), "link:S1-S2"));
  const DegradationReport report =
      analyze_scenarios(cfg, std::move(scenarios), {});

  ASSERT_TRUE(report.complete());
  const PathDegradation& pd =
      report.scenarios[0].paths[path_index(cfg, "vmain")];
  EXPECT_EQ(pd.fate, PathFate::kRerouted);
  EXPECT_TRUE(std::isfinite(pd.degraded_raw_us));
  // One more hop plus new cross traffic: the raw degraded bound genuinely
  // exceeds the healthy one here, so inflation is strict.
  EXPECT_GT(pd.degraded_us, pd.healthy_us);
  EXPECT_GT(pd.inflation, 1.0);
  EXPECT_FALSE(pd.redundancy_lost);
  EXPECT_EQ(report.worst_scenario, 0u);
  EXPECT_EQ(report.worst_path, path_index(cfg, "vmain"));
}

TEST(Report, CancelledTokenSkipsScenariosExplicitly) {
  const TrafficConfig cfg = config::sample_config();
  engine::CancelToken cancel;
  cancel.cancel();
  ScenarioOptions options;
  options.cancel = &cancel;
  const DegradationReport report =
      analyze_scenarios(cfg, single_link_scenarios(cfg), options);
  EXPECT_FALSE(report.complete());
  for (const ScenarioReport& sr : report.scenarios) {
    EXPECT_FALSE(sr.analyzed);
    EXPECT_FALSE(sr.skip_reason.empty());
  }
  std::ostringstream out;
  report.print(out, cfg);
  EXPECT_NE(out.str().find("SKIPPED"), std::string::npos);
  EXPECT_NE(out.str().find("INCOMPLETE"), std::string::npos);
}

TEST(Report, MalformedScenarioIsReportedNotThrown) {
  const TrafficConfig cfg = config::sample_config();
  FaultScenario bogus;
  bogus.name = "bogus";
  bogus.failed_links.push_back(9999);
  const DegradationReport report = analyze_scenarios(cfg, {bogus}, {});
  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_FALSE(report.scenarios[0].analyzed);
  EXPECT_NE(report.scenarios[0].skip_reason.find("out of range"),
            std::string::npos);
  EXPECT_FALSE(report.complete());
}

TEST(Report, ParallelSweepMatchesSerial) {
  const TrafficConfig cfg = config::sample_config();
  ScenarioOptions serial;
  serial.threads = 1;
  ScenarioOptions parallel;
  parallel.threads = 4;
  const DegradationReport a =
      analyze_scenarios(cfg, single_link_scenarios(cfg), serial);
  const DegradationReport b =
      analyze_scenarios(cfg, single_link_scenarios(cfg), parallel);
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
    ASSERT_EQ(a.scenarios[s].paths.size(), b.scenarios[s].paths.size());
    for (std::size_t p = 0; p < a.scenarios[s].paths.size(); ++p) {
      EXPECT_EQ(a.scenarios[s].paths[p].degraded_us,
                b.scenarios[s].paths[p].degraded_us);
      EXPECT_EQ(a.scenarios[s].paths[p].skew_us,
                b.scenarios[s].paths[p].skew_us);
    }
  }
  EXPECT_EQ(a.worst_inflation, b.worst_inflation);
}

TEST(Report, IncrementalSweepMatchesFullRecompute) {
  // The default sweep reuses the healthy run as a baseline; forcing full
  // recomputation must not move a single bit of any figure.
  const TrafficConfig cfg = config::sample_config();
  ScenarioOptions incremental;  // incremental = true is the default
  ScenarioOptions full;
  full.incremental = false;
  auto scenarios = single_link_scenarios(cfg);
  for (auto& s : single_switch_scenarios(cfg)) scenarios.push_back(s);
  const DegradationReport a = analyze_scenarios(cfg, scenarios, incremental);
  const DegradationReport b = analyze_scenarios(cfg, scenarios, full);
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
    ASSERT_EQ(a.scenarios[s].paths.size(), b.scenarios[s].paths.size());
    for (std::size_t p = 0; p < a.scenarios[s].paths.size(); ++p) {
      const PathDegradation& pa = a.scenarios[s].paths[p];
      const PathDegradation& pb = b.scenarios[s].paths[p];
      EXPECT_EQ(pa.degraded_raw_us, pb.degraded_raw_us);
      EXPECT_EQ(pa.degraded_us, pb.degraded_us);
      EXPECT_EQ(pa.first_arrival_us, pb.first_arrival_us);
      EXPECT_EQ(pa.skew_us, pb.skew_us);
      EXPECT_EQ(pa.state, pb.state);
    }
  }
  EXPECT_EQ(a.worst_inflation, b.worst_inflation);
  EXPECT_EQ(a.worst_scenario, b.worst_scenario);
}

TEST(Report, ScenarioChangedLinksCoversCablesAndNodes) {
  const TrafficConfig cfg = config::sample_config();
  const Network& net = cfg.network();
  FaultScenario s;
  add_failed_cable(net, s, 0);
  s.failed_nodes.push_back(net.link(2).source);
  const std::vector<LinkId> changed = scenario_changed_links(net, s);
  // Both directions of the cable are present...
  EXPECT_NE(std::find(changed.begin(), changed.end(), 0), changed.end());
  EXPECT_NE(std::find(changed.begin(), changed.end(), net.reverse(0)),
            changed.end());
  // ... plus every link attached to the failed node, without duplicates.
  for (LinkId l : net.links_from(s.failed_nodes[0])) {
    EXPECT_NE(std::find(changed.begin(), changed.end(), l), changed.end());
  }
  EXPECT_TRUE(std::is_sorted(changed.begin(), changed.end()));
  EXPECT_EQ(std::adjacent_find(changed.begin(), changed.end()),
            changed.end());
}

}  // namespace
}  // namespace afdx::faults
