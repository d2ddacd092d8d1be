// Round-trip and error-handling tests for the text configuration format.
#include "config/serialization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/comparison.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/samples.hpp"
#include "gen/industrial.hpp"

namespace afdx::config {
namespace {

TEST(Serialization, SampleRoundTripPreservesEverything) {
  const TrafficConfig original = sample_config();
  const TrafficConfig loaded = load_config_string(save_config_string(original));

  ASSERT_EQ(loaded.vl_count(), original.vl_count());
  ASSERT_EQ(loaded.network().node_count(), original.network().node_count());
  ASSERT_EQ(loaded.network().link_count(), original.network().link_count());
  for (VlId v = 0; v < original.vl_count(); ++v) {
    EXPECT_EQ(loaded.vl(v).name, original.vl(v).name);
    EXPECT_DOUBLE_EQ(loaded.vl(v).bag, original.vl(v).bag);
    EXPECT_EQ(loaded.vl(v).s_max, original.vl(v).s_max);
    EXPECT_EQ(loaded.vl(v).s_min, original.vl(v).s_min);
    EXPECT_EQ(loaded.route(v).paths(), original.route(v).paths());
  }
}

TEST(Serialization, RoundTripPreservesAnalysisResults) {
  const TrafficConfig original = illustrative_config();
  const TrafficConfig loaded = load_config_string(save_config_string(original));
  const auto a = analysis::compare(original);
  const auto b = analysis::compare(loaded);
  ASSERT_EQ(a.netcalc.size(), b.netcalc.size());
  for (std::size_t i = 0; i < a.netcalc.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.netcalc[i], b.netcalc[i]);
    EXPECT_DOUBLE_EQ(a.trajectory[i], b.trajectory[i]);
  }
}

TEST(Serialization, GeneratedConfigRoundTrip) {
  gen::IndustrialOptions o;
  o.vl_count = 40;
  o.end_system_count = 12;
  o.switch_count = 4;
  const TrafficConfig original = gen::industrial_config(o);
  const TrafficConfig loaded = load_config_string(save_config_string(original));
  EXPECT_EQ(loaded.vl_count(), original.vl_count());
  EXPECT_EQ(loaded.all_paths().size(), original.all_paths().size());
  EXPECT_NEAR(loaded.max_utilization(), original.max_utilization(), 1e-12);
}

TEST(Serialization, ParsesCommentsAndBlankLines) {
  const TrafficConfig cfg = load_config_string(
      "afdx-config v1\n"
      "# a comment line\n"
      "\n"
      "node es e1   # trailing comment\n"
      "node es e2\n"
      "node sw S1\n"
      "link e1 S1 rate=100 swlat=16 eslat=0\n"
      "link S1 e2 rate=100 swlat=16 eslat=0\n"
      "vl v1 src=e1 dst=e2 bag=4000 smin=64 smax=500\n");
  EXPECT_EQ(cfg.vl_count(), 1u);
  EXPECT_EQ(cfg.route(0).paths()[0].size(), 2u);  // auto-routed
}

TEST(Serialization, MissingHeaderRejected) {
  EXPECT_THROW(load_config_string("node es e1\n"), Error);
  EXPECT_THROW(load_config_string(""), Error);
}

TEST(Serialization, UnknownDirectiveRejected) {
  EXPECT_THROW(load_config_string("afdx-config v1\nfrobnicate x\n"), Error);
}

TEST(Serialization, BadNodeKindRejected) {
  EXPECT_THROW(load_config_string("afdx-config v1\nnode router R1\n"), Error);
}

TEST(Serialization, UnknownNodeInLinkRejected) {
  EXPECT_THROW(load_config_string("afdx-config v1\nnode es e1\n"
                                  "link e1 S9 rate=100\n"),
               Error);
}

TEST(Serialization, BadNumberRejected) {
  EXPECT_THROW(load_config_string("afdx-config v1\nnode es e1\nnode sw S1\n"
                                  "link e1 S1 rate=fast\n"),
               Error);
}

// Parse errors must name the offending key and line so a hand-edited config
// is diagnosable from the message alone.
TEST(Serialization, BadNumberMessageNamesKeyAndLine) {
  try {
    load_config_string("afdx-config v1\nnode es e1\nnode sw S1\n"
                       "link e1 S1 rate=fast\n");
    FAIL() << "bad link attribute was accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'rate'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'fast'"), std::string::npos) << msg;
  }
}

TEST(Serialization, TrailingGarbageNumberRejectedAndNamed) {
  // "4000x" was silently truncated to 4000 by the old stod-based parser.
  try {
    load_config_string("afdx-config v1\nnode es e1\nnode es e2\n"
                       "node sw S1\nlink e1 S1\nlink S1 e2\n"
                       "vl v1 src=e1 dst=e2 bag=4000x smin=64 smax=500\n");
    FAIL() << "trailing garbage in vl attribute was accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'bag'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'4000x'"), std::string::npos) << msg;
  }
}

TEST(Serialization, BadRouteDestinationIndexRejectedAndNamed) {
  try {
    load_config_string("afdx-config v1\nnode es e1\nnode es e2\n"
                       "node sw S1\nlink e1 S1\nlink S1 e2\n"
                       "vl v1 src=e1 dst=e2 bag=4000 smin=64 smax=500\n"
                       "route v1 zero e1>S1 S1>e2\n");
    FAIL() << "non-numeric route destination index was accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("route destination index"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'zero'"), std::string::npos) << msg;
  }
}

TEST(Serialization, MalformedKeyValueRejected) {
  EXPECT_THROW(load_config_string("afdx-config v1\nnode es e1\nnode sw S1\n"
                                  "link e1 S1 rate\n"),
               Error);
}

TEST(Serialization, RouteForUnknownVlRejected) {
  EXPECT_THROW(load_config_string("afdx-config v1\nnode es e1\nnode es e2\n"
                                  "node sw S1\nlink e1 S1\nlink S1 e2\n"
                                  "route ghost 0 e1>S1 S1>e2\n"),
               Error);
}

TEST(Serialization, RouteWithMissingLinkRejected) {
  EXPECT_THROW(
      load_config_string("afdx-config v1\nnode es e1\nnode es e2\n"
                         "node sw S1\nnode sw S2\nlink e1 S1\nlink S1 e2\n"
                         "link S1 S2\n"
                         "vl v1 src=e1 dst=e2 bag=4000 smin=64 smax=500\n"
                         "route v1 0 e1>S1 S2>e2\n"),
      Error);
}

TEST(Serialization, BadRouteHopSyntaxRejected) {
  EXPECT_THROW(
      load_config_string("afdx-config v1\nnode es e1\nnode es e2\n"
                         "node sw S1\nlink e1 S1\nlink S1 e2\n"
                         "vl v1 src=e1 dst=e2 bag=4000 smin=64 smax=500\n"
                         "route v1 0 e1-S1\n"),
      Error);
}

// --- Every error caused by one line names that line ---------------------

// Lines 1-7: header, e1, e2, S1, e1-S1, S1-e2, and VL v1 from e1 to e2.
const std::string kTwoEndSystems =
    "afdx-config v1\nnode es e1\nnode es e2\nnode sw S1\n"
    "link e1 S1\nlink S1 e2\n"
    "vl v1 src=e1 dst=e2 bag=4000 smin=64 smax=500\n";

// Loads `text`, which must be rejected, and checks that the message holds
// every fragment.
void expect_rejected(const std::string& text,
                     std::initializer_list<std::string> fragments) {
  try {
    (void)load_config_string(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const Error& e) {
    const std::string msg = e.what();
    for (const std::string& f : fragments) {
      EXPECT_NE(msg.find(f), std::string::npos) << "'" << f << "' not in: " << msg;
    }
  }
}

TEST(Serialization, UnknownRouteHopNodeNamesItsLine) {
  expect_rejected(kTwoEndSystems + "route v1 0 e1>S9 S9>e2\n",
                  {"line 8: ", "unknown node 'S9'"});
}

TEST(Serialization, RouteDestinationOutOfRangeNamesItsLine) {
  expect_rejected(kTwoEndSystems + "route v1 1 e1>S1 S1>e2\n",
                  {"line 8: ", "route for VL v1: destination index out of range"});
}

TEST(Serialization, RouteWithMissingLinkNamesItsLine) {
  expect_rejected(kTwoEndSystems + "node sw S2\nroute v1 0 e1>S1 S2>e2\n",
                  {"line 9: ", "route for VL v1: no link S2 -> e2"});
}

TEST(Serialization, RouteForUnknownVlNamesItsLine) {
  expect_rejected(kTwoEndSystems + "route ghost 0 e1>S1 S1>e2\n",
                  {"line 8: ", "route for unknown VL 'ghost'"});
}

TEST(Serialization, DuplicateNodeNameNamesItsLine) {
  expect_rejected("afdx-config v1\nnode es e1\nnode sw e1\n",
                  {"line 3: ", "duplicate node name: e1"});
}

TEST(Serialization, NonPositiveLinkRateNamesItsLine) {
  expect_rejected("afdx-config v1\nnode es e1\nnode sw S1\nlink e1 S1 rate=0\n",
                  {"line 4: ", "link rate must be positive"});
}

TEST(Serialization, NegativeLinkLatencyNamesItsLine) {
  expect_rejected("afdx-config v1\nnode es e1\nnode sw S1\nlink e1 S1 swlat=-1\n",
                  {"line 4: ", "link with negative latency"});
}

TEST(Serialization, DuplicateCableNamesItsLine) {
  expect_rejected("afdx-config v1\nnode es e1\nnode sw S1\nlink e1 S1\n"
                  "link S1 e1\n",
                  {"line 5: ", "duplicate cable between S1 and e1"});
}

TEST(Serialization, NonPositiveBagNamesItsLine) {
  expect_rejected(kTwoEndSystems + "vl v2 src=e1 dst=e2 bag=0 smin=64 smax=500\n",
                  {"line 8: ", "VL v2 must have a positive BAG"});
}

TEST(Serialization, FrameOutsideEthernetRangeNamesItsLine) {
  expect_rejected(kTwoEndSystems + "vl v2 src=e1 dst=e2 bag=4000 smin=64 smax=2000\n",
                  {"line 8: ", "VL v2: frame sizes must be within the Ethernet"});
}

TEST(Serialization, SminAboveSmaxNamesItsLine) {
  expect_rejected(kTwoEndSystems + "vl v2 src=e1 dst=e2 bag=4000 smin=600 smax=500\n",
                  {"line 8: ", "VL v2: s_min must not exceed s_max"});
}

// Frame sizes and priorities are integers of a fixed width: a fraction, a
// sign or a value past the field's range is rejected with its line and key
// instead of being narrowed by a cast.
TEST(Serialization, SmaxBeyondItsFieldRejectedAndNamed) {
  expect_rejected(kTwoEndSystems +
                      "vl v2 src=e1 dst=e2 bag=4000 smin=64 smax=4294967796\n",
                  {"line 8: ", "'smax'", "4294967796", "out of range"});
}

TEST(Serialization, FractionalSmaxRejectedAndNamed) {
  expect_rejected(kTwoEndSystems +
                      "vl v2 src=e1 dst=e2 bag=4000 smin=64 smax=100.5\n",
                  {"line 8: ", "'smax'", "'100.5'"});
}

TEST(Serialization, FractionalSminRejectedAndNamed) {
  expect_rejected(kTwoEndSystems +
                      "vl v2 src=e1 dst=e2 bag=4000 smin=64.5 smax=500\n",
                  {"line 8: ", "'smin'", "'64.5'"});
}

TEST(Serialization, NegativeSminRejectedAndNamed) {
  expect_rejected(kTwoEndSystems +
                      "vl v2 src=e1 dst=e2 bag=4000 smin=-64 smax=500\n",
                  {"line 8: ", "'smin'", "'-64'"});
}

TEST(Serialization, PriorityBeyondAByteRejectedAndNamed) {
  expect_rejected(kTwoEndSystems +
                      "vl v2 src=e1 dst=e2 bag=4000 smin=64 smax=500 prio=256\n",
                  {"line 8: ", "'prio'", "256", "out of range (0..255)"});
}

TEST(Serialization, NegativePriorityRejectedAndNamed) {
  expect_rejected(kTwoEndSystems +
                      "vl v2 src=e1 dst=e2 bag=4000 smin=64 smax=500 prio=-1\n",
                  {"line 8: ", "'prio'", "'-1'"});
}

TEST(Serialization, IntegerAttributesAtTheirLimitsLoad) {
  const TrafficConfig cfg = load_config_string(
      kTwoEndSystems + "vl v2 src=e1 dst=e2 bag=4000 smin=1518 smax=1518 prio=255\n");
  EXPECT_EQ(cfg.vl(1).s_max, 1518u);
  EXPECT_EQ(cfg.vl(1).priority, 255);
}

// Whole-network checks are not caused by one line and carry none.
TEST(Serialization, WholeNetworkErrorsCarryNoLine) {
  try {
    (void)load_config_string(kTwoEndSystems + "node sw S2\n");
    FAIL() << "unconnected switch was accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("switch S2 has no connections"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("line "), std::string::npos) << msg;
  }
}

// --- Duplicates are rejected; directive order stays free -----------------

TEST(Serialization, DuplicateVlNameRejectedNamingBothLines) {
  expect_rejected(kTwoEndSystems + "vl v1 src=e2 dst=e1 bag=4000 smin=64 smax=500\n",
                  {"line 8: ", "duplicate VL name 'v1'", "first on line 7"});
}

TEST(Serialization, DuplicateRouteRejectedNamingBothLines) {
  expect_rejected(kTwoEndSystems + "route v1 0 e1>S1 S1>e2\n"
                                   "route v1 0 e1>S1 S1>e2\n",
                  {"line 9: ", "duplicate route for VL v1 destination 0",
                   "first on line 8"});
}

TEST(Serialization, RouteMayPrecedeItsVlAndNameLaterNodes) {
  const TrafficConfig cfg = load_config_string(
      "afdx-config v1\n"
      "route v1 0 e1>S1 S1>S2 S2>e2\n"
      "node es e1\nnode es e2\nnode sw S1\n"
      "link e1 S1\n"
      "vl v1 src=e1 dst=e2 bag=4000 smin=64 smax=500\n"
      "node sw S2\nlink S1 S2\nlink S2 e2\n");
  ASSERT_EQ(cfg.vl_count(), 1u);
  EXPECT_EQ(cfg.route(0).paths()[0].size(), 3u);
  EXPECT_EQ(cfg.network().node(cfg.network().link(cfg.route(0).paths()[0][1]).dest).name,
            "S2");
}

// --- Cost and robustness of the loader ------------------------------------

// Loading is linear in network size: doubling the configuration must not
// quadruple the load time. Quadratic name lookups gave a ratio near 4.
TEST(Serialization, LoadScalesLinearly) {
  auto saved = [](int vls, int domains) {
    gen::IndustrialOptions o;
    o.seed = 3;
    o.vl_count = vls;
    o.domains = domains;
    return save_config_string(gen::industrial_config(o));
  };
  const std::string small = saved(12'500, 10);
  const std::string large = saved(25'000, 20);
  auto load_ms = [](const std::string& text) {
    const auto t0 = std::chrono::steady_clock::now();
    const TrafficConfig cfg = load_config_string(text);
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_GT(cfg.vl_count(), 0u);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  double best_small = 1e300, best_large = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    best_small = std::min(best_small, load_ms(small));
    best_large = std::min(best_large, load_ms(large));
  }
  EXPECT_LE(best_large / best_small, 3.0)
      << "12.5k VLs: " << best_small << " ms, 25k VLs: " << best_large << " ms";
}

std::vector<std::string> afdx_seed_files() {
  std::vector<std::string> texts;
  for (const char* dir : {"/tests/data", "/tests/corpus"}) {
    std::vector<std::filesystem::path> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(std::string(AFDX_REPO_ROOT) + dir)) {
      if (entry.path().extension() == ".afdx") paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& p : paths) {
      std::ifstream in(p);
      std::ostringstream os;
      os << in.rdbuf();
      texts.push_back(os.str());
    }
  }
  return texts;
}

// One random edit of a configuration text: a bit flip, a truncation, a
// splice with another seed, a numeric extreme in a key=value token, or a
// dropped line.
std::string mutate(std::string text, const std::vector<std::string>& seeds,
                   Rng& rng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  static const std::vector<std::string> kExtremes = {
      "0", "-0", "-1", "1e308", "-1e308", "1e-320", "inf", "-inf", "nan",
      "4294967295", "4294967296", "18446744073709551616", "255", "256",
      "0.5", "1e1000", "0x10", ""};
  if (text.empty()) return seeds[pick(seeds.size())];
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // bit flip
      text[pick(text.size())] ^= static_cast<char>(1 << pick(8));
      return text;
    }
    case 1:  // truncation
      return text.substr(0, pick(text.size()));
    case 2: {  // splice: a prefix of this text, a suffix of another seed
      const std::string& other = seeds[pick(seeds.size())];
      return text.substr(0, pick(text.size())) + other.substr(pick(other.size()));
    }
    case 3: {  // numeric extreme in one key=value token
      std::vector<std::size_t> values;
      for (std::size_t i = text.find('='); i != std::string::npos;
           i = text.find('=', i + 1)) {
        values.push_back(i + 1);
      }
      if (values.empty()) return text;
      const std::size_t begin = values[pick(values.size())];
      const std::size_t end = std::min(text.find_first_of(" \n,", begin), text.size());
      return text.substr(0, begin) + kExtremes[pick(kExtremes.size())] +
             text.substr(end);
    }
    default: {  // dropped line
      std::vector<std::size_t> starts = {0};
      for (std::size_t i = 0; i + 1 < text.size(); ++i) {
        if (text[i] == '\n') starts.push_back(i + 1);
      }
      const std::size_t k = pick(starts.size());
      const std::size_t end = k + 1 < starts.size() ? starts[k + 1] : text.size();
      return text.substr(0, starts[k]) + text.substr(end);
    }
  }
}

// Mutated configuration files are either loaded or rejected with an
// afdx::Error (never an internal LogicError or another exception), and
// every accepted one round-trips: save(load(save(c))) == save(c).
TEST(Serialization, MutatedInputsLoadOrRejectAndRoundTrip) {
  const std::vector<std::string> seeds = afdx_seed_files();
  ASSERT_GE(seeds.size(), 8u);
  Rng rng(20261017);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string input = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) input = mutate(std::move(input), seeds, rng);
    try {
      const std::string saved = save_config_string(load_config_string(input));
      ++accepted;
      EXPECT_EQ(save_config_string(load_config_string(saved)), saved)
          << "round trip changed the text of input " << i << ":\n" << input;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input " << i << " raised " << e.what() << ":\n" << input;
    }
  }
  // Both outcomes must be exercised, or the mutator is not doing its job.
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 300);
}

TEST(Serialization, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/afdx_roundtrip.cfg";
  const TrafficConfig original = sample_config();
  save_config_file(original, path);
  const TrafficConfig loaded = load_config_file(path);
  EXPECT_EQ(loaded.vl_count(), original.vl_count());
  std::remove(path.c_str());
}

TEST(Serialization, MissingFileThrows) {
  EXPECT_THROW(load_config_file("/nonexistent/path/to.cfg"), Error);
}

}  // namespace
}  // namespace afdx::config
