// Tests for the serving subsystem: the strict JSON parser, the request
// protocol, the Service request handlers (against pinned warm baselines)
// and the Server admission / worker loop.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "config/samples.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace afdx::serve {
namespace {

// --- JSON parser ---------------------------------------------------------

TEST(ServeJson, ParsesScalarsAndNesting) {
  const JsonValue v = parse_json(
      R"({"a":1.5,"b":"x","c":[true,false,null],"d":{"e":-2}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_number(), 1.5);
  EXPECT_EQ(v.find("b")->as_string(), "x");
  ASSERT_TRUE(v.find("c")->is_array());
  ASSERT_EQ(v.find("c")->as_array().size(), 3u);
  EXPECT_TRUE(v.find("c")->as_array()[0].as_bool());
  EXPECT_TRUE(v.find("c")->as_array()[2].is_null());
  EXPECT_EQ(v.find("d")->find("e")->as_number(), -2.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, KeepsMembersInInsertionOrder) {
  const JsonValue v = parse_json(R"({"z":1,"a":2})");
  ASSERT_EQ(v.as_object().size(), 2u);
  EXPECT_EQ(v.as_object()[0].first, "z");
  EXPECT_EQ(v.as_object()[1].first, "a");
}

TEST(ServeJson, DecodesStringEscapes) {
  const JsonValue v = parse_json(R"({"s":"a\"b\\c\nA"})");
  EXPECT_EQ(v.find("s")->as_string(), "a\"b\\c\nA");
}

TEST(ServeJson, RejectsTrailingGarbage) {
  EXPECT_THROW((void)parse_json("{} x"), Error);
  EXPECT_THROW((void)parse_json("1 2"), Error);
}

TEST(ServeJson, RejectsDuplicateKeysNamingTheKey) {
  try {
    (void)parse_json(R"({"bag_us":1,"bag_us":2})");
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bag_us"), std::string::npos)
        << e.what();
  }
}

TEST(ServeJson, RejectsLooseNumerics) {
  // Strict numerics: the strtod liberties must be parse errors.
  EXPECT_THROW((void)parse_json("nan"), Error);
  EXPECT_THROW((void)parse_json("0x10"), Error);
  EXPECT_THROW((void)parse_json("01"), Error);
  EXPECT_THROW((void)parse_json("+1"), Error);
  EXPECT_THROW((void)parse_json("1."), Error);
}

TEST(ServeJson, RejectsDepthBomb) {
  std::string bomb;
  for (std::size_t i = 0; i <= kMaxJsonDepth; ++i) bomb += '[';
  for (std::size_t i = 0; i <= kMaxJsonDepth; ++i) bomb += ']';
  EXPECT_THROW((void)parse_json(bomb), Error);
  // One level below the limit is fine.
  std::string ok;
  for (std::size_t i = 0; i < kMaxJsonDepth; ++i) ok += '[';
  for (std::size_t i = 0; i < kMaxJsonDepth; ++i) ok += ']';
  EXPECT_NO_THROW((void)parse_json(ok));
}

TEST(ServeJson, ErrorsCarryOffsetContext) {
  try {
    (void)parse_json(R"({"a":tru})");
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }
}

// --- Request protocol ----------------------------------------------------

TEST(ServeProtocol, ParsesAFullWhatifRequest) {
  const Request req = parse_request(
      R"({"id":7,"op":"whatif","config":"c1",)"
      R"("set":[{"vl":"v1","bag_us":4000,"s_max_bytes":200}],)"
      R"("fail":"link:e1-S1","deadline_ms":50,"limit":5})");
  EXPECT_EQ(req.id, 7u);
  EXPECT_EQ(req.op, Op::kWhatIf);
  EXPECT_EQ(req.config, "c1");
  ASSERT_EQ(req.set.size(), 1u);
  EXPECT_EQ(req.set[0].vl, "v1");
  EXPECT_EQ(req.set[0].bag, 4000.0);
  EXPECT_EQ(req.set[0].s_max, 200u);
  EXPECT_FALSE(req.set[0].priority.has_value());
  EXPECT_EQ(req.fail_spec, "link:e1-S1");
  EXPECT_EQ(req.deadline_ms, 50.0);
  EXPECT_EQ(req.limit, 5u);
}

TEST(ServeProtocol, ParsesTheLadderBudgetObject) {
  const Request req = parse_request(
      R"({"op":"ladder","ladder":{"budget_ms":12.5,"max_path_evals":7}})");
  EXPECT_EQ(req.op, Op::kLadder);
  ASSERT_TRUE(req.ladder.has_value());
  EXPECT_EQ(req.ladder->budget_ms, 12.5);
  EXPECT_EQ(req.ladder->max_path_evals, 7u);
  // Absent key stays nullopt (whatif then skips the ladder entirely).
  EXPECT_FALSE(parse_request(R"({"op":"ladder"})").ladder.has_value());
  EXPECT_THROW(
      (void)parse_request(R"({"op":"ladder","ladder":{"budget_ms":-1}})"),
      Error);
  EXPECT_THROW((void)parse_request(R"({"op":"ladder","ladder":[1]})"), Error);
}

TEST(ServeProtocol, RejectsUnknownKeysNamingThem) {
  try {
    (void)parse_request(R"({"id":1,"op":"status","bogus":1})");
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocol, RejectsMissingOrUnknownOp) {
  EXPECT_THROW((void)parse_request(R"({"id":1})"), Error);
  EXPECT_THROW((void)parse_request(R"({"id":1,"op":"explode"})"), Error);
}

TEST(ServeProtocol, RejectsEmptyOverride) {
  // An override that changes no field is a client bug, not a no-op.
  EXPECT_THROW(
      (void)parse_request(R"({"id":1,"op":"whatif","set":[{"vl":"v1"}]})"),
      Error);
}

TEST(ServeProtocol, PeekRequestIdSurvivesMalformedLines) {
  EXPECT_EQ(peek_request_id(R"({"id":9,"op":"status"})"), 9u);
  EXPECT_EQ(peek_request_id("not json at all"), 0u);
  EXPECT_EQ(peek_request_id(""), 0u);
}

TEST(ServeProtocol, ErrorResponseShape) {
  EXPECT_EQ(error_response(7, "boom"),
            R"({"id":7,"ok":false,"error":"boom"})");
}

// --- Service -------------------------------------------------------------

std::shared_ptr<const TrafficConfig> sample_ptr() {
  return std::make_shared<const TrafficConfig>(config::sample_config());
}

void add_sample(Service& service) {
  service.add_baseline("sample", sample_ptr());
}

TEST(ServeService, StatusReportsTheBaseline) {
  Service service;
  add_sample(service);
  const JsonValue v =
      parse_json(service.handle_line(R"({"id":1,"op":"status"})"));
  EXPECT_EQ(v.find("id")->as_number(), 1.0);
  EXPECT_TRUE(v.find("ok")->as_bool());
  ASSERT_EQ(v.find("configs")->as_array().size(), 1u);
  const JsonValue& cfg = v.find("configs")->as_array()[0];
  EXPECT_EQ(cfg.find("name")->as_string(), "sample");
  EXPECT_EQ(cfg.find("paths")->as_number(), 5.0);
  EXPECT_TRUE(cfg.find("complete")->as_bool());
}

// status reads only its own Service's scope: the latency of another
// Service's requests in the same process must not leak into it.
TEST(ServeService, StatusLatencyCountsOnlyThisServicesRequests) {
  Service a;
  Service b;
  add_sample(a);
  add_sample(b);
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(b.handle_line(R"({"id":1,"op":"bounds"})").find("\"ok\":true"),
              std::string::npos);
  }
  ASSERT_NE(a.handle_line(R"({"id":1,"op":"bounds"})").find("\"ok\":true"),
            std::string::npos);

  const auto status = [](Service& service, double answered) {
    const JsonValue v =
        parse_json(service.handle_line(R"({"id":9,"op":"status"})"));
    // The status request itself is counted in total, and its latency is
    // recorded once it has been answered.
    EXPECT_EQ(v.find("requests")->find("total")->as_number(), answered + 1);
    EXPECT_EQ(v.find("latency_us")->find("count")->as_number(), answered);
  };
  status(a, 1.0);
  status(b, 5.0);
}

// Every answered line is counted in total, rejected ones included, so
// errors and overloaded never exceed it.
TEST(ServeService, StatusTotalCoversRejectedLines) {
  Service service;
  add_sample(service);
  for (const char* bad : {"not json", R"({"id":2})", R"({"id":3,"op":"x"})"}) {
    const JsonValue v = parse_json(service.handle_line(bad));
    ASSERT_FALSE(v.find("ok")->as_bool());
  }
  service.note_error();
  service.note_overloaded();
  service.note_overloaded();

  const JsonValue v =
      parse_json(service.handle_line(R"({"id":4,"op":"status"})"));
  const JsonValue& requests = *v.find("requests");
  const double total = requests.find("total")->as_number();
  EXPECT_EQ(total, 7.0);
  EXPECT_EQ(requests.find("errors")->as_number(), 4.0);
  EXPECT_EQ(requests.find("overloaded")->as_number(), 2.0);
  EXPECT_LE(requests.find("errors")->as_number(), total);
  EXPECT_LE(requests.find("overloaded")->as_number(), total);
}

TEST(ServeService, BoundsMatchTheEngineBitForBit) {
  Service service;
  add_sample(service);
  const TrafficConfig cfg = config::sample_config();
  engine::AnalysisEngine eng(cfg, engine::Options{1});
  const engine::RunResult fresh = eng.run_resilient();

  const JsonValue v =
      parse_json(service.handle_line(R"({"id":2,"op":"bounds"})"));
  ASSERT_TRUE(v.find("ok")->as_bool());
  const auto& rows = v.find("paths")->as_array();
  ASSERT_EQ(rows.size(), cfg.all_paths().size());
  // JsonWriter emits max_digits10 doubles, so the round trip is exact.
  for (std::size_t p = 0; p < rows.size(); ++p) {
    EXPECT_EQ(rows[p].find("combined_us")->as_number(), fresh.combined[p])
        << "path " << p;
    EXPECT_EQ(rows[p].find("netcalc_us")->as_number(), fresh.netcalc[p]);
    EXPECT_EQ(rows[p].find("trajectory_us")->as_number(), fresh.trajectory[p]);
  }
}

TEST(ServeService, WhatifMatchesAFreshRunOfTheMutatedConfig) {
  Service service;
  add_sample(service);

  // The reference: materialize the same overlay and run it cold.
  auto base = service.baseline("sample");
  engine::OverlaySession reference(base);
  reference.override_s_max("v1", 1518);
  const TrafficConfig mutated = reference.materialize();
  engine::AnalysisEngine eng(mutated, engine::Options{1});
  const engine::RunResult fresh = eng.run_resilient();

  std::map<std::pair<std::string, std::string>, Microseconds> expected;
  for (std::size_t p = 0; p < mutated.all_paths().size(); ++p) {
    const VlPath& path = mutated.all_paths()[p];
    const VirtualLink& vl = mutated.vl(path.vl);
    expected[{vl.name,
              mutated.network().node(vl.destinations[path.dest_index]).name}] =
        fresh.combined[p];
  }

  const JsonValue v = parse_json(service.handle_line(
      R"({"id":3,"op":"whatif","set":[{"vl":"v1","s_max_bytes":1518}]})"));
  ASSERT_TRUE(v.find("ok")->as_bool()) << v.find("error")->as_string();
  EXPECT_FALSE(v.find("partial")->as_bool());
  EXPECT_FALSE(v.find("incremental")->find("full_fallback")->as_bool());
  EXPECT_GT(v.find("paths_changed")->as_number(), 0.0);
  for (const JsonValue& row : v.find("changed")->as_array()) {
    const auto key = std::make_pair(row.find("vl")->as_string(),
                                    row.find("dest")->as_string());
    ASSERT_TRUE(expected.count(key)) << key.first << " -> " << key.second;
    EXPECT_EQ(row.find("whatif_us")->as_number(), expected[key])
        << key.first << " -> " << key.second;
  }
}

TEST(ServeService, WhatifFaultOverlayReportsUnreachablePaths) {
  Service service;
  add_sample(service);
  // Failing e5's only access link cuts v5 off; every other path survives.
  const JsonValue v = parse_json(service.handle_line(
      R"({"id":4,"op":"whatif","fail":"link:e5-S3"})"));
  ASSERT_TRUE(v.find("ok")->as_bool()) << v.find("error")->as_string();
  EXPECT_EQ(v.find("unreachable")->as_number(), 1.0);
  bool saw_unreachable = false;
  for (const JsonValue& row : v.find("changed")->as_array()) {
    if (row.find("unreachable") != nullptr) {
      saw_unreachable = true;
      EXPECT_EQ(row.find("vl")->as_string(), "v5");
    }
  }
  EXPECT_TRUE(saw_unreachable);
}

TEST(ServeService, WhatifWithoutChangesIsRejected) {
  Service service;
  add_sample(service);
  const JsonValue v =
      parse_json(service.handle_line(R"({"id":5,"op":"whatif"})"));
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_NE(v.find("error")->as_string().find("changes nothing"),
            std::string::npos);
}

TEST(ServeService, ErrorsNameTheOffendingElement) {
  Service service;
  add_sample(service);
  const JsonValue unknown_vl = parse_json(
      service.handle_line(R"({"id":6,"op":"bounds","vl":"nope"})"));
  EXPECT_FALSE(unknown_vl.find("ok")->as_bool());
  EXPECT_NE(unknown_vl.find("error")->as_string().find("'nope'"),
            std::string::npos);

  const JsonValue unknown_config = parse_json(service.handle_line(
      R"({"id":7,"op":"status","config":"missing"})"));
  // status ignores config; bounds does not.
  const JsonValue v = parse_json(service.handle_line(
      R"({"id":8,"op":"bounds","config":"missing"})"));
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_NE(v.find("error")->as_string().find("'missing'"),
            std::string::npos);
  (void)unknown_config;
}

TEST(ServeService, ParseErrorsKeepTheRequestId) {
  Service service;
  add_sample(service);
  const JsonValue v = parse_json(
      service.handle_line(R"({"id":11,"op":"whatif","set":[{"vl":1}]})"));
  EXPECT_EQ(v.find("id")->as_number(), 11.0);
  EXPECT_FALSE(v.find("ok")->as_bool());
}

TEST(ServeService, ExpiredDeadlineYieldsExplicitPartialResults) {
  Service service;
  add_sample(service);
  // A deadline far below one port's work: the run is cancelled, the
  // response still arrives -- marked partial, never a hang.
  const JsonValue v = parse_json(service.handle_line(
      R"({"id":9,"op":"whatif","deadline_ms":0.0001,)"
      R"("set":[{"vl":"v1","bag_us":1000}]})"));
  ASSERT_TRUE(v.find("ok")->as_bool()) << v.find("error")->as_string();
  EXPECT_TRUE(v.find("partial")->as_bool());
}

TEST(ServeService, FaultSweepReusesThePinnedHealthyRun) {
  Service service;
  add_sample(service);
  const JsonValue v = parse_json(service.handle_line(
      R"({"id":10,"op":"fault_sweep","scope":"single-switch"})"));
  ASSERT_TRUE(v.find("ok")->as_bool()) << v.find("error")->as_string();
  EXPECT_EQ(v.find("scenarios")->as_number(), 3.0);  // S1..S3
  EXPECT_EQ(v.find("analyzed")->as_number(), 3.0);
  EXPECT_FALSE(v.find("partial")->as_bool());
}

TEST(ServeService, LadderMatchesTheCombinedBoundsWhenUnlimited) {
  Service service;
  add_sample(service);
  const TrafficConfig cfg = config::sample_config();
  engine::AnalysisEngine eng(cfg, engine::Options{1});
  const engine::RunResult fresh = eng.run_resilient();

  const JsonValue v =
      parse_json(service.handle_line(R"({"id":13,"op":"ladder"})"));
  ASSERT_TRUE(v.find("ok")->as_bool()) << v.find("error")->as_string();
  EXPECT_TRUE(v.find("complete")->as_bool());
  EXPECT_FALSE(v.find("budget_exhausted")->as_bool());
  ASSERT_EQ(v.find("paths")->as_number(), 5.0);
  const auto& rows = v.find("paths_detail")->as_array();
  ASSERT_EQ(rows.size(), 5u);
  // An unlimited ladder ends at the tightest rung everywhere, which is
  // exactly the engine's combined bound; match rows up by (vl, dest)
  // because the response is sorted by tightening, not path index.
  std::map<std::pair<std::string, std::string>, double> combined;
  for (std::size_t p = 0; p < cfg.all_paths().size(); ++p) {
    const VlPath& path = cfg.all_paths()[p];
    const VirtualLink& vl = cfg.vl(path.vl);
    combined[{vl.name, cfg.network().node(vl.destinations[path.dest_index]).name}] =
        fresh.combined[p];
  }
  for (const JsonValue& row : rows) {
    const auto key = std::make_pair(row.find("vl")->as_string(),
                                    row.find("dest")->as_string());
    ASSERT_TRUE(combined.count(key) > 0) << key.first << "->" << key.second;
    EXPECT_EQ(row.find("bound_us")->as_number(), combined[key]);
    EXPECT_LE(row.find("bound_us")->as_number(),
              row.find("first_us")->as_number());
  }
}

TEST(ServeService, LadderBudgetExhaustionIsExplicit) {
  Service service;
  add_sample(service);
  // Token budget = path count: only the cheapest rung fits, every path is
  // stranded below the top rung and says so.
  const JsonValue v = parse_json(service.handle_line(
      R"({"id":14,"op":"ladder","ladder":{"max_path_evals":5}})"));
  ASSERT_TRUE(v.find("ok")->as_bool()) << v.find("error")->as_string();
  EXPECT_FALSE(v.find("complete")->as_bool());
  EXPECT_TRUE(v.find("budget_exhausted")->as_bool());
  EXPECT_EQ(v.find("budget_reason")->as_string(),
            "path-evaluation budget spent");
  for (const JsonValue& row : v.find("paths_detail")->as_array()) {
    EXPECT_EQ(row.find("winner")->as_string(), "sfa");
    ASSERT_NE(row.find("message"), nullptr);
    EXPECT_NE(row.find("message")->as_string().find("budget exhausted"),
              std::string::npos);
  }
}

TEST(ServeService, WhatifCarriesTheLadderRider) {
  Service service;
  add_sample(service);
  const JsonValue v = parse_json(service.handle_line(
      R"({"id":15,"op":"whatif","set":[{"vl":"v1","bag_us":1000}],)"
      R"("ladder":{}})"));
  ASSERT_TRUE(v.find("ok")->as_bool()) << v.find("error")->as_string();
  const JsonValue* ladder = v.find("ladder");
  ASSERT_NE(ladder, nullptr);
  EXPECT_TRUE(ladder->find("complete")->as_bool());
  EXPECT_GE(ladder->find("path_evals")->as_number(), 5.0);
}

TEST(ServeService, ShutdownLatches) {
  Service service;
  add_sample(service);
  EXPECT_FALSE(service.shutdown_requested());
  const JsonValue v =
      parse_json(service.handle_line(R"({"id":12,"op":"shutdown"})"));
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_TRUE(service.shutdown_requested());
}

// --- Server --------------------------------------------------------------

TEST(ServeServer, StreamServesRequestsInOrderWithOneWorker) {
  Service service;
  add_sample(service);
  Server server(service, ServerOptions{});
  std::istringstream in(
      "{\"id\":1,\"op\":\"status\"}\n"
      "{\"id\":2,\"op\":\"bounds\",\"limit\":1}\n"
      "{\"id\":3,\"op\":\"status\"}\n");
  std::ostringstream out;
  server.serve_stream(in, out);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<double> ids;
  while (std::getline(lines, line)) {
    ids.push_back(parse_json(line).find("id")->as_number());
  }
  EXPECT_EQ(ids, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(ServeServer, OversizedLineGetsACleanErrorAndServingContinues) {
  Service service;
  add_sample(service);
  ServerOptions options;
  options.max_line_bytes = 64;
  Server server(service, options);
  std::istringstream in("{\"id\":1,\"op\":\"status\",\"config\":\"" +
                        std::string(200, 'x') + "\"}\n" +
                        "{\"id\":2,\"op\":\"status\"}\n");
  std::ostringstream out;
  server.serve_stream(in, out);

  std::istringstream lines(out.str());
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  const JsonValue rejected = parse_json(first);
  EXPECT_FALSE(rejected.find("ok")->as_bool());
  EXPECT_NE(rejected.find("error")->as_string().find("exceeds"),
            std::string::npos);
  EXPECT_TRUE(parse_json(second).find("ok")->as_bool());
}

TEST(ServeServer, OverloadIsAnExplicitResponseNotATail) {
  Service service;
  add_sample(service);
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Server server(service, options);

  // One in flight + one queued; the reader admits far faster than the
  // worker can analyze, so most of these must be rejected explicitly.
  constexpr int kRequests = 16;
  std::string input;
  for (int i = 1; i <= kRequests; ++i) {
    input += "{\"id\":" + std::to_string(i) +
             ",\"op\":\"whatif\",\"set\":[{\"vl\":\"v1\",\"bag_us\":" +
             std::to_string(1000 + i) + "}]}\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  server.serve_stream(in, out);

  std::istringstream lines(out.str());
  std::string line;
  int responses = 0, overloaded = 0, ok = 0;
  while (std::getline(lines, line)) {
    ++responses;
    const JsonValue v = parse_json(line);
    if (v.find("ok")->as_bool()) {
      ++ok;
    } else if (v.find("error")->as_string() == "overloaded") {
      ++overloaded;
    }
  }
  // Every request is answered exactly once: served or explicitly rejected.
  EXPECT_EQ(responses, kRequests);
  EXPECT_EQ(ok + overloaded, kRequests);
  EXPECT_GE(ok, 1);
}

TEST(ServeServer, ConcurrentWorkersAnswerEveryRequest) {
  Service service;
  add_sample(service);
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 64;
  Server server(service, options);

  constexpr int kRequests = 24;
  std::string input;
  for (int i = 1; i <= kRequests; ++i) {
    input += "{\"id\":" + std::to_string(i) +
             ",\"op\":\"whatif\",\"set\":[{\"vl\":\"v" +
             std::to_string(1 + (i % 5)) + "\",\"bag_us\":" +
             std::to_string(1000 << (i % 3)) + "}]}\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  server.serve_stream(in, out);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<bool> seen(kRequests + 1, false);
  while (std::getline(lines, line)) {
    const JsonValue v = parse_json(line);
    const auto id = static_cast<std::size_t>(v.find("id")->as_number());
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, static_cast<std::size_t>(kRequests));
    EXPECT_FALSE(seen[id]) << "duplicate response for id " << id;
    seen[id] = true;
    ASSERT_TRUE(v.find("ok")->as_bool()) << line;
  }
  for (int i = 1; i <= kRequests; ++i) EXPECT_TRUE(seen[i]) << "id " << i;
}

}  // namespace
}  // namespace afdx::serve
