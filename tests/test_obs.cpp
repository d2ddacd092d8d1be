// Tests for the observability layer: scoped-span tracer (enable/disable
// semantics, multi-thread recording without loss, Chrome-trace export),
// counter/histogram registry, the streaming JSON writer behind BENCH_*.json,
// and the tracer overhead self-check.
//
// The tracer and registry are process-wide singletons shared by every test
// in this binary: each test disables/clears the tracer on entry and uses
// test-unique metric names.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_json.hpp"
#include "obs/counters.hpp"

namespace afdx::obs {
namespace {

/// Resets the tracer to a known state (disabled, empty buffers).
void reset_tracer() {
  Tracer::instance().disable();
  Tracer::instance().clear();
}

TEST(Tracer, DisabledRecordsNothing) {
  reset_tracer();
  ASSERT_FALSE(tracing_enabled());
  {
    AFDX_TRACE_SPAN("test.disabled", "test");
  }
  EXPECT_EQ(Tracer::instance().span_count(), 0u);
}

TEST(Tracer, EnabledRecordsCompletedSpans) {
  reset_tracer();
  Tracer::instance().enable();
  {
    AFDX_TRACE_SPAN("test.outer", "test");
    AFDX_TRACE_SPAN("test.inner", "test");
  }
  Tracer::instance().disable();

  const std::vector<SpanRecord> spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.start_us, 0.0);
    EXPECT_GE(s.duration_us, 0.0);
    EXPECT_STREQ(s.category, "test");
  }
  // snapshot() orders by start time: outer opened before inner.
  EXPECT_STREQ(spans[0].name, "test.outer");
  EXPECT_STREQ(spans[1].name, "test.inner");
  reset_tracer();
}

TEST(Tracer, SpanArmedAtConstructionSurvivesMidScopeDisable) {
  // A span that starts while tracing is on must complete (armed_ is
  // latched), even if tracing is switched off before the scope closes.
  reset_tracer();
  Tracer::instance().enable();
  {
    AFDX_TRACE_SPAN("test.latched", "test");
    Tracer::instance().disable();
  }
  EXPECT_EQ(Tracer::instance().span_count(), 1u);
  reset_tracer();
}

TEST(Tracer, ManyThreadsLoseNoSpans) {
  reset_tracer();
  Tracer::instance().enable();

  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 2000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kSpansPerThread; ++i) {
        AFDX_TRACE_SPAN("test.worker", "test");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tracer::instance().disable();

  // Worker buffers must survive thread exit; every span is present.
  EXPECT_EQ(Tracer::instance().span_count(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);

  const std::vector<SpanRecord> spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads) * kSpansPerThread);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_us, spans[i].start_us) << "not sorted at " << i;
  }
  reset_tracer();
}

TEST(Tracer, ChromeTraceExportIsWellFormed) {
  reset_tracer();
  Tracer::instance().enable();
  {
    AFDX_TRACE_SPAN("test.export", "test");
  }
  Tracer::instance().disable();

  std::ostringstream os;
  Tracer::instance().write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Balanced braces/brackets is a cheap proxy for well-formedness.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  reset_tracer();
}

TEST(Tracer, ClearDropsSpansButKeepsRecording) {
  reset_tracer();
  Tracer::instance().enable();
  {
    AFDX_TRACE_SPAN("test.before", "test");
  }
  EXPECT_EQ(Tracer::instance().span_count(), 1u);
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().span_count(), 0u);
  {
    AFDX_TRACE_SPAN("test.after", "test");
  }
  EXPECT_EQ(Tracer::instance().span_count(), 1u);
  reset_tracer();
}

TEST(Counters, AddRecordMaxAndReset) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.record_max(7);  // below current value: no change
  EXPECT_EQ(c.value(), 42u);
  c.record_max(100);
  EXPECT_EQ(c.value(), 100u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counters, HistogramTracksExactStatsAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);

  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000ull}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);

  // Power-of-two buckets: 0 -> bucket 0, 1 -> bucket 1, 2..3 -> bucket 2,
  // 1000 (2^9 < 1000 < 2^10) -> bucket 10.
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Counters, RegistryReturnsStableReferences) {
  Counter& a = registry().counter("test_obs.stable");
  Counter& b = registry().counter("test_obs.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Creating more metrics must not move existing nodes.
  for (int i = 0; i < 100; ++i) {
    registry().counter("test_obs.filler." + std::to_string(i));
  }
  EXPECT_EQ(&registry().counter("test_obs.stable"), &a);
  EXPECT_EQ(a.value(), 3u);

  Histogram& h = registry().histogram("test_obs.stable_hist");
  h.observe(5);
  EXPECT_EQ(&registry().histogram("test_obs.stable_hist"), &h);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Counters, SnapshotsAreSortedAndCarryValues) {
  registry().counter("test_obs.snap.b").add(2);
  registry().counter("test_obs.snap.a").add(1);
  registry().histogram("test_obs.snap.h").observe(9);

  const std::vector<CounterSnapshot> cs = registry().counters();
  for (std::size_t i = 1; i < cs.size(); ++i) {
    EXPECT_LT(cs[i - 1].name, cs[i].name);
  }
  bool saw_a = false, saw_b = false;
  for (const CounterSnapshot& c : cs) {
    if (c.name == "test_obs.snap.a") {
      saw_a = true;
      EXPECT_GE(c.value, 1u);
    }
    if (c.name == "test_obs.snap.b") {
      saw_b = true;
      EXPECT_GE(c.value, 2u);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  bool saw_h = false;
  for (const HistogramSnapshot& h : registry().histograms()) {
    if (h.name == "test_obs.snap.h") {
      saw_h = true;
      EXPECT_GE(h.count, 1u);
      EXPECT_EQ(h.max, 9u);
    }
  }
  EXPECT_TRUE(saw_h);

  std::ostringstream os;
  registry().print(os);
  EXPECT_NE(os.str().find("test_obs.snap.a"), std::string::npos);
}

TEST(Counters, ConcurrentAddsNeverLoseIncrements) {
  Counter& c = registry().counter("test_obs.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Counters, ScopeForwardsEveryUpdateToItsParent) {
  Registry parent;
  Registry child(&parent);
  Registry grandchild(&child);
  child.counter("x").add(3);
  child.counter("peak").record_max(7);
  child.counter("peak").record_max(4);
  child.histogram("h").observe(5);
  child.histogram("h").observe(1000);

  EXPECT_EQ(parent.counter("x").value(), 3u);
  EXPECT_EQ(parent.counter("peak").value(), 7u);
  const Histogram& h = parent.histogram("h");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 1005u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(10), 1u);

  // Forwarding chains through every level and never flows downwards.
  grandchild.counter("x").add(2);
  parent.counter("x").add(10);
  EXPECT_EQ(grandchild.counter("x").value(), 2u);
  EXPECT_EQ(child.counter("x").value(), 5u);
  EXPECT_EQ(parent.counter("x").value(), 15u);

  // A scope of the process root rolls up into the process totals.
  Counter& root = registry().counter("test_obs.scope.rollup");
  const std::uint64_t before = root.value();
  Registry scope(&registry());
  scope.counter("test_obs.scope.rollup").add(4);
  EXPECT_EQ(root.value(), before + 4);
}

TEST(Counters, ParentResetLeavesScopeIntact) {
  Registry parent;
  Registry child(&parent);
  child.counter("c").add(5);
  child.histogram("h").observe(9);
  parent.reset();
  EXPECT_EQ(parent.counter("c").value(), 0u);
  EXPECT_EQ(parent.histogram("h").count(), 0u);
  EXPECT_EQ(child.counter("c").value(), 5u);
  EXPECT_EQ(child.histogram("h").count(), 1u);
  EXPECT_EQ(child.histogram("h").max(), 9u);

  // Updates after the reset keep forwarding.
  child.counter("c").add(1);
  EXPECT_EQ(parent.counter("c").value(), 1u);
  EXPECT_EQ(child.counter("c").value(), 6u);
}

TEST(Counters, ConcurrentScopeAddsLoseNoIncrement) {
  Registry parent;
  Registry child(&parent);
  Counter& c = child.counter("concurrent");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  const auto want = static_cast<std::uint64_t>(kThreads) * kAdds;
  EXPECT_EQ(c.value(), want);
  EXPECT_EQ(parent.counter("concurrent").value(), want);
}

TEST(JsonWriter, EmitsValidNestedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("name", "afdx")
      .field("count", 42)
      .field("negative", -7)
      .field("big", std::uint64_t{18446744073709551615ull})
      .field("pi", 3.5)
      .field("flag", true);
  w.key("list").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nested").begin_object();
  w.field("inner", "x");
  w.end_object();
  w.key("nothing").null();
  w.end_object();

  EXPECT_EQ(os.str(),
            "{\"name\":\"afdx\",\"count\":42,\"negative\":-7,"
            "\"big\":18446744073709551615,\"pi\":3.5,\"flag\":true,"
            "\"list\":[1,2,3],\"nested\":{\"inner\":\"x\"},"
            "\"nothing\":null}");
}

TEST(JsonWriter, EscapesStringsAndRejectsNonFiniteNumbers) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("quote", "a\"b")
      .field("backslash", "a\\b")
      .field("newline", "a\nb")
      .field("control", std::string("a\x01") + "b")
      .field("nan", std::numeric_limits<double>::quiet_NaN())
      .field("inf", std::numeric_limits<double>::infinity());
  w.end_object();

  EXPECT_EQ(os.str(),
            "{\"quote\":\"a\\\"b\",\"backslash\":\"a\\\\b\","
            "\"newline\":\"a\\nb\",\"control\":\"a\\u0001b\","
            "\"nan\":null,\"inf\":null}");
}

TEST(JsonWriter, DoublesRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("v", 0.1);
  w.end_object();
  const std::string json = os.str();
  const std::size_t colon = json.find(':');
  ASSERT_NE(colon, std::string::npos);
  const double parsed = std::stod(json.substr(colon + 1));
  EXPECT_EQ(parsed, 0.1);  // max_digits10 formatting round-trips exactly
}

TEST(Overhead, SelfCheckMeasuresAndRestoresState) {
  reset_tracer();
  const OverheadCheck check = measure_span_overhead(20000);
  EXPECT_EQ(check.iterations, 20000u);
  EXPECT_GE(check.disabled_ns_per_span, 0.0);
  EXPECT_GE(check.enabled_ns_per_span, 0.0);
  // The calibration must not leave the tracer enabled or its spans behind.
  EXPECT_FALSE(tracing_enabled());
  EXPECT_EQ(Tracer::instance().span_count(), 0u);

  // Disabled spans are a single relaxed load: sanity-bound the cost. Keep
  // the bound loose (shared CI machines), but a disabled span taking >1us
  // would mean the fast path regressed to doing real work.
  EXPECT_LT(check.disabled_ns_per_span, 1000.0);
}

TEST(Overhead, SelfCheckPreservesEnabledTracer) {
  reset_tracer();
  Tracer::instance().enable();
  {
    AFDX_TRACE_SPAN("test.user_span", "test");
  }
  const std::size_t user_spans = Tracer::instance().span_count();
  ASSERT_EQ(user_spans, 1u);
  (void)measure_span_overhead(1000);
  EXPECT_TRUE(tracing_enabled());
  // Buffers were non-empty, so the user's spans must survive.
  EXPECT_GE(Tracer::instance().span_count(), user_spans);
  reset_tracer();
}

}  // namespace
}  // namespace afdx::obs
