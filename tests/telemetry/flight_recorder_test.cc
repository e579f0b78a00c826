#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "json/parser.h"
#include "telemetry/slow_query.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_event.h"

namespace fsdm::telemetry {
namespace {

TraceEvent Instant(uint64_t ts, const char* name) {
  TraceEvent e;
  e.ts_us = ts;
  e.tid = 1;
  e.phase = TracePhase::kInstant;
  e.category = "test";
  e.name = name;
  return e;
}

// --- ThreadRing wrap-around -------------------------------------------------

TEST(ThreadRingTest, WrapDropsOldestNeverTorn) {
  ThreadRing ring(1, 8);
  const char* names[20];
  std::vector<std::string> storage;
  storage.reserve(20);
  for (int i = 0; i < 20; ++i) storage.push_back("e" + std::to_string(i));
  for (int i = 0; i < 20; ++i) names[i] = storage[i].c_str();

  for (int i = 0; i < 20; ++i) ring.Push(Instant(100 + i, names[i]));

  EXPECT_EQ(ring.total_pushed(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);

  std::vector<TraceEvent> live = ring.Snapshot();
  ASSERT_EQ(live.size(), 8u);
  // Oldest first, and exactly the last 8 pushed — never a half-overwritten
  // slot: each surviving event's ts and name agree.
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].ts_us, 100u + 12 + i);
    EXPECT_STREQ(live[i].name, names[12 + i]);
  }
}

TEST(ThreadRingTest, BelowCapacityKeepsEverything) {
  ThreadRing ring(2, 8);
  for (int i = 0; i < 5; ++i) ring.Push(Instant(10 + i, "x"));
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.Snapshot().size(), 5u);
  ring.Clear();
  EXPECT_EQ(ring.Snapshot().size(), 0u);
}

// --- Scoped spans through the armed recorder --------------------------------

class ArmedRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Global().Reset();
    FlightRecorder::Global().Arm();
  }
  void TearDown() override {
    FlightRecorder::Global().Disarm();
    FlightRecorder::Global().Reset();
  }
};

TEST_F(ArmedRecorderTest, SpanEmitsBalancedBeginEndWithArgs) {
  {
    FSDM_TRACE_SPAN(span, "test", "outer");
    span.AddNumberArg("bytes", 42);
    span.AddTextArg("mode", "unit-test");
    FSDM_TRACE_INSTANT("test", "tick");
  }
  std::vector<TraceEvent> events = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, TracePhase::kSpanBegin);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[1].phase, TracePhase::kInstant);
  EXPECT_EQ(events[2].phase, TracePhase::kSpanEnd);
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_GE(events[2].ts_us, events[0].ts_us);
  ASSERT_TRUE(events[2].has_args());
  EXPECT_STREQ(events[2].args[0].key, "bytes");
  EXPECT_EQ(events[2].args[0].number, 42.0);
  EXPECT_STREQ(events[2].args[1].text, "unit-test");
}

TEST_F(ArmedRecorderTest, DisarmedMacrosEmitNothing) {
  FlightRecorder::Global().Disarm();
  {
    FSDM_TRACE_SPAN(span, "test", "ghost");
    FSDM_TRACE_INSTANT("test", "ghost.tick");
    FSDM_TRACE_COUNTER("test", "ghost.counter", 7);
  }
  EXPECT_TRUE(FlightRecorder::Global().Snapshot().empty());
}

TEST_F(ArmedRecorderTest, TextArgsTruncateAtInlineCapacity) {
  const std::string long_text(100, 'z');
  {
    FSDM_TRACE_SPAN(span, "test", "trunc");
    span.AddTextArg("t", long_text);
  }
  std::vector<TraceEvent> events = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_TRUE(events[1].has_args());
  EXPECT_EQ(std::string(events[1].args[0].text),
            std::string(TraceArg::kMaxText, 'z'));
}

// --- Chrome trace JSON round-trip -------------------------------------------

// Walks a parsed {"traceEvents": [...]} document checking per-thread B/E
// balance and non-negative durations, and that it holds `want_events`.
void CheckChromeDoc(const json::JsonNode& doc, size_t want_events) {
  const json::JsonNode* events = doc.GetField("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_EQ(events->array_size(), want_events);
  std::map<int64_t, int> depth;
  for (size_t i = 0; i < events->array_size(); ++i) {
    const json::JsonNode* e = events->element(i);
    ASSERT_TRUE(e->is_object()) << "event " << i;
    const json::JsonNode* ph = e->GetField("ph");
    const json::JsonNode* tid = e->GetField("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(e->GetField("ts"), nullptr);
    ASSERT_NE(e->GetField("cat"), nullptr);
    ASSERT_NE(e->GetField("name"), nullptr);
    const std::string phase = ph->scalar().AsString();
    const int64_t t = tid->scalar().AsInt64();
    if (phase == "B") {
      ++depth[t];
    } else if (phase == "E") {
      --depth[t];
      EXPECT_GE(depth[t], 0) << "unbalanced E at event " << i;
      const json::JsonNode* args = e->GetField("args");
      if (args != nullptr && args->GetField("dur_us") != nullptr) {
        EXPECT_GE(args->GetField("dur_us")->scalar().NumericAsDouble(), 0.0);
      }
    }
  }
  for (const auto& [t, d] : depth) {
    EXPECT_EQ(d, 0) << "thread " << t << " left " << d << " spans open";
  }
}

TEST_F(ArmedRecorderTest, ChromeTraceRoundTripsThroughJsonParser) {
  {
    FSDM_TRACE_SPAN(outer, "test", "outer");
    outer.AddNumberArg("n", 1);
    {
      FSDM_TRACE_SPAN(inner, "test", "inner");
      FSDM_TRACE_INSTANT_TEXT("test", "mark", "why", "nested");
    }
    FSDM_TRACE_COUNTER("test", "gauge", 3.5);
  }
  const std::string text = FlightRecorder::Global().ChromeTraceJson();
  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  CheckChromeDoc(*parsed.value(), 6);
}

TEST_F(ArmedRecorderTest, ChromeTraceRepairsUnclosedAndOrphanSpans) {
  ThreadRing* ring = FlightRecorder::Global().RingForThisThread();
  // An orphan end (its begin was overwritten by wrap-around) followed by
  // two begins that never close (snapshot taken mid-span).
  FlightRecorder::Emit(ring, TracePhase::kSpanEnd, "test", "orphan", 5);
  FlightRecorder::Emit(ring, TracePhase::kSpanBegin, "test", "open-a");
  FlightRecorder::Emit(ring, TracePhase::kSpanBegin, "test", "open-b");

  const std::string text = FlightRecorder::Global().ChromeTraceJson();
  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  // Orphan E dropped; both unclosed B's got synthetic E's: 2 B + 2 E.
  CheckChromeDoc(*parsed.value(), 4);
}

// --- Slow-query log ---------------------------------------------------------

SlowQueryRecord MakeRecord(uint64_t ts, const std::string& q) {
  SlowQueryRecord rec;
  rec.ts_us = ts;
  rec.query = q;
  rec.access_path = "full-scan";
  rec.elapsed_us = 12345;
  rec.rows = 7;
  rec.trace_text = "EXPLAIN ANALYZE\n  Scan (T)";
  rec.events_json = "[]";
  return rec;
}

TEST(SlowQueryLogTest, CapacityEvictsOldestButTotalKeepsCounting) {
  SlowQueryLog& log = SlowQueryLog::Global();
  log.Clear();
  log.SetCapacity(3);
  const uint64_t base_total = log.total_captured();

  for (int i = 0; i < 5; ++i) {
    log.Record(MakeRecord(1000 + i, "q" + std::to_string(i)));
  }
  std::vector<SlowQueryRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].query, "q2");  // q0, q1 evicted
  EXPECT_EQ(snap[2].query, "q4");
  EXPECT_EQ(log.total_captured(), base_total + 5);
  // Shrinking keeps the newest records and does not reset the total.
  log.SetCapacity(2);
  snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].query, "q3");
  EXPECT_EQ(snap[1].query, "q4");
  EXPECT_EQ(log.total_captured(), base_total + 5);

  log.Clear();
  log.SetCapacity(32);
}

}  // namespace
}  // namespace fsdm::telemetry
