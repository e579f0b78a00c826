#include "telemetry/log.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"

namespace fsdm::telemetry {
namespace {

class EngineLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineLog& log = EngineLog::Global();
    log.Reset();
    log.SetLevel(LogLevel::kDebug);
    log.SetRateLimit(64, 32);
  }

  void TearDown() override {
    EngineLog& log = EngineLog::Global();
    log.Reset();
    log.SetLevel(LogLevelFromEnv());
    log.SetRateLimit(64, 32);
  }
};

TEST_F(EngineLogTest, EmitLandsInSnapshotWithArgs) {
  FSDM_LOG(LogLevel::kWarn, "test", 9001, "something happened",
           LogNum("count", 3), LogText("name", "orders"));
  std::vector<LogRecord> records = EngineLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const LogRecord& r = records[0];
  EXPECT_EQ(r.level, LogLevel::kWarn);
  EXPECT_STREQ(r.component, "test");
  EXPECT_EQ(r.event_id, 9001);
  EXPECT_STREQ(r.message, "something happened");
  ASSERT_TRUE(r.has_args());
  EXPECT_NE(r.ArgsJson().find("\"count\":3"), std::string::npos);
  EXPECT_NE(r.ArgsJson().find("\"name\":\"orders\""), std::string::npos);
  EXPECT_GT(r.ts_us, 0u);
  EXPECT_GT(r.tid, 0u);
}

TEST_F(EngineLogTest, LevelGateSuppressesBelowThreshold) {
  EngineLog& log = EngineLog::Global();
  log.SetLevel(LogLevel::kWarn);
  EXPECT_FALSE(log.ShouldLog(LogLevel::kDebug));
  EXPECT_FALSE(log.ShouldLog(LogLevel::kInfo));
  EXPECT_TRUE(log.ShouldLog(LogLevel::kWarn));
  EXPECT_TRUE(log.ShouldLog(LogLevel::kError));
  FSDM_LOG(LogLevel::kInfo, "test", 9002, "suppressed");
  FSDM_LOG(LogLevel::kError, "test", 9003, "admitted");
  std::vector<LogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event_id, 9003);
  // kOff suppresses everything, including error.
  log.SetLevel(LogLevel::kOff);
  EXPECT_FALSE(log.ShouldLog(LogLevel::kError));
}

TEST_F(EngineLogTest, MessageOnlyEvaluatedWhenAdmitted) {
  EngineLog::Global().SetLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return std::string("built");
  };
  FSDM_LOG(LogLevel::kDebug, "test", 9004, expensive());
  EXPECT_EQ(evaluations, 0);
  FSDM_LOG(LogLevel::kError, "test", 9005, expensive());
  EXPECT_EQ(evaluations, 1);
}

TEST_F(EngineLogTest, RingWrapKeepsNewestAndCountsDropped) {
  EngineLog& log = EngineLog::Global();
  // New capacity applies to rings created afterwards — emit from a fresh
  // thread so its ring is built small.
  log.SetRingCapacity(4);
  std::thread emitter([] {
    for (int i = 0; i < 10; ++i) {
      FSDM_LOG(LogLevel::kInfo, "test", 9006,
               "record " + std::to_string(i), LogNum("i", i));
    }
  });
  emitter.join();
  log.SetRingCapacity(4096);
  std::vector<LogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Oldest first; the six earliest were overwritten.
  EXPECT_STREQ(records.front().message, "record 6");
  EXPECT_STREQ(records.back().message, "record 9");
  EXPECT_EQ(log.total_records(), 10u);
  EXPECT_EQ(log.TotalDropped(), 6u);
}

TEST_F(EngineLogTest, SnapshotLastTruncatesFromTheFront) {
  for (int i = 0; i < 5; ++i) {
    FSDM_LOG(LogLevel::kInfo, "test", 9007, "r" + std::to_string(i));
  }
  std::vector<LogRecord> last = EngineLog::Global().SnapshotLast(2);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_STREQ(last[0].message, "r3");
  EXPECT_STREQ(last[1].message, "r4");
  EXPECT_EQ(EngineLog::Global().SnapshotLast(100).size(), 5u);
}

TEST_F(EngineLogTest, PerEventRateLimitDropsTheFlood) {
  EngineLog& log = EngineLog::Global();
  log.SetRateLimit(3, 0);  // 3 tokens, no refill
  for (int i = 0; i < 10; ++i) {
    FSDM_LOG(LogLevel::kWarn, "test", 9008, "flooding");
  }
  // A different event id has its own bucket.
  FSDM_LOG(LogLevel::kWarn, "test", 9009, "unrelated");
  std::vector<LogRecord> records = log.Snapshot();
  size_t flood = 0, other = 0;
  for (const LogRecord& r : records) {
    if (r.event_id == 9008) ++flood;
    if (r.event_id == 9009) ++other;
  }
  EXPECT_EQ(flood, 3u);
  EXPECT_EQ(other, 1u);
  EXPECT_EQ(log.rate_limited(), 7u);
  EXPECT_EQ(log.TotalDropped(), 7u);
}

TEST_F(EngineLogTest, LongMessageTruncatesAtFixedWidth) {
  std::string longmsg(500, 'x');
  FSDM_LOG(LogLevel::kInfo, "test", 9010, longmsg);
  std::vector<LogRecord> records = EngineLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::string(records[0].message).size(), LogRecord::kMaxMessage);
}

TEST_F(EngineLogTest, SnapshotMergesThreadsInTimestampOrder) {
  FSDM_LOG(LogLevel::kInfo, "test", 9013, "main before");
  std::thread other([] {
    FSDM_LOG(LogLevel::kInfo, "test", 9014, "worker");
  });
  other.join();
  FSDM_LOG(LogLevel::kInfo, "test", 9015, "main after");
  std::vector<LogRecord> records = EngineLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 3u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].ts_us, records[i - 1].ts_us);
  }
  // Two distinct tids took part.
  EXPECT_NE(records[0].tid == records[1].tid && records[1].tid == records[2].tid,
            true);
}

TEST_F(EngineLogTest, LevelNamesAndEnvParsing) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "debug");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "info");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "error");
  EXPECT_STREQ(LogLevelName(LogLevel::kOff), "off");
  ::setenv("FSDM_LOG_LEVEL", "debug", 1);
  EXPECT_EQ(LogLevelFromEnv(), LogLevel::kDebug);
  ::setenv("FSDM_LOG_LEVEL", "error", 1);
  EXPECT_EQ(LogLevelFromEnv(), LogLevel::kError);
  ::setenv("FSDM_LOG_LEVEL", "off", 1);
  EXPECT_EQ(LogLevelFromEnv(), LogLevel::kOff);
  ::setenv("FSDM_LOG_LEVEL", "bogus", 1);
  EXPECT_EQ(LogLevelFromEnv(LogLevel::kWarn), LogLevel::kWarn);
  ::unsetenv("FSDM_LOG_LEVEL");
  EXPECT_EQ(LogLevelFromEnv(), LogLevel::kInfo);
}

TEST_F(EngineLogTest, CountersTrackEmits) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t before =
      registry.GetCounter("fsdm_log_records_total")->value();
  FSDM_LOG(LogLevel::kInfo, "test", 9016, "counted");
  EXPECT_EQ(registry.GetCounter("fsdm_log_records_total")->value(),
            before + 1);
}

}  // namespace
}  // namespace fsdm::telemetry
