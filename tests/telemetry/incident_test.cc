#include "telemetry/incident.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/log.h"
#include "telemetry/telemetry.h"

namespace fsdm::telemetry {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class IncidentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "fsdm_incidents_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    IncidentManager& mgr = IncidentManager::Global();
    mgr.Reset();
    mgr.SetDirectory(dir_);
    mgr.SetRetention(32);
    mgr.SetRingCapacity(64);
    mgr.SetFloodIntervalUs(0);
    mgr.SetDedupWindowUs(0);
    mgr.SetLogSlice(256);
    EngineLog::Global().Reset();
    EngineLog::Global().SetLevel(LogLevel::kDebug);
  }

  void TearDown() override {
    IncidentManager& mgr = IncidentManager::Global();
    mgr.Reset();
    mgr.SetDirectory("");
    mgr.SetFloodIntervalUs(100 * 1000);
    mgr.SetDedupWindowUs(5 * 1000 * 1000);
    EngineLog::Global().Reset();
    EngineLog::Global().SetLevel(LogLevelFromEnv());
    fs::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(IncidentTest, RaiseCapturesRingEntryAndBundleOnDisk) {
  FSDM_LOG(LogLevel::kError, "test", 9101, "the failure being captured",
           LogNum("errno", 5));
  const uint64_t id = IncidentManager::Global().Raise(
      "unit-test", "orders", "something broke");
  ASSERT_NE(id, 0u);
  std::vector<Incident> ring = IncidentManager::Global().Snapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0].id, id);
  EXPECT_EQ(ring[0].type, "unit-test");
  EXPECT_EQ(ring[0].subject, "orders");
  EXPECT_EQ(ring[0].reason, "something broke");
  EXPECT_GT(ring[0].log_records, 0u);
  ASSERT_FALSE(ring[0].bundle_path.empty());
  ASSERT_TRUE(fs::exists(ring[0].bundle_path));

  // The bundle is self-contained: all five pillar sections present, the
  // header naming the incident, and the pre-raise log record inside the
  // log slice.
  const std::string json = ReadFile(ring[0].bundle_path);
  EXPECT_NE(json.find("\"incident\""), std::string::npos);
  EXPECT_NE(json.find("\"log\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"ash\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"engine_state\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"something broke\""), std::string::npos);
  EXPECT_NE(json.find("the failure being captured"), std::string::npos);
}

TEST_F(IncidentTest, DedupWindowSuppressesIdenticalIncidents) {
  IncidentManager& mgr = IncidentManager::Global();
  mgr.SetDedupWindowUs(60 * 1000 * 1000);
  EXPECT_NE(mgr.Raise("dup-type", "subj", "first"), 0u);
  EXPECT_EQ(mgr.Raise("dup-type", "subj", "again"), 0u);
  // A different subject is a different incident.
  EXPECT_NE(mgr.Raise("dup-type", "other-subj", "first"), 0u);
  EXPECT_EQ(mgr.Snapshot().size(), 2u);
  EXPECT_EQ(mgr.total_raised(), 2u);
  EXPECT_EQ(mgr.total_suppressed(), 1u);
}

TEST_F(IncidentTest, FloodIntervalThrottlesPerType) {
  IncidentManager& mgr = IncidentManager::Global();
  mgr.SetFloodIntervalUs(60 * 1000 * 1000);
  EXPECT_NE(mgr.Raise("flood-type", "a", "r"), 0u);
  // Same type, different subject — dedup does not apply, flood does.
  EXPECT_EQ(mgr.Raise("flood-type", "b", "r"), 0u);
  // A different type has its own clock.
  EXPECT_NE(mgr.Raise("other-type", "a", "r"), 0u);
  EXPECT_EQ(mgr.total_suppressed(), 1u);
}

TEST_F(IncidentTest, RetentionBoundsOnDiskBundles) {
  IncidentManager& mgr = IncidentManager::Global();
  mgr.SetRetention(2);
  ASSERT_NE(mgr.Raise("t1", "s", "r"), 0u);
  ASSERT_NE(mgr.Raise("t2", "s", "r"), 0u);
  ASSERT_NE(mgr.Raise("t3", "s", "r"), 0u);
  size_t files = 0;
  std::string newest;
  for (const auto& e : fs::directory_iterator(dir_)) {
    ++files;
    if (e.path().filename().string() > newest) {
      newest = e.path().filename().string();
    }
  }
  EXPECT_EQ(files, 2u);
  // The newest bundle survived; the oldest was unlinked.
  EXPECT_NE(newest.find("t3"), std::string::npos);
}

TEST_F(IncidentTest, RingCapacityEvictsOldest) {
  IncidentManager& mgr = IncidentManager::Global();
  mgr.SetRingCapacity(2);
  mgr.SetDirectory("");  // ring-only; disk is covered elsewhere
  ASSERT_NE(mgr.Raise("r1", "s", "r"), 0u);
  ASSERT_NE(mgr.Raise("r2", "s", "r"), 0u);
  ASSERT_NE(mgr.Raise("r3", "s", "r"), 0u);
  std::vector<Incident> ring = mgr.Snapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].type, "r2");
  EXPECT_EQ(ring[1].type, "r3");
  // Shrinking keeps the newest incident and does not reset the total.
  const uint64_t raised = mgr.total_raised();
  mgr.SetRingCapacity(1);
  ring = mgr.Snapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0].type, "r3");
  EXPECT_EQ(mgr.total_raised(), raised);
}

TEST_F(IncidentTest, DisabledDirectorySkipsDiskCapture) {
  IncidentManager& mgr = IncidentManager::Global();
  mgr.SetDirectory("");
  const uint64_t id = mgr.Raise("no-disk", "s", "r");
  ASSERT_NE(id, 0u);
  std::vector<Incident> ring = mgr.Snapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring[0].bundle_path.empty());
}

TEST_F(IncidentTest, StateProvidersRenderUnderEngineState) {
  IncidentManager& mgr = IncidentManager::Global();
  mgr.RegisterStateProvider("unit_state",
                            [] { return std::string("{\"answer\":42}"); });
  const uint64_t id = mgr.Raise("provider-test", "s", "r");
  ASSERT_NE(id, 0u);
  std::vector<Incident> ring = mgr.Snapshot();
  ASSERT_EQ(ring.size(), 1u);
  const std::string json = ReadFile(ring[0].bundle_path);
  const size_t engine_state = json.find("\"engine_state\"");
  const size_t provider = json.find("\"unit_state\":{\"answer\":42}");
  ASSERT_NE(engine_state, std::string::npos);
  ASSERT_NE(provider, std::string::npos);
  EXPECT_GT(provider, engine_state);
}

TEST_F(IncidentTest, RaiseEmitsItsOwnLogRecord) {
  EngineLog::Global().Reset();
  ASSERT_NE(IncidentManager::Global().Raise("logged", "s", "why"), 0u);
  bool found = false;
  for (const LogRecord& r : EngineLog::Global().Snapshot()) {
    if (r.event_id == 3301) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(IncidentTest, SuppressionCountsIntoMetrics) {
  IncidentManager& mgr = IncidentManager::Global();
  mgr.SetDedupWindowUs(60 * 1000 * 1000);
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t raised_before =
      registry.GetCounter("fsdm_incidents_total")->value();
  const uint64_t suppressed_before =
      registry.GetCounter("fsdm_incidents_suppressed_total")->value();
  mgr.Raise("metrics-type", "s", "r");
  mgr.Raise("metrics-type", "s", "r");
  EXPECT_EQ(registry.GetCounter("fsdm_incidents_total")->value(),
            raised_before + 1);
  EXPECT_EQ(registry.GetCounter("fsdm_incidents_suppressed_total")->value(),
            suppressed_before + 1);
}

}  // namespace
}  // namespace fsdm::telemetry
