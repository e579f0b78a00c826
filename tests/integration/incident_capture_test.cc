#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "collection/wal_table.h"
#include "fault/fault.h"
#include "rdbms/executor.h"
#include "sql/parser.h"
#include "telemetry/incident.h"
#include "telemetry/log.h"
#include "telemetry/telemetry.h"

/// ISSUE 10 acceptance: kill a collection's WAL with an injected fsync
/// failure and diagnose it THROUGH SQL ALONE — the TELEMETRY$INCIDENTS
/// rows name the poisoning and the quarantine, TELEMETRY$COLLECTIONS'
/// REASON column carries the errno text, TELEMETRY$LOG holds the error
/// records — then verify the on-disk bundle is self-contained (all five
/// pillar sections, the errno and the quarantine reason in its log slice).

namespace fsdm {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool AnyContains(const std::vector<std::string>& rows,
                 const std::string& needle) {
  for (const std::string& row : rows) {
    if (row.find(needle) != std::string::npos) return true;
  }
  return false;
}

class IncidentCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_dir_ = fs::path(::testing::TempDir()) / "fsdm_incident_wal";
    incident_dir_ = fs::path(::testing::TempDir()) / "fsdm_incident_bundles";
    fs::remove_all(wal_dir_);
    fs::remove_all(incident_dir_);
    fault::FaultRegistry::Global().DisarmAll();
    telemetry::EngineLog::Global().Reset();
    telemetry::EngineLog::Global().SetLevel(telemetry::LogLevel::kDebug);
    telemetry::IncidentManager& mgr = telemetry::IncidentManager::Global();
    mgr.Reset();
    mgr.SetDirectory(incident_dir_.string());
    mgr.SetFloodIntervalUs(0);
    mgr.SetDedupWindowUs(0);
  }

  void TearDown() override {
    telemetry::IncidentManager& mgr = telemetry::IncidentManager::Global();
    mgr.Reset();
    mgr.SetDirectory("");
    mgr.SetFloodIntervalUs(100 * 1000);
    mgr.SetDedupWindowUs(5 * 1000 * 1000);
    telemetry::EngineLog::Global().Reset();
    telemetry::EngineLog::Global().SetLevel(telemetry::LogLevelFromEnv());
    fault::FaultRegistry::Global().DisarmAll();
    fs::remove_all(wal_dir_);
    fs::remove_all(incident_dir_);
  }

  std::vector<std::string> Q(const std::string& sql) {
    sql::SqlSession session(&db_);
    auto r = session.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n  -> " << r.status().ToString();
    return r.ok() ? r.MoveValue() : std::vector<std::string>{};
  }

  rdbms::Database db_;
  fs::path wal_dir_;
  fs::path incident_dir_;
};

TEST_F(IncidentCaptureTest, FsyncFailureDiagnosableThroughSqlAlone) {
  collection::CollectionOptions options;
  options.wal_dir = wal_dir_.string();
  options.wal_fsync = wal::FsyncPolicy::kAlways;
  auto coll =
      collection::JsonCollection::Create(&db_, "ORDERS", options).MoveValue();
  ASSERT_TRUE(coll->Insert("{\"n\":1}").ok());

  // Kill the WAL: the next append's fsync fails with EIO. The writer must
  // poison itself (fsyncgate — the kernel may have dropped the dirty
  // pages) and the collection must quarantine.
  {
    fault::ScopedFault guard("wal.fsync",
                             fault::FaultSpec::Errno(EIO));
    auto failed = coll->Insert("{\"n\":2}");
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().message().find("Input/output error"),
              std::string::npos)
        << failed.status().message();
  }
  EXPECT_EQ(coll->health(), collection::CollectionHealth::kQuarantined);
  EXPECT_FALSE(coll->Insert("{\"n\":3}").ok()) << "quarantine must hold";

  // --- Diagnosis through SQL alone -----------------------------------

  // 1. TELEMETRY$INCIDENTS: the poisoning and the quarantine, in order,
  //    with the errno text in their reasons.
  std::vector<std::string> incidents =
      Q("SELECT ID, TYPE, SUBJECT, REASON, BUNDLE_PATH "
        "FROM TELEMETRY$INCIDENTS");
  ASSERT_GE(incidents.size(), 2u);
  EXPECT_TRUE(AnyContains(incidents, "wal-poisoned"));
  EXPECT_TRUE(AnyContains(incidents, "quarantine"));
  EXPECT_TRUE(AnyContains(incidents, "ORDERS"));
  EXPECT_TRUE(AnyContains(incidents, "Input/output error"));

  // 2. TELEMETRY$COLLECTIONS.REASON names the cause next to HEALTH.
  std::vector<std::string> health =
      Q("SELECT NAME, HEALTH, REASON FROM TELEMETRY$COLLECTIONS "
        "WHERE NAME = 'ORDERS'");
  ASSERT_EQ(health.size(), 1u);
  EXPECT_NE(health[0].find("quarantined"), std::string::npos);
  EXPECT_NE(health[0].find("Input/output error"), std::string::npos);

  // 3. TELEMETRY$LOG holds the structured error trail: the WAL fsync
  //    failure (2005), the poisoning (2008), the collection-level append
  //    failure (1010) and the quarantine (1005).
  std::vector<std::string> log =
      Q("SELECT EVENT_ID, COMPONENT, MESSAGE FROM TELEMETRY$LOG "
        "WHERE LEVEL = 'error'");
  EXPECT_TRUE(AnyContains(log, "2005"));
  EXPECT_TRUE(AnyContains(log, "2008"));
  EXPECT_TRUE(AnyContains(log, "1010"));
  EXPECT_TRUE(AnyContains(log, "1005"));
  EXPECT_TRUE(AnyContains(log, "Input/output error"));

  // --- The bundle is a self-contained diagnosis ----------------------
  std::string bundle_path;
  for (const telemetry::Incident& inc :
       telemetry::IncidentManager::Global().Snapshot()) {
    if (inc.type == "quarantine") bundle_path = inc.bundle_path;
  }
  ASSERT_FALSE(bundle_path.empty());
  ASSERT_TRUE(fs::exists(bundle_path));
  const std::string bundle = ReadFile(bundle_path);
  for (const char* section :
       {"\"incident\"", "\"log\"", "\"trace\"", "\"ash\"", "\"metrics\"",
        "\"engine_state\""}) {
    EXPECT_NE(bundle.find(section), std::string::npos) << section;
  }
  // The log slice names the errno; the header names the quarantine
  // reason; the engine_state carries the collection and WAL providers.
  EXPECT_NE(bundle.find("Input/output error"), std::string::npos);
  EXPECT_NE(bundle.find("\"type\":\"quarantine\""), std::string::npos);
  EXPECT_NE(bundle.find("WAL poisoned"), std::string::npos);
  EXPECT_NE(bundle.find("\"collections\":"), std::string::npos);
  EXPECT_NE(bundle.find("\"wal\":"), std::string::npos);
  EXPECT_NE(bundle.find("\"poisoned\":true"), std::string::npos);
  // The WAL provider renders every TELEMETRY$WAL column.
  for (std::string column : collection::WalSchema().columns()) {
    for (char& ch : column) {
      ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    EXPECT_NE(bundle.find("\"" + column + "\":"), std::string::npos) << column;
  }
}

// Healing: RebuildIndex cannot lift a WAL quarantine usefully (the writer
// stays poisoned), but a reopen recovers the durable prefix — and REASON
// keeps explaining what happened even after the collection heals.
TEST_F(IncidentCaptureTest, ReasonSurvivesHealing) {
  collection::CollectionOptions options;
  options.wal_dir = wal_dir_.string();
  options.wal_fsync = wal::FsyncPolicy::kAlways;
  {
    auto coll =
        collection::JsonCollection::Create(&db_, "HEAL", options).MoveValue();
    ASSERT_TRUE(coll->Insert("{\"n\":1}").ok());
    fault::ScopedFault guard("wal.fsync", fault::FaultSpec::Errno(ENOSPC));
    ASSERT_FALSE(coll->Insert("{\"n\":2}").ok());
    EXPECT_EQ(coll->health(), collection::CollectionHealth::kQuarantined);
    coll->Detach();
    ASSERT_TRUE(db_.DropTable("HEAL").ok());
  }
  // Reopen: replay recovers insert 1 (the failed append was compensated),
  // the fresh writer is healthy.
  auto reopened =
      collection::JsonCollection::Create(&db_, "HEAL", options).MoveValue();
  EXPECT_EQ(reopened->health(), collection::CollectionHealth::kHealthy);
  EXPECT_EQ(reopened->document_count(), 1u);
  ASSERT_TRUE(reopened->Insert("{\"n\":3}").ok());
}

}  // namespace
}  // namespace fsdm
