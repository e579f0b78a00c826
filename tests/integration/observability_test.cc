#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection.h"
#include "collection/collections_table.h"
#include "collection/router.h"
#include "json/parser.h"
#include "rdbms/executor.h"
#include "sql/parser.h"
#include "stats/operator_costs.h"
#include "telemetry/activity.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/sampler.h"
#include "telemetry/slow_query.h"
#include "telemetry/telemetry.h"
#include "telemetry/workload_repo.h"

/// End-to-end checks for the ISSUE 4 flight recorder: one collection
/// insert must show up in the exported chrome trace as a nested span tree,
/// and the TELEMETRY$ virtual relations must be queryable through the SQL
/// mini-engine.

namespace fsdm {
namespace {

using telemetry::FlightRecorder;
using telemetry::SlowQueryLog;

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Global().Reset();
    FlightRecorder::Global().Arm();
    SlowQueryLog::Global().Clear();
  }
  void TearDown() override {
    FlightRecorder::Global().Disarm();
    FlightRecorder::Global().Reset();
    SlowQueryLog::Global().Clear();
    SlowQueryLog::Global().SetThresholdUs(10000);
  }

  std::vector<std::string> Q(rdbms::Database* db, const std::string& sql) {
    sql::SqlSession session(db);
    auto r = session.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n  -> " << r.status().ToString();
    return r.ok() ? r.MoveValue() : std::vector<std::string>{};
  }

  rdbms::Database db_;
};

// The acceptance criterion: a single JsonCollection insert appears in the
// exported chrome trace as one nested span tree — collection.insert
// enclosing the IS JSON check, the index observer fan-out and the
// DataGuide persist — verified by walking the exported JSON.
TEST_F(ObservabilityTest, SingleInsertExportsNestedSpanTree) {
  auto coll = collection::JsonCollection::Create(&db_, "OBS").MoveValue();
  FlightRecorder::Global().Reset();  // drop the Create() noise

  ASSERT_TRUE(
      coll->Insert(Value::Int64(1), "{\"a\":1,\"b\":{\"c\":\"x\"}}").ok());

  const std::string path =
      ::testing::TempDir() + "/fsdm_observability_trace.json";
  ASSERT_TRUE(FlightRecorder::Global().DumpChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::remove(path.c_str());

  const json::JsonNode* events = parsed.value()->GetField("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Walk the event list tracking span depth; collect the names of spans
  // opened strictly inside the collection.insert window.
  int depth = 0;
  int insert_depth = -1;
  bool saw_insert = false;
  bool insert_closed = false;
  std::vector<std::string> nested;
  for (size_t i = 0; i < events->array_size(); ++i) {
    const json::JsonNode* e = events->element(i);
    const std::string ph = e->GetField("ph")->scalar().AsString();
    const std::string name = e->GetField("name")->scalar().AsString();
    if (ph == "B") {
      if (insert_depth >= 0 && !insert_closed) nested.push_back(name);
      ++depth;
      if (name == "collection.insert" && insert_depth < 0) {
        insert_depth = depth;
        saw_insert = true;
      }
    } else if (ph == "E") {
      --depth;
      ASSERT_GE(depth, 0) << "unbalanced trace at event " << i;
      if (insert_depth >= 0 && depth < insert_depth) insert_closed = true;
    }
  }
  EXPECT_EQ(depth, 0) << "trace left spans open";
  ASSERT_TRUE(saw_insert) << buf.str();
  ASSERT_TRUE(insert_closed);

  auto contains = [&](const std::string& want) {
    for (const std::string& n : nested) {
      if (n == want) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("isjson.check")) << buf.str();
  EXPECT_TRUE(contains("index.insert")) << buf.str();
  EXPECT_TRUE(contains("dg.persist")) << buf.str();
  EXPECT_TRUE(contains("observer.insert")) << buf.str();
}

TEST_F(ObservabilityTest, EventsRelationQueryableFromSql) {
  auto coll = collection::JsonCollection::Create(&db_, "OBS").MoveValue();
  ASSERT_TRUE(coll->Insert(Value::Int64(1), "{\"a\":1}").ok());

  std::vector<std::string> rows =
      Q(&db_, "SELECT CATEGORY, NAME, PHASE FROM TELEMETRY$EVENTS "
              "WHERE NAME = 'collection.insert' AND PHASE = 'E'");
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].substr(0, 29), "collection|collection.insert|");

  // DUR_US is populated on span-end rows and non-negative.
  rows = Q(&db_, "SELECT DUR_US FROM TELEMETRY$EVENTS "
                 "WHERE NAME = 'collection.insert' AND PHASE = 'E'");
  ASSERT_FALSE(rows.empty());
  EXPECT_GE(std::stod(rows[0]), 0.0);
}

TEST_F(ObservabilityTest, SlowQueryCapturedAndQueryableFromSql) {
  SlowQueryLog::Global().SetThresholdUs(0);  // capture everything
  auto coll = collection::JsonCollection::Create(&db_, "OBS").MoveValue();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(coll->Insert("{\"num\":" + std::to_string(i) + "}").ok());
  }

  auto routed = collection::RoutePredicates(
                    *coll, {collection::PathPredicate::Compare(
                               "$.num", rdbms::CompareOp::kGt,
                               Value::Int64(-1))})
                    .MoveValue();
  auto rows = rdbms::Collect(routed.plan.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().size(), 50u);

  ASSERT_GE(SlowQueryLog::Global().total_captured(), 1u);
  std::vector<telemetry::SlowQueryRecord> snap =
      SlowQueryLog::Global().Snapshot();
  ASSERT_FALSE(snap.empty());
  const telemetry::SlowQueryRecord& rec = snap.back();
  EXPECT_FALSE(rec.access_path.empty());
  EXPECT_EQ(rec.rows, 50u);
  // The captured text is the router candidate table plus the executed
  // span tree with measured rows.
  EXPECT_NE(rec.trace_text.find("access path:"), std::string::npos)
      << rec.trace_text;
  EXPECT_NE(rec.trace_text.find("plan:"), std::string::npos) << rec.trace_text;
  EXPECT_NE(rec.trace_text.find("rows_out=50"), std::string::npos)
      << rec.trace_text;
  // The flight-recorder slice is valid JSON (an event array).
  auto slice = json::Parse(rec.events_json);
  ASSERT_TRUE(slice.ok()) << rec.events_json;
  EXPECT_TRUE(slice.value()->is_array());
  EXPECT_EQ(rec.event_count, slice.value()->array_size());

  std::vector<std::string> sql_rows =
      Q(&db_, "SELECT ACCESS_PATH, ROWS FROM TELEMETRY$SLOW_QUERIES");
  ASSERT_FALSE(sql_rows.empty());
}

// ISSUE 5 acceptance: after a DML + query workload the statistics
// relations answer through SqlSession with nonzero values, and the slow
// query log carries the router's cardinality estimate.
TEST_F(ObservabilityTest, PathStatsRelationQueryableWithNonzeroValues) {
  auto coll = collection::JsonCollection::Create(&db_, "OBSP").MoveValue();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(coll->Insert("{\"num\":" + std::to_string(i) +
                             ",\"tag\":\"t" + std::to_string(i % 4) + "\"}")
                    .ok());
  }

  std::vector<std::string> rows =
      Q(&db_,
        "SELECT PATH, DOC_FREQUENCY, VALUE_COUNT, NDV FROM "
        "TELEMETRY$PATH_STATS WHERE COLLECTION = 'OBSP' AND PATH = '$.tag'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "$.tag|40|40|4");

  rows = Q(&db_, "SELECT MIN, MAX FROM TELEMETRY$PATH_STATS "
                 "WHERE COLLECTION = 'OBSP' AND PATH = '$.num'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "0|39");
}

// The NDV sketches cache their estimates: a TELEMETRY$PATH_STATS scan and
// routed reads fill and read the same caches from two threads, without
// any DML. The TSan build checks this is race-free; both sides must keep
// seeing the sketch's one estimate.
TEST_F(ObservabilityTest, PathStatsScanBesideRoutedReads) {
  auto coll = collection::JsonCollection::Create(&db_, "OBSC").MoveValue();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(coll->Insert("{\"tag\":\"t" + std::to_string(i % 4) + "\"}")
                    .ok());
  }
  const std::string scan =
      "SELECT NDV FROM TELEMETRY$PATH_STATS "
      "WHERE COLLECTION = 'OBSC' AND PATH = '$.tag'";
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) {
      auto routed = collection::RoutePredicates(
          *coll, {collection::PathPredicate::Compare(
                     "$.tag", rdbms::CompareOp::kEq, Value::String("t1"))});
      ASSERT_TRUE(routed.ok());
      auto rows = rdbms::Collect(routed.value().plan.get());
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows.value().size(), 10u);
    }
  });
  for (int i = 0; i < 50; ++i) {
    std::vector<std::string> rows = Q(&db_, scan);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], "4");
  }
  reader.join();
}

TEST_F(ObservabilityTest, OperatorCostsRelationReflectsMeasurements) {
  stats::OperatorCostModel::Global().Reset();
  auto coll = collection::JsonCollection::Create(&db_, "OBSO").MoveValue();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(coll->Insert("{\"tag\":\"t" + std::to_string(i % 3) + "\"}")
                    .ok());
  }
  // Seeds are visible before any measurement...
  std::vector<std::string> rows =
      Q(&db_, "SELECT OPERATOR, SAMPLES FROM TELEMETRY$OPERATOR_COSTS "
              "WHERE OPERATOR = 'IndexedValueScan'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "IndexedValueScan|0");

  // ...and draining a routed query feeds the model.
  auto routed = collection::RoutePredicates(
                    *coll, {collection::PathPredicate::Compare(
                               "$.tag", rdbms::CompareOp::kEq,
                               Value::String("t1"))})
                    .MoveValue();
  ASSERT_TRUE(rdbms::Collect(routed.plan.get()).ok());
  rows = Q(&db_,
           "SELECT SAMPLES, ROWS_OBSERVED FROM TELEMETRY$OPERATOR_COSTS "
           "WHERE OPERATOR = 'IndexedValueScan'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "1|10");
  stats::OperatorCostModel::Global().Reset();
}

TEST_F(ObservabilityTest, SlowQueriesCarryEstimatedRows) {
  SlowQueryLog::Global().SetThresholdUs(0);
  auto coll = collection::JsonCollection::Create(&db_, "OBSE").MoveValue();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(coll->Insert("{\"tag\":\"t" + std::to_string(i % 2) + "\"}")
                    .ok());
  }
  auto routed = collection::RoutePredicates(
                    *coll, {collection::PathPredicate::Compare(
                               "$.tag", rdbms::CompareOp::kEq,
                               Value::String("t0"))})
                    .MoveValue();
  ASSERT_TRUE(rdbms::Collect(routed.plan.get()).ok());

  std::vector<std::string> rows =
      Q(&db_, "SELECT ROWS, EST_ROWS FROM TELEMETRY$SLOW_QUERIES");
  ASSERT_FALSE(rows.empty());
  // 20 docs, 2 tags: 10 actual rows and an estimate of ~10 (the NDV
  // sketch is near-exact, not exact, at tiny cardinalities).
  const std::string& last = rows.back();
  const size_t sep = last.find('|');
  ASSERT_NE(sep, std::string::npos) << last;
  EXPECT_EQ(last.substr(0, sep), "10");
  EXPECT_NEAR(std::stod(last.substr(sep + 1)), 10.0, 1.0) << last;
}

TEST_F(ObservabilityTest, CollectionsRelationListsLiveCollections) {
  auto coll = collection::JsonCollection::Create(&db_, "OBSC").MoveValue();
  ASSERT_TRUE(coll->Insert("{\"a\":1}").ok());
  ASSERT_TRUE(coll->Insert("{\"a\":2}").ok());

  std::vector<std::string> rows =
      Q(&db_, "SELECT NAME, HEALTH, DOC_COUNT FROM TELEMETRY$COLLECTIONS "
              "WHERE NAME = 'OBSC'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "OBSC|healthy|2");

  // Detach drops it from the registry: no dangling rows.
  coll.reset();
  rows = Q(&db_, "SELECT NAME FROM TELEMETRY$COLLECTIONS "
                 "WHERE NAME = 'OBSC'");
  EXPECT_TRUE(rows.empty());
}

// ISSUE 8: TELEMETRY$WAL exposes per-collection log state; collections
// without a WAL contribute no rows.
TEST_F(ObservabilityTest, WalRelationListsDurableCollections) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "obs_wal_relation";
  fs::remove_all(dir);
  collection::CollectionOptions opts;
  opts.wal_dir = dir.string();
  opts.wal_fsync = wal::FsyncPolicy::kOff;
  auto durable =
      collection::JsonCollection::Create(&db_, "OBSW", opts).MoveValue();
  auto transient = collection::JsonCollection::Create(&db_, "OBST").MoveValue();
  ASSERT_TRUE(durable->Insert("{\"a\":1}").ok());
  ASSERT_TRUE(durable->Insert("{\"a\":2}").ok());
  ASSERT_TRUE(transient->Insert("{\"a\":3}").ok());

  std::vector<std::string> rows =
      Q(&db_, "SELECT NAME, POLICY, SEGMENTS, APPENDS, TORN_TAIL "
              "FROM TELEMETRY$WAL");
  ASSERT_EQ(rows.size(), 1u);  // only the durable collection has a log
  EXPECT_EQ(rows[0], "OBSW|off|1|2|0");

  ASSERT_TRUE(durable->Checkpoint().ok());
  rows = Q(&db_, "SELECT CHECKPOINTS, LAST_LSN FROM TELEMETRY$WAL "
                 "WHERE NAME = 'OBSW'");
  ASSERT_EQ(rows.size(), 1u);
  // Checkpoint = begin + one doc record per live doc + end: LSN 2+4=6.
  EXPECT_EQ(rows[0], "1|6");

  durable.reset();
  transient.reset();
  fs::remove_all(dir);
}

// ISSUE 7 acceptance: the ASH ring and the workload repository answer
// through the SQL mini-engine.
TEST_F(ObservabilityTest, AshRelationQueryableFromSql) {
  telemetry::ActivitySampler& sampler = telemetry::ActivitySampler::Global();
  sampler.Stop();
  sampler.ClearRing();
  {
    // Deterministic "active session": hold a lease and tick the sampler by
    // hand instead of racing the background thread.
    telemetry::ActivityLease lease = telemetry::ActivityLease::Begin(
        "ASHQ", "indexed-value-scan", "RoutedQueryProbe", "SELECT 1",
        /*shard=*/3, /*worker=*/-1);
    for (int i = 0; i < 4; ++i) ASSERT_GE(sampler.SampleOnce(), 1u);
  }

  std::vector<std::string> rows =
      Q(&db_, "SELECT COLLECTION, WAIT_STATE, WAIT_CLASS, ACCESS_PATH, SHARD "
              "FROM TELEMETRY$ASH WHERE COLLECTION = 'ASHQ'");
  ASSERT_EQ(rows.size(), 4u);
  for (const std::string& row : rows) {
    EXPECT_EQ(row, "ASHQ|on-cpu|cpu|indexed-value-scan|3");
  }
  // Off-pool samples carry a NULL worker; released leases stop sampling.
  rows = Q(&db_, "SELECT TS_US FROM TELEMETRY$ASH "
                 "WHERE COLLECTION = 'ASHQ' AND WORKER IS NULL");
  EXPECT_EQ(rows.size(), 4u);
  sampler.ClearRing();
  (void)sampler.SampleOnce();
  rows = Q(&db_, "SELECT TS_US FROM TELEMETRY$ASH "
                 "WHERE COLLECTION = 'ASHQ'");
  EXPECT_TRUE(rows.empty());
  sampler.ClearRing();
}

TEST_F(ObservabilityTest, SnapshotsRelationQueryableFromSql) {
  telemetry::ActivitySampler& sampler = telemetry::ActivitySampler::Global();
  telemetry::WorkloadRepository& repo =
      telemetry::WorkloadRepository::Global();
  sampler.Stop();
  sampler.ClearRing();
  repo.Clear();

  {
    telemetry::ActivityLease lease = telemetry::ActivityLease::Begin(
        "AWRQ", "full-scan", "probe", "SELECT COUNT(*) FROM AWRQ");
    for (int i = 0; i < 3; ++i) ASSERT_GE(sampler.SampleOnce(), 1u);
    telemetry::ScopedWaitState wait(telemetry::WaitState::kLockWait);
    ASSERT_GE(sampler.SampleOnce(), 1u);
  }
  (void)repo.TakeSnapshot("sql-phase");

  std::vector<std::string> rows =
      Q(&db_,
        "SELECT LABEL, DB_SAMPLES, TOP_WAIT_CLASS, TOP_QUERY FROM "
        "TELEMETRY$SNAPSHOTS WHERE LABEL = 'sql-phase'");
  ASSERT_EQ(rows.size(), 1u);
  // 4 samples: 3 on-cpu, 1 lock-wait -> dominant wait class concurrency.
  EXPECT_EQ(rows[0],
            "sql-phase|4|concurrency|SELECT COUNT(*) FROM AWRQ");
  rows = Q(&db_, "SELECT CPU_PCT FROM TELEMETRY$SNAPSHOTS "
                 "WHERE LABEL = 'sql-phase'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(std::stod(rows[0]), 75.0);

  sampler.ClearRing();
  repo.Clear();
}

// Every TELEMETRY$ relation is one rdbms::ValuesFrom() row source whose
// producer runs at Open(), not at Prepare(): a plan prepared before a
// state change sees that change, and each re-open sees the next one.
TEST(VirtualRelationTest, RowsAreSnapshotAtOpenNotAtPrepare) {
  rdbms::Database db;
  sql::SqlSession session(&db);
  const size_t before =
      collection::CollectionRegistry::Global().collections().size();
  auto plan = session.Prepare("SELECT COUNT(*) FROM telemetry$collections");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto first = collection::JsonCollection::Create(&db, "SNAP_OPEN_1");
  ASSERT_TRUE(first.ok());
  auto rows = rdbms::CollectStrings(plan.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value(), std::vector<std::string>{std::to_string(before + 1)});

  auto second = collection::JsonCollection::Create(&db, "SNAP_OPEN_2");
  ASSERT_TRUE(second.ok());
  rows = rdbms::CollectStrings(plan.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value(), std::vector<std::string>{std::to_string(before + 2)});
}

// All thirteen relations resolve through the parser's one name table,
// whatever the case of the FROM clause.
TEST(VirtualRelationTest, EveryRelationResolvesCaseInsensitively) {
  rdbms::Database db;
  sql::SqlSession session(&db);
  for (const char* name :
       {"telemetry$metrics", "Telemetry$Events", "telemetry$slow_queries",
        "telemetry$query_monitor", "telemetry$memory", "telemetry$ash",
        "telemetry$snapshots", "telemetry$log", "telemetry$incidents",
        "telemetry$collections", "telemetry$path_stats", "telemetry$wal",
        "telemetry$operator_costs"}) {
    auto plan = session.Prepare(std::string("SELECT * FROM ") + name);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    EXPECT_GT(plan.value()->schema().size(), 0u) << name;
  }
  EXPECT_FALSE(session.Prepare("SELECT * FROM TELEMETRY$NOPE").ok());
}

}  // namespace
}  // namespace fsdm
