#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "collection/collections_table.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "stats/operator_costs.h"
#include "telemetry/telemetry.h"

namespace fsdm::collection {
namespace {

uint64_t Metric(const std::string& name) {
  return telemetry::MetricsRegistry::Global().CounterValue(name);
}

/// DID values (display form) a routed plan emits, sorted.
std::vector<std::string> DrainKeys(rdbms::Operator* plan) {
  Result<std::vector<rdbms::Row>> rows = rdbms::Collect(plan);
  EXPECT_TRUE(rows.ok()) << rows.status().message();
  std::vector<std::string> keys;
  if (rows.ok()) {
    for (const rdbms::Row& row : rows.value()) {
      keys.push_back(row[0].ToDisplayString());
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

class DegradedRoutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Global().DisarmAll();
    // Access-path expectations assume the seeded cost model, not whatever
    // measurements earlier tests fed back.
    stats::OperatorCostModel::Global().Reset();
  }
  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }

  rdbms::Database db_;
};

TEST_F(DegradedRoutingTest, UnrecoverableFaultDegradesThenRebuildHeals) {
  auto coll_r = JsonCollection::Create(&db_, "DEMO");
  ASSERT_TRUE(coll_r.ok()) << coll_r.status().message();
  std::unique_ptr<JsonCollection>& coll = coll_r.value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(coll->Insert("{\"a\": " + std::to_string(i) + "}").ok());
  }
  ASSERT_TRUE(coll->Insert("{\"a\": 99, \"rare\": 1}").ok());
  EXPECT_EQ(coll->health(), CollectionHealth::kHealthy);

  // Healthy: a sparse existence predicate routes to the path postings.
  auto routed = coll->Route({PathPredicate::Exists("$.rare")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kIndexedPathScan);

  // DataGuide persistence fails on the next insert AND the index's own
  // compensation fails too: the postings keep a phantom entry for the
  // rolled-back row, so the index must degrade.
  fault::FaultRegistry::Global().Arm("index.insert.dataguide",
                                     fault::FaultSpec::Once());
  fault::FaultRegistry::Global().Arm("index.undo.postings",
                                     fault::FaultSpec::Once());
  uint64_t rollbacks_before = Metric("fsdm_dml_rollbacks_total");
  Result<size_t> failed = coll->Insert("{\"brandnew\": true}");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(Metric("fsdm_dml_rollbacks_total"), rollbacks_before + 1);
  EXPECT_EQ(coll->document_count(), 5u);  // the row itself rolled back

  EXPECT_EQ(coll->health(), CollectionHealth::kIndexDegraded);
  EXPECT_NE(coll->health_reason().find("rollback failed"), std::string::npos);
  EXPECT_EQ(static_cast<int>(coll->health()), 1);

  // Degraded: the router must not trust the postings. The fallback reason
  // lands in both the candidate table and the plan reason.
  uint64_t fallbacks_before = Metric("fsdm_router_degraded_fallbacks_total");
  routed = coll->Route({PathPredicate::Exists("$.rare")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kFullScan);
  EXPECT_NE(routed.value().trace.decision.reason().find(
                "posting paths unavailable"),
            std::string::npos);
  const telemetry::RouterDecision& decision =
      routed.value().trace.decision;
  ASSERT_EQ(decision.candidates.size(), 5u);
  EXPECT_NE(decision.candidates[1].detail().find("index-degraded"),
            std::string::npos);
  EXPECT_NE(decision.candidates[2].detail().find("index-degraded"),
            std::string::npos);
  EXPECT_NE(decision.candidates[3].detail().find("index-degraded"),
            std::string::npos);
  EXPECT_EQ(Metric("fsdm_router_degraded_fallbacks_total"),
            fallbacks_before + 1);
  // The full scan still answers correctly.
  EXPECT_EQ(DrainKeys(routed.value().plan.get()).size(), 1u);

  // DML continues while degraded (maintenance suspended, not refused)...
  ASSERT_TRUE(coll->Insert("{\"a\": 100, \"rare\": 2}").ok());
  // ...which the consistency check must flag until the index is rebuilt.
  EXPECT_FALSE(coll->CheckConsistency().consistent);

  ASSERT_TRUE(coll->RebuildIndex().ok());
  EXPECT_EQ(coll->health(), CollectionHealth::kHealthy);
  EXPECT_EQ(static_cast<int>(coll->health()), 0);
  ConsistencyReport report = coll->CheckConsistency();
  EXPECT_TRUE(report.consistent) << report.ToString();

  // Posting routing is restored and agrees with a full scan.
  routed = coll->Route({PathPredicate::Exists("$.rare")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kIndexedPathScan);
  std::vector<std::string> indexed_keys =
      DrainKeys(routed.value().plan.get());
  rdbms::OperatorPtr full = rdbms::Filter(
      coll->Scan(), coll->JsonExistsExpr("$.rare").MoveValue());
  EXPECT_EQ(indexed_keys, DrainKeys(full.get()));
  EXPECT_EQ(indexed_keys.size(), 2u);
}

TEST_F(DegradedRoutingTest, DmlFaultsAtTableApplyAreFullyCompensated) {
  auto coll_r = JsonCollection::Create(&db_, "COMP");
  ASSERT_TRUE(coll_r.ok());
  std::unique_ptr<JsonCollection>& coll = coll_r.value();
  ASSERT_TRUE(coll->Insert("{\"k\": \"alpha\", \"n\": 1}").ok());
  Result<size_t> target = coll->Insert("{\"k\": \"beta\", \"n\": 2}");
  ASSERT_TRUE(target.ok());

  // Failed insert: no row, no postings, guide may over-count only.
  {
    fault::ScopedFault f("table.insert.apply", fault::FaultSpec::Once());
    EXPECT_FALSE(coll->Insert("{\"k\": \"gamma\"}").ok());
  }
  EXPECT_EQ(coll->document_count(), 2u);
  EXPECT_TRUE(coll->CheckConsistency().consistent)
      << coll->CheckConsistency().ToString();

  // Failed delete: observers had already unindexed the doc; the undo path
  // must reinstate its postings.
  {
    fault::ScopedFault f("table.delete.apply", fault::FaultSpec::Once());
    EXPECT_FALSE(coll->Delete(target.value()).ok());
  }
  EXPECT_EQ(coll->document_count(), 2u);
  EXPECT_EQ(coll->health(), CollectionHealth::kHealthy);
  EXPECT_TRUE(coll->CheckConsistency().consistent)
      << coll->CheckConsistency().ToString();

  // Failed replace: stage-then-swap already swapped; undo swaps back.
  {
    fault::ScopedFault f("table.replace.apply", fault::FaultSpec::Once());
    EXPECT_FALSE(coll->Replace(target.value(), Value::Int64(2),
                               "{\"k\": \"replaced\"}")
                     .ok());
  }
  ConsistencyReport report = coll->CheckConsistency();
  EXPECT_TRUE(report.consistent) << report.ToString();
  // The old document is still the queryable one.
  auto routed = coll->Route({PathPredicate::Compare(
      "$.k", rdbms::CompareOp::kEq, Value::String("beta"))});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kIndexedValueScan);
  EXPECT_EQ(DrainKeys(routed.value().plan.get()).size(), 1u);
}

// The index's $DG side table fires its own fault point, so a one-shot
// `table.insert.apply` armed before a replace that adds a path is left for
// the collection's own DML: the replace succeeds, the index stays healthy,
// and the next collection insert is the DML the fault vetoes.
TEST_F(DegradedRoutingTest, TableInsertFaultNeverHitsTheDgPersist) {
  auto coll = JsonCollection::Create(&db_, "DGVETO").MoveValue();
  Result<size_t> target = coll->Insert("{\"k\": \"alpha\"}");
  ASSERT_TRUE(target.ok());
  const size_t dg_rows = coll->search_index()->dg_table()->live_row_count();

  fault::ScopedFault f("table.insert.apply", fault::FaultSpec::Once());
  ASSERT_TRUE(coll->Replace(target.value(), Value::Int64(1),
                            "{\"k\": \"beta\", \"fresh\": 1}")
                  .ok());
  EXPECT_EQ(coll->health(), CollectionHealth::kHealthy)
      << coll->health_reason();
  EXPECT_EQ(coll->search_index()->dg_table()->live_row_count(), dg_rows + 1);
  EXPECT_EQ(coll->document_count(), 1u);
  Result<size_t> vetoed = coll->Insert("{\"k\": \"gamma\"}");
  ASSERT_FALSE(vetoed.ok());
  EXPECT_NE(vetoed.status().message().find("table.insert.apply"),
            std::string::npos);
  EXPECT_EQ(coll->health(), CollectionHealth::kHealthy);
  EXPECT_TRUE(coll->CheckConsistency().consistent)
      << coll->CheckConsistency().ToString();
}

// A failed $DG persist (`index.dataguide.persist`) still degrades the
// index, and RebuildIndex() heals it.
TEST_F(DegradedRoutingTest, DgPersistFaultDegradesUntilRebuild) {
  auto coll = JsonCollection::Create(&db_, "DGFAIL").MoveValue();
  Result<size_t> target = coll->Insert("{\"k\": \"alpha\"}");
  ASSERT_TRUE(target.ok());
  {
    fault::ScopedFault f("index.dataguide.persist", fault::FaultSpec::Once());
    EXPECT_FALSE(coll->Replace(target.value(), Value::Int64(1),
                               "{\"k\": \"beta\", \"fresh\": 1}")
                     .ok());
  }
  EXPECT_EQ(coll->health(), CollectionHealth::kIndexDegraded);
  EXPECT_NE(coll->health_reason().find("$DG persist failed"),
            std::string::npos)
      << coll->health_reason();
  EXPECT_EQ(coll->document_count(), 1u);

  ASSERT_TRUE(coll->RebuildIndex().ok());
  EXPECT_EQ(coll->health(), CollectionHealth::kHealthy);
  EXPECT_TRUE(coll->CheckConsistency().consistent)
      << coll->CheckConsistency().ToString();
  ASSERT_TRUE(coll->Replace(target.value(), Value::Int64(1),
                            "{\"k\": \"beta\", \"fresh\": 1}")
                  .ok());
  auto routed = coll->Route({PathPredicate::Exists("$.fresh")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(DrainKeys(routed.value().plan.get()).size(), 1u);
}

TEST_F(DegradedRoutingTest, RebuildFailureQuarantinesUntilRetrySucceeds) {
  auto coll_r = JsonCollection::Create(&db_, "QUAR");
  ASSERT_TRUE(coll_r.ok());
  std::unique_ptr<JsonCollection>& coll = coll_r.value();
  ASSERT_TRUE(coll->Insert("{\"x\": 1}").ok());

  fault::FaultRegistry::Global().Arm("index.rebuild",
                                     fault::FaultSpec::Once());
  EXPECT_FALSE(coll->RebuildIndex().ok());
  EXPECT_EQ(coll->health(), CollectionHealth::kQuarantined);
  EXPECT_NE(coll->health_reason().find("rebuild failed"), std::string::npos);
  EXPECT_EQ(static_cast<int>(coll->health()), 2);

  // Quarantined: every DML is refused with Unavailable.
  Result<size_t> refused = coll->Insert("{\"x\": 2}");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(coll->Delete(0).code(), StatusCode::kUnavailable);
  EXPECT_EQ(coll->Replace(0, Value::Int64(1), "{}").code(),
            StatusCode::kUnavailable);

  // Reads still route (to the full scan, with the quarantine as reason).
  auto routed = coll->Route({PathPredicate::Exists("$.x")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kFullScan);
  EXPECT_NE(routed.value().trace.decision.candidates[1].detail().find(
                "quarantined"),
            std::string::npos);

  // A successful rebuild lifts the quarantine.
  ASSERT_TRUE(coll->RebuildIndex().ok());
  EXPECT_EQ(coll->health(), CollectionHealth::kHealthy);
  EXPECT_TRUE(coll->Insert("{\"x\": 2}").ok());
  EXPECT_TRUE(coll->CheckConsistency().consistent);
}

TEST_F(DegradedRoutingTest, ExplicitQuarantineRefusesDml) {
  auto coll_r = JsonCollection::Create(&db_, "OPS");
  ASSERT_TRUE(coll_r.ok());
  std::unique_ptr<JsonCollection>& coll = coll_r.value();
  coll->Quarantine("operator intervention");
  EXPECT_EQ(coll->health(), CollectionHealth::kQuarantined);
  EXPECT_EQ(coll->health_reason(), "operator intervention");
  EXPECT_EQ(coll->Insert("{}").status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(coll->RebuildIndex().ok());
  EXPECT_TRUE(coll->Insert("{}").ok());
}

// Health is per collection: with one collection quarantined and another
// healthy, TELEMETRY$COLLECTIONS shows each its own, whichever health was
// computed last.
TEST_F(DegradedRoutingTest, CollectionsTableShowsEachCollectionsHealth) {
  auto sick = JsonCollection::Create(&db_, "SICK").MoveValue();
  auto well = JsonCollection::Create(&db_, "WELL").MoveValue();
  sick->Quarantine("operator intervention");
  EXPECT_EQ(sick->health(), CollectionHealth::kQuarantined);
  EXPECT_EQ(well->health(), CollectionHealth::kHealthy);

  std::map<std::string, std::string> health;
  rdbms::OperatorPtr scan = CollectionsScan();
  const size_t name_at = scan->schema().IndexOf("NAME");
  const size_t health_at = scan->schema().IndexOf("HEALTH");
  for (const rdbms::Row& row : rdbms::Collect(scan.get()).MoveValue()) {
    health[row[name_at].ToDisplayString()] = row[health_at].ToDisplayString();
  }
  EXPECT_EQ(health["SICK"], "quarantined");
  EXPECT_EQ(health["WELL"], "healthy");
}

TEST_F(DegradedRoutingTest, CreatePartialFailureDropsTheTable) {
  for (const char* point :
       {"collection.create.oson_column", "collection.create.search_index"}) {
    {
      fault::ScopedFault f(point, fault::FaultSpec::Once());
      auto failed = JsonCollection::Create(&db_, "PARTIAL");
      ASSERT_FALSE(failed.ok()) << point;
    }
    // The half-built table must not survive the failed Create...
    EXPECT_FALSE(db_.GetTable("PARTIAL").ok()) << point;
    // ...so the same name is immediately reusable.
    auto retried = JsonCollection::Create(&db_, "PARTIAL");
    ASSERT_TRUE(retried.ok()) << point;
    ASSERT_TRUE(retried.value()->Insert("{\"ok\": true}").ok());
    EXPECT_TRUE(retried.value()->CheckConsistency().consistent);
    retried.value()->Detach();
    ASSERT_TRUE(db_.DropTable("PARTIAL").ok());
  }
}

TEST_F(DegradedRoutingTest, DetachIsIdempotentAndDivergenceIsDetected) {
  auto coll_r = JsonCollection::Create(&db_, "DET");
  ASSERT_TRUE(coll_r.ok());
  std::unique_ptr<JsonCollection>& coll = coll_r.value();
  ASSERT_TRUE(coll->Insert("{\"a\": 1}").ok());
  ASSERT_TRUE(coll->Insert("{\"a\": 2}").ok());
  EXPECT_TRUE(coll->CheckConsistency().consistent);

  coll->Detach();
  coll->Detach();  // idempotent

  // DML behind the facade's back is no longer observed: the index misses
  // the new document, which CheckConsistency must surface.
  ASSERT_TRUE(
      db_.GetTable("DET")
          .value()
          ->Insert({Value::Int64(3), Value::String("{\"a\": 3}")})
          .ok());
  ConsistencyReport report = coll->CheckConsistency();
  EXPECT_FALSE(report.consistent);
  EXPECT_EQ(report.live_rows, 3u);
  EXPECT_EQ(report.indexed_docs, 2u);
}

}  // namespace
}  // namespace fsdm::collection
