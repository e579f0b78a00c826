#include "collection/router.h"

#include <gtest/gtest.h>

#include "collection/collection.h"
#include "rdbms/executor.h"
#include "stats/operator_costs.h"

namespace fsdm::collection {
namespace {

// A small corpus with known statistics: every document has num/tag, ~1 in
// 5 carries the sparse "flag" field, tags repeat so equality on $.tag is
// selective but not unique.
class RouterTest : public ::testing::Test {
 protected:
  // Routing feeds measured costs back into the process-wide model; start
  // every test from the seeded defaults so expectations don't depend on
  // which tests (with their micro-corpus timings) ran before.
  void SetUp() override { stats::OperatorCostModel::Global().Reset(); }
  void Load(JsonCollection* coll, int n) {
    for (int i = 0; i < n; ++i) {
      std::string doc = "{\"num\":" + std::to_string(i * 10) +
                        ",\"tag\":\"t" + std::to_string(i % 10) + "\"";
      if (i % 5 == 0) doc += ",\"flag\":true";
      doc += "}";
      ASSERT_TRUE(coll->Insert(std::move(doc)).ok());
    }
  }

  size_t RowCount(const RoutedPlan& routed) {
    auto rows = rdbms::Collect(routed.plan.get());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? rows.value().size() : 0;
  }

  rdbms::Database db_;
};

TEST_F(RouterTest, ValidImcWithMaterializedColumnsWinsForCompares) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->AddVirtualColumn("NUM_VC", "$.num",
                                     sqljson::Returning::kNumber)
                  .ok());
  Load(coll.get(), 50);
  ASSERT_TRUE(coll->PopulateImc().ok());

  auto routed = coll->Route({PathPredicate::Compare("$.num",
                                                    rdbms::CompareOp::kGe,
                                                    Value::Int64(100)),
                             PathPredicate::Compare("$.num",
                                                    rdbms::CompareOp::kLt,
                                                    Value::Int64(200))});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.value().access_path, AccessPath::kImcFilterScan);
  EXPECT_EQ(RowCount(routed.value()), 10u);  // 100,110,...,190
}

TEST_F(RouterTest, StaleImcFallsThroughToDocumentPaths) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->AddVirtualColumn("NUM_VC", "$.num",
                                     sqljson::Returning::kNumber)
                  .ok());
  Load(coll.get(), 50);
  ASSERT_TRUE(coll->PopulateImc().ok());
  // DML invalidates the store; the router must not serve stale data.
  ASSERT_TRUE(coll->Insert("{\"num\":150,\"tag\":\"t0\"}").ok());

  auto routed = coll->Route({PathPredicate::Compare("$.num",
                                                    rdbms::CompareOp::kGe,
                                                    Value::Int64(100)),
                             PathPredicate::Compare("$.num",
                                                    rdbms::CompareOp::kLt,
                                                    Value::Int64(200))});
  ASSERT_TRUE(routed.ok());
  EXPECT_NE(routed.value().access_path, AccessPath::kImcFilterScan);
  // The fresh row IS visible through the fallback plan.
  EXPECT_EQ(RowCount(routed.value()), 11u);
}

TEST_F(RouterTest, EqualityOnGuideKnownScalarUsesValuePostings) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get(), 50);

  auto routed = coll->Route({PathPredicate::Compare(
      "$.tag", rdbms::CompareOp::kEq, Value::String("t3"))});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kIndexedValueScan);
  EXPECT_EQ(RowCount(routed.value()), 5u);  // i % 10 == 3, i < 50

  // Residual predicates ride on top of the posting scan.
  auto combined = coll->Route(
      {PathPredicate::Compare("$.tag", rdbms::CompareOp::kEq,
                              Value::String("t3")),
       PathPredicate::Compare("$.num", rdbms::CompareOp::kLt,
                              Value::Int64(200))});
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined.value().access_path, AccessPath::kIndexedValueScan);
  EXPECT_EQ(RowCount(combined.value()), 2u);  // i in {3, 13}
}

TEST_F(RouterTest, SparseExistenceUsesPathPostings) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get(), 50);

  auto routed = coll->Route({PathPredicate::Exists("$.flag")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kIndexedPathScan);
  EXPECT_EQ(RowCount(routed.value()), 10u);  // i % 5 == 0, i < 50
  EXPECT_NE(routed.value().trace.decision.reason().find("$.flag"),
            std::string::npos);
}

TEST_F(RouterTest, UbiquitousExistenceStillUsesPostingsWhenCheaper) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get(), 50);

  // $.num exists in every document. The old priority router refused the
  // posting path past 50% frequency; the cost model keeps it because a
  // posting replay is still cheaper than scan + JSON_EXISTS evaluation
  // per document — and either way every document comes back.
  auto routed = coll->Route({PathPredicate::Exists("$.num")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kIndexedPathScan);
  EXPECT_EQ(RowCount(routed.value()), 50u);
}

TEST_F(RouterTest, NoIndexCollectionAlwaysFullScans) {
  CollectionOptions opts;
  opts.attach_search_index = false;
  auto coll = JsonCollection::Create(&db_, "C", opts).MoveValue();
  Load(coll.get(), 30);

  auto routed = coll->Route({PathPredicate::Compare(
      "$.tag", rdbms::CompareOp::kEq, Value::String("t3"))});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kFullScan);
  EXPECT_EQ(RowCount(routed.value()), 3u);
}

TEST_F(RouterTest, EmptyPredicateListIsAFullScan) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get(), 10);
  auto routed = coll->Route({});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().access_path, AccessPath::kFullScan);
  EXPECT_EQ(RowCount(routed.value()), 10u);
}

// All four access paths agree on the answer for the same predicate when
// each is made the applicable one in turn.
TEST_F(RouterTest, AccessPathsAgreeOnRowCounts) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(coll->AddVirtualColumn("NUM_VC", "$.num",
                                     sqljson::Returning::kNumber)
                  .ok());
  Load(coll.get(), 60);
  std::vector<PathPredicate> preds = {PathPredicate::Compare(
      "$.num", rdbms::CompareOp::kLt, Value::Int64(100))};

  // Index present, no IMC -> full scan (no equality/existence to index).
  auto scan_route = coll->Route(preds).MoveValue();
  EXPECT_EQ(scan_route.access_path, AccessPath::kFullScan);
  size_t baseline = RowCount(scan_route);
  EXPECT_EQ(baseline, 10u);

  // IMC populated -> vectorized path, same count.
  ASSERT_TRUE(coll->PopulateImc().ok());
  auto imc_route = coll->Route(preds).MoveValue();
  EXPECT_EQ(imc_route.access_path, AccessPath::kImcFilterScan);
  EXPECT_EQ(RowCount(imc_route), baseline);
}

}  // namespace
}  // namespace fsdm::collection
