#include <gtest/gtest.h>

#include "collection/collection.h"
#include "collection/router.h"
#include "rdbms/executor.h"
#include "stats/operator_costs.h"
#include "telemetry/trace.h"

namespace fsdm::collection {
namespace {

// EXPLAIN ANALYZE traces for the router: every Route() must record all
// five candidates in ranking order and mark exactly the winner as chosen.
// Uses the same corpus statistics as router_test.cc.
class RouterTraceTest : public ::testing::Test {
 protected:
  // Pin the cost model to its seeds: routed plans drained by earlier tests
  // feed measurements back into the process-wide model.
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

  // The invariants every routed decision must satisfy.
  void CheckDecision(const RoutedPlan& routed, const char* winner) {
    const telemetry::RouterDecision& d = routed.trace.decision;
    ASSERT_EQ(d.candidates.size(), 5u);
    EXPECT_EQ(d.candidates[0].access_path, "imc-filter-scan");
    EXPECT_EQ(d.candidates[1].access_path, "indexed-value-scan");
    EXPECT_EQ(d.candidates[2].access_path, "posting-intersect-scan");
    EXPECT_EQ(d.candidates[3].access_path, "indexed-path-scan");
    EXPECT_EQ(d.candidates[4].access_path, "full-scan");
    EXPECT_EQ(d.winner, winner);
    EXPECT_FALSE(d.reason().empty());
    int chosen = 0;
    for (const telemetry::RouterCandidate& c : d.candidates) {
      if (c.chosen) {
        ++chosen;
        EXPECT_TRUE(c.eligible);
        EXPECT_EQ(c.access_path, winner);
      }
    }
    EXPECT_EQ(chosen, 1);
  }

  rdbms::Database db_;
};

TEST_F(RouterTraceTest, ImcWinnerRecordsCandidates) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(
      coll->AddVirtualColumn("NUM_VC", "$.num", sqljson::Returning::kNumber)
          .ok());
  Load(coll.get(), 50);
  ASSERT_TRUE(coll->PopulateImc().ok());

  auto routed =
      coll->Route({PathPredicate::Compare("$.num", rdbms::CompareOp::kGe,
                                          Value::Int64(100))})
          .MoveValue();
  ASSERT_EQ(routed.access_path, AccessPath::kImcFilterScan);
  CheckDecision(routed, "imc-filter-scan");
  // The cost model evaluates every candidate; the rivals lost on cost or
  // eligibility, and the decision records why.
  const telemetry::RouterDecision& d = routed.trace.decision;
  EXPECT_EQ(d.candidates[1].detail(),
            "no equality on a DataGuide-known scalar path");
  EXPECT_EQ(d.candidates[2].detail(),
            "fewer than two index-answerable conjuncts");
  EXPECT_GE(d.candidates[0].est_cost_us, 0.0);
  EXPECT_GE(d.candidates[4].est_cost_us, d.candidates[0].est_cost_us);
}

TEST_F(RouterTraceTest, ValuePostingsWinnerRecordsFrequency) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get(), 50);

  auto routed = coll->Route({PathPredicate::Compare(
                                 "$.tag", rdbms::CompareOp::kEq,
                                 Value::String("t3"))})
                    .MoveValue();
  ASSERT_EQ(routed.access_path, AccessPath::kIndexedValueScan);
  CheckDecision(routed, "indexed-value-scan");
  const telemetry::RouterDecision& d = routed.trace.decision;
  EXPECT_EQ(d.candidates[0].detail(), "no valid IMC store");
  EXPECT_NE(d.candidates[1].detail().find("$.tag"), std::string::npos);
  EXPECT_NE(d.candidates[1].detail().find("frequency"), std::string::npos);
}

TEST_F(RouterTraceTest, PathPostingsWinnerRecordsRejectedValueTier) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get(), 50);

  auto routed = coll->Route({PathPredicate::Exists("$.flag")}).MoveValue();
  ASSERT_EQ(routed.access_path, AccessPath::kIndexedPathScan);
  CheckDecision(routed, "indexed-path-scan");
  EXPECT_EQ(routed.trace.decision.candidates[1].detail(),
            "no equality on a DataGuide-known scalar path");
}

TEST_F(RouterTraceTest, FullScanWinnerRecordsWhyOthersLost) {
  CollectionOptions opts;
  opts.attach_search_index = false;
  auto coll = JsonCollection::Create(&db_, "C", opts).MoveValue();
  Load(coll.get(), 30);

  auto routed = coll->Route({PathPredicate::Compare(
                                 "$.tag", rdbms::CompareOp::kEq,
                                 Value::String("t3"))})
                    .MoveValue();
  ASSERT_EQ(routed.access_path, AccessPath::kFullScan);
  CheckDecision(routed, "full-scan");
  const telemetry::RouterDecision& d = routed.trace.decision;
  EXPECT_EQ(d.candidates[1].detail(), "no search index postings maintained");
  EXPECT_EQ(d.candidates[2].detail(), "no search index postings maintained");
  EXPECT_EQ(d.candidates[3].detail(), "no search index postings maintained");
  EXPECT_TRUE(d.candidates[4].eligible);
}

// Operator spans fill in rows-in/rows-out as the routed plan executes:
// residual Filter on top of the posting scan, EXPLAIN ANALYZE style.
TEST_F(RouterTraceTest, OperatorSpansRecordRowsThroughResidualFilter) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get(), 50);

  auto routed = coll->Route(
                        {PathPredicate::Compare("$.tag", rdbms::CompareOp::kEq,
                                                Value::String("t3")),
                         PathPredicate::Compare("$.num", rdbms::CompareOp::kLt,
                                                Value::Int64(200))})
                    .MoveValue();
  ASSERT_EQ(routed.access_path, AccessPath::kIndexedValueScan);

  auto rows = rdbms::Collect(routed.plan.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().size(), 2u);  // i in {3, 13}

  const telemetry::OperatorSpan* root = routed.trace.root.get();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "Filter");
  EXPECT_EQ(root->rows_out, 2u);
  ASSERT_EQ(root->children.size(), 1u);
  const telemetry::OperatorSpan* leaf = root->children[0].get();
  EXPECT_EQ(leaf->name, "IndexedValueScan");
  EXPECT_EQ(leaf->rows_out, 5u);  // tag == t3: i % 10 == 3, i < 50
  EXPECT_EQ(root->RowsIn(), 5u);
  EXPECT_GE(root->elapsed_us, leaf->elapsed_us);  // inclusive timing

  // The rendered trace carries the decision and both spans.
  std::string text = routed.trace.Render();
  EXPECT_NE(text.find("access path: indexed-value-scan"), std::string::npos)
      << text;
  EXPECT_NE(text.find("IndexedValueScan"), std::string::npos);
  EXPECT_NE(text.find("rows_out=2"), std::string::npos);
}

// Re-running a plan resets the spans instead of accumulating.
TEST_F(RouterTraceTest, SpansResetOnReopen) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get(), 20);

  auto routed = coll->Route({PathPredicate::Exists("$.flag")}).MoveValue();
  ASSERT_TRUE(rdbms::Collect(routed.plan.get()).ok());
  uint64_t first = routed.trace.root->rows_out;
  ASSERT_TRUE(rdbms::Collect(routed.plan.get()).ok());
  EXPECT_EQ(routed.trace.root->rows_out, first);
}

}  // namespace
}  // namespace fsdm::collection
