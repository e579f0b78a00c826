#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collection/collection.h"
#include "collection/router.h"
#include "rdbms/executor.h"
#include "stats/operator_costs.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fsdm::collection {
namespace {

uint64_t Metric(const std::string& name) {
  return telemetry::MetricsRegistry::Global().CounterValue(name);
}

/// The document keys of a result, as a multiset (a duplicated row shows).
std::multiset<std::string> Keys(const rdbms::Schema& schema,
                                const std::string& key_column,
                                const std::vector<rdbms::Row>& rows) {
  std::multiset<std::string> keys;
  const size_t key = schema.IndexOf(key_column);
  if (key == rdbms::Schema::npos) {
    ADD_FAILURE() << "no key column " << key_column;
    return keys;
  }
  for (const rdbms::Row& row : rows) keys.insert(row[key].ToDisplayString());
  return keys;
}

/// Rows emitted by the leaves of a span tree: what the plan's access path
/// examined before any residual filter.
uint64_t LeafRows(const telemetry::OperatorSpan& span) {
  if (span.children.empty()) return span.rows_out.load();
  uint64_t rows = 0;
  for (const auto& child : span.children) rows += LeafRows(*child);
  return rows;
}

/// `scan` under every predicate as a Filter: the plan a full-scan route
/// builds, assembled without the router.
rdbms::OperatorPtr ForcedFullScan(const JsonCollection& coll,
                                  const std::vector<PathPredicate>& preds,
                                  rdbms::OperatorPtr scan) {
  for (const PathPredicate& p : preds) {
    const sqljson::Returning ret = !p.is_existence() && p.literal->IsNumeric()
                                       ? sqljson::Returning::kNumber
                                       : sqljson::Returning::kString;
    rdbms::ExprPtr e =
        p.is_existence()
            ? coll.JsonExistsExpr(p.path).MoveValue()
            : rdbms::Cmp(p.op, coll.JsonValueExpr(p.path, ret).MoveValue(),
                         rdbms::Lit(*p.literal));
    scan = rdbms::Filter(std::move(scan), std::move(e));
  }
  return scan;
}

// Cost-based routing (ISSUE 5): estimates, the conjunctive intersection
// path, the feedback loop, and decision determinism under frozen
// statistics.
class CostRouterTest : public ::testing::Test {
 protected:
  void SetUp() override { stats::OperatorCostModel::Global().Reset(); }
  void TearDown() override { stats::OperatorCostModel::Global().Reset(); }

  // 200 docs: tag cycles over 10 values, cat over 4, flag exists on every
  // 4th doc, num is uniform 0..1990.
  void Load(JsonCollection* coll, int n = 200) {
    for (int i = 0; i < n; ++i) {
      std::string doc = "{\"num\":" + std::to_string(i * 10) +
                        ",\"tag\":\"t" + std::to_string(i % 10) +
                        "\",\"cat\":\"c" + std::to_string(i % 4) + "\"";
      if (i % 4 == 0) doc += ",\"flag\":true";
      doc += "}";
      ASSERT_TRUE(coll->Insert(std::move(doc)).ok());
    }
  }

  std::vector<rdbms::Row> Drain(const RoutedPlan& routed) {
    auto rows = rdbms::Collect(routed.plan.get());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? rows.MoveValue() : std::vector<rdbms::Row>{};
  }

  rdbms::Database db_;
};

TEST_F(CostRouterTest, ConjunctionRoutesToPostingIntersection) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get());
  // This test is about the routing decision, not cost learning (covered by
  // DrainingARoutedPlanFeedsTheCostModel). Freeze the model so the drain
  // between the two routes can't feed back sanitizer-inflated timings and
  // flip the second decision.
  stats::OperatorCostModel::Global().set_frozen(true);

  // Two index-answerable conjuncts: an equality and an existence test.
  // Neither alone is selective enough to beat intersecting ~70 postings
  // down to the estimated 5 matches.
  auto routed = coll->Route({PathPredicate::Compare("$.tag",
                                                    rdbms::CompareOp::kEq,
                                                    Value::String("t0")),
                             PathPredicate::Exists("$.flag")})
                    .MoveValue();
  EXPECT_EQ(routed.access_path, AccessPath::kPostingIntersectScan)
      << routed.trace.decision.Render();
  EXPECT_NE(routed.trace.decision.reason().find("posting-list intersection"),
            std::string::npos);
  // i % 10 == 0 AND i % 4 == 0 -> i % 20 == 0: 10 of 200.
  EXPECT_EQ(Drain(routed).size(), 10u);

  // The non-covered range conjunct rides as a residual filter on top.
  auto with_residual =
      coll->Route({PathPredicate::Compare("$.tag", rdbms::CompareOp::kEq,
                                          Value::String("t0")),
                   PathPredicate::Exists("$.flag"),
                   PathPredicate::Compare("$.num", rdbms::CompareOp::kLt,
                                          Value::Int64(1000))})
          .MoveValue();
  EXPECT_EQ(with_residual.access_path, AccessPath::kPostingIntersectScan);
  EXPECT_EQ(Drain(with_residual).size(), 5u);  // i in {0,20,40,60,80}
}

TEST_F(CostRouterTest, EstimatesLandInTheTraceAndMatchActuals) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get());

  auto routed = coll->Route({PathPredicate::Compare(
                                 "$.tag", rdbms::CompareOp::kEq,
                                 Value::String("t3"))})
                    .MoveValue();
  const telemetry::RouterDecision& d = routed.trace.decision;
  // Uniform tags: the estimate should be close to the true 20 rows.
  EXPECT_GT(d.est_out_rows, 10.0);
  EXPECT_LT(d.est_out_rows, 40.0);
  for (const telemetry::RouterCandidate& c : d.candidates) {
    if (c.eligible) {
      EXPECT_GE(c.est_rows, 0.0) << c.access_path;
      EXPECT_GE(c.est_cost_us, 0.0) << c.access_path;
    }
  }
  EXPECT_EQ(Drain(routed).size(), 20u);

  // EXPLAIN ANALYZE carries estimated vs actual output cardinality.
  std::string text = routed.trace.Render();
  EXPECT_NE(text.find("estimated rows:"), std::string::npos) << text;
  EXPECT_NE(text.find("actual rows: 20"), std::string::npos) << text;
  EXPECT_NE(text.find("est "), std::string::npos) << text;
}

TEST_F(CostRouterTest, DrainingARoutedPlanFeedsTheCostModel) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get());

  const uint64_t routed_before = Metric("fsdm_router_routed_queries_total");
  auto routed = coll->Route({PathPredicate::Compare(
                                 "$.tag", rdbms::CompareOp::kEq,
                                 Value::String("t3")),
                             PathPredicate::Compare(
                                 "$.num", rdbms::CompareOp::kLt,
                                 Value::Int64(1000))})
                    .MoveValue();
  ASSERT_EQ(routed.access_path, AccessPath::kIndexedValueScan);
  Drain(routed);

  auto snap = stats::OperatorCostModel::Global().Snapshot();
  EXPECT_GE(snap.at("IndexedValueScan").samples, 1u);
  EXPECT_GE(snap.at("Filter").samples, 1u);
  EXPECT_EQ(Metric("fsdm_router_routed_queries_total"), routed_before + 1);
}

TEST_F(CostRouterTest, GrossMisestimateBumpsTheCounter) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  // Perfectly correlated predicates: flag exists exactly on tag == "t0"
  // documents. Independence predicts 100 * (1/10) * (1/10) = 1 row; the
  // true answer is 10 — a 5.5x ratio, past the 4x threshold.
  for (int i = 0; i < 100; ++i) {
    std::string doc = "{\"tag\":\"t" + std::to_string(i % 10) + "\"";
    if (i % 10 == 0) doc += ",\"flag\":true";
    doc += "}";
    ASSERT_TRUE(coll->Insert(std::move(doc)).ok());
  }

  const uint64_t before = Metric("fsdm_router_misestimates_total");
  auto routed = coll->Route({PathPredicate::Compare("$.tag",
                                                    rdbms::CompareOp::kEq,
                                                    Value::String("t0")),
                             PathPredicate::Exists("$.flag")})
                    .MoveValue();
  EXPECT_LT(routed.trace.decision.est_out_rows, 2.5);
  EXPECT_EQ(Drain(routed).size(), 10u);
  EXPECT_EQ(Metric("fsdm_router_misestimates_total"), before + 1);

  // A well-estimated query does not bump it.
  auto good = coll->Route({PathPredicate::Compare(
                               "$.tag", rdbms::CompareOp::kEq,
                               Value::String("t3"))})
                  .MoveValue();
  EXPECT_EQ(Drain(good).size(), 10u);
  EXPECT_EQ(Metric("fsdm_router_misestimates_total"), before + 1);
}

// ISSUE 5 acceptance: for every query shape the cost-based router's pick
// returns exactly the forced full scan's documents (as a set of keys) and
// examines no more rows at its leaves than the full scan does. Both checks
// are deterministic, unlike a wall-clock bound, which a descheduled
// process can fail.
TEST_F(CostRouterTest, RoutedMatchesForcedFullScanOnEveryQueryShape) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  ASSERT_TRUE(
      coll->AddVirtualColumn("NUM_VC", "$.num", sqljson::Returning::kNumber)
          .ok());
  Load(coll.get());
  ASSERT_TRUE(coll->PopulateImc().ok());

  const std::vector<std::vector<PathPredicate>> shapes = {
      {},  // full collection
      {PathPredicate::Compare("$.tag", rdbms::CompareOp::kEq,
                              Value::String("t3"))},
      {PathPredicate::Exists("$.flag")},
      {PathPredicate::Compare("$.num", rdbms::CompareOp::kGe,
                              Value::Int64(500)),
       PathPredicate::Compare("$.num", rdbms::CompareOp::kLt,
                              Value::Int64(1500))},
      {PathPredicate::Compare("$.tag", rdbms::CompareOp::kEq,
                              Value::String("t0")),
       PathPredicate::Exists("$.flag")},
      {PathPredicate::Compare("$.cat", rdbms::CompareOp::kEq,
                              Value::String("c1")),
       PathPredicate::Compare("$.num", rdbms::CompareOp::kLt,
                              Value::Int64(700))},
  };

  for (size_t s = 0; s < shapes.size(); ++s) {
    // Forced baseline: scan + every predicate as a residual filter, with
    // the scan instrumented to count the rows it examines.
    std::unique_ptr<telemetry::OperatorSpan> scan_span =
        telemetry::MakeSpan("Scan", "forced full scan");
    rdbms::OperatorPtr forced = ForcedFullScan(
        *coll, shapes[s], rdbms::Instrument(coll->Scan(), scan_span.get()));
    auto forced_rows = rdbms::Collect(forced.get());
    ASSERT_TRUE(forced_rows.ok());

    auto routed = coll->Route(shapes[s]).MoveValue();
    auto routed_rows = rdbms::Collect(routed.plan.get());
    ASSERT_TRUE(routed_rows.ok());

    EXPECT_EQ(Keys(routed.plan->schema(), coll->key_column(),
                   routed_rows.value()),
              Keys(forced->schema(), coll->key_column(), forced_rows.value()))
        << "shape " << s << ": " << routed.trace.decision.Render();
    ASSERT_NE(routed.trace.root, nullptr);
    EXPECT_LE(LeafRows(*routed.trace.root), scan_span->rows_out.load())
        << "shape " << s << " (" << AccessPathName(routed.access_path)
        << "): " << routed.trace.Render();
  }
}

// With every per-row cost a small integer, two eligible candidates can
// estimate exactly the same cost; the earlier one in candidate order must
// win, whether the later one is the full scan or another posting scan.
TEST_F(CostRouterTest, TiesBreakTowardTheEarlierCandidate) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get());
  stats::OperatorCostModel& model = stats::OperatorCostModel::Global();
  model.Record("Scan", 1, 1.0);
  model.Record("Filter", 1, 1.0);
  model.Record("IndexedPathScan", 1, 8.0);
  model.Record("PostingIntersect", 1, 1.0);
  model.Record("PostingIntersectScan", 1, 4.0);
  model.set_frozen(true);

  // exists($.flag): path postings 50 x 8 against the full scan
  // 200 x (1 + 1).
  auto single = coll->Route({PathPredicate::Exists("$.flag")}).MoveValue();
  const std::vector<telemetry::RouterCandidate>& one =
      single.trace.decision.candidates;
  ASSERT_TRUE(one[3].eligible);
  ASSERT_EQ(one[3].est_cost_us, one[4].est_cost_us)
      << single.trace.decision.Render();
  EXPECT_EQ(single.access_path, AccessPath::kIndexedPathScan);
  EXPECT_TRUE(one[3].chosen);
  EXPECT_FALSE(one[4].chosen);
  EXPECT_EQ(Drain(single).size(), 50u);

  // exists($.flag) AND exists($.tag): the intersection 250 x 1 + 50 x 4
  // against path postings 50 x 8 plus one residual filter 50 x 1.
  auto pair = coll->Route({PathPredicate::Exists("$.flag"),
                           PathPredicate::Exists("$.tag")})
                  .MoveValue();
  const std::vector<telemetry::RouterCandidate>& two =
      pair.trace.decision.candidates;
  ASSERT_TRUE(two[2].eligible);
  ASSERT_TRUE(two[3].eligible);
  ASSERT_EQ(two[2].est_cost_us, two[3].est_cost_us)
      << pair.trace.decision.Render();
  ASSERT_LT(two[2].est_cost_us, two[4].est_cost_us);
  EXPECT_EQ(pair.access_path, AccessPath::kPostingIntersectScan);
  EXPECT_TRUE(two[2].chosen);
  EXPECT_FALSE(two[3].chosen);
  EXPECT_EQ(Drain(pair).size(), 50u);
}

// Each posting winner — value postings, intersection, path postings — made
// the cheapest in turn, at 1 and at 4 shards, drains exactly the keys of
// the forced full scan, residual filters included.
TEST_F(CostRouterTest, PostingWinnersDrainTheForcedFullScansKeys) {
  struct Case {
    std::vector<const char*> cheap;  // per-row costs set to the floor
    AccessPath winner;
    std::vector<PathPredicate> preds;
  };
  const PathPredicate num_lt = PathPredicate::Compare(
      "$.num", rdbms::CompareOp::kLt, Value::Int64(1000));
  const PathPredicate tag_eq = PathPredicate::Compare(
      "$.tag", rdbms::CompareOp::kEq, Value::String("t0"));
  const PathPredicate flag = PathPredicate::Exists("$.flag");
  const std::vector<Case> cases = {
      {{"IndexedValueScan"},
       AccessPath::kIndexedValueScan,
       {tag_eq, num_lt}},
      {{"PostingIntersect", "PostingIntersectScan"},
       AccessPath::kPostingIntersectScan,
       {tag_eq, flag, num_lt}},
      {{"IndexedPathScan"},
       AccessPath::kIndexedPathScan,
       {flag, num_lt}},
  };
  for (size_t shards : {size_t{1}, size_t{4}}) {
    CollectionOptions options;
    options.shard_count = shards;
    auto coll = JsonCollection::Create(&db_, "P" + std::to_string(shards),
                                       options)
                    .MoveValue();
    Load(coll.get());
    for (const Case& c : cases) {
      const std::string winner = AccessPathName(c.winner);
      SCOPED_TRACE(std::to_string(shards) + " shards, " + winner);
      stats::OperatorCostModel& model = stats::OperatorCostModel::Global();
      model.Reset();
      for (const char* op : c.cheap) model.Record(op, 1000, 1.0);
      model.set_frozen(true);

      auto routed = coll->Route(c.preds).MoveValue();
      if (shards == 1) {
        EXPECT_EQ(routed.access_path, c.winner);
      } else {
        // Every shard's own decision is a "shard i -> <path>" candidate.
        for (size_t i = 0; i < shards; ++i) {
          EXPECT_EQ(routed.trace.decision.candidates[i].Label(),
                    "shard " + std::to_string(i) + " -> " + winner);
        }
      }
      auto routed_rows = rdbms::Collect(routed.plan.get());
      ASSERT_TRUE(routed_rows.ok());
      rdbms::OperatorPtr forced = ForcedFullScan(*coll, c.preds, coll->Scan());
      auto forced_rows = rdbms::Collect(forced.get());
      ASSERT_TRUE(forced_rows.ok());
      EXPECT_FALSE(forced_rows.value().empty());
      EXPECT_EQ(Keys(routed.plan->schema(), coll->key_column(),
                     routed_rows.value()),
                Keys(forced->schema(), coll->key_column(),
                     forced_rows.value()))
          << routed.trace.Render();
    }
  }
}

// Regression: with statistics frozen, repeated routing of the same query
// produces byte-identical decisions — candidate order, details, reasons,
// estimates. The router must not leak timings or iteration order into the
// decision.
TEST_F(CostRouterTest, DecisionsAreDeterministicUnderFrozenStats) {
  auto coll = JsonCollection::Create(&db_, "C").MoveValue();
  Load(coll.get());
  stats::OperatorCostModel::Global().set_frozen(true);

  const std::vector<std::vector<PathPredicate>> shapes = {
      {PathPredicate::Compare("$.tag", rdbms::CompareOp::kEq,
                              Value::String("t3"))},
      {PathPredicate::Exists("$.flag")},
      {PathPredicate::Compare("$.tag", rdbms::CompareOp::kEq,
                              Value::String("t0")),
       PathPredicate::Exists("$.flag")},
      {PathPredicate::Compare("$.num", rdbms::CompareOp::kLt,
                              Value::Int64(400))},
  };

  for (const auto& shape : shapes) {
    auto first = coll->Route(shape).MoveValue();
    // Draining the plan must not change later decisions while frozen.
    Drain(first);
    auto second = coll->Route(shape).MoveValue();

    const telemetry::RouterDecision& a = first.trace.decision;
    const telemetry::RouterDecision& b = second.trace.decision;
    EXPECT_EQ(a.winner, b.winner);
    EXPECT_EQ(a.reason(), b.reason());
    EXPECT_EQ(a.est_out_rows, b.est_out_rows);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i) {
      EXPECT_EQ(a.candidates[i].Label(), b.candidates[i].Label());
      EXPECT_EQ(a.candidates[i].eligible, b.candidates[i].eligible);
      EXPECT_EQ(a.candidates[i].chosen, b.candidates[i].chosen);
      EXPECT_EQ(a.candidates[i].detail(), b.candidates[i].detail()) << i;
      EXPECT_EQ(a.candidates[i].est_rows, b.candidates[i].est_rows) << i;
      EXPECT_EQ(a.candidates[i].est_cost_us, b.candidates[i].est_cost_us)
          << i;
    }
    EXPECT_EQ(a.Render(), b.Render());
  }
}

}  // namespace
}  // namespace fsdm::collection
