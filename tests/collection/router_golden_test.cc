#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "collection/collection.h"
#include "collection/router.h"
#include "rdbms/executor.h"
#include "stats/operator_costs.h"
#include "telemetry/slow_query.h"

namespace fsdm::collection {
namespace {

// Golden routing text: for every kind of winner, the rendered EXPLAIN
// ANALYZE trace and the slow-query capture's trace_text must read exactly
// as below. The expected strings were rendered by the router that
// formatted its decision text eagerly, at route time; the router now
// records numbers and interned names and formats them only when read, and
// this test pins that the output did not change by a byte. The cost model
// is frozen at its seeds, so every estimate is deterministic.

// Drained-span timings, pool worker ids and the pool size vary from run
// to run and machine to machine; everything else is compared verbatim.
std::string Normalize(const std::string& text) {
  std::string out = std::regex_replace(
      text, std::regex("time=[0-9.]+ (us|ms)"), "time=T");
  out = std::regex_replace(out, std::regex("worker=-?[0-9]+"), "worker=W");
  return std::regex_replace(out, std::regex("on [0-9]+ workers"),
                            "on N workers");
}

std::string Doc(int i) {
  std::string doc = "{\"num\":" + std::to_string(i * 10) + ",\"tag\":\"t" +
                    std::to_string(i % 10) + "\",\"id\":\"k" +
                    std::to_string(i) + "\"";
  if (i % 5 == 0) doc += ",\"flag\":true";
  if (i == 7) doc += ",\"rare\":1";
  return doc + "}";
}

struct Rendered {
  std::string trace;       // QueryTrace::Render() after the drain
  std::string slow_query;  // the slow-query capture's trace_text
};

class RouterGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stats::OperatorCostModel::Global().Reset();
    stats::OperatorCostModel::Global().set_frozen(true);
    telemetry::SlowQueryLog::Global().Clear();
    telemetry::SlowQueryLog::Global().SetThresholdUs(0);  // capture all
  }
  void TearDown() override {
    stats::OperatorCostModel::Global().Reset();
    telemetry::SlowQueryLog::Global().Clear();
    telemetry::SlowQueryLog::Global().SetThresholdUs(10000);
  }

  std::unique_ptr<JsonCollection> Load(const char* name,
                                       CollectionOptions opts, int n) {
    auto coll = JsonCollection::Create(&db_, name, opts).MoveValue();
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(coll->Insert(Value::Int64(i), Doc(i)).ok());
    }
    return coll;
  }

  Rendered Run(const JsonCollection& coll,
               const std::vector<PathPredicate>& preds, AccessPath want) {
    telemetry::SlowQueryLog::Global().Clear();
    Rendered out;
    Result<RoutedPlan> routed = coll.Route(preds);
    EXPECT_TRUE(routed.ok()) << routed.status().ToString();
    if (!routed.ok()) return out;
    EXPECT_EQ(routed.value().access_path, want);
    EXPECT_TRUE(rdbms::Collect(routed.value().plan.get()).ok());
    out.trace = Normalize(routed.value().trace.Render());
    std::vector<telemetry::SlowQueryRecord> slow =
        telemetry::SlowQueryLog::Global().Snapshot();
    EXPECT_EQ(slow.size(), 1u);
    if (!slow.empty()) out.slow_query = Normalize(slow.back().trace_text);
    return out;
  }

  rdbms::Database db_;
};

// Expected texts, as the router rendered them when it still formatted
// its decision text at route time; normalized as above.
constexpr char kValueTrace[] = R"golden(EXPLAIN ANALYZE
access path: indexed-value-scan -- equality on scalar path $.id (est 1.0 rows, cost 0.80 us); value postings
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [x] indexed-value-scan  est 1.0 rows / 0.80 us -- equality on $.id (DataGuide frequency 50/50, ndv ~50.2)
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 1.0  actual rows: 1
plan:
  IndexedValueScan ($.id = k7)  rows_in=0 rows_out=1 time=T
)golden";

constexpr char kValueSlow[] = R"golden(access path: indexed-value-scan -- equality on scalar path $.id (est 1.0 rows, cost 0.80 us); value postings
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [x] indexed-value-scan  est 1.0 rows / 0.80 us -- equality on $.id (DataGuide frequency 50/50, ndv ~50.2)
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  IndexedValueScan ($.id = k7)  rows_in=0 rows_out=1 time=T
)golden";

constexpr char kResidualTrace[] = R"golden(EXPLAIN ANALYZE
access path: indexed-value-scan -- equality on scalar path $.id (est 1.0 rows, cost 2.79 us); value postings
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [x] indexed-value-scan  est 1.0 rows / 2.79 us -- equality on $.id (DataGuide frequency 50/50, ndv ~50.2)
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [~] full-scan           est 50.0 rows / 225.00 us -- always applicable
estimated rows: 1.0  actual rows: 1
plan:
  Filter ($.num > 10)  rows_in=1 rows_out=1 time=T
    IndexedValueScan ($.id = k7)  rows_in=0 rows_out=1 time=T
)golden";

constexpr char kResidualSlow[] = R"golden(access path: indexed-value-scan -- equality on scalar path $.id (est 1.0 rows, cost 2.79 us); value postings
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [x] indexed-value-scan  est 1.0 rows / 2.79 us -- equality on $.id (DataGuide frequency 50/50, ndv ~50.2)
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [~] full-scan           est 50.0 rows / 225.00 us -- always applicable
plan:
  Filter ($.num > 10)  rows_in=1 rows_out=1 time=T
    IndexedValueScan ($.id = k7)  rows_in=0 rows_out=1 time=T
)golden";

constexpr char kIsectTrace[] = R"golden(EXPLAIN ANALYZE
access path: posting-intersect-scan -- conjunction of 2 indexable predicates (est 1.0 rows, cost 1.54 us); posting-list intersection
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [~] indexed-value-scan  est 5.0 rows / 13.93 us -- equality on $.tag (DataGuide frequency 50/50, ndv ~10.0)
  [x] posting-intersect-scan est 1.0 rows / 1.54 us -- 2 index-answerable conjuncts, ~15.0 postings to merge
  [~] indexed-path-scan   est 10.0 rows / 28.00 us -- existence of $.flag (DataGuide frequency 10/50)
  [~] full-scan           est 50.0 rows / 225.00 us -- always applicable
estimated rows: 1.0  actual rows: 5
plan:
  PostingIntersectScan ($.tag = t5 AND exists($.flag) [15 postings -> 5 rows])  rows_in=0 rows_out=5 time=T
)golden";

constexpr char kIsectSlow[] = R"golden(access path: posting-intersect-scan -- conjunction of 2 indexable predicates (est 1.0 rows, cost 1.54 us); posting-list intersection
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [~] indexed-value-scan  est 5.0 rows / 13.93 us -- equality on $.tag (DataGuide frequency 50/50, ndv ~10.0)
  [x] posting-intersect-scan est 1.0 rows / 1.54 us -- 2 index-answerable conjuncts, ~15.0 postings to merge
  [~] indexed-path-scan   est 10.0 rows / 28.00 us -- existence of $.flag (DataGuide frequency 10/50)
  [~] full-scan           est 50.0 rows / 225.00 us -- always applicable
plan:
  PostingIntersectScan ($.tag = t5 AND exists($.flag) [15 postings -> 5 rows])  rows_in=0 rows_out=5 time=T
)golden";

constexpr char kPathTrace[] = R"golden(EXPLAIN ANALYZE
access path: indexed-path-scan -- existence of path $.rare (est 1.0 rows, cost 0.80 us); path postings
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [x] indexed-path-scan   est 1.0 rows / 0.80 us -- existence of $.rare (DataGuide frequency 1/50)
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 1.0  actual rows: 1
plan:
  IndexedPathScan (exists($.rare))  rows_in=0 rows_out=1 time=T
)golden";

constexpr char kPathSlow[] = R"golden(access path: indexed-path-scan -- existence of path $.rare (est 1.0 rows, cost 0.80 us); path postings
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [x] indexed-path-scan   est 1.0 rows / 0.80 us -- existence of $.rare (DataGuide frequency 1/50)
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  IndexedPathScan (exists($.rare))  rows_in=0 rows_out=1 time=T
)golden";

constexpr char kUnknownTrace[] = R"golden(EXPLAIN ANALYZE
access path: indexed-path-scan -- existence of path $.nope (est 0.0 rows, cost 0.00 us); path postings
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [x] indexed-path-scan   est 0.0 rows / 0.00 us -- existence of $.nope (DataGuide frequency 0/50)
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 0.0  actual rows: 0
plan:
  IndexedPathScan (exists($.nope))  rows_in=0 rows_out=0 time=T
)golden";

constexpr char kUnknownSlow[] = R"golden(access path: indexed-path-scan -- existence of path $.nope (est 0.0 rows, cost 0.00 us); path postings
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [x] indexed-path-scan   est 0.0 rows / 0.00 us -- existence of $.nope (DataGuide frequency 0/50)
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  IndexedPathScan (exists($.nope))  rows_in=0 rows_out=0 time=T
)golden";

constexpr char kImcTrace[] = R"golden(EXPLAIN ANALYZE
access path: imc-filter-scan -- all predicate paths materialized as virtual columns in a valid IMC store (est cost 2.50 us); vectorized FilterScan
candidates:
  [x] imc-filter-scan     est 40.0 rows / 2.50 us -- all predicate paths materialized in a valid IMC store; FilterScan at route time: 40 rows
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 40.0  actual rows: 40
plan:
  ImcFilterScan (all predicate paths materialized in a valid IMC store; FilterScan at route time: 40 rows)  rows_in=0 rows_out=40 time=T
)golden";

constexpr char kImcSlow[] = R"golden(access path: imc-filter-scan -- all predicate paths materialized as virtual columns in a valid IMC store (est cost 2.50 us); vectorized FilterScan
candidates:
  [x] imc-filter-scan     est 40.0 rows / 2.50 us -- all predicate paths materialized in a valid IMC store; FilterScan at route time: 40 rows
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  ImcFilterScan (all predicate paths materialized in a valid IMC store; FilterScan at route time: 40 rows)  rows_in=0 rows_out=40 time=T
)golden";

constexpr char kImcMissTrace[] = R"golden(EXPLAIN ANALYZE
access path: indexed-value-scan -- equality on scalar path $.id (est 1.0 rows, cost 0.80 us); value postings
candidates:
  [ ] imc-filter-scan     path $.id not materialized as a virtual column
  [x] indexed-value-scan  est 1.0 rows / 0.80 us -- equality on $.id (DataGuide frequency 50/50, ndv ~50.2)
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 1.0  actual rows: 1
plan:
  IndexedValueScan ($.id = k7)  rows_in=0 rows_out=1 time=T
)golden";

constexpr char kImcMissSlow[] = R"golden(access path: indexed-value-scan -- equality on scalar path $.id (est 1.0 rows, cost 0.80 us); value postings
candidates:
  [ ] imc-filter-scan     path $.id not materialized as a virtual column
  [x] indexed-value-scan  est 1.0 rows / 0.80 us -- equality on $.id (DataGuide frequency 50/50, ndv ~50.2)
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [~] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  IndexedValueScan ($.id = k7)  rows_in=0 rows_out=1 time=T
)golden";

constexpr char kImcUnknownTrace[] = R"golden(EXPLAIN ANALYZE
access path: full-scan -- no selective index or materialized column applies; full scan
candidates:
  [ ] imc-filter-scan     path $.nope not materialized as a virtual column
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 0.0  actual rows: 0
plan:
  Filter ($.nope = 1)  rows_in=50 rows_out=0 time=T
    Scan (W)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kImcUnknownSlow[] = R"golden(access path: full-scan -- no selective index or materialized column applies; full scan
candidates:
  [ ] imc-filter-scan     path $.nope not materialized as a virtual column
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  Filter ($.nope = 1)  rows_in=50 rows_out=0 time=T
    Scan (W)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kFullTrace[] = R"golden(EXPLAIN ANALYZE
access path: full-scan -- no selective index or materialized column applies; full scan
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 24.0  actual rows: 24
plan:
  Filter ($.num > 250)  rows_in=50 rows_out=24 time=T
    Scan (F)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kFullSlow[] = R"golden(access path: full-scan -- no selective index or materialized column applies; full scan
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  Filter ($.num > 250)  rows_in=50 rows_out=24 time=T
    Scan (F)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kNopredTrace[] = R"golden(EXPLAIN ANALYZE
access path: full-scan -- no predicates; full scan
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [x] full-scan           est 50.0 rows / 25.00 us -- always applicable
estimated rows: 50.0  actual rows: 50
plan:
  Scan (F)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kNopredSlow[] = R"golden(access path: full-scan -- no predicates; full scan
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no equality on a DataGuide-known scalar path
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [x] full-scan           est 50.0 rows / 25.00 us -- always applicable
plan:
  Scan (F)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kCheapestTrace[] = R"golden(EXPLAIN ANALYZE
access path: full-scan -- full scan estimated cheapest (est cost 125.00 us)
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [~] indexed-value-scan  est 1.0 rows / 995.79 us -- equality on $.id (DataGuide frequency 50/50, ndv ~50.2)
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 1.0  actual rows: 1
plan:
  Filter ($.id = k7)  rows_in=50 rows_out=1 time=T
    Scan (F)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kCheapestSlow[] = R"golden(access path: full-scan -- full scan estimated cheapest (est cost 125.00 us)
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [~] indexed-value-scan  est 1.0 rows / 995.79 us -- equality on $.id (DataGuide frequency 50/50, ndv ~50.2)
  [ ] posting-intersect-scan fewer than two index-answerable conjuncts
  [ ] indexed-path-scan   no existence predicate to probe
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  Filter ($.id = k7)  rows_in=50 rows_out=1 time=T
    Scan (F)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kDegradedTrace[] = R"golden(EXPLAIN ANALYZE
access path: full-scan -- posting paths unavailable (quarantined: golden test); full scan
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  quarantined: golden test
  [ ] posting-intersect-scan quarantined: golden test
  [ ] indexed-path-scan   quarantined: golden test
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 1.0  actual rows: 1
plan:
  Filter ($.id = k7)  rows_in=50 rows_out=1 time=T
    Scan (D)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kDegradedSlow[] = R"golden(access path: full-scan -- posting paths unavailable (quarantined: golden test); full scan
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  quarantined: golden test
  [ ] posting-intersect-scan quarantined: golden test
  [ ] indexed-path-scan   quarantined: golden test
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  Filter ($.id = k7)  rows_in=50 rows_out=1 time=T
    Scan (D)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kNoindexTrace[] = R"golden(EXPLAIN ANALYZE
access path: full-scan -- no selective index or materialized column applies; full scan
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no search index postings maintained
  [ ] posting-intersect-scan no search index postings maintained
  [ ] indexed-path-scan   no search index postings maintained
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
estimated rows: 1.0  actual rows: 1
plan:
  Filter ($.id = k7)  rows_in=50 rows_out=1 time=T
    Scan (N)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kNoindexSlow[] = R"golden(access path: full-scan -- no selective index or materialized column applies; full scan
candidates:
  [ ] imc-filter-scan     no valid IMC store
  [ ] indexed-value-scan  no search index postings maintained
  [ ] posting-intersect-scan no search index postings maintained
  [ ] indexed-path-scan   no search index postings maintained
  [x] full-scan           est 50.0 rows / 125.00 us -- always applicable
plan:
  Filter ($.id = k7)  rows_in=50 rows_out=1 time=T
    Scan (N)  rows_in=0 rows_out=50 time=T
)golden";

constexpr char kShardedTrace[] = R"golden(EXPLAIN ANALYZE
access path: sharded-union -- fan-out over 4 shards (est cost = max over shard costs 0.45 us + merge 0.05 us)
candidates:
  [~] shard 0 -> posting-intersect-scan est 0.3 rows / 0.45 us -- conjunction of 2 indexable predicates (est 0.3 rows, cost 0.45 us); posting-list intersection
  [~] shard 1 -> posting-intersect-scan est 0.2 rows / 0.32 us -- conjunction of 2 indexable predicates (est 0.2 rows, cost 0.32 us); posting-list intersection
  [~] shard 2 -> posting-intersect-scan est 0.2 rows / 0.32 us -- conjunction of 2 indexable predicates (est 0.2 rows, cost 0.32 us); posting-list intersection
  [~] shard 3 -> posting-intersect-scan est 0.3 rows / 0.45 us -- conjunction of 2 indexable predicates (est 0.3 rows, cost 0.45 us); posting-list intersection
  [x] sharded-union       est 1.0 rows / 0.50 us -- parallel cost = max over shards + merge
estimated rows: 1.0  actual rows: 5
plan:
  ParallelUnion (4 shards on N workers)  rows_in=5 rows_out=5 time=T
    PostingIntersectScan ($.tag = t5 AND exists($.flag) [5 postings -> 2 rows])  rows_in=0 rows_out=2 time=T [shard=0 worker=W]
    PostingIntersectScan ($.tag = t5 AND exists($.flag) [3 postings -> 1 rows])  rows_in=0 rows_out=1 time=T [shard=1 worker=W]
    PostingIntersectScan ($.tag = t5 AND exists($.flag) [3 postings -> 1 rows])  rows_in=0 rows_out=1 time=T [shard=2 worker=W]
    PostingIntersectScan ($.tag = t5 AND exists($.flag) [4 postings -> 1 rows])  rows_in=0 rows_out=1 time=T [shard=3 worker=W]
)golden";

constexpr char kShardedSlow[] = R"golden(access path: sharded-union -- fan-out over 4 shards (est cost = max over shard costs 0.45 us + merge 0.05 us)
candidates:
  [~] shard 0 -> posting-intersect-scan est 0.3 rows / 0.45 us -- conjunction of 2 indexable predicates (est 0.3 rows, cost 0.45 us); posting-list intersection
  [~] shard 1 -> posting-intersect-scan est 0.2 rows / 0.32 us -- conjunction of 2 indexable predicates (est 0.2 rows, cost 0.32 us); posting-list intersection
  [~] shard 2 -> posting-intersect-scan est 0.2 rows / 0.32 us -- conjunction of 2 indexable predicates (est 0.2 rows, cost 0.32 us); posting-list intersection
  [~] shard 3 -> posting-intersect-scan est 0.3 rows / 0.45 us -- conjunction of 2 indexable predicates (est 0.3 rows, cost 0.45 us); posting-list intersection
  [x] sharded-union       est 1.0 rows / 0.50 us -- parallel cost = max over shards + merge
plan:
  ParallelUnion (4 shards on N workers)  rows_in=5 rows_out=5 time=T
    PostingIntersectScan ($.tag = t5 AND exists($.flag) [5 postings -> 2 rows])  rows_in=0 rows_out=2 time=T [shard=0 worker=W]
    PostingIntersectScan ($.tag = t5 AND exists($.flag) [3 postings -> 1 rows])  rows_in=0 rows_out=1 time=T [shard=1 worker=W]
    PostingIntersectScan ($.tag = t5 AND exists($.flag) [3 postings -> 1 rows])  rows_in=0 rows_out=1 time=T [shard=2 worker=W]
    PostingIntersectScan ($.tag = t5 AND exists($.flag) [4 postings -> 1 rows])  rows_in=0 rows_out=1 time=T [shard=3 worker=W]
)golden";

void ExpectGolden(const Rendered& got, const char* trace,
                  const char* slow_query) {
  EXPECT_EQ(got.trace, trace);
  EXPECT_EQ(got.slow_query, slow_query);
}

PathPredicate Eq(const char* path, Value literal) {
  return PathPredicate::Compare(path, rdbms::CompareOp::kEq,
                                std::move(literal));
}

TEST_F(RouterGoldenTest, ValuePostings) {
  auto coll = Load("V", {}, 50);
  ExpectGolden(Run(*coll, {Eq("$.id", Value::String("k7"))},
                   AccessPath::kIndexedValueScan),
               kValueTrace, kValueSlow);
}

TEST_F(RouterGoldenTest, ValuePostingsUnderResidualFilter) {
  auto coll = Load("R", {}, 50);
  ExpectGolden(
      Run(*coll,
          {Eq("$.id", Value::String("k7")),
           PathPredicate::Compare("$.num", rdbms::CompareOp::kGt,
                                  Value::Int64(10))},
          AccessPath::kIndexedValueScan),
      kResidualTrace, kResidualSlow);
}

TEST_F(RouterGoldenTest, PostingIntersection) {
  auto coll = Load("I", {}, 50);
  ExpectGolden(Run(*coll,
                   {Eq("$.tag", Value::String("t5")),
                    PathPredicate::Exists("$.flag")},
                   AccessPath::kPostingIntersectScan),
               kIsectTrace, kIsectSlow);
}

TEST_F(RouterGoldenTest, PathPostings) {
  auto coll = Load("P", {}, 50);
  ExpectGolden(Run(*coll, {PathPredicate::Exists("$.rare")},
                   AccessPath::kIndexedPathScan),
               kPathTrace, kPathSlow);
}

// A path the DataGuide never saw has no interned name: its text is
// rendered at route time and must still read the same.
TEST_F(RouterGoldenTest, PathPostingsOnUnknownPath) {
  auto coll = Load("U", {}, 50);
  ExpectGolden(Run(*coll, {PathPredicate::Exists("$.nope")},
                   AccessPath::kIndexedPathScan),
               kUnknownTrace, kUnknownSlow);
}

TEST_F(RouterGoldenTest, ImcFilterScan) {
  auto coll = Load("M", {}, 50);
  ASSERT_TRUE(
      coll->AddVirtualColumn("NUM_VC", "$.num", sqljson::Returning::kNumber)
          .ok());
  ASSERT_TRUE(coll->PopulateImc().ok());
  ExpectGolden(Run(*coll,
                   {PathPredicate::Compare("$.num", rdbms::CompareOp::kGe,
                                           Value::Int64(100))},
                   AccessPath::kImcFilterScan),
               kImcTrace, kImcSlow);
}

// An IMC store that lacks a conjunct's path drops out and says which path;
// a path the guide never saw is named from the predicate's own text.
TEST_F(RouterGoldenTest, ImcStoreWithoutThePath) {
  auto coll = Load("W", {}, 50);
  ASSERT_TRUE(
      coll->AddVirtualColumn("NUM_VC", "$.num", sqljson::Returning::kNumber)
          .ok());
  ASSERT_TRUE(coll->PopulateImc().ok());
  ExpectGolden(Run(*coll, {Eq("$.id", Value::String("k7"))},
                   AccessPath::kIndexedValueScan),
               kImcMissTrace, kImcMissSlow);
  ExpectGolden(
      Run(*coll, {Eq("$.nope", Value::Int64(1))}, AccessPath::kFullScan),
      kImcUnknownTrace, kImcUnknownSlow);
}

TEST_F(RouterGoldenTest, FullScan) {
  auto coll = Load("F", {}, 50);
  ExpectGolden(Run(*coll,
                   {PathPredicate::Compare("$.num", rdbms::CompareOp::kGt,
                                           Value::Int64(250))},
                   AccessPath::kFullScan),
               kFullTrace, kFullSlow);
  ExpectGolden(Run(*coll, {}, AccessPath::kFullScan), kNopredTrace,
               kNopredSlow);
  // A measured value-posting rate that prices the lookup above the scan.
  stats::OperatorCostModel& model = stats::OperatorCostModel::Global();
  model.Reset();
  model.Record("IndexedValueScan", 1, 1000.0);
  model.set_frozen(true);
  ExpectGolden(
      Run(*coll, {Eq("$.id", Value::String("k7"))}, AccessPath::kFullScan),
      kCheapestTrace, kCheapestSlow);
}

TEST_F(RouterGoldenTest, DegradedFallback) {
  auto coll = Load("D", {}, 50);
  coll->Quarantine("golden test");
  ExpectGolden(Run(*coll, {Eq("$.id", Value::String("k7"))},
                   AccessPath::kFullScan),
               kDegradedTrace, kDegradedSlow);
}

TEST_F(RouterGoldenTest, NoIndexFallback) {
  CollectionOptions opts;
  opts.attach_search_index = false;
  auto coll = Load("N", opts, 50);
  ExpectGolden(Run(*coll, {Eq("$.id", Value::String("k7"))},
                   AccessPath::kFullScan),
               kNoindexTrace, kNoindexSlow);
}

TEST_F(RouterGoldenTest, FourShardFanOut) {
  CollectionOptions opts;
  opts.shard_count = 4;
  auto coll = Load("S", opts, 50);
  ExpectGolden(Run(*coll,
                   {Eq("$.tag", Value::String("t5")),
                    PathPredicate::Exists("$.flag")},
                   AccessPath::kShardedUnion),
               kShardedTrace, kShardedSlow);
}

}  // namespace
}  // namespace fsdm::collection
